"""Per-stage wall-clock instrumentation — a shim over the obs tracer.

Historically this module owned its own stopwatches.  It is now a thin
compatibility layer over :mod:`repro.obs`: every run and stage is timed
by a :class:`~repro.obs.spans.Span` on the runner's
:class:`~repro.obs.context.ObsContext`, and the :class:`RunTiming` /
:class:`SuiteTiming` records are *views* populated from those spans, so
``--timing`` and ``--timing-json`` keep producing byte-compatible
reports while ``--trace-out`` gets the full hierarchical trace from the
same single measurement.

Stage entry doubles as the fault-injection hook site (see
:mod:`repro.harness.faults`), and an exception escaping a stage is
tagged with the stage name so failure records can report *where* a run
died; a partially executed stage still books its elapsed time, and its
span is marked ``status="error"``.

Records survive the process boundary — parallel workers serialise their
reports and the parent merges them — so ``suite --jobs N`` accounts for
every stage of every worker.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from ..errors import InjectedFault
from ..obs import ObsContext, STAGE_SECONDS, RUN_SECONDS, FAULTS_INJECTED
from ..obs.spans import Span

#: Stage names in pipeline order (reports render in this order; stages a
#: run never entered are simply absent).
STAGE_ORDER = (
    "trace_build",
    "profiling",
    "plan_construction",
    "detailed_simulation",
    "diagnostics",
)


@dataclass
class RunTiming:
    """Stage wall times and cache outcome of one (benchmark, config) run.

    The serialisable compatibility view of one run span: stage seconds
    are booked from the stage spans' durations, ``total_seconds`` from
    the run span's.  Records rebuilt via :meth:`from_dict` (worker
    payloads, old reports) carry no span.
    """

    benchmark: str
    config_name: str
    stages: Dict[str, float] = field(default_factory=dict)
    cache_hit: bool = False
    total_seconds: float = 0.0
    #: The backing run span (absent on deserialised records).
    span: Optional[Span] = field(
        default=None, repr=False, compare=False,
    )

    def add_stage(self, name: str, seconds: float) -> None:
        """Accumulate *seconds* into stage *name* (stages may re-enter)."""
        self.stages[name] = self.stages.get(name, 0.0) + seconds

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "benchmark": self.benchmark,
            "config_name": self.config_name,
            "stages": dict(self.stages),
            "cache_hit": self.cache_hit,
            "total_seconds": self.total_seconds,
        }

    @staticmethod
    def from_dict(payload: dict) -> "RunTiming":
        """Rebuild from :meth:`to_dict` output (worker -> parent)."""
        return RunTiming(
            benchmark=payload["benchmark"],
            config_name=payload["config_name"],
            stages=dict(payload["stages"]),
            cache_hit=payload["cache_hit"],
            total_seconds=payload["total_seconds"],
        )


class SuiteTiming:
    """Collector of per-run timings plus suite-level wall clock.

    One instance lives on each :class:`ExperimentRunner`, sharing the
    runner's :class:`ObsContext` (a standalone ``SuiteTiming()`` creates
    a private one); the parallel driver merges the workers' collectors
    into the parent's.
    """

    def __init__(self, obs: Optional[ObsContext] = None) -> None:
        self.obs = obs if obs is not None else ObsContext()
        self.runs: List[RunTiming] = []
        self.wall_seconds: float = 0.0
        self.jobs: int = 1

    # ------------------------------------------------------------------
    def start_run(self, benchmark: str, config_name: str) -> RunTiming:
        """Open (and register) the record of one pipeline run.

        Opens a ``run`` span under the tracer's current span (the suite
        span, during a suite); close it via :meth:`finish_run`.
        """
        from . import faults

        span = self.obs.tracer.start_span(
            "run",
            benchmark=benchmark,
            config=config_name,
            attempt=faults.current_attempt(),
        )
        record = RunTiming(
            benchmark=benchmark, config_name=config_name, span=span
        )
        self.runs.append(record)
        return record

    def finish_run(
        self, record: RunTiming, error: Optional[BaseException] = None
    ) -> None:
        """Close a record's run span and book its total wall clock."""
        span = record.span
        if span is None:
            return
        span.end(error=error)
        span.set(cache_hit=record.cache_hit)
        record.total_seconds = span.duration
        self.obs.metrics.histogram(RUN_SECONDS).observe(span.duration)

    @contextmanager
    def run(self, benchmark: str, config_name: str) -> Iterator[RunTiming]:
        """Context manager pairing :meth:`start_run`/:meth:`finish_run`."""
        record = self.start_run(benchmark, config_name)
        try:
            yield record
        except BaseException as error:
            self.finish_run(record, error=error)
            raise
        else:
            self.finish_run(record)

    @contextmanager
    def stage(self, record: Optional[RunTiming], name: str) -> Iterator[None]:
        """Time one stage of *record* (no-op when *record* is None).

        Opens a stage span under the record's run span, carrying the
        current attempt number — a retried run therefore yields one run
        span (with fresh stage children) per attempt.
        """
        if record is None:
            yield
            return
        from . import faults

        span = self.obs.tracer.start_span(
            name, parent=record.span, attempt=faults.current_attempt()
        )
        try:
            faults.fire_stage(record.benchmark, name)
            yield
        except BaseException as error:
            if not hasattr(error, "_repro_stage"):
                error._repro_stage = name
            if isinstance(error, InjectedFault):
                self.obs.metrics.counter(FAULTS_INJECTED, site="stage").inc()
            span.end(error=error)
            raise
        else:
            span.end()
        finally:
            record.add_stage(name, span.duration)
            self.obs.metrics.histogram(
                STAGE_SECONDS, stage=name
            ).observe(span.duration)

    def merge(self, other: "SuiteTiming") -> None:
        """Fold another collector's records into this one."""
        self.runs.extend(other.runs)

    # ------------------------------------------------------------------
    @property
    def cache_hits(self) -> int:
        """Runs served entirely from the disk cache."""
        return sum(1 for r in self.runs if r.cache_hit)

    @property
    def cache_misses(self) -> int:
        """Runs that executed the pipeline."""
        return sum(1 for r in self.runs if not r.cache_hit)

    def stage_totals(self) -> Dict[str, float]:
        """Aggregate seconds per stage across all recorded runs."""
        totals: Dict[str, float] = {}
        for record in self.runs:
            for name, seconds in record.stages.items():
                totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def to_dict(self) -> dict:
        """JSON-serialisable report (the ``--timing-json`` payload)."""
        return {
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "stage_totals": self.stage_totals(),
            "runs": [record.to_dict() for record in self.runs],
        }

    @staticmethod
    def from_dict(payload: dict) -> "SuiteTiming":
        """Rebuild a collector from :meth:`to_dict` output."""
        timing = SuiteTiming()
        timing.jobs = payload.get("jobs", 1)
        timing.wall_seconds = payload.get("wall_seconds", 0.0)
        timing.runs = [RunTiming.from_dict(r) for r in payload.get("runs", [])]
        return timing

    # ------------------------------------------------------------------
    def format_report(self) -> str:
        """Human-readable per-stage breakdown (the ``--timing`` output)."""
        totals = self.stage_totals()
        ordered = [s for s in STAGE_ORDER if s in totals]
        ordered += sorted(set(totals) - set(STAGE_ORDER))
        busy = sum(totals.values())
        lines = [
            f"timing: {len(self.runs)} runs, jobs={self.jobs}, "
            f"wall {self.wall_seconds:.2f}s, "
            f"cache {self.cache_hits} hit / {self.cache_misses} miss"
        ]
        width = max((len(s) for s in ordered), default=5)
        for stage in ordered:
            seconds = totals[stage]
            share = 100.0 * seconds / busy if busy else 0.0
            lines.append(f"  {stage:<{width}}  {seconds:8.3f}s  {share:5.1f}%")
        lines.append(f"  {'(stage total)':<{width}}  {busy:8.3f}s")
        return "\n".join(lines)
