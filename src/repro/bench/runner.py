"""Benchmark execution: warm-up + measured repetitions over obs spans.

Every measured repetition is one ``bench_rep`` span under a per-case
``bench_case`` span, so a ``--trace-out`` of a bench run renders in
``repro obs report`` exactly like any other harness trace, and the
per-rep durations in the report are the span durations themselves
(monotonic ``perf_counter``, immune to wall-clock steps).
"""

from __future__ import annotations

import logging
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..backend import use_backend
from ..errors import HarnessError
from ..obs import ObsContext, register_help
from .suite import BenchCase

logger = logging.getLogger(__name__)

#: Counter: measured bench repetitions, labelled by case and backend.
BENCH_REPS = "repro_bench_reps"
register_help(BENCH_REPS, "Measured bench repetitions per case/backend.")


@dataclass(frozen=True)
class BackendTiming:
    """Measured repetitions of one case under one backend."""

    backend: str
    seconds: Sequence[float]

    @property
    def best(self) -> float:
        """Fastest rep — the conventional microbenchmark statistic."""
        return min(self.seconds)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.seconds)

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "best_seconds": self.best,
            "mean_seconds": self.mean,
            "seconds": list(self.seconds),
        }


@dataclass(frozen=True)
class CaseResult:
    """One case's timings across its backends."""

    name: str
    description: str
    reps: int
    warmup: int
    timings: Dict[str, BackendTiming] = field(default_factory=dict)

    @property
    def speedup(self) -> Optional[float]:
        """Scalar-over-vectorized best-time ratio (None without both)."""
        if "vectorized" not in self.timings or "scalar" not in self.timings:
            return None
        return self.timings["scalar"].best / self.timings["vectorized"].best

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "reps": self.reps,
            "warmup": self.warmup,
            "timings": {
                backend: timing.to_dict()
                for backend, timing in self.timings.items()
            },
            "speedup": self.speedup,
        }


def run_bench(
    cases: Sequence[BenchCase],
    scale: float,
    reps: int = 5,
    warmup: int = 1,
    obs: Optional[ObsContext] = None,
) -> List[CaseResult]:
    """Run *cases*: one setup, *warmup* unmeasured + *reps* measured runs.

    Per case and backend, the warm-up and measured runs execute inside
    one :func:`~repro.backend.use_backend` block (entered outside the
    timed region), and each measured run is timed by a ``bench_rep``
    span; the returned :class:`CaseResult` carries the span durations.
    *obs* collects the spans and the :data:`BENCH_REPS` counter (a
    private context is used when omitted).
    """
    if reps < 1:
        raise HarnessError(f"reps must be >= 1, got {reps}")
    if warmup < 0:
        raise HarnessError(f"warmup must be >= 0, got {warmup}")
    obs = obs if obs is not None else ObsContext()

    results: List[CaseResult] = []
    for case in cases:
        with obs.tracer.span("bench_case", case=case.name, scale=scale):
            with obs.tracer.span("bench_setup", case=case.name):
                payload = case.setup(scale)
            timings: Dict[str, BackendTiming] = {}
            for backend in case.backends:
                seconds: List[float] = []
                with use_backend(backend):
                    for _ in range(warmup):
                        case.run(payload)
                    for rep in range(reps):
                        with obs.tracer.span(
                            "bench_rep", case=case.name, backend=backend,
                            rep=rep,
                        ) as span:
                            case.run(payload)
                        seconds.append(float(span.duration))
                        obs.metrics.counter(
                            BENCH_REPS, case=case.name, backend=backend
                        ).inc()
                timings[backend] = BackendTiming(
                    backend=backend, seconds=tuple(seconds)
                )
                logger.info(
                    "bench %s [%s]: best %.6fs over %d reps",
                    case.name, backend, timings[backend].best, reps,
                )
        results.append(
            CaseResult(
                name=case.name,
                description=case.description,
                reps=reps,
                warmup=warmup,
                timings=timings,
            )
        )
    return results
