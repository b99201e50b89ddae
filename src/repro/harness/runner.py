"""Per-benchmark experiment pipeline.

For one benchmark and one machine configuration the runner:

1. generates the workload and unrolls its trace;
2. collects the profiles and builds each method's sampling plan
   (SimPoint, EarlySP, COASTS, multi-level);
3. makes one warmed detailed walk of the trace
   (:func:`~repro.sampling.estimate.simulate_tagged_ranges`) that books
   the full-trace baseline (the paper's "original sim-outorder" run),
   every plan's simulation points and every diagnostics phase at once,
   and reconstructs the weighted estimates;
4. attributes each method's error to its phases (diagnostics), kept
   only as the serialised ``MethodDiag.to_dict()`` records;
5. stores metrics, deviations, cost accounting and those records as one
   cache payload, from which every run is rebuilt
   (:meth:`BenchmarkRun.from_dict`), computed or cached alike.

Plans depend only on the benchmark (profiling is architecture-independent),
so each benchmark's :class:`~repro.samplers.PlanContext` — its trace,
profiles, clusterings and every built plan — is the runner's only
per-benchmark state, reused across configurations.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..config import (
    CONFIG_A,
    CONFIG_B,
    DEFAULT_COST_MODEL,
    DEFAULT_SAMPLING,
    CostModel,
    MachineConfig,
    SamplingConfig,
)
from ..detailed.results import Deviation, Metrics, SimulationResult
from ..detailed.timing import TimingSimulator
from ..engine.trace import Trace
from ..errors import HarnessError, InjectedFault
from ..obs import FAULTS_INJECTED, RUN_SECONDS, STAGE_SECONDS, ObsContext
from ..obs.diag import DIAG_METRICS, MethodDiag, attribute, record_diag_metrics
from ..obs.spans import Span, Tracer
from ..samplers import PlanContext, get_sampler, registered_methods
# simulate_point_set is not called here; benchmarks/e2e/layers.py wraps
# it under this module's name, so the import stays.
from ..sampling.estimate import (  # noqa: F401
    PointRange,
    evaluate_plan,
    plan_ranges,
    simulate_point_set,
    simulate_tagged_ranges,
)
from ..sampling.points import SamplingPlan
from ..workloads.registry import benchmark_names, load_trace
from .cache import ResultCache
from .dispatch import DEFAULT_LEASE_TIMEOUT, DispatchPool, pool_for
from .faults import corrupt_cache_entry, current_attempt, fire_stage
from .recovery import (
    DEFAULT_POLICY,
    FaultPolicy,
    RunFailure,
    SuiteJournal,
    SuiteOutcome,
    TaskLedger,
    run_tasks_serial,
)

logger = logging.getLogger(__name__)

#: The walk tag booking the whole trace: the full-run baseline.
BASELINE_TAG = "baseline"


def simulate_plans(
    simulator: TimingSimulator,
    plans: Iterable[SamplingPlan],
    baseline: bool = True,
    phases: Optional[Dict[object, List[PointRange]]] = None,
) -> Dict[object, SimulationResult]:
    """One warmed detailed walk over every leaf of *plans*.

    Each leaf range is its own tag, so the results double as the plans'
    point cache for :func:`~repro.sampling.estimate.evaluate_plan`.
    *baseline* adds the ``[0, total)`` :data:`BASELINE_TAG`; *phases*
    adds extra tags (the diagnostics' ``(method, phase)`` members).
    """
    tagged: Dict[object, List[PointRange]] = {}
    if baseline:
        tagged[BASELINE_TAG] = [(0, simulator.trace.total_instructions)]
    for plan in plans:
        for r in plan_ranges(plan):
            tagged[r] = [r]
    tagged.update(phases or {})
    return simulate_tagged_ranges(simulator, tagged)


def timing_summary(tracer: Tracer) -> dict:
    """The ``--timing`` view of *tracer*'s spans.

    Every ``run`` span (one per attempt, worker trees included once
    merged) is a run, a full cache hit when it says so; its stage
    children sum into ``stage_totals``.  Wall clock is the summed
    duration of the ``suite`` spans, and ``jobs`` the widest worker
    count any of them ran with.
    """
    runs = hits = 0
    wall = 0.0
    jobs = 1
    stages: Dict[str, float] = {}
    for span in tracer.spans():
        if span.name == "suite":
            wall += span.elapsed
            jobs = max(jobs, span.attributes["jobs"])
        elif span.name == "run":
            runs += 1
            hits += span.attributes["cache_hit"]
            for stage in span.children:
                seconds = stages.get(stage.name, 0.0)
                stages[stage.name] = seconds + stage.elapsed
    return {
        "runs": runs,
        "jobs": jobs,
        "wall_seconds": wall,
        "cache_hits": hits,
        "cache_misses": runs - hits,
        "stage_totals": stages,
    }


@dataclass(frozen=True)
class PlanStats:
    """Cost-relevant facts of one sampling plan (Table III's columns)."""

    method: str
    n_points: int
    n_leaves: int
    n_clusters: int
    detail_instructions: int
    functional_instructions: int
    mean_interval_size: float
    last_point_position: float

    @staticmethod
    def from_plan(plan: SamplingPlan) -> "PlanStats":
        """Extract the stats of *plan*."""
        return PlanStats(
            method=plan.method,
            n_points=plan.n_points,
            n_leaves=plan.n_leaves,
            n_clusters=plan.n_clusters,
            detail_instructions=plan.detail_instructions,
            functional_instructions=plan.functional_instructions,
            mean_interval_size=plan.mean_interval_size,
            last_point_position=plan.last_point_position,
        )


@dataclass(frozen=True)
class MethodResult:
    """One sampling method's outcome on one benchmark and config."""

    stats: PlanStats
    estimate: Metrics
    deviation: Deviation


@dataclass(frozen=True)
class BenchmarkRun:
    """Everything measured for one (benchmark, machine config) pair."""

    benchmark: str
    config_name: str
    total_instructions: int
    baseline: Metrics
    methods: Dict[str, MethodResult]
    #: Per-method accuracy diagnostics (per-phase error attribution and
    #: clustering-quality telemetry) of every method whose sampler
    #: returns a clustering diag, as stored: ``{method:
    #: MethodDiag.to_dict()}``.  Only :mod:`repro.obs.diag` converts
    #: between these records and :class:`~repro.obs.diag.MethodDiag`.
    diagnostics: Dict[str, dict] = field(default_factory=dict)
    #: True when :meth:`ExperimentRunner.run_benchmark` served this run
    #: whole from the result cache.  Bookkeeping, not result: it is left
    #: out of ``==`` and of :meth:`to_dict`, and the suite journal skips
    #: cached runs (the cache re-serves them on ``--resume``).
    cached: bool = field(default=False, compare=False)

    # ------------------------------------------------------------------
    def simulation_time(
        self,
        method: str,
        model: CostModel = DEFAULT_COST_MODEL,
        include_profiling: bool = False,
    ) -> float:
        """Modelled simulation time of *method* on this benchmark."""
        stats = self._stats(method)
        time = (
            stats.detail_instructions * model.detail_cost
            + stats.functional_instructions * model.functional_cost
        )
        if include_profiling:
            time += self.total_instructions * model.profile_cost
        return time

    def speedup(
        self,
        method: str,
        over: str = "simpoint",
        model: CostModel = DEFAULT_COST_MODEL,
        include_profiling: bool = False,
    ) -> float:
        """Speedup of *method* over the *over* method (paper's Figs 3/4)."""
        return self.simulation_time(over, model, include_profiling) / \
            self.simulation_time(method, model, include_profiling)

    def speedup_over_full(
        self,
        method: str,
        model: CostModel = DEFAULT_COST_MODEL,
        include_profiling: bool = False,
    ) -> float:
        """Speedup of *method* over full-trace detailed simulation.

        The leaderboard's speedup axis: every method is compared against
        the same denominator (``total_instructions * detail_cost``), so
        rankings do not depend on which other methods ran.
        """
        self._stats(method)  # raise early on an absent method
        full = self.total_instructions * model.detail_cost
        return full / self.simulation_time(method, model, include_profiling)

    def _stats(self, method: str) -> PlanStats:
        if method not in self.methods:
            raise HarnessError(
                f"method {method!r} absent from run (have "
                f"{', '.join(self.methods)})"
            )
        return self.methods[method].stats

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable form.

        ``Metrics``, ``Deviation`` and ``PlanStats`` hold only scalar
        fields, so a shallow ``vars`` copy is their ``asdict`` (same keys,
        same order) without its recursive deep copy.
        """
        return {
            "benchmark": self.benchmark,
            "config_name": self.config_name,
            "total_instructions": self.total_instructions,
            "baseline": dict(vars(self.baseline)),
            "methods": {
                name: {
                    "stats": dict(vars(result.stats)),
                    "estimate": dict(vars(result.estimate)),
                    "deviation": dict(vars(result.deviation)),
                }
                for name, result in self.methods.items()
            },
            "diagnostics": dict(self.diagnostics),
        }

    @staticmethod
    def from_dict(payload: dict) -> "BenchmarkRun":
        """Rebuild from :meth:`to_dict` output."""
        return BenchmarkRun(
            benchmark=payload["benchmark"],
            config_name=payload["config_name"],
            total_instructions=payload["total_instructions"],
            baseline=Metrics(**payload["baseline"]),
            methods={
                name: MethodResult(
                    stats=PlanStats(**data["stats"]),
                    estimate=Metrics(**data["estimate"]),
                    deviation=Deviation(**data["deviation"]),
                )
                for name, data in payload["methods"].items()
            },
            diagnostics=dict(payload.get("diagnostics", {})),
        )


class ExperimentRunner:
    """Drive the full pipeline with caching and in-process memoisation."""

    def __init__(
        self,
        sampling: SamplingConfig = DEFAULT_SAMPLING,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        cache: Optional[ResultCache] = None,
        workload_scale: float = 1.0,
        methods: Optional[Iterable[str]] = None,
        jobs: int = 1,
        policy: Optional[FaultPolicy] = None,
    ) -> None:
        self.sampling = sampling
        self.cost_model = cost_model
        self.cache = cache if cache is not None else ResultCache()
        self.workload_scale = workload_scale
        #: Methods this runner evaluates; defaults to every sampler
        #: registered (at construction time) with repro.samplers.
        registered = registered_methods()
        self.methods = tuple(methods) if methods is not None else registered
        unknown = set(self.methods) - set(registered)
        if unknown:
            raise HarnessError(
                f"unknown methods: {sorted(unknown)} "
                f"(registered: {', '.join(registered)})"
            )
        if jobs < 0:
            raise HarnessError(f"jobs must be >= 0, got {jobs}")
        #: Default worker count for :meth:`run_suite` (overridable per
        #: call; 0 means one worker per CPU).
        self.jobs = jobs
        #: Worker launch command (``None``: this interpreter running
        #: ``-m repro.harness.worker``) and lease timeout of the
        #: :class:`~repro.harness.dispatch.DispatchPool` that runs
        #: ``jobs > 1``.
        self.launcher: Optional[str] = None
        self.lease_timeout = DEFAULT_LEASE_TIMEOUT
        #: Default fault policy for :meth:`run_suite` (retries, per-run
        #: timeout, fail_fast; overridable per call).
        self.policy = policy if policy is not None else DEFAULT_POLICY
        #: Default resume behaviour for :meth:`run_suite`.
        self.resume = False
        #: Final (post-retry) failures accumulated across every
        #: :meth:`run_suite` call on this runner — the CLI and experiment
        #: drivers read this for exit codes and failure reports.
        self.failures: List["RunFailure"] = []
        #: This runner's observability context: every span (suite, run,
        #: stage) and metric (cache traffic, retries, simulator work)
        #: lands here; workers ship theirs back for merging.
        self.obs = ObsContext()
        self.cache.bind_metrics(self.obs.metrics)
        #: Live telemetry plane (:class:`~repro.obs.stream.TelemetryPlane`)
        #: attached by the CLI's ``--serve``/``--events-out``; ``None``
        #: keeps every telemetry hook a no-op.  Strictly out-of-band:
        #: results are identical with or without a plane.
        self.telemetry = None
        #: The one per-benchmark memo: each benchmark's
        #: :class:`~repro.samplers.PlanContext` holds its trace, profiles,
        #: clusterings and built plans.
        self._contexts: Dict[str, PlanContext] = {}

    # ------------------------------------------------------------------
    def context(self, benchmark: str) -> PlanContext:
        """The (memoised) :class:`~repro.samplers.PlanContext` of
        *benchmark*; the first call loads its trace.

        Suite and family benchmarks unroll at the runner's workload
        scale; ``import:`` benchmarks return their validated external
        arrays at the scale they were exported at (see
        :mod:`repro.workloads.trace_import`).
        """
        context = self._contexts.get(benchmark)
        if context is None:
            trace = load_trace(
                benchmark, scale=self.workload_scale,
                metrics=self.obs.metrics,
            )
            context = PlanContext(
                trace, self.sampling, benchmark, obs=self.obs
            )
            self._contexts[benchmark] = context
        return context

    def trace(self, benchmark: str) -> Trace:
        """The (memoised) trace of *benchmark*."""
        return self.context(benchmark).trace

    def plans(
        self,
        benchmark: str,
        methods: Optional[Iterable[str]] = None,
    ) -> Dict[str, SamplingPlan]:
        """The requested sampling plans for *benchmark* (memoised).

        *methods* defaults to the runner's; only plans the benchmark's
        context has not built yet are built (through each method's
        registered :class:`~repro.samplers.SamplerSpec`), so incremental
        requests never re-cluster, and a request with nothing missing
        opens no stage span.
        """
        requested = tuple(methods) if methods is not None else self.methods
        context = self.context(benchmark)
        specs = [
            get_sampler(name) for name in requested
            if name not in context.built
        ]
        if (
            any("fine" in spec.requires for spec in specs)
            and not context.has_fine_profile
        ):
            with self._stage(benchmark, "profiling"):
                context.fine_profile()
        if specs:
            # The coarse samplers profile internally; their time lands in
            # plan_construction (the fine BBV pass dominates profiling).
            with self._stage(benchmark, "plan_construction"):
                for spec in specs:
                    context.plan(spec)
        return {name: context.built[name][0] for name in requested}

    @contextmanager
    def _stage(self, benchmark: str, name: str) -> Iterator[Span]:
        """Time one pipeline stage as a span (under the open run span).

        Stage entry is the fault-injection hook site; an exception
        escaping the stage is tagged with the stage name, so failure
        records report where a run died.  The span's duration also
        feeds the ``repro_stage_seconds`` histogram.
        """
        try:
            with self.obs.tracer.span(name, attempt=current_attempt()) as span:
                fire_stage(benchmark, name)
                yield span
        except BaseException as error:
            if not hasattr(error, "_repro_stage"):
                error._repro_stage = name
            if isinstance(error, InjectedFault):
                self.obs.metrics.counter(FAULTS_INJECTED, site="stage").inc()
            raise
        finally:
            self.obs.metrics.histogram(
                STAGE_SECONDS, stage=name
            ).observe(span.duration)

    @contextmanager
    def _run_span(self, benchmark: str, config_name: str) -> Iterator[Span]:
        """One attempt of one run as a span; its duration feeds the
        ``repro_run_seconds`` histogram, on success and on error."""
        try:
            with self.obs.tracer.span(
                "run", benchmark=benchmark, config=config_name,
                attempt=current_attempt(), cache_hit=False,
            ) as span:
                yield span
        finally:
            self.obs.metrics.histogram(RUN_SECONDS).observe(span.duration)

    # ------------------------------------------------------------------
    def _cache_key(self, benchmark: str, config: MachineConfig) -> str:
        from ..workloads.registry import get_spec

        # The spec repr fingerprints the workload definition, so cached
        # results are invalidated whenever the suite is re-tuned.  The
        # method set is deliberately NOT part of the key: one entry per
        # (benchmark, config) accumulates methods, so growing the
        # requested set is a partial hit (compute only the missing
        # methods), not a full recompute.
        return (
            f"run:{benchmark}:{get_spec(benchmark).fingerprint}:{config!r}:"
            f"{self.sampling!r}:scale={self.workload_scale}"
        )

    def run_benchmark(
        self, benchmark: str, config: MachineConfig = CONFIG_A
    ) -> BenchmarkRun:
        """Full pipeline for one benchmark and config (disk-cached).

        All detailed numbers come from one warmed walk from cold state:
        a ``[0, total)`` baseline tag, one tag per leaf and one per
        (method, phase).  The detailed model is split-additive at the
        walk's rep-aligned cuts, so a method's estimate, deviation and
        diagnostics do not depend on which other methods share the walk.

        The cache entry is keyed per (benchmark, config) and accumulates
        methods: a request whose method set is covered by the entry is a
        pure hit; a request that grows the set computes *only* the
        missing methods — its walk omits the baseline tag, reuses the
        cached baseline and stops at the last new range end — and
        re-publishes the merged entry.  Either way the run is the stored
        payload restricted to this runner's methods, published once on
        the run span and gauges and rebuilt with
        :meth:`BenchmarkRun.from_dict`.
        """
        with self._run_span(benchmark, config.name) as span:
            key = self._cache_key(benchmark, config)
            stored = self.cache.get(key) or None
            compute = [
                name for name in self.methods
                if stored is None or name not in stored["methods"]
            ]
            if compute:
                if stored is not None:
                    logger.debug(
                        "[%s] %s: partial cache hit (computing %s)",
                        config.name, benchmark, ", ".join(compute),
                    )
                if self.telemetry is not None:
                    self.telemetry.events.emit(
                        "cache_miss", benchmark=benchmark,
                        config=config.name, methods=len(compute),
                    )
                stored = self._compute(benchmark, config, compute, stored)
                self.cache.put(key, stored)
                # Fault-injection hook: tests corrupt the just-published
                # entry to prove torn cache files are quarantined, not
                # trusted (no-op unless $REPRO_FAULTS configures a
                # `corrupt` fault).
                corrupt_cache_entry(self.cache, key, benchmark)
            else:
                span.set(cache_hit=True)
                logger.debug("[%s] %s: cache hit", config.name, benchmark)
                if self.telemetry is not None:
                    self.telemetry.events.emit(
                        "cache_hit", benchmark=benchmark, config=config.name,
                    )
            diagnostics = stored["diagnostics"]
            payload = dict(
                stored,
                methods={name: stored["methods"][name]
                         for name in self.methods},
                diagnostics={name: diagnostics[name]
                             for name in self.methods if name in diagnostics},
            )
            record_diag_metrics(
                self.obs.metrics, span, config.name, payload["diagnostics"]
            )
            return replace(
                BenchmarkRun.from_dict(payload), cached=not compute
            )

    def _compute(
        self,
        benchmark: str,
        config: MachineConfig,
        compute: List[str],
        stored: Optional[dict],
    ) -> dict:
        """The stored payload *stored* (``None`` when cold) grown by the
        *compute* methods, in :meth:`BenchmarkRun.to_dict` form."""
        with self._stage(benchmark, "trace_build"):
            trace = self.trace(benchmark)
        plans = self.plans(benchmark, methods=compute)
        built = self._contexts[benchmark].built
        plan_diags = {
            name: built[name][1] for name in compute
            if built[name][1] is not None
        }

        with self._stage(benchmark, "detailed_simulation"):
            simulator = TimingSimulator(
                trace, config, metrics=self.obs.metrics
            )
            results = simulate_plans(
                simulator, plans.values(), baseline=stored is None,
                phases={
                    (name, phase): bounds
                    for name, diag in plan_diags.items()
                    for phase, bounds in diag.members.items()
                },
            )
            baseline = (
                results[BASELINE_TAG].metrics() if stored is None
                else Metrics(**stored["baseline"])
            )
            methods: Dict[str, MethodResult] = {}
            for name in compute:
                plan = plans[name]
                evaluation = evaluate_plan(
                    plan, simulator, baseline, cache=results
                )
                methods[name] = MethodResult(
                    stats=PlanStats.from_plan(plan),
                    estimate=evaluation.estimate,
                    deviation=evaluation.deviation,
                )

        with self._stage(benchmark, "diagnostics"):
            diags = self._diagnose(
                plan_diags, plans, results, baseline, methods
            )

        computed = BenchmarkRun(
            benchmark=benchmark,
            config_name=config.name,
            total_instructions=trace.total_instructions,
            baseline=baseline,
            methods=methods,
            diagnostics=diags,
        ).to_dict()
        if stored is None:
            return computed
        return dict(
            stored,
            methods={**stored["methods"], **computed["methods"]},
            diagnostics={**stored["diagnostics"], **computed["diagnostics"]},
        )

    @staticmethod
    def _diagnose(
        diags: Dict[str, MethodDiag],
        plans: Dict[str, SamplingPlan],
        results: Dict[object, SimulationResult],
        baseline: Metrics,
        methods: Dict[str, MethodResult],
    ) -> Dict[str, dict]:
        """The attributed diagnostics of every method in *diags*, as
        ``MethodDiag.to_dict()`` records.

        True per-phase metric means are the walk's ``(method, phase)``
        tags and the representative terms its leaf tags (both in
        *results*).  The attribution decomposes each method's signed
        deviation into per-phase contributions plus an exact residual;
        the plan-time records in *diags* are left as they are.
        """
        attributed: Dict[str, dict] = {}
        for name, diag in diags.items():
            plan = plans[name]
            weight_total = sum(
                leaf.weight for leaf in plan.leaves() if leaf.weight > 0
            )
            rep_terms: Dict[int, Dict[str, float]] = {}
            for point in plan.points:
                term = rep_terms.setdefault(
                    point.phase, {m: 0.0 for m in DIAG_METRICS}
                )
                for leaf in point.leaves():
                    if leaf.weight <= 0:
                        continue
                    m = results[(leaf.start, leaf.end)].metrics()
                    term["cpi"] += leaf.weight * m.cpi
                    term["l1"] += leaf.weight * m.l1_hit_rate
                    term["l2"] += leaf.weight * m.l2_hit_rate
            phase_values: Dict[int, Dict[str, float]] = {}
            for phase in diag.members:
                result = results.get((name, phase))
                if result is None or result.instructions <= 0:
                    continue
                phase_values[phase] = {
                    "cpi": result.cpi,
                    "l1": result.l1_hit_rate,
                    "l2": result.l2_hit_rate,
                }
            est = methods[name].estimate
            attributed[name] = attribute(
                diag,
                baseline={
                    "cpi": baseline.cpi,
                    "l1": baseline.l1_hit_rate,
                    "l2": baseline.l2_hit_rate,
                },
                estimate={
                    "cpi": est.cpi,
                    "l1": est.l1_hit_rate,
                    "l2": est.l2_hit_rate,
                },
                rep_terms=rep_terms,
                phase_values=phase_values,
                weight_total=weight_total,
            ).to_dict()
        return attributed

    def run_suite(
        self,
        config: MachineConfig = CONFIG_A,
        names: Optional[Iterable[str]] = None,
        quick: bool = False,
        progress: bool = False,
        jobs: Optional[int] = None,
        policy: Optional[FaultPolicy] = None,
        resume: Optional[bool] = None,
        journal: object = None,
        pool: Optional[DispatchPool] = None,
    ) -> SuiteOutcome:
        """Run every benchmark (or *names*) under *config*.

        *names* is a list of benchmark names, or a single string treated
        as a set expression (``'phase-heavy + fam:irregular[0:4]'``)
        resolved through :func:`repro.workloads.sets.resolve`.

        With ``jobs > 1`` and more than one run to do, the per-benchmark
        pipelines fan out over that many ``python -m
        repro.harness.worker`` subprocesses under lease-based dispatch
        (see :mod:`repro.harness.dispatch`; :attr:`launcher` and
        :attr:`lease_timeout` configure them); otherwise they run
        in-process.  Results are identical either way and arrive in
        suite order.  ``jobs`` defaults to the runner's construction-time
        value; ``jobs=0`` means one worker per CPU.  *progress* logs
        per-benchmark lines at INFO level (see the CLI's ``-v``).  An
        explicit *pool* runs every task on that
        :class:`~repro.harness.dispatch.DispatchPool` instead.

        Execution is fault-tolerant: a failing run is retried per
        *policy* (default: the runner's) and, if it keeps failing,
        recorded as a :class:`RunFailure` on the returned
        :class:`SuiteOutcome` instead of aborting the suite (iterate the
        outcome for the completed runs; ``policy.fail_fast`` restores
        abort semantics).  Progress is checkpointed to a JSONL *journal*
        next to the result cache (pass ``journal=False`` to disable, or
        a path to relocate it); with ``resume=True`` runs already
        journaled by an identical earlier invocation are skipped and
        only failed or missing ones execute.
        """
        if names is None:
            chosen = benchmark_names(quick=quick)
        elif isinstance(names, str):
            # A set expression ('phase-heavy + fam:irregular[0:4]'), see
            # repro.workloads.sets for the grammar.
            from ..workloads.sets import resolve

            chosen = list(resolve(names))
        else:
            chosen = list(names)
        jobs = self.jobs if jobs is None else jobs
        policy = policy if policy is not None else self.policy
        resume = self.resume if resume is None else resume
        tasks = [(name, config) for name in chosen]

        suite_journal = self._resolve_journal(journal, config, chosen)
        preloaded: Dict[int, BenchmarkRun] = {}
        if suite_journal is not None:
            if resume:
                suite_journal.load()
                completed = suite_journal.completed()
                suite_journal.drop_failures()
                for index, (name, _) in enumerate(tasks):
                    payload = completed.get((name, config.name))
                    if payload is not None:
                        preloaded[index] = BenchmarkRun.from_dict(payload)
                if preloaded:
                    logger.info(
                        "resume: %d of %d runs restored from %s",
                        len(preloaded), len(tasks), suite_journal.path,
                    )
            else:
                suite_journal.reset()

        plane = self.telemetry

        def _journal_run(_: int, run: BenchmarkRun) -> None:
            # A full cache hit is already stored: --resume re-serves it
            # from the cache, so only computed runs cost a journal line.
            if suite_journal is not None and not run.cached:
                suite_journal.record_run(
                    run.benchmark, run.config_name, run.to_dict()
                )
            if plane is not None:
                plane.progress.run_done(run.benchmark)
                plane.events.emit(
                    "run_done", benchmark=run.benchmark,
                    config=run.config_name,
                )

        def _journal_failure(_: int, failure) -> None:
            if suite_journal is not None:
                suite_journal.record_failure(failure)
            if plane is not None:
                plane.progress.run_failed(failure.benchmark)
                plane.events.emit(
                    "run_failed", benchmark=failure.benchmark,
                    config=failure.config_name, error=failure.error_type,
                )

        ledger = TaskLedger(
            tasks, policy, metrics=self.obs.metrics,
            events=plane.events if plane is not None else None,
            progress=progress, on_run=_journal_run,
            on_failure=_journal_failure, restored=preloaded,
        )
        remaining = len(ledger.pending())
        if pool is None:
            pool = pool_for(
                jobs, remaining, launcher=self.launcher,
                lease_timeout=self.lease_timeout,
            )

        if plane is not None:
            plane.progress.begin_suite(
                len(tasks), resumed=len(preloaded)
            )
            plane.events.emit(
                "suite_begin", config=config.name, runs=len(tasks),
                resumed=len(preloaded), jobs=jobs,
                backend=pool.describe() if pool is not None else "serial",
            )
        try:
            # The suite span is the parent of every run span below it —
            # serial runs nest directly; worker span trees are grafted
            # under it as their payloads merge.  Its ``jobs`` is the
            # worker count the runs actually got (1 when serial).
            with self.obs.tracer.span(
                "suite",
                config=config.name,
                jobs=pool.workers if remaining and pool is not None else 1,
                benchmarks=remaining,
                resumed=len(preloaded),
            ):
                if pool is not None:
                    pool.run_tasks(self, ledger)
                else:
                    run_tasks_serial(self, ledger)
        finally:
            if plane is not None:
                plane.progress.end_suite()
                plane.events.emit("suite_end", config=config.name)

        outcome = ledger.outcome()
        self.failures.extend(outcome.failures)
        return outcome

    def _resolve_journal(
        self, journal: object, config: MachineConfig, names: List[str]
    ) -> Optional[SuiteJournal]:
        """Interpret ``run_suite``'s *journal* argument.

        ``None`` means the default: a journal next to the cache whenever
        caching is enabled (there is no sensible location otherwise).
        ``False`` disables journaling; a path relocates the file.
        """
        if journal is False:
            return None
        if journal is None:
            if not self.cache.enabled:
                return None
            return SuiteJournal.for_suite(
                self.cache.directory, self, config, names
            )
        if isinstance(journal, SuiteJournal):
            return journal
        from .recovery import suite_fingerprint

        return SuiteJournal(
            Path(journal), suite_fingerprint(self, config, names),
            metrics=self.obs.metrics,
        )


#: The two Table I configurations, in reporting order.
BOTH_CONFIGS: Tuple[MachineConfig, ...] = (CONFIG_A, CONFIG_B)
