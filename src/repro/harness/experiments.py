"""Experiment drivers: one function per paper table / figure plus ablations.

Every driver returns plain dataclasses of numbers (render with
:mod:`repro.harness.tables`); the benchmark scripts under ``benchmarks/``
call these and print the regenerated table or figure series.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.bbv import normalize_rows
from ..analysis.distance import nearest_to_centroid
from ..analysis.pca import first_component
from ..config import CONFIG_A, DEFAULT_SAMPLING, MachineConfig, SamplingConfig
from ..detailed.results import Deviation
from ..detailed.timing import TimingSimulator
from ..errors import HarnessError
from ..samplers import get_sampler
from ..sampling.coasts import Coasts
from ..sampling.estimate import evaluate_plan
from ..sampling.multilevel import MultiLevelSampler
from ..sampling.points import SamplingPlan
from ..sampling.simpoint import SimPoint
from ..workloads.registry import benchmark_names
from .recovery import RunFailure
from .runner import (
    BASELINE_TAG,
    BenchmarkRun,
    ExperimentRunner,
    simulate_plans,
)
from .tables import arithmetic_mean, geomean

logger = logging.getLogger(__name__)

# ----------------------------------------------------------------------
# Figures 3 and 4: speedup over SimPoint
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SpeedupSeries:
    """Per-benchmark speedups of one method over another (Figs 3/4).

    Benchmarks whose pipeline failed (after retries) appear in
    ``failures`` instead of ``speedups``; the geomean covers completed
    rows only, so a partial campaign still yields its headline number.
    """

    method: str
    over: str
    config_name: str
    speedups: Dict[str, float]
    failures: Tuple[RunFailure, ...] = ()

    @property
    def geomean(self) -> float:
        """Geometric-mean speedup over completed benchmarks."""
        return geomean(self.speedups.values())


def speedup_experiment(
    runner: ExperimentRunner,
    method: str,
    over: str = "simpoint",
    config: MachineConfig = CONFIG_A,
    names: Optional[Iterable[str]] = None,
    progress: bool = False,
    jobs: Optional[int] = None,
) -> SpeedupSeries:
    """Figure 3 (method='coasts') / Figure 4 (method='multilevel').

    Failed runs are carried on the returned series (strict behaviour —
    abort on first final failure — comes from a ``fail_fast`` policy on
    the runner).
    """
    outcome = runner.run_suite(config, names=names, progress=progress,
                               jobs=jobs)
    return SpeedupSeries(
        method=method,
        over=over,
        config_name=config.name,
        speedups={
            run.benchmark: run.speedup(method, over=over, model=runner.cost_model)
            for run in outcome
        },
        failures=outcome.failures,
    )


# ----------------------------------------------------------------------
# Table II: deviation comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DeviationCell:
    """Average and worst deviation of one (metric, method, config) cell."""

    average: float
    worst: float
    worst_benchmark: str


@dataclass(frozen=True)
class AccuracyTable:
    """The Table II reproduction.

    ``cells[(metric, method, config_name)]`` with metric in
    {"cpi", "l1_hit_rate", "l2_hit_rate"}.  CPI deviations are relative;
    hit-rate deviations are absolute differences (fractions), both as in
    the paper.  Averages are arithmetic (deviations may legitimately be
    ~0, which a geometric mean cannot aggregate).
    """

    cells: Dict[Tuple[str, str, str], DeviationCell]
    methods: Tuple[str, ...]
    config_names: Tuple[str, ...]
    failures: Tuple[RunFailure, ...] = ()

    METRICS: Tuple[str, ...] = field(
        default=("cpi", "l1_hit_rate", "l2_hit_rate")
    )


def accuracy_experiment(
    runner: ExperimentRunner,
    configs: Sequence[MachineConfig],
    methods: Sequence[str] = ("coasts", "simpoint", "multilevel"),
    names: Optional[Iterable[str]] = None,
    progress: bool = False,
    jobs: Optional[int] = None,
) -> AccuracyTable:
    """Table II: CPI / L1 / L2 deviations per method under both configs.

    Averages and worst cases cover completed runs only; failed runs (per
    config) are collected on the table's ``failures``.
    """
    cells: Dict[Tuple[str, str, str], DeviationCell] = {}
    failures: List[RunFailure] = []
    for config in configs:
        outcome = runner.run_suite(config, names=names, progress=progress,
                                   jobs=jobs)
        failures.extend(outcome.failures)
        runs = outcome.runs
        if not runs:
            raise HarnessError(
                f"no run of config {config.name} completed:\n"
                + outcome.failure_summary()
            )
        for metric in ("cpi", "l1_hit_rate", "l2_hit_rate"):
            for method in methods:
                deviations = {
                    run.benchmark: getattr(run.methods[method].deviation, metric)
                    for run in runs
                }
                worst_benchmark = max(deviations, key=deviations.get)
                cells[(metric, method, config.name)] = DeviationCell(
                    average=arithmetic_mean(deviations.values()),
                    worst=deviations[worst_benchmark],
                    worst_benchmark=worst_benchmark,
                )
    return AccuracyTable(
        cells=cells,
        methods=tuple(methods),
        config_names=tuple(c.name for c in configs),
        failures=tuple(failures),
    )


# ----------------------------------------------------------------------
# Table III: simulation point statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StatisticsRow:
    """One Table III row: aggregate point statistics of one method."""

    method: str
    mean_interval_size: float
    mean_sample_number: float
    mean_detail_fraction: float
    mean_functional_fraction: float


def statistics_experiment(
    runner: ExperimentRunner,
    config: MachineConfig = CONFIG_A,
    methods: Sequence[str] = ("coasts", "simpoint", "multilevel"),
    names: Optional[Iterable[str]] = None,
    progress: bool = False,
    jobs: Optional[int] = None,
) -> List[StatisticsRow]:
    """Table III: geometric means of interval size, sample count and the
    detail / functional instruction fractions.

    Geomeans cover completed runs only (failures are recorded on
    ``runner.failures``); with zero completed runs this raises."""
    outcome = runner.run_suite(config, names=names, progress=progress,
                               jobs=jobs)
    runs = outcome.runs
    if not runs:
        raise HarnessError(
            "no run completed:\n" + outcome.failure_summary()
        )
    rows: List[StatisticsRow] = []
    for method in methods:
        stats = [run.methods[method].stats for run in runs]
        totals = [run.total_instructions for run in runs]
        rows.append(
            StatisticsRow(
                method=method,
                mean_interval_size=geomean(s.mean_interval_size for s in stats),
                mean_sample_number=geomean(s.n_leaves for s in stats),
                mean_detail_fraction=geomean(
                    max(s.detail_instructions / t, 1e-12)
                    for s, t in zip(stats, totals)
                ),
                mean_functional_fraction=geomean(
                    max(s.functional_instructions / t, 1e-12)
                    for s, t in zip(stats, totals)
                ),
            )
        )
    return rows


# ----------------------------------------------------------------------
# Section III-B motivation statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MotivationRow:
    """Coarse-phase facts for one benchmark (Section III-B)."""

    benchmark: str
    phase_count: int
    last_point_position: float
    n_intervals: int
    mean_interval_size: float


def motivation_experiment(
    runner: ExperimentRunner,
    kmax: int = 10,
    names: Optional[Iterable[str]] = None,
    progress: bool = False,
    bic_threshold: float = 0.6,
) -> List[MotivationRow]:
    """Natural coarse-phase counts and last-point positions.

    Uses a raised Kmax (10) so the clustering can discover more than the
    default 3 phases — this is how the paper's motivation numbers (gzip 4,
    equake 6, fma3d 5, average 3) were measured, while the COASTS default
    for sampling remains ``Kmax = 3``.  The BIC threshold is lowered to the
    knee (0.6): phase *counting* wants the number of distinct behaviours,
    not the finest clustering the BIC range admits.
    """
    sampling = replace(runner.sampling, coarse_kmax=kmax,
                       bic_threshold=bic_threshold)
    rows: List[MotivationRow] = []
    for name in list(names) if names is not None else benchmark_names():
        if progress:
            logger.info("[motivation] %s ...", name)
        trace = runner.trace(name)
        plan = Coasts(sampling).sample(trace, benchmark=name)
        rows.append(
            MotivationRow(
                benchmark=name,
                phase_count=plan.n_clusters,
                last_point_position=plan.last_point_position,
                n_intervals=len(trace.outer_bounds()),
                mean_interval_size=plan.mean_interval_size,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Family campaigns: accuracy aggregated per population group
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignGroup:
    """Per-method CPI-deviation aggregates over one population group.

    A group is one seeded family (``fam:<name>``) or the hand-written
    suite benchmarks the expression pulled in (``suite``).  Deviations
    are absolute relative CPI errors, so methods are comparable across
    groups whose baselines differ wildly.
    """

    group: str
    benchmarks: Tuple[str, ...]
    mean_cpi_deviation: Dict[str, float]
    worst_cpi_deviation: Dict[str, float]


@dataclass(frozen=True)
class CampaignResult:
    """A set-expression campaign: every run, grouped for reporting."""

    expression: str
    names: Tuple[str, ...]
    groups: Tuple[CampaignGroup, ...]
    runs: Tuple[BenchmarkRun, ...]
    failures: Tuple[RunFailure, ...] = ()


def campaign_experiment(
    runner: ExperimentRunner,
    expression: str,
    config: MachineConfig = CONFIG_A,
    progress: bool = False,
    jobs: Optional[int] = None,
) -> CampaignResult:
    """Run the population a set expression selects; aggregate per group.

    This is the scale companion of :func:`accuracy_experiment`: instead
    of the 16 hand-written benchmarks it takes an arbitrary expression
    (``'phase-heavy + fam:irregular[0:32]'``) and reports how each
    sampling method degrades along each family's stress axis.  Family
    members group under ``fam:<family>``; suite benchmarks under
    ``suite``.  Groups preserve first-appearance order of the resolved
    names, so reports are stable across runs.
    """
    from ..workloads import families
    from ..workloads.sets import resolve

    names = resolve(expression)
    outcome = runner.run_suite(config, names=list(names),
                               progress=progress, jobs=jobs)
    grouped: Dict[str, List[BenchmarkRun]] = {}
    for run in outcome:
        member = families.parse_member_name(run.benchmark)
        key = f"fam:{member[0]}" if member else "suite"
        grouped.setdefault(key, []).append(run)
    groups = []
    for key, runs in grouped.items():
        methods = [m for m in runner.methods if m in runs[0].methods]
        deviations = {
            m: [abs(r.methods[m].deviation.cpi) for r in runs]
            for m in methods
        }
        groups.append(CampaignGroup(
            group=key,
            benchmarks=tuple(r.benchmark for r in runs),
            mean_cpi_deviation={
                m: arithmetic_mean(v) for m, v in deviations.items()
            },
            worst_cpi_deviation={m: max(v) for m, v in deviations.items()},
        ))
    return CampaignResult(
        expression=expression,
        names=tuple(names),
        groups=tuple(groups),
        runs=tuple(outcome),
        failures=outcome.failures,
    )


# ----------------------------------------------------------------------
# Figure 1: granularity study
# ----------------------------------------------------------------------
def _roughness(values: np.ndarray) -> float:
    """Mean |step| of a curve, normalised by its spread.

    ~0 for smooth slowly-varying curves, ~1.4 for white noise; scale-free,
    so fine and coarse curves (different PCA fits) are comparable."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 2:
        return 0.0
    spread = values.std()
    if spread == 0:
        return 0.0
    return float(np.abs(np.diff(values)).mean() / spread)



@dataclass(frozen=True)
class GranularitySeries:
    """Figure 1's data: first PCA component per interval + chosen points."""

    benchmark: str
    fine_values: np.ndarray
    fine_selected: Tuple[int, ...]
    coarse_values: np.ndarray
    coarse_selected: Tuple[int, ...]

    @property
    def fine_variation(self) -> float:
        """Normalised mean |step| of the fine curve (its 'chaos' measure)."""
        return _roughness(self.fine_values)

    @property
    def coarse_variation(self) -> float:
        """Normalised mean |step| of the coarse curve."""
        return _roughness(self.coarse_values)


def granularity_experiment(
    runner: ExperimentRunner,
    benchmark: str = "lucas",
) -> GranularitySeries:
    """Figure 1: fine vs coarse first-PCA-component curves for *benchmark*."""
    context = runner.context(benchmark)
    trace = context.trace

    fine_profile = context.fine_profile()
    fine_values = first_component(normalize_rows(fine_profile.bbv))
    fine_plan = SimPoint(runner.sampling).sample(fine_profile, benchmark=benchmark)
    fine_selected = tuple(p.interval_index for p in fine_plan.points)

    coasts = Coasts(runner.sampling)
    boundaries = coasts.collect_boundaries(trace)
    coarse_profile = coasts.profile(trace, boundaries)
    coarse_values = first_component(normalize_rows(coarse_profile.bbv))
    coarse_plan = coasts.sample_profile(
        coarse_profile, benchmark=benchmark,
        total_instructions=trace.total_instructions,
    )
    coarse_selected = tuple(p.interval_index for p in coarse_plan.points)

    return GranularitySeries(
        benchmark=benchmark,
        fine_values=fine_values,
        fine_selected=fine_selected,
        coarse_values=coarse_values,
        coarse_selected=coarse_selected,
    )


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AblationRow:
    """One setting of an ablation sweep."""

    setting: str
    values: Dict[str, float]


def _sweep(
    runner: ExperimentRunner,
    benchmark: str,
    config: MachineConfig,
    plans: Sequence[Tuple[str, SamplingPlan]],
    values: Callable[[SamplingPlan, Deviation], Dict[str, float]],
) -> List[AblationRow]:
    """One row per ``(setting, plan)``, every plan evaluated from one
    warmed detailed walk.

    The walk is tagged as the runner's is (the whole-trace baseline plus
    one tag per leaf) and counted in the runner's metrics, so a sweep
    detail-simulates the trace exactly once however many settings it has.
    """
    simulator = TimingSimulator(
        runner.trace(benchmark), config, metrics=runner.obs.metrics
    )
    results = simulate_plans(simulator, [plan for _, plan in plans])
    baseline = results[BASELINE_TAG].metrics()
    return [
        AblationRow(setting=setting, values=values(
            plan,
            evaluate_plan(plan, simulator, baseline, cache=results).deviation,
        ))
        for setting, plan in plans
    ]


def ablation_coarse_kmax(
    runner: ExperimentRunner,
    benchmark: str,
    kmaxes: Sequence[int] = (1, 2, 3, 4, 6, 8),
    config: MachineConfig = CONFIG_A,
) -> List[AblationRow]:
    """Sweep COASTS' Kmax: phase count, last position, detail fraction and
    CPI deviation."""
    trace = runner.trace(benchmark)
    plans = [
        (f"kmax={kmax}", Coasts(replace(runner.sampling, coarse_kmax=kmax))
         .sample(trace, benchmark=benchmark))
        for kmax in kmaxes
    ]
    return _sweep(runner, benchmark, config, plans, lambda plan, dev: {
        "phases": float(plan.n_clusters),
        "last_position": plan.last_point_position,
        "detail_fraction": plan.detail_fraction,
        "cpi_deviation": dev.cpi,
    })


def ablation_fine_interval(
    runner: ExperimentRunner,
    benchmark: str,
    sizes: Sequence[int],
    config: MachineConfig = CONFIG_A,
) -> List[AblationRow]:
    """Sweep the fixed SimPoint interval size: points, fractions, deviation.

    This is the experiment behind the paper's Section III claim that finer
    granularity exposes more phases and pushes simulation points toward the
    end of the program."""
    functional = runner.context(benchmark).functional
    plans = [
        (f"interval={size}", SimPoint(replace(
            runner.sampling, fine_interval_size=size,
            resample_threshold=size * runner.sampling.fine_kmax,
        )).sample(functional.profile_fixed_intervals(size),
                  benchmark=benchmark))
        for size in sizes
    ]
    return _sweep(runner, benchmark, config, plans, lambda plan, dev: {
        "points": float(plan.n_points),
        "last_position": plan.last_point_position,
        "detail_fraction": plan.detail_fraction,
        "functional_fraction": plan.functional_fraction,
        "cpi_deviation": dev.cpi,
    })


def ablation_resample_threshold(
    runner: ExperimentRunner,
    benchmark: str,
    thresholds: Sequence[int],
    config: MachineConfig = CONFIG_A,
) -> List[AblationRow]:
    """Sweep the multi-level re-sampling threshold (paper: 10M x Kmax)."""
    context = runner.context(benchmark)
    coarse_plan, _ = context.plan(get_sampler("coasts"))
    plans = [
        (f"threshold={threshold}", MultiLevelSampler(
            replace(runner.sampling, resample_threshold=threshold)
        ).sample(context.trace, benchmark=benchmark, coarse_plan=coarse_plan))
        for threshold in thresholds
    ]
    return _sweep(runner, benchmark, config, plans, lambda plan, dev: {
        "leaves": float(plan.n_leaves),
        "detail_fraction": plan.detail_fraction,
        "cpi_deviation": dev.cpi,
    })


def ablation_projection_dim(
    runner: ExperimentRunner,
    benchmark: str,
    dims: Sequence[int] = (2, 5, 15, 30, 60),
    config: MachineConfig = CONFIG_A,
) -> List[AblationRow]:
    """Sweep the BBV random-projection dimensionality (paper uses 15)."""
    profile = runner.context(benchmark).fine_profile()
    plans = [
        (f"dim={dim}", SimPoint(replace(runner.sampling, projection_dim=dim))
         .sample(profile, benchmark=benchmark))
        for dim in dims
    ]
    return _sweep(runner, benchmark, config, plans, lambda plan, dev: {
        "points": float(plan.n_points),
        "cpi_deviation": dev.cpi,
        "l2_deviation": dev.l2_hit_rate,
    })


def ablation_metric(
    runner: ExperimentRunner,
    benchmark: str,
    metrics: Sequence[str] = ("bbv", "loop_frequency", "working_set"),
    config: MachineConfig = CONFIG_A,
) -> List[AblationRow]:
    """Compare phase-classification metrics (paper Section II).

    Reproduces the cited findings: BBVs estimate at least as well as
    working-set signatures (Dhodapkar & Smith), and loop frequency vectors
    come close while often selecting fewer phases (Lau et al.)."""
    context = runner.context(benchmark)
    plans = [
        (metric, SimPoint(runner.sampling, metric=metric).sample(
            context.fine_profile(), benchmark=benchmark,
            program=context.trace.program,
        ))
        for metric in metrics
    ]
    return _sweep(runner, benchmark, config, plans, lambda plan, dev: {
        "points": float(plan.n_points),
        "cpi_deviation": dev.cpi,
        "l2_deviation": dev.l2_hit_rate,
        "functional_fraction": plan.functional_fraction,
    })


class _CentroidCoasts(Coasts):
    """COASTS with SimPoint's centroid-nearest representatives."""

    method_name = "coasts_centroid"

    def _select(self, features, labels, centroids):
        return nearest_to_centroid(features, labels, centroids)


def ablation_representative_policy(
    runner: ExperimentRunner,
    benchmark: str,
    config: MachineConfig = CONFIG_A,
) -> List[AblationRow]:
    """Earliest-instance (COASTS) vs centroid-nearest representatives.

    Quantifies DESIGN.md decision 4: earliest instances slash functional
    time at a small accuracy cost.  Both plans come from COASTS step 3
    on one coarse profile; COASTS is deterministic, so they share its
    clustering and differ only in :meth:`Coasts._select`."""
    trace = runner.trace(benchmark)
    coasts = Coasts(runner.sampling)
    profile = coasts.profile(trace)
    plans = [
        (policy, sampler.sample_profile(
            profile, benchmark=benchmark,
            total_instructions=trace.total_instructions,
        ))
        for policy, sampler in (
            ("earliest", coasts),
            ("centroid", _CentroidCoasts(runner.sampling)),
        )
    ]
    return _sweep(runner, benchmark, config, plans, lambda plan, dev: {
        "last_position": plan.last_point_position,
        "functional_fraction": plan.functional_fraction,
        "cpi_deviation": dev.cpi,
    })
