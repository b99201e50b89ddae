"""Reconstruct whole-program metrics from a sampling plan.

Simulation points are detail-simulated with **functional warming**: the
fast-forward from the start of the program to each point updates caches and
branch predictors (what SimpleScalar's functional mode does when warmup is
enabled, and what the paper's error rates presuppose).

Every detailed number of one (benchmark, config) run — the full-trace
baseline, every plan's leaves, every diagnostics phase — comes from a
*single* warmed walk, :func:`simulate_tagged_ranges`.  Ranges are first
rounded outward to rep boundaries (what :meth:`Trace.clip` does for one
range), and the walk cuts the trace only at those rounded bounds, so no
rep is ever simulated twice.  Because the detailed model is
split-additive at rep boundaries (see :mod:`repro.uarch.occupancy`), a
range's result is exactly what one uninterrupted warmed run would book
over it, whichever other ranges share the walk: a method's estimate does
not depend on the methods run beside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..detailed.results import Deviation, Metrics, SimulationResult, WeightedMetrics
from ..detailed.timing import TimingSimulator
from ..errors import SamplingError
from .points import SamplingPlan

#: A point's instruction range, the key of shared point-result caches.
PointRange = Tuple[int, int]


@dataclass(frozen=True)
class PlanEvaluation:
    """A plan's estimate next to the full-run baseline."""

    plan: SamplingPlan
    estimate: Metrics
    baseline: Metrics
    deviation: Deviation

    @property
    def benchmark(self) -> str:
        """Benchmark name."""
        return self.plan.benchmark


def simulate_tagged_ranges(
    simulator: TimingSimulator,
    tagged: Dict[object, Iterable[PointRange]],
) -> Dict[object, SimulationResult]:
    """Detail-simulate *groups* of ranges in one warmed walk.

    *tagged* maps an opaque tag (a leaf range, ``(method, phase)``, the
    whole trace) to the ranges whose merged metrics that tag should
    accumulate; ranges within a tag must be disjoint (they may abut),
    ranges of *different* tags may overlap arbitrarily.

    Each range is rounded outward to rep boundaries; the walk starts from
    cold state at instruction 0 and cuts the trace at the sorted set of
    rounded bounds, up to the last one.  Every grid interval is simulated
    once and booked at most once into every tag whose rounded ranges
    cover it — two ranges of one tag that share a mid-rep bound book that
    rep once.  Intervals no tag covers only warm the state.
    """
    trace = simulator.trace
    starts_at: Dict[int, List[object]] = {}
    ends_at: Dict[int, List[object]] = {}
    for tag, ranges in tagged.items():
        spans: List[List[int]] = []
        previous_end = None
        for start, end in sorted(set(ranges)):
            if end <= start or start < 0:
                raise SamplingError(f"bad point range [{start}, {end})")
            if previous_end is not None and start < previous_end:
                raise SamplingError(f"tag {tag!r}: ranges overlap at {start}")
            previous_end = end
            lo, hi = trace.rep_bounds(start, end)
            if spans and lo <= spans[-1][1]:
                spans[-1][1] = max(spans[-1][1], hi)
            else:
                spans.append([lo, hi])
        for lo, hi in spans:
            starts_at.setdefault(lo, []).append(tag)
            ends_at.setdefault(hi, []).append(tag)
    results = {tag: SimulationResult() for tag in tagged}
    grid = sorted({0} | set(starts_at) | set(ends_at))

    active: Dict[object, None] = {}
    state = simulator.new_state()
    for a, b in zip(grid[:-1], grid[1:]):
        for tag in ends_at.get(a, ()):
            del active[tag]
        for tag in starts_at.get(a, ()):
            active[tag] = None
        piece = simulator.simulate_range(a, b, state=state)
        for tag in active:
            results[tag].merge(piece)
    return results


def simulate_point_set(
    simulator: TimingSimulator,
    ranges: Iterable[PointRange],
) -> Dict[PointRange, SimulationResult]:
    """Detail-simulate every range with full functional warming, one walk
    (one :func:`simulate_tagged_ranges` tag per range)."""
    return simulate_tagged_ranges(
        simulator, {r: [r] for r in sorted(set(ranges))}
    )


def plan_ranges(plan: SamplingPlan) -> List[PointRange]:
    """The detail-simulated ranges of *plan* (its leaves)."""
    return [(leaf.start, leaf.end) for leaf in plan.leaves()]


def estimate_plan(
    plan: SamplingPlan,
    simulator: TimingSimulator,
    cache: Optional[Dict[PointRange, SimulationResult]] = None,
) -> Metrics:
    """Whole-program metric estimate from the plan's weighted points.

    ``cache`` carries point results across plans of the same benchmark and
    config (the runner fills it from its single walk); missing points are
    simulated on demand in one warmed walk of their own.
    """
    ranges = plan_ranges(plan)
    missing = [r for r in ranges if cache is None or r not in cache]
    if missing:
        fresh = simulate_point_set(simulator, missing)
        if cache is None:
            cache = fresh
        else:
            cache.update(fresh)

    accumulator = WeightedMetrics()
    for leaf in plan.leaves():
        if leaf.weight <= 0:
            continue
        result = cache[(leaf.start, leaf.end)]
        accumulator.add(result.metrics(), leaf.weight)
    if accumulator.weight_total <= 0:
        raise SamplingError(f"{plan.method}: no usable leaves to estimate from")
    return accumulator.finish()


def evaluate_plan(
    plan: SamplingPlan,
    simulator: TimingSimulator,
    baseline: Metrics,
    cache: Optional[Dict[PointRange, SimulationResult]] = None,
) -> PlanEvaluation:
    """Estimate the plan and compute its deviation from *baseline*."""
    estimate = estimate_plan(plan, simulator, cache=cache)
    return PlanEvaluation(
        plan=plan,
        estimate=estimate,
        baseline=baseline,
        deviation=Deviation.between(estimate, baseline),
    )
