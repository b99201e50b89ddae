"""Tests for metric estimation from sampling plans."""

import pytest

from repro.config import CONFIG_A
from repro.detailed import TimingSimulator
from repro.detailed.results import Deviation, Metrics, SimulationResult
from repro.sampling import Coasts, SimPoint, evaluate_plan
from repro.errors import SamplingError
from repro.obs import DETAILED_CALLS
from repro.sampling.estimate import (
    estimate_plan,
    plan_ranges,
    simulate_point_set,
    simulate_tagged_ranges,
)


@pytest.fixture(scope="module")
def simulator(small_trace):
    return TimingSimulator(small_trace, CONFIG_A)


@pytest.fixture(scope="module")
def baseline(simulator):
    return simulator.simulate_full().metrics()


class TestSimulatePointSet:
    def test_single_range(self, simulator, small_trace):
        total = small_trace.total_instructions
        ranges = [(total // 2, total // 2 + 2000)]
        results = simulate_point_set(simulator, ranges)
        assert set(results) == set(ranges)
        assert results[ranges[0]].instructions >= 2000

    def test_disjoint_ranges_sum_like_sequential(self, simulator,
                                                 small_trace):
        total = small_trace.total_instructions
        ranges = [(1000, 3000), (total // 2, total // 2 + 2000)]
        results = simulate_point_set(simulator, ranges)
        assert all(r.instructions >= 1900 for r in results.values())

    def test_nested_ranges_share_simulation(self, simulator, small_trace):
        outer = (10_000, 20_000)
        inner = (12_000, 14_000)
        results = simulate_point_set(simulator, [outer, inner])
        assert results[outer].instructions > results[inner].instructions
        # nested counts are contained in the outer result
        assert results[outer].cycles >= results[inner].cycles

    def test_warming_matters(self, simulator, small_trace):
        """Points simulated with full warming hit more than cold points."""
        total = small_trace.total_instructions
        rng = (total // 2, total // 2 + 2000)
        warmed = simulate_point_set(simulator, [rng])[rng]
        cold = simulator.simulate_range(*rng)
        assert warmed.l1d_misses <= cold.l1d_misses

    def test_empty_set(self, simulator):
        assert simulate_point_set(simulator, []) == {}


class TestSimulateTaggedRanges:
    def test_matches_point_set_for_single_range_tags(self, simulator,
                                                     small_trace):
        """One range per tag: identical numbers to simulate_point_set."""
        total = small_trace.total_instructions
        ranges = [(1000, 3000), (total // 2, total // 2 + 2000)]
        tagged = {r: [r] for r in ranges}
        by_tag = simulate_tagged_ranges(simulator, tagged)
        by_range = simulate_point_set(simulator, ranges)
        for r in ranges:
            assert by_tag[r].instructions == by_range[r].instructions
            assert by_tag[r].cycles == by_range[r].cycles

    def test_tag_accumulates_disjoint_members(self, simulator):
        """A tag's result merges all of its (possibly abutting) ranges."""
        tagged = {
            "a": [(1000, 2000), (2000, 3000)],  # abutting is legal
            "b": [(1500, 2500)],  # overlaps tag "a" — legal across tags
        }
        results = simulate_tagged_ranges(simulator, tagged)
        # Range ends land on basic-block boundaries, so counts may
        # overshoot slightly — same contract as simulate_point_set.
        assert 2000 <= results["a"].instructions < 2500
        assert 1000 <= results["b"].instructions < 1500
        assert results["a"].cycles > results["b"].cycles

    def test_abutting_ranges_book_a_shared_mid_rep_once(self, simulator,
                                                         small_trace):
        """Two ranges of one tag meeting inside a rep book that rep once."""
        seg = next(i for i in range(small_trace.n_segments)
                   if small_trace.reps[i] >= 4
                   and small_trace.rep_lengths[i] >= 2)
        rep = int(small_trace.rep_lengths[seg])
        lo = int(small_trace.seg_starts[seg])
        mid = lo + rep + rep // 2  # inside the segment's second rep
        split = simulate_tagged_ranges(
            simulator, {"a": [(lo, mid), (mid, lo + 3 * rep)]}
        )["a"]
        whole = simulate_tagged_ranges(
            simulator, {"a": [(lo, lo + 3 * rep)]}
        )["a"]
        assert split.instructions == whole.instructions == 3 * rep
        assert split.cycles == pytest.approx(whole.cycles, rel=1e-12)

    def test_overlap_within_tag_rejected(self, simulator):
        with pytest.raises(SamplingError):
            simulate_tagged_ranges(
                simulator, {"a": [(1000, 3000), (2000, 4000)]}
            )

    def test_bad_range_rejected(self, simulator):
        with pytest.raises(SamplingError):
            simulate_tagged_ranges(simulator, {"a": [(5, 5)]})

    def test_range_past_trace_end_rejected_before_walking(
            self, simulator, small_trace):
        total = small_trace.total_instructions
        calls = simulator.metrics.value(DETAILED_CALLS)
        with pytest.raises(SamplingError, match="bad point range"):
            simulate_tagged_ranges(simulator, {
                "ok": [(0, 1000)], "past": [(total - 10, total + 1)],
            })
        assert simulator.metrics.value(DETAILED_CALLS) == calls

    def test_empty(self, simulator):
        assert simulate_tagged_ranges(simulator, {}) == {}
        assert simulate_tagged_ranges(simulator, {"a": []}) == {
            "a": SimulationResult()
        }


class TestEstimatePlan:
    def test_simpoint_estimate_same_magnitude(
        self, simulator, baseline, small_fine_profile, test_sampling
    ):
        """At the tiny test scale the estimate is noisy; full-scale accuracy
        is covered by the integration test and the Table II bench.  Here we
        only require the right order of magnitude."""
        plan = SimPoint(test_sampling).sample(small_fine_profile)
        estimate = estimate_plan(plan, simulator)
        assert 0.3 < estimate.cpi / baseline.cpi < 3.0

    def test_coasts_estimate_same_magnitude(
        self, simulator, baseline, small_trace, test_sampling
    ):
        plan = Coasts(test_sampling).sample(small_trace)
        estimate = estimate_plan(plan, simulator)
        assert 0.3 < estimate.cpi / baseline.cpi < 3.0

    def test_cache_shares_leaf_results(self, simulator, small_trace,
                                       test_sampling):
        plan = Coasts(test_sampling).sample(small_trace)
        cache = {}
        first = estimate_plan(plan, simulator, cache=cache)
        assert set(cache) == set(plan_ranges(plan))
        # a second estimate must not re-simulate: poison detection by
        # replacing the simulator with None-like object would raise
        second = estimate_plan(plan, None, cache=cache)
        assert second == first

    def test_evaluate_plan_reports_deviation(self, simulator, baseline,
                                             small_trace, test_sampling):
        plan = Coasts(test_sampling).sample(small_trace)
        evaluation = evaluate_plan(plan, simulator, baseline)
        assert isinstance(evaluation.deviation, Deviation)
        assert evaluation.deviation.cpi >= 0
        assert evaluation.benchmark == plan.benchmark


class TestDeviationMath:
    def test_between(self):
        baseline = Metrics(cpi=2.0, l1_hit_rate=0.9, l2_hit_rate=0.5)
        estimate = Metrics(cpi=2.2, l1_hit_rate=0.85, l2_hit_rate=0.6)
        deviation = Deviation.between(estimate, baseline)
        assert deviation.cpi == pytest.approx(0.1)
        assert deviation.l1_hit_rate == pytest.approx(0.05)
        assert deviation.l2_hit_rate == pytest.approx(0.1)

    def test_merge_accumulates(self):
        a = SimulationResult(instructions=10, cycles=20.0, branches=2)
        b = SimulationResult(instructions=5, cycles=5.0, branches=1)
        a.merge(b)
        assert a.instructions == 15
        assert a.cycles == 25.0
        assert a.branches == 3
