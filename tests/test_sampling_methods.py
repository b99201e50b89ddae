"""Tests for SimPoint, EarlySP, COASTS and the multi-level framework."""

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.sampling import Coasts, EarlySimPoint, MultiLevelSampler, SimPoint


@pytest.fixture(scope="module")
def simpoint_plan(small_fine_profile, test_sampling):
    return SimPoint(test_sampling).sample(small_fine_profile, benchmark="gzip")


@pytest.fixture(scope="module")
def coasts_plan(small_trace, test_sampling):
    return Coasts(test_sampling).sample(small_trace)


class TestSimPoint:
    def test_plan_is_valid(self, simpoint_plan, small_trace):
        plan = simpoint_plan
        assert plan.method == "simpoint"
        assert plan.total_instructions == small_trace.total_instructions
        assert 1 <= plan.n_points <= 10
        assert abs(sum(p.weight for p in plan.points) - 1.0) < 1e-6

    def test_points_are_interval_aligned(self, simpoint_plan, test_sampling,
                                         small_trace):
        size = test_sampling.fine_interval_size
        for p in simpoint_plan.points:
            assert p.start % size == 0
            assert p.size <= size

    def test_interval_size_mismatch_rejected(self, small_fine_profile,
                                             test_sampling):
        sampler = SimPoint(test_sampling, interval_size=2000)
        with pytest.raises(SamplingError):
            sampler.sample(small_fine_profile)

    def test_deterministic(self, small_fine_profile, test_sampling):
        a = SimPoint(test_sampling).sample(small_fine_profile)
        b = SimPoint(test_sampling).sample(small_fine_profile)
        assert a.points == b.points

    def test_subsampled_clustering_close_to_full(self, small_fine_profile,
                                                 test_sampling):
        full = SimPoint(test_sampling).sample(small_fine_profile)
        sub = SimPoint(test_sampling, max_cluster_samples=60).sample(
            small_fine_profile
        )
        assert abs(sub.n_clusters - full.n_clusters) <= 3


class TestEarlySimPoint:
    def test_never_later_than_simpoint(self, small_fine_profile,
                                       test_sampling, simpoint_plan):
        early = EarlySimPoint(test_sampling).sample(small_fine_profile)
        assert early.last_end <= simpoint_plan.last_end

    def test_zero_tolerance_equals_simpoint_choice(self, small_fine_profile,
                                                   test_sampling):
        early = EarlySimPoint(test_sampling, tolerance=0.0).sample(
            small_fine_profile
        )
        base = SimPoint(test_sampling).sample(small_fine_profile)
        assert early.n_clusters == base.n_clusters
        # with zero slack only exact-distance ties may differ
        assert early.detail_instructions == base.detail_instructions

    def test_negative_tolerance_rejected(self, test_sampling):
        with pytest.raises(SamplingError):
            EarlySimPoint(test_sampling, tolerance=-0.1)


class TestCoasts:
    def test_boundary_collection_filters_init_loop(self, small_trace,
                                                   test_sampling):
        info = Coasts(test_sampling).collect_boundaries(small_trace)
        assert small_trace.workload.outer_loop_id in info.kept_loops
        assert small_trace.workload.init_loop_id in info.discarded_loops
        assert info.n_intervals == small_trace.spec.n_outer_iterations

    def test_plan_uses_earliest_instances(self, coasts_plan, small_trace):
        """Every COASTS point is the first instance of its phase, so all
        points sit early in the program."""
        plan = coasts_plan
        assert plan.n_points <= 3  # Kmax
        bounds = small_trace.outer_bounds()
        for p in plan.points:
            matches = np.flatnonzero(
                (bounds[:, 0] == p.start) & (bounds[:, 1] == p.end)
            )
            assert len(matches) == 1

    def test_kmax_limits_phases(self, small_trace, test_sampling):
        from dataclasses import replace

        sampler = Coasts(replace(test_sampling, coarse_kmax=1))
        plan = sampler.sample(small_trace)
        assert plan.n_clusters == 1
        assert plan.n_points == 1

    def test_weights_cover_main_loop(self, coasts_plan, small_trace):
        assert sum(p.weight for p in coasts_plan.points) == \
            pytest.approx(1.0)

    def test_coasts_much_less_functional_than_simpoint(self, coasts_plan,
                                                       simpoint_plan):
        """The paper's core claim at plan level."""
        assert coasts_plan.functional_fraction < \
            simpoint_plan.functional_fraction

    def test_intervals_are_coarse(self, coasts_plan, simpoint_plan):
        assert coasts_plan.mean_interval_size > \
            3 * simpoint_plan.mean_interval_size


class TestMultiLevel:
    def test_resamples_only_oversized_points(self, small_trace,
                                             test_sampling, coasts_plan):
        plan = MultiLevelSampler(test_sampling).sample(
            small_trace, coarse_plan=coasts_plan
        )
        for p in plan.points:
            if p.size > test_sampling.resample_threshold:
                assert p.is_resampled
            else:
                assert not p.is_resampled

    def test_children_weights_compose(self, small_trace, test_sampling):
        plan = MultiLevelSampler(test_sampling).sample(small_trace)
        for p in plan.points:
            if p.children:
                assert sum(c.weight for c in p.children) == \
                    pytest.approx(p.weight)

    def test_less_detail_than_coasts(self, small_trace, test_sampling,
                                     coasts_plan):
        """Re-sampling cuts detailed-simulation instructions (the paper's
        second-level claim)."""
        plan = MultiLevelSampler(test_sampling).sample(
            small_trace, coarse_plan=coasts_plan
        )
        assert plan.detail_instructions < coasts_plan.detail_instructions

    def test_huge_threshold_degenerates_to_coasts(self, small_trace,
                                                  test_sampling, coasts_plan):
        from dataclasses import replace

        sampler = MultiLevelSampler(
            replace(test_sampling, resample_threshold=10**9)
        )
        plan = sampler.sample(small_trace, coarse_plan=coasts_plan)
        assert plan.detail_instructions == coasts_plan.detail_instructions
        assert plan.n_leaves == coasts_plan.n_points

    def test_threshold_below_interval_rejected(self, test_sampling):
        from dataclasses import replace

        with pytest.raises(Exception):
            MultiLevelSampler(replace(test_sampling, resample_threshold=10))


class TestSamplingSpans:
    """Every sampler plans inside one ``sampling`` span."""

    @pytest.fixture(scope="class")
    def traced(self, test_sampling):
        """Every registered plan of gzip @ 0.04 (the golden-accuracy
        run, whose multilevel plan re-samples three coarse points), and
        the ``sampling`` spans by method."""
        from repro.obs import ObsContext
        from repro.samplers import PlanContext, get_sampler, registered_methods
        from repro.workloads.registry import load_trace

        obs = ObsContext()
        context = PlanContext(
            load_trace("gzip", scale=0.04), test_sampling, "gzip", obs=obs
        )
        built = {
            method: context.plan(get_sampler(method))
            for method in registered_methods()
        }
        spans = {}
        for span in obs.tracer.spans():
            attrs = span.attributes
            if span.name == "sampling" and attrs["benchmark"] == "gzip":
                spans.setdefault(attrs["method"], []).append(span)
        return context, built, spans

    def test_one_span_per_method(self, traced):
        _, built, spans = traced
        assert {method: len(found) for method, found in spans.items()} == {
            method: 1 for method in built
        }

    def test_multilevel_span_holds_the_second_level(self, traced):
        _, built, spans = traced
        plan, _ = built["multilevel"]
        (span,) = spans["multilevel"]
        resampled = [p for p in plan.points if p.is_resampled]
        assert len(resampled) == 3
        assert span.attributes["resampled_points"] == 3
        assert span.attributes["n_clusters"] == plan.n_clusters
        children = [c for c in span.children if c.name == "sampling"]
        assert [c.attributes["benchmark"] for c in children] == [
            f"gzip:{p.phase}" for p in resampled
        ]
        assert all(c.attributes["method"] == "multilevel" for c in children)
        assert span.elapsed >= sum(c.elapsed for c in children) > 0.0

    @pytest.mark.parametrize("method, extra", [
        ("simpoint", ("oversized_points",)),
        ("early_sp", ("oversized_points",)),
        ("stratified", ("budget",)),
        ("coasts", ("coverage_discarded", "oversized_points")),
    ])
    def test_clustering_span_attributes(self, traced, method, extra):
        context, built, spans = traced
        plan, diag = built[method]
        (span,) = spans[method]
        attrs = span.attributes
        assert list(attrs) == [
            "method", "benchmark", "n_intervals", "n_clusters", *extra,
            "mean_silhouette",
        ]
        assert attrs["n_clusters"] == plan.n_clusters
        assert attrs["n_intervals"] == diag.n_intervals
        if "oversized_points" in attrs:
            assert attrs["oversized_points"] == diag.n_oversized
        if "budget" in attrs:
            assert attrs["budget"] == plan.n_points
        if method == "coasts":
            assert attrs["coverage_discarded"] == round(
                diag.coverage_discarded, 6
            )
        assert isinstance(attrs["mean_silhouette"], float)

    def test_ranked_set_span_attributes(self, traced, test_sampling):
        context, built, spans = traced
        plan, _ = built["ranked_set"]
        (span,) = spans["ranked_set"]
        attrs = span.attributes
        assert list(attrs) == [
            "method", "benchmark", "n_intervals", "set_size", "cycles",
            "mean_silhouette",
        ]
        assert attrs["n_intervals"] == context.fine_profile().n_intervals
        assert attrs["set_size"] == plan.n_clusters
        assert attrs["cycles"] == test_sampling.ranked_set_cycles
