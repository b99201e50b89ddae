"""Property-based tests (hypothesis) for core invariants."""

import dataclasses
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import kmeans, normalize_rows, select_k
from repro.analysis.bic import bic_score
from repro.config import CONFIG_A, CONFIG_B, CacheConfig
from repro.detailed import SimulationResult, TimingSimulator
from repro.engine import Segment, Trace
from repro.errors import TraceError
from repro.harness.cache import ResultCache
from repro.harness.runner import ExperimentRunner
from repro.isa.builder import _BulkDraws
from repro.obs import DETAILED_INSTRUCTIONS, DETAILED_PIECES, MetricsRegistry
from repro.samplers import PlanContext, get_sampler, registered_methods
from repro.sampling import SimPoint
from repro.sampling.points import SamplingPlan, SimulationPoint
from repro.uarch import (
    Cache,
    OccupancyCache,
    advance_loop_branch,
    exit_loop_branch,
    stationary_mispredict_rate,
)
from repro.uarch.occupancy import visit_hit_rate


class TestBranchProperties:
    @given(state=st.integers(0, 3), takens=st.integers(0, 1000))
    def test_loop_branch_counter_stays_in_range(self, state, takens):
        new_state, mispredicts = advance_loop_branch(state, takens)
        assert 0 <= new_state <= 3
        assert 0 <= mispredicts <= min(takens, 2)

    @given(state=st.integers(0, 3))
    def test_exit_keeps_counter_in_range(self, state):
        new_state, mispredict = exit_loop_branch(state)
        assert 0 <= new_state <= 3
        assert mispredict in (0, 1)

    @given(p=st.floats(0.0, 1.0))
    def test_stationary_rate_bounded(self, p):
        rate = stationary_mispredict_rate(p)
        assert 0.0 <= rate <= 0.5 + 1e-9

    @given(p=st.floats(0.0, 0.5))
    def test_stationary_rate_symmetric(self, p):
        assert stationary_mispredict_rate(p) == pytest.approx(
            stationary_mispredict_rate(1.0 - p)
        )


#: One scalar draw: ``"random"`` or the bound *n* of ``integers(n)``.  The
#: builder uses n in {1, 2, 3, 32}; the two large bounds reject about
#: half their draws, so Lemire's redraw loop runs too.
_DRAW = st.one_of(st.just("random"),
                  st.sampled_from([1, 2, 3, 32, 2**31 + 1, 3 * 2**30 + 1]))


class TestBulkDraws:
    """The builder's bulk draw is numpy's scalar API, value for value."""

    @staticmethod
    def _generator(seed, has_uint32, uinteger):
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        state["has_uint32"] = int(has_uint32)
        state["uinteger"] = uinteger
        rng.bit_generator.state = state
        return rng

    @given(seed=st.integers(0, 2**63), has_uint32=st.booleans(),
           uinteger=st.integers(0, 2**32 - 1),
           draws=st.lists(_DRAW, max_size=80), expected=st.integers(0, 40))
    def test_bulk_matches_scalar_api(self, seed, has_uint32, uinteger,
                                     draws, expected):
        oracle = self._generator(seed, has_uint32, uinteger)
        rng = self._generator(seed, has_uint32, uinteger)
        bulk = _BulkDraws(rng.bit_generator, expected)
        for draw in draws:
            if draw == "random":
                assert bulk.random() == oracle.random()
            else:
                assert bulk.integers(draw) == int(oracle.integers(draw))
        bulk.close()
        assert rng.bit_generator.state == oracle.bit_generator.state
        for _ in range(4):
            assert rng.integers(32) == oracle.integers(32)
            assert rng.random() == oracle.random()


class _ClockOrderedLedger:
    """Reference eviction order for :class:`OccupancyCache`: each install
    stamps its region with a clock, and an overflow drains the other
    regions in ``sorted`` clock order, stalest first."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.residency = {}
        self.last_access = {}
        self.clock = 0

    def install(self, region, lines):
        self.residency[region] = min(lines, self.capacity)
        self.clock += 1
        self.last_access[region] = self.clock
        overflow = sum(self.residency.values()) - self.capacity
        if overflow > 1e-9:
            for key in sorted(self.residency, key=self.last_access.get):
                if key == region:
                    continue
                take = min(overflow, self.residency[key])
                self.residency[key] -= take
                overflow -= take
                if overflow <= 1e-9:
                    break
            if overflow > 1e-9:
                self.residency[region] = max(
                    0.0, self.residency[region] - overflow
                )


def _min_max_visit_hit_rate(resident, footprint, visit_touches, capacity):
    """The visit hit-rate formula written with builtin ``min``/``max``."""
    if visit_touches <= 0:
        return 0.0
    resident = min(resident, footprint)
    first = min(visit_touches, footprint)
    hits = first * (resident / footprint)
    rest = visit_touches - first
    if rest > 0:
        hits += rest * min(1.0, capacity / footprint)
    return min(1.0, hits / visit_touches)


class TestCacheProperties:
    @given(lines=st.lists(st.integers(0, 500), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_hits_plus_misses_equals_accesses(self, lines):
        cache = Cache(CacheConfig("t", 1024, 2, 32, 1))
        for line in lines:
            cache.access(line)
        assert cache.hits + cache.misses == cache.accesses == len(lines)

    @given(lines=st.lists(st.integers(0, 500), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_occupancy_never_exceeds_capacity(self, lines):
        cache = Cache(CacheConfig("t", 256, 2, 32, 1))
        for line in lines:
            cache.access(line)
        assert cache.resident_lines() <= cache.capacity_lines

    @given(
        installs=st.lists(
            st.tuples(st.integers(0, 5), st.floats(0.0, 500.0)),
            min_size=1, max_size=30,
        )
    )
    @settings(max_examples=50)
    def test_occupancy_model_capacity_invariant(self, installs):
        cache = OccupancyCache(CacheConfig("t", 64 * 32, 1, 32, 1))
        for region, lines in installs:
            cache.install(region, lines)
            assert cache.occupancy <= cache.capacity + 1e-6
            assert all(
                cache.residency(r) >= 0 for r, _ in installs
            )

    @given(
        installs=st.lists(
            st.tuples(
                st.integers(-1, 6),
                st.one_of(st.floats(0.0, 100.0),
                          st.integers(0, 80).map(float)),
            ),
            min_size=1, max_size=60,
        )
    )
    @settings(max_examples=200)
    def test_install_matches_clock_ordered_reference(self, installs):
        """The recency list evicts exactly what a clock-stamped ledger
        that sorts every region on overflow evicts, float for float."""
        cache = OccupancyCache(CacheConfig("t", 64 * 32, 1, 32, 1))
        reference = _ClockOrderedLedger(cache.capacity)
        for region, lines in installs:
            cache.install(region, lines)
            reference.install(region, lines)
            assert list(cache._residency.items()) == list(
                reference.residency.items()
            )
            assert cache.occupancy == sum(reference.residency.values())

    @given(
        resident=st.floats(0, 1000),
        footprint=st.floats(1, 1000),
        touches=st.floats(0, 5000),
        capacity=st.floats(1, 2000),
    )
    @settings(max_examples=200)
    def test_visit_hit_rate_is_probability(self, resident, footprint,
                                           touches, capacity):
        rate = visit_hit_rate(resident, footprint, touches, capacity)
        assert 0.0 <= rate <= 1.0

    @given(
        resident=st.floats(0, 1000),
        footprint=st.one_of(st.floats(1, 1000),
                            st.integers(1, 1000).map(float)),
        touches=st.floats(0, 5000),
        capacity=st.floats(1, 2000),
        tie=st.sampled_from([None, "resident", "touches", "capacity"]),
    )
    @settings(max_examples=300)
    def test_visit_hit_rate_matches_min_max_reference(
            self, resident, footprint, touches, capacity, tie):
        """The conditional expressions pick what ``min``/``max`` pick,
        ties included, float for float."""
        if tie == "resident":
            resident = footprint
        elif tie == "touches":
            touches = footprint
        elif tie == "capacity":
            capacity = footprint
        rate = visit_hit_rate(resident, footprint, touches, capacity)
        assert rate.hex() == _min_max_visit_hit_rate(
            resident, footprint, touches, capacity
        ).hex()


class TestClusteringProperties:
    @given(
        n=st.integers(3, 40),
        k=st.integers(1, 6),
        seed=st.integers(0, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_kmeans_partitions_data(self, n, k, seed):
        rng = np.random.default_rng(seed)
        data = rng.random((n, 3))
        result = kmeans(data, k, seed=seed, n_seeds=1)
        assert len(result.labels) == n
        assert result.cluster_sizes().sum() == n
        assert result.inertia >= 0
        assert result.k <= min(k, n)

    @given(
        rows=st.integers(1, 20),
        cols=st.integers(1, 10),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=50)
    def test_normalize_rows_unit_mass(self, rows, cols, seed):
        data = np.random.default_rng(seed).random((rows, cols))
        normalized = normalize_rows(data)
        assert np.allclose(normalized.sum(axis=1), 1.0)

    @given(
        scores=st.dictionaries(
            st.integers(1, 20), st.floats(-1e6, 1e6), min_size=1, max_size=10
        ),
        threshold=st.floats(0.01, 1.0),
    )
    @settings(max_examples=100)
    def test_select_k_returns_candidate(self, scores, threshold):
        chosen = select_k(scores, threshold=threshold)
        assert chosen in scores

    def test_bic_decreases_with_overfit_k(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(60, 3))
        score_small = bic_score(data, kmeans(data, 1, seed=0))
        score_large = bic_score(data, kmeans(data, 20, seed=0))
        assert score_small > score_large


class TestKMeansInvariants:
    """Lloyd-iteration invariants over the backend-switchable kernels."""

    @given(
        n=st.integers(2, 50),
        d=st.integers(1, 8),
        k=st.integers(1, 8),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_labels_within_cluster_range(self, n, d, k, seed):
        data = np.random.default_rng(seed).random((n, d))
        result = kmeans(data, k, seed=seed, n_seeds=1)
        assert result.labels.min() >= 0
        assert result.labels.max() < result.k

    @given(
        n=st.integers(3, 60),
        d=st.integers(1, 6),
        k=st.integers(1, 6),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_inertia_monotone_non_increasing(self, n, d, k, seed):
        data = np.random.default_rng(seed).random((n, d))
        result = kmeans(data, k, seed=seed, n_seeds=1)
        history = result.inertia_history
        assert len(history) == result.n_iterations + 1
        assert history[-1] == result.inertia
        # Each assignment + update step can only lower the objective;
        # allow a whisker of slack for centroid-update rounding.
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier * (1.0 + 1e-9) + 1e-12

    @given(
        n=st.integers(1, 60),
        k=st.integers(1, 10),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_cluster_sizes_partition_points(self, n, k, seed):
        data = np.random.default_rng(seed).random((n, 3))
        result = kmeans(data, k, seed=seed, n_seeds=1)
        sizes = result.cluster_sizes()
        assert sizes.sum() == n
        assert len(sizes) == result.k

    @given(
        n=st.integers(2, 30),
        distinct=st.integers(1, 3),
        k=st.integers(1, 8),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_degenerate_inputs_yield_finite_centroids(
            self, n, distinct, k, seed):
        # Fewer distinct points than clusters: k-means++ runs out of
        # positive-distance candidates and must still seed cleanly.
        rng = np.random.default_rng(seed)
        base = rng.random((distinct, 4))
        data = base[rng.integers(0, distinct, size=n)]
        result = kmeans(data, k, seed=seed, n_seeds=1)
        assert np.isfinite(result.centroids).all()
        assert np.isfinite(result.inertia)
        assert result.inertia >= 0.0

    def test_identical_points_zero_inertia(self):
        data = np.full((12, 5), 3.5)
        result = kmeans(data, 4, seed=0)
        assert result.inertia == 0.0
        assert not np.isnan(result.centroids).any()


class TestPlanProperties:
    @given(
        starts=st.lists(st.integers(0, 900), min_size=1, max_size=8,
                        unique=True),
        seed=st.integers(0, 10),
    )
    @settings(max_examples=50)
    def test_plan_accounting_invariants(self, starts, seed):
        rng = np.random.default_rng(seed)
        starts = sorted(starts)
        points = []
        raw = rng.random(len(starts)) + 0.05
        weights = raw / raw.sum()
        for i, s in enumerate(starts):
            points.append(
                SimulationPoint(
                    start=s * 100, end=s * 100 + 50,
                    weight=float(weights[i]), phase=i, interval_index=i,
                )
            )
        plan = SamplingPlan(
            method="prop", benchmark="b", points=tuple(points),
            total_instructions=100_000, n_clusters=len(points),
        )
        assert plan.detail_instructions == 50 * len(points)
        assert 0 <= plan.functional_fraction <= 1
        assert plan.functional_instructions + plan.detail_instructions == \
            plan.last_end
        assert 0 < plan.last_point_position <= 1


# ----------------------------------------------------------------------
# one warmed detailed walk
# ----------------------------------------------------------------------
#: Relative tolerance of floats that only sum in another order.
FLOAT_RTOL = 1e-12


def _hand_built_traces(workload):
    """Traces of 1-12 random segments over *workload*'s blocks."""
    block_ids = st.integers(0, workload.program.n_blocks - 1)
    segment = st.builds(
        Segment,
        blocks=st.lists(block_ids, min_size=1, max_size=4).map(tuple),
        reps=st.integers(1, 6),
        loop_id=st.sampled_from([-1, 0]),
    )
    return st.lists(segment, min_size=1, max_size=12).map(
        lambda segments: Trace(workload, segments)
    )


def _assert_pieces_match_clip(trace, start, end):
    bounds = list(trace.piece_bounds(start, end))
    pieces = list(trace.clip(start, end))
    assert bounds == [(p.seg_index, p.rep_offset, p.n_reps) for p in pieces]
    # The pieces tile exactly the rep-rounded range, in order.
    position, _ = trace.rep_bounds(start, end)
    for piece in pieces:
        index = piece.seg_index
        rep_len = int(trace.rep_lengths[index])
        assert piece.start_inst == int(trace.seg_starts[index]) + \
            piece.rep_offset * rep_len
        assert piece.start_inst == position
        position += piece.n_reps * rep_len
    assert position == trace.rep_bounds(start, end)[1]


def _assert_same_bad_range_error(trace, start, end):
    with pytest.raises(TraceError) as from_bounds:
        list(trace.piece_bounds(start, end))
    with pytest.raises(TraceError) as from_clip:
        list(trace.clip(start, end))
    assert str(from_bounds.value) == str(from_clip.value)


class TestPieceBounds:
    """``piece_bounds`` is ``clip`` without the views: the same pieces."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_real_trace_ranges(self, small_trace, data):
        total = small_trace.total_instructions
        start = data.draw(st.integers(0, total - 1))
        end = data.draw(st.integers(start + 1, total))
        _assert_pieces_match_clip(small_trace, start, end)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_hand_built_trace_ranges(self, small_workload, data):
        trace = data.draw(_hand_built_traces(small_workload))
        total = trace.total_instructions
        start = data.draw(st.integers(-3, total + 3))
        end = data.draw(st.integers(-3, total + 3))
        if 0 <= start < end <= total:
            _assert_pieces_match_clip(trace, start, end)
        else:
            _assert_same_bad_range_error(trace, start, end)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_real_trace_bad_ranges(self, small_trace, data):
        total = small_trace.total_instructions
        start = data.draw(st.integers(-total, 2 * total))
        end = data.draw(st.one_of(
            st.integers(-total, start), st.integers(total + 1, 2 * total)
        ))
        _assert_same_bad_range_error(small_trace, start, end)


class TestWalkPieces:
    """The walk's inline piece arithmetic walks ``piece_bounds``' pieces."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_each_range_books_its_pieces(self, small_trace, data):
        total = small_trace.total_instructions
        metrics = MetricsRegistry()
        simulator = TimingSimulator(small_trace, CONFIG_A, metrics=metrics)
        state = simulator.new_state()
        for _ in range(data.draw(st.integers(1, 6))):
            start = data.draw(st.integers(0, total - 1))
            end = data.draw(st.integers(start + 1, total))
            pieces = list(small_trace.piece_bounds(start, end))
            before = metrics.value(DETAILED_PIECES)
            walked = simulator.simulate_range(start, end, state=state)
            assert metrics.value(DETAILED_PIECES) - before == len(pieces)
            assert walked.instructions == sum(
                n * int(small_trace.rep_lengths[index])
                for index, _, n in pieces
            )


def _assert_close(left, right, path="result", floor=1e-300):
    """Nested dicts/lists equal; floats to FLOAT_RTOL relative to
    ``max(|value|, floor)``."""
    if isinstance(left, dict):
        assert left.keys() == right.keys(), path
        for key in left:
            _assert_close(left[key], right[key], f"{path}.{key}", floor)
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right), path
        for i, (a, b) in enumerate(zip(left, right)):
            _assert_close(a, b, f"{path}[{i}]", floor)
    elif isinstance(left, float) or isinstance(right, float):
        assert left == pytest.approx(
            right, rel=FLOAT_RTOL, abs=FLOAT_RTOL * floor
        ), path
    else:
        assert left == right, path


class TestSplitAdditivity:
    """Cutting a warmed walk at rep boundaries changes nothing."""

    @pytest.mark.parametrize("config", [CONFIG_A, CONFIG_B],
                             ids=lambda c: c.name)
    @pytest.mark.parametrize("trace_name", ["small_trace", "lucas_trace"])
    def test_rep_aligned_cuts_match_full_run(self, request, trace_name,
                                             config):
        trace = request.getfixturevalue(trace_name)
        simulator = TimingSimulator(trace, config)
        full = simulator.simulate_full()
        total = trace.total_instructions

        @given(positions=st.lists(st.integers(0, total - 1), max_size=40),
               round_up=st.booleans())
        @settings(max_examples=12, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])
        def check(positions, round_up):
            side = 1 if round_up else 0
            cuts = sorted({0, total} | {
                trace.rep_bounds(p, p + 1)[side] for p in positions
            })
            state = simulator.new_state()
            chained = SimulationResult()
            for a, b in zip(cuts[:-1], cuts[1:]):
                simulator.simulate_range(a, b, state=state, result=chained)
            _assert_close(dataclasses.asdict(chained),
                          dataclasses.asdict(full))

        check()


def _detailed_instructions(runner):
    return runner.obs.metrics.value(DETAILED_INSTRUCTIONS)


@pytest.fixture(scope="module")
def all_methods_run(test_sampling, small_trace):
    runner = ExperimentRunner(
        sampling=test_sampling, cache=ResultCache(enabled=False),
        workload_scale=0.04,
    )
    run = runner.run_benchmark("gzip", CONFIG_A)
    assert run.total_instructions == small_trace.total_instructions
    return run, _detailed_instructions(runner)


class TestOneWalk:
    @pytest.mark.parametrize("method", registered_methods())
    def test_method_set_independence(self, test_sampling, all_methods_run,
                                     method):
        """X alone reads exactly what X reads beside every other method."""
        together, _ = all_methods_run
        runner = ExperimentRunner(
            sampling=test_sampling, cache=ResultCache(enabled=False),
            workload_scale=0.04, methods=(method,),
        )
        alone = runner.run_benchmark("gzip", CONFIG_A)
        # CPIs and hit rates are O(1), and per-phase contributions are
        # differences of them, so tolerances are relative to max(|x|, 1):
        # the grid's cut points only change the order of float sums.
        _assert_close(alone.to_dict()["methods"][method],
                      together.to_dict()["methods"][method], floor=1.0)
        assert (method in alone.diagnostics) == \
            (method in together.diagnostics)
        if method in alone.diagnostics:
            _assert_close(alone.diagnostics[method],
                          together.diagnostics[method], floor=1.0)

    def test_uncached_run_walks_the_trace_once(self, all_methods_run,
                                               small_trace):
        _, detailed = all_methods_run
        assert detailed == small_trace.total_instructions

    @given(first=st.sets(st.sampled_from(registered_methods()),
                         min_size=1, max_size=2))
    @settings(max_examples=4, deadline=None)
    def test_partial_hit_walks_at_most_once(self, first):
        from repro.config import SamplingConfig

        sampling = SamplingConfig(
            fine_interval_size=1000, fine_kmax=10, coarse_kmax=3,
            resample_threshold=3000, kmeans_seeds=2,
        )
        with tempfile.TemporaryDirectory() as cache_dir:
            def runner(methods):
                return ExperimentRunner(
                    sampling=sampling, cache=ResultCache(cache_dir),
                    workload_scale=0.04, methods=methods,
                )

            seed = runner(tuple(sorted(first)))
            total = seed.run_benchmark("gzip", CONFIG_A).total_instructions
            assert _detailed_instructions(seed) == total
            grown = runner(None)
            grown.run_benchmark("gzip", CONFIG_A)
            assert 0 < _detailed_instructions(grown) <= total


#: The SimPoint family: the methods that share one fine clustering.
FINE_FAMILY = ("simpoint", "early_sp", "stratified")


def _fine_family_plans(trace, sampling, methods, context=None):
    """Plan and diag of each method, on *context* or a fresh one each."""
    out = {}
    for method in methods:
        ctx = context or PlanContext(trace, sampling, "gzip")
        plan, diag = get_sampler(method).build_plan(ctx)
        out[method] = (plan, diag.to_dict())
    return out


#: The base sampler, then one variant per clustering-key input.
CLUSTERING_VARIANTS = (
    "base", "kmax", "max_cluster_samples", "metric", "random_seed",
)


def _clustering_variants(sampling):
    """SimPoint samplers that differ in one clustering-key input each."""
    return {
        "base": SimPoint(sampling),
        "kmax": SimPoint(sampling, kmax=4),
        "max_cluster_samples": SimPoint(sampling, max_cluster_samples=40),
        "metric": SimPoint(sampling, metric="loop_frequency"),
        "random_seed": SimPoint(dataclasses.replace(sampling,
                                                    random_seed=7)),
    }


def _variant_plan(sampler, context):
    plan = sampler.sample(context.fine_profile(), benchmark="gzip",
                          context=context)
    return plan, sampler.last_diagnostics.to_dict()


@pytest.fixture(scope="module")
def fresh_fine_family(small_trace, test_sampling):
    return _fine_family_plans(small_trace, test_sampling, FINE_FAMILY)


@pytest.fixture(scope="module")
def fresh_variants(small_trace, test_sampling):
    return {
        name: _variant_plan(
            sampler, PlanContext(small_trace, test_sampling, "gzip")
        )
        for name, sampler in _clustering_variants(test_sampling).items()
    }


class TestSharedFineClustering:
    @given(methods=st.lists(st.sampled_from(FINE_FAMILY), min_size=1,
                            max_size=len(FINE_FAMILY), unique=True))
    @settings(max_examples=12, deadline=None)
    def test_method_set_independence(self, small_trace, test_sampling,
                                     fresh_fine_family, methods):
        """Any subset, in any order, on one context equals fresh builds."""
        shared = PlanContext(small_trace, test_sampling, "gzip")
        assert _fine_family_plans(
            small_trace, test_sampling, methods, shared
        ) == {method: fresh_fine_family[method] for method in methods}

    @given(order=st.permutations(CLUSTERING_VARIANTS))
    @settings(max_examples=8, deadline=None)
    def test_memo_key_isolation(self, small_trace, test_sampling,
                                fresh_variants, order):
        """Differently configured samplers never share a clustering."""
        shared = PlanContext(small_trace, test_sampling, "gzip")
        variants = _clustering_variants(test_sampling)
        for name in order:
            assert _variant_plan(variants[name], shared) == \
                fresh_variants[name], name

    def test_variants_cluster_differently(self, fresh_variants):
        """Each key input really changes the plan, so the isolation
        property above is not vacuous."""
        base, _ = fresh_variants["base"]
        for name, (plan, _) in fresh_variants.items():
            if name != "base":
                assert plan != base, name
