"""Tests for the block-level timing simulator."""

import dataclasses

import numpy as np
import pytest

from repro.config import CONFIG_A, CONFIG_B, CacheConfig
from repro.detailed import SimulationResult, TimingSimulator
from repro.detailed.timing import LOOP_BRANCH
from repro.engine import Segment, Trace
from repro.errors import TraceError
from repro.obs import DETAILED_CALLS, DETAILED_PIECES, MetricsRegistry
from repro.sampling.estimate import simulate_tagged_ranges
from repro.uarch import (
    advance_loop_branch,
    exit_loop_branch,
    stationary_mispredict_rate,
)


@pytest.fixture(scope="module")
def simulator(small_trace):
    return TimingSimulator(small_trace, CONFIG_A)


@pytest.fixture(scope="module")
def full_result(simulator):
    return simulator.simulate_full()


class TestFullSimulation:
    def test_simulates_every_instruction(self, simulator, full_result,
                                         small_trace):
        assert full_result.instructions == small_trace.total_instructions

    def test_metrics_in_valid_ranges(self, full_result):
        metrics = full_result.metrics()
        assert metrics.cpi > 0
        assert 0 <= metrics.l1_hit_rate <= 1
        assert 0 <= metrics.l2_hit_rate <= 1

    def test_cpi_at_least_width_bound(self, full_result):
        assert full_result.cpi >= 1.0 / CONFIG_A.issue_width

    def test_deterministic(self, simulator, full_result):
        again = simulator.simulate_full()
        assert again.cycles == full_result.cycles
        assert again.l1d_misses == full_result.l1d_misses

    def test_branches_counted(self, full_result):
        assert full_result.branches > 0
        assert 0 <= full_result.mispredict_rate <= 1


class TestRangeSimulation:
    def test_ranges_compose_to_full(self, simulator, small_trace,
                                    full_result):
        state = simulator.new_state()
        result = SimulationResult()
        total = small_trace.total_instructions
        for bound in range(0, total, total // 7):
            end = min(bound + total // 7, total)
            if end > bound:
                simulator.simulate_range(bound, end, state=state,
                                         result=result)
        if total % (total // 7):
            pass  # last partial chunk already included above
        # Whole-rep rounding at the split points may duplicate a few reps.
        assert result.instructions >= full_result.instructions
        assert result.instructions <= full_result.instructions * 1.01
        assert result.cycles == pytest.approx(full_result.cycles, rel=0.02)

    def test_state_carries_warmth(self, simulator, small_trace):
        total = small_trace.total_instructions
        probe = (total // 2, total // 2 + 2000)

        cold = simulator.simulate_range(*probe)
        state = simulator.new_state()
        simulator.simulate_range(0, probe[0], state=state,
                                 result=SimulationResult())
        warm = simulator.simulate_range(*probe, state=state)
        assert warm.l1d_misses <= cold.l1d_misses
        assert warm.cycles <= cold.cycles

    def test_reset_state_walks_like_a_cold_one(self, simulator,
                                               full_result):
        state = simulator.new_state()
        simulator.simulate_range(0, simulator.trace.total_instructions,
                                 state=state)
        state.reset()
        again = simulator.simulate_range(
            0, simulator.trace.total_instructions, state=state
        )
        assert again == full_result

    def test_pieces_counter_counts_each_piece_walked(self, small_trace):
        metrics = MetricsRegistry()
        simulator = TimingSimulator(small_trace, CONFIG_A, metrics=metrics)
        simulator.simulate_full()
        assert metrics.value(DETAILED_PIECES) == small_trace.n_segments
        total = small_trace.total_instructions
        cut = (total // 3, total // 2 + 1)
        simulator.simulate_range(*cut)
        assert metrics.value(DETAILED_PIECES) == small_trace.n_segments + len(
            list(small_trace.piece_bounds(*cut))
        )
        assert metrics.value(DETAILED_CALLS) == 2

    def test_empty_point_rejected(self, simulator):
        with pytest.raises(TraceError):
            simulator.simulate_range(100, 100)

    def test_out_of_trace_range_rejected(self, simulator, small_trace):
        total = small_trace.total_instructions
        for bad in ((-1, 10), (0, total + 1), (10, 5)):
            with pytest.raises(TraceError, match="bad clip range"):
                simulator.simulate_range(*bad)


class TestLoopBranchTable:
    def test_table_equals_the_branch_helpers(self):
        """Every (counter, takens, exit) a piece can bring, takens past
        saturation included, reads what the two helpers compute."""
        for counter in range(4):
            for takens in range(11):
                for includes_end in (False, True):
                    state, missed = advance_loop_branch(counter, takens)
                    mispredicts = float(missed)
                    if includes_end:
                        state, exit_missed = exit_loop_branch(state)
                        mispredicts += exit_missed
                    entry = LOOP_BRANCH[counter, min(takens, 3),
                                        includes_end]
                    assert entry == (state, mispredicts)
                    assert type(entry[1]) is float


class TestL1IEvictionFree:
    def test_quick_program_fits_both_configs(self, small_trace):
        for config in (CONFIG_A, CONFIG_B):
            assert TimingSimulator(small_trace, config).l1i_eviction_free

    def test_conflicting_code_keeps_the_real_cache(self, small_trace):
        tiny = dataclasses.replace(
            CONFIG_A, icache=CacheConfig("il1", 256, 1, 32, 1)
        )
        simulator = TimingSimulator(small_trace, tiny)
        assert not simulator.l1i_eviction_free
        state = simulator.new_state()
        result = simulator.simulate_full()
        simulator.simulate_range(0, small_trace.total_instructions,
                                 state=state)
        assert state.fetched == set()
        # An 8-line direct-mapped L1I thrashes: a warm re-walk misses
        # about as often as the cold walk did.
        warm = simulator.simulate_range(0, small_trace.total_instructions,
                                        state=state)
        assert warm.l1i_misses > result.l1i_misses // 2


class TestConfigSensitivity:
    def test_configs_produce_different_results(self, small_trace,
                                               full_result):
        b = TimingSimulator(small_trace, CONFIG_B).simulate_full()
        assert b.cycles != full_result.cycles

    def test_bigger_caches_hit_more(self, small_trace, full_result):
        b = TimingSimulator(small_trace, CONFIG_B).simulate_full()
        # Config B: 128K 2-way D$ vs 16K 4-way.
        assert b.l1_hit_rate >= full_result.l1_hit_rate


class TestPhaseSensitivity:
    def test_different_regimes_have_different_cpi(self, simulator,
                                                  small_trace):
        """Iterations of different regimes must differ in CPI, otherwise
        phase analysis would have nothing to find."""
        bounds = small_trace.outer_bounds()
        schedule = small_trace.spec.schedule
        state = simulator.new_state()
        result = SimulationResult()
        simulator.simulate_range(0, int(bounds[0][0]), state=state,
                                 result=result)
        per_regime = {}
        for (start, end), regime in zip(bounds, schedule):
            piece = SimulationResult()
            simulator.simulate_range(int(start), int(end), state=state,
                                     result=piece)
            per_regime.setdefault(regime, []).append(piece.cpi)
        means = {r: sum(v) / len(v) for r, v in per_regime.items()}
        values = sorted(means.values())
        assert values[-1] / values[0] > 1.05


@pytest.fixture(scope="module")
def shared_body_trace(small_trace):
    """A loop body's block sequence run as a loop, and twice as glue."""
    loops = np.flatnonzero(small_trace.loop_id >= 0)
    body = small_trace.segment_at(int(loops[0])).blocks
    assert small_trace.program.blocks[body[-1]].ends_in_branch
    other = next(b for b in range(small_trace.program.n_blocks)
                 if b not in body)
    segments = [
        Segment(blocks=body, reps=3),
        Segment(blocks=body, reps=7, loop_id=4),
        Segment(blocks=(other,), reps=2),
        Segment(blocks=body, reps=5),
    ]
    return Trace(small_trace.workload, segments)


class TestKindStatics:
    """Statics are shared per (block sequence, is-loop) kind."""

    def test_one_statics_per_kind(self, shared_body_trace):
        simulator = TimingSimulator(shared_body_trace, CONFIG_A)
        kinds = {(seg.blocks, seg.loop_id >= 0)
                 for seg in shared_body_trace.segments}
        assert len(simulator._kind_statics) == len(kinds) == 3

    def test_only_the_loop_segment_drives_the_back_edge(
            self, shared_body_trace):
        trace = shared_body_trace
        program = trace.program
        body = trace.segment_at(0).blocks
        simulator = TimingSimulator(trace, CONFIG_A)
        state = simulator.new_state()

        glue = simulator.simulate_range(*trace.segment_span(0), state=state)
        assert state.loop_counters == {}
        branch_blocks = [b for b in body if program.blocks[b].ends_in_branch]
        assert glue.branches == 3 * len(branch_blocks)
        assert glue.mispredicts == 3 * sum(
            stationary_mispredict_rate(program.blocks[b].branch_bias)
            for b in branch_blocks
        )

        simulator.simulate_range(*trace.segment_span(1), state=state)
        counter = state.loop_counters[body[-1]]
        simulator.simulate_range(trace.segment_span(2)[0],
                                 trace.total_instructions, state=state)
        assert state.loop_counters == {body[-1]: counter}

    def test_walk_matches_per_segment_statics(self, shared_body_trace):
        trace = shared_body_trace
        walked = TimingSimulator(trace, CONFIG_A).simulate_full()
        # The reference builds one statics record per segment from its
        # Segment view instead of sharing them by kind.
        reference = TimingSimulator(trace, CONFIG_A)
        reference._kind_statics = [
            reference._build_statics(seg.blocks, seg.loop_id >= 0,
                                     int(trace.rep_lengths[index]))
            for index, seg in enumerate(trace.segments)
        ]
        reference._segment_kind = list(range(trace.n_segments))
        assert walked == reference.simulate_full()

    def test_walk_materialises_no_segment_view(self, small_trace):
        trace = Trace(small_trace.workload, arrays=small_trace.arrays())
        simulator = TimingSimulator(trace, CONFIG_A)
        simulator.simulate_full()
        total = trace.total_instructions
        simulate_tagged_ranges(simulator, {
            "all": [(0, total)], "mid": [(total // 3, total // 2 + 1)],
        })
        assert trace._segment_views == [None] * trace.n_segments
