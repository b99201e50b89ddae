"""Tests for the block-level timing simulator."""

import pytest

from repro.config import CONFIG_A, CONFIG_B
from repro.detailed import SimulationResult, TimingSimulator
from repro.errors import TraceError


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

    def test_empty_point_rejected(self, simulator):
        with pytest.raises(TraceError):
            simulator.simulate_range(100, 100)


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
