"""End-to-end integration tests: the paper's claims at reduced scale.

These run the full pipeline (workload -> trace -> profile -> plans ->
baseline + point simulation -> estimates) on mid-scale workloads, asserting
the *shape* results the paper reports.
"""

import pytest

from repro.config import CONFIG_A, SamplingConfig
from repro.detailed import TimingSimulator
from repro.engine import FunctionalSimulator, build_trace
from repro.harness import ExperimentRunner, ResultCache
from repro.sampling import (
    Coasts,
    MultiLevelSampler,
    SimPoint,
    plan_cost,
    speedup,
)
from repro.workloads import generate_workload, get_spec, scaled_spec

#: Mid-scale factor: big enough for the coarse/fine cost hierarchy to
#: hold, small enough for CI.
SCALE = 0.25

#: Sampling config matched to the mid scale.
SAMPLING = SamplingConfig(
    fine_interval_size=1000,
    fine_kmax=5,
    coarse_kmax=3,
    resample_threshold=5000,  # = interval x Kmax, the paper's rule
    kmeans_seeds=3,
)


@pytest.fixture(scope="module")
def gzip_setup():
    trace = build_trace(generate_workload(scaled_spec(get_spec("gzip"), SCALE)))
    functional = FunctionalSimulator(trace)
    profile = functional.profile_fixed_intervals(SAMPLING.fine_interval_size)
    simpoint = SimPoint(SAMPLING).sample(profile, benchmark="gzip")
    coasts = Coasts(SAMPLING).sample(trace)
    multilevel = MultiLevelSampler(SAMPLING).sample(trace, coarse_plan=coasts)
    return trace, simpoint, coasts, multilevel


class TestPaperShapeOnGzip:
    def test_coasts_collapses_functional_time(self, gzip_setup):
        """Paper: ~90% functional-simulation reduction vs SimPoint."""
        _, simpoint, coasts, _ = gzip_setup
        assert coasts.functional_instructions < \
            0.4 * simpoint.functional_instructions

    def test_multilevel_cuts_detail_versus_coasts(self, gzip_setup):
        """Paper: ~50% detailed-simulation reduction via re-sampling."""
        _, _, coasts, multilevel = gzip_setup
        assert multilevel.detail_instructions < \
            0.8 * coasts.detail_instructions

    def test_speedup_ordering(self, gzip_setup):
        """multilevel > coasts > 1 over SimPoint (Figs 3 and 4)."""
        _, simpoint, coasts, multilevel = gzip_setup
        s_coasts = speedup(coasts, simpoint)
        s_multi = speedup(multilevel, simpoint)
        assert s_multi > s_coasts > 1.0

    def test_simpoint_functional_dominates_its_cost(self, gzip_setup):
        """Paper Table III: fixed-length SimPoint fast-forwards ~94% of the
        program."""
        _, simpoint, _, _ = gzip_setup
        assert simpoint.functional_fraction > 0.5
        cost = plan_cost(simpoint)
        assert cost.functional_fraction > cost.detail_fraction * 10

    def test_accuracy_of_all_methods(self, gzip_setup):
        trace, simpoint, coasts, multilevel = gzip_setup
        simulator = TimingSimulator(trace, CONFIG_A)
        baseline = simulator.simulate_full().metrics()
        from repro.sampling import evaluate_plan

        cache = {}
        for plan in (simpoint, coasts, multilevel):
            evaluation = evaluate_plan(plan, simulator, baseline,
                                       cache=cache)
            assert evaluation.deviation.cpi < 0.5
            assert evaluation.deviation.l2_hit_rate < 0.5


class TestGccPathology:
    def test_coasts_loses_on_gcc_multilevel_recovers(self):
        """Section V-A/V-B: COASTS alone is slower than SimPoint on gcc;
        multi-level recovers most of the gap."""
        trace = build_trace(generate_workload(get_spec("gcc")))
        functional = FunctionalSimulator(trace)
        from repro.config import DEFAULT_SAMPLING

        profile = functional.profile_fixed_intervals(
            DEFAULT_SAMPLING.fine_interval_size
        )
        simpoint = SimPoint(DEFAULT_SAMPLING).sample(profile, benchmark="gcc")
        coasts = Coasts(DEFAULT_SAMPLING).sample(trace)
        multilevel = MultiLevelSampler(DEFAULT_SAMPLING).sample(
            trace, coarse_plan=coasts
        )
        assert speedup(coasts, simpoint) < 1.0
        assert speedup(multilevel, simpoint) > \
            5 * speedup(coasts, simpoint)
        # the giant coarse point is detail-simulated almost entirely
        assert coasts.detail_fraction > 0.5


class TestRunnerEndToEnd:
    def test_quick_suite_pipeline(self, tmp_path):
        runner = ExperimentRunner(
            sampling=SAMPLING,
            cache=ResultCache(tmp_path),
            workload_scale=SCALE,
            methods=("simpoint", "coasts", "multilevel"),
        )
        run = runner.run_benchmark("lucas", CONFIG_A)
        assert run.methods["coasts"].stats.n_points <= 3
        assert run.speedup("multilevel") > 1.0
        # cached rerun must agree
        assert runner.run_benchmark("lucas", CONFIG_A) == run
