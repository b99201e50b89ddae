"""Golden accuracy-regression pins for the two-level sampling pipeline.

The paper's claim is speed at *preserved accuracy*; ``repro bench``
guards the speed half, this module guards the accuracy half.  The
CPI/L1/L2 deviations of the COASTS and multi-level plans against the
detailed baseline are pinned to the values the pipeline produced when
baseline, points and diagnostics moved onto one warmed detailed walk.  The pipeline is deterministic (seeded
clustering, analytic simulators), so these match to near machine
precision on any host; a drift means a numerics change in the kernels,
the samplers, or the detailed model — which must be deliberate.

To re-pin after an intentional numerics change, print the run's
deviations (see the fixture below) and update GOLDEN.
"""

import pytest

from repro.config import CONFIG_A, SamplingConfig
from repro.harness.cache import ResultCache
from repro.harness.runner import ExperimentRunner

#: Deviations of each method vs the detailed baseline (gzip @ scale
#: 0.04, config A): cpi is relative, the hit rates are absolute.
GOLDEN = {
    "coasts": {
        "cpi": 0.12718785261501706,
        "l1_hit_rate": 0.06311318025779966,
        "l2_hit_rate": 0.0867961016241855,
    },
    "multilevel": {
        "cpi": 0.1425059913706307,
        "l1_hit_rate": 0.07713312904566594,
        "l2_hit_rate": 0.08969853228655944,
    },
}

GOLDEN_BASELINE_CPI = 0.5899704046485993

#: Relative tolerance: tight enough to catch any algorithmic change,
#: loose enough for libm/platform rounding differences.
RTOL = 1e-9


@pytest.fixture(scope="module")
def golden_run():
    sampling = SamplingConfig(
        fine_interval_size=1000,
        fine_kmax=10,
        coarse_kmax=3,
        resample_threshold=3000,
        kmeans_seeds=2,
    )
    # Every registered method runs: a method's numbers do not depend on
    # which others share the run's one detailed walk.
    runner = ExperimentRunner(
        sampling=sampling,
        cache=ResultCache(enabled=False),
        workload_scale=0.04,
    )
    return runner.run_benchmark("gzip", CONFIG_A)


class TestGoldenAccuracy:
    def test_baseline_cpi_pinned(self, golden_run):
        assert golden_run.baseline.cpi == pytest.approx(
            GOLDEN_BASELINE_CPI, rel=RTOL
        )

    @pytest.mark.parametrize("method", sorted(GOLDEN))
    def test_method_deviations_pinned(self, golden_run, method):
        deviation = golden_run.methods[method].deviation
        expected = GOLDEN[method]
        assert deviation.cpi == pytest.approx(expected["cpi"], rel=RTOL)
        assert deviation.l1_hit_rate == pytest.approx(
            expected["l1_hit_rate"], rel=RTOL
        )
        assert deviation.l2_hit_rate == pytest.approx(
            expected["l2_hit_rate"], rel=RTOL
        )

    @pytest.mark.parametrize("method", sorted(GOLDEN))
    def test_deviations_within_paper_regime(self, golden_run, method):
        # Sanity bound independent of the exact pins: sampled estimates
        # must stay in the paper's small-deviation regime, nowhere near
        # a broken estimate.
        deviation = golden_run.methods[method].deviation
        assert deviation.cpi < 0.20
        assert deviation.l1_hit_rate < 0.10
        assert deviation.l2_hit_rate < 0.15
