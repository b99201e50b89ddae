"""Tests for the experiment harness: cache, runner, tables, experiments."""

import json
from dataclasses import asdict, replace

import pytest

from repro.config import CONFIG_A, CONFIG_B
from repro.detailed.timing import TimingSimulator
from repro.errors import HarnessError
from repro.harness import (
    BenchmarkRun,
    ExperimentRunner,
    ResultCache,
    ablation_coarse_kmax,
    ablation_fine_interval,
    ablation_metric,
    ablation_projection_dim,
    ablation_representative_policy,
    ablation_resample_threshold,
    arithmetic_mean,
    format_percent,
    format_table,
    geomean,
    granularity_experiment,
    motivation_experiment,
    rows_to_csv,
    speedup_experiment,
    statistics_experiment,
)
from repro.harness import experiments
from repro.harness.runner import simulate_plans
from repro.obs import DETAILED_INSTRUCTIONS
from repro.sampling.estimate import evaluate_plan

from .conftest import TEST_SCALE
from .test_properties import FLOAT_RTOL


@pytest.fixture(scope="module")
def runner(tmp_path_factory, test_sampling):
    cache_dir = tmp_path_factory.mktemp("cache")
    # 0.12 keeps the coarse/fine cost hierarchy intact (at very small
    # scales COASTS' few-but-huge points stop beating SimPoint, which is
    # itself a property the integration tests cover at full scale).
    return ExperimentRunner(
        sampling=test_sampling,
        cache=ResultCache(cache_dir),
        workload_scale=0.12,
    )


@pytest.fixture(scope="module")
def gzip_run(runner):
    return runner.run_benchmark("gzip", CONFIG_A)


class TestTables:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(HarnessError):
            geomean([1.0, 0.0])

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 3.0]) == 2.0

    def test_format_table_alignment(self):
        text = format_table(["name", "x"], [["a", 1.0], ["bb", 20.5]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert len(lines) == 5

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(HarnessError):
            format_table(["a"], [["x", "y"]])

    def test_format_percent(self):
        assert format_percent(0.1234) == "12.34%"

    def test_rows_to_csv(self):
        csv = rows_to_csv(["a", "b"], [[1.0, "x"]])
        assert csv.splitlines() == ["a,b", "1.00,x"]


class TestRunner:
    def test_run_contains_all_methods(self, gzip_run):
        assert set(gzip_run.methods) == {
            "simpoint", "early_sp", "coasts", "multilevel",
            "stratified", "ranked_set",
        }
        assert gzip_run.baseline.cpi > 0

    def test_speedup_of_self_is_one(self, gzip_run):
        assert gzip_run.speedup("simpoint") == pytest.approx(1.0)

    def test_coasts_speedup_over_simpoint(self, gzip_run):
        assert gzip_run.speedup("coasts") > 1.0

    def test_unknown_method_raises(self, gzip_run):
        with pytest.raises(HarnessError):
            gzip_run.speedup("magic")

    def test_serialization_roundtrip(self, gzip_run):
        payload = gzip_run.to_dict()
        rebuilt = BenchmarkRun.from_dict(payload)
        assert rebuilt == gzip_run

    def test_serialization_matches_asdict(self, gzip_run):
        # The shallow copies of the scalar records keep asdict's JSON.
        payload = gzip_run.to_dict()
        assert payload["baseline"] == asdict(gzip_run.baseline)
        for name, result in gzip_run.methods.items():
            assert json.dumps(payload["methods"][name]) == json.dumps({
                "stats": asdict(result.stats),
                "estimate": asdict(result.estimate),
                "deviation": asdict(result.deviation),
            })

    def test_cache_key_embeds_the_spec_repr(self, runner):
        from repro.workloads.registry import get_spec

        spec = get_spec("fam:irregular[3]")
        assert spec.fingerprint == repr(spec)
        assert get_spec("fam:irregular[3]").fingerprint is spec.fingerprint
        key = runner._cache_key("fam:irregular[3]", CONFIG_A)
        assert key.startswith(f"run:fam:irregular[3]:{spec!r}:{CONFIG_A!r}:")

    @pytest.mark.parametrize("name", ["gzip", "fam:irregular[3]"])
    def test_cache_key_equals_the_rendered_formula(self, runner, name):
        # Renderings are memoised per config object; every key stays the
        # bytes the full formula renders, so no cache entry moves.
        from repro.workloads.registry import get_spec

        for config in (CONFIG_A, CONFIG_B, replace(CONFIG_A, rob_entries=64),
                       CONFIG_A.with_name("other")):
            expected = (
                f"run:{name}:{get_spec(name)!r}:{config!r}:"
                f"{runner.sampling!r}:scale={runner.workload_scale}"
            )
            assert runner._cache_key(name, config) == expected
            assert runner._cache_key(name, config) == expected

    def test_cache_hit_returns_equal_run(self, runner, gzip_run):
        again = runner.run_benchmark("gzip", CONFIG_A)
        assert again == gzip_run

    def test_unknown_methods_rejected(self, test_sampling):
        with pytest.raises(HarnessError):
            ExperimentRunner(sampling=test_sampling, methods=("bogus",))

    def test_plans_memoised(self, runner):
        first, again = runner.plans("gzip"), runner.plans("gzip")
        assert list(first) == list(runner.methods)
        for name, plan in first.items():
            assert again[name] is plan

    def test_speedup_over_full_exceeds_one(self, gzip_run):
        for method in gzip_run.methods:
            assert gzip_run.speedup_over_full(method) > 1.0


class TestMethodSetCache:
    """Cached runs extend, rather than invalidate, when methods grow."""

    def _runner(self, tmp_path, test_sampling, methods):
        return ExperimentRunner(
            sampling=test_sampling,
            cache=ResultCache(tmp_path / "cache"),
            workload_scale=0.12,
            methods=methods,
        )

    def test_subset_request_is_pure_hit(self, tmp_path, test_sampling):
        full = self._runner(tmp_path, test_sampling,
                            ("simpoint", "coasts"))
        full.run_benchmark("gzip", CONFIG_A)
        sub = self._runner(tmp_path, test_sampling, ("coasts",))
        run = sub.run_benchmark("gzip", CONFIG_A)
        assert tuple(run.methods) == ("coasts",)
        assert sub.obs.tracer.roots[-1].attributes["cache_hit"]

    def test_extension_computes_only_missing(self, tmp_path,
                                             test_sampling):
        first = self._runner(tmp_path, test_sampling, ("coasts",))
        base = first.run_benchmark("gzip", CONFIG_A)
        both = self._runner(tmp_path, test_sampling,
                            ("coasts", "multilevel"))
        extended = both.run_benchmark("gzip", CONFIG_A)
        assert set(extended.methods) == {"coasts", "multilevel"}
        # The cached method came back byte-identical...
        assert extended.methods["coasts"] == base.methods["coasts"]
        assert extended.baseline == base.baseline
        # ...and the new one matches a fresh missing-only run exactly.
        fresh = self._runner(tmp_path / "other", test_sampling,
                             ("multilevel",))
        alone = fresh.run_benchmark("gzip", CONFIG_A)
        assert extended.methods["multilevel"] == \
            alone.methods["multilevel"]

    def test_extension_then_full_set_is_pure_hit(self, tmp_path,
                                                 test_sampling):
        self._runner(tmp_path, test_sampling,
                     ("coasts",)).run_benchmark("gzip", CONFIG_A)
        both = self._runner(tmp_path, test_sampling,
                            ("coasts", "ranked_set"))
        both.run_benchmark("gzip", CONFIG_A)
        again = self._runner(tmp_path, test_sampling,
                             ("coasts", "ranked_set"))
        run = again.run_benchmark("gzip", CONFIG_A)
        assert set(run.methods) == {"coasts", "ranked_set"}
        assert again.obs.tracer.roots[-1].attributes["cache_hit"]


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", {"a": 1})
        assert cache.get("k") == {"a": 1}

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get("absent") is None

    def test_disabled_cache_stores_nothing(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=False)
        cache.put("k", 1)
        assert cache.get("k") is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", 1)
        assert cache.clear() == 1
        assert cache.get("k") is None


class TestExperiments:
    def test_speedup_experiment(self, runner):
        series = speedup_experiment(
            runner, "coasts", names=["gzip", "lucas"]
        )
        assert set(series.speedups) == {"gzip", "lucas"}
        assert series.geomean > 0

    def test_statistics_experiment(self, runner):
        rows = statistics_experiment(runner, names=["gzip"])
        methods = [r.method for r in rows]
        assert methods == ["coasts", "simpoint", "multilevel"]
        coasts, simpoint, _ = rows
        assert coasts.mean_interval_size > simpoint.mean_interval_size
        assert coasts.mean_functional_fraction < \
            simpoint.mean_functional_fraction

    def test_motivation_experiment(self, runner):
        rows = motivation_experiment(runner, kmax=8, names=["gzip"])
        assert rows[0].benchmark == "gzip"
        assert 1 <= rows[0].phase_count <= 8
        assert 0 < rows[0].last_point_position <= 1

    def test_granularity_experiment(self, runner):
        series = granularity_experiment(runner, benchmark="lucas")
        assert len(series.fine_values) > len(series.coarse_values)
        assert series.fine_selected and series.coarse_selected
        # Figure 1's claim: the fine-grained curve is more chaotic.
        assert series.fine_variation > series.coarse_variation


#: Every ablation sweep, with small settings for the test-scale trace.
ABLATIONS = {
    "coarse_kmax": (ablation_coarse_kmax, {"kmaxes": (1, 2, 3)}),
    "fine_interval": (ablation_fine_interval, {"sizes": (500, 1000, 2000)}),
    "resample_threshold": (ablation_resample_threshold,
                           {"thresholds": (1000, 3000, 10000)}),
    "projection_dim": (ablation_projection_dim, {"dims": (5, 15)}),
    "metric": (ablation_metric, {}),
    "representative_policy": (ablation_representative_policy, {}),
}


class TestAblations:
    """Every ablation sweep evaluates all its plans in one warmed walk."""

    @pytest.mark.parametrize("name", list(ABLATIONS))
    def test_one_walk_matches_per_plan_evaluation(self, name, test_sampling,
                                                  monkeypatch):
        ablation, kwargs = ABLATIONS[name]
        runner = ExperimentRunner(
            sampling=test_sampling, cache=ResultCache(enabled=False),
            workload_scale=TEST_SCALE,
        )
        trace = runner.trace("gzip")
        swept = []

        def recording(simulator, plans, **options):
            swept.extend(plans)
            return simulate_plans(simulator, plans, **options)

        monkeypatch.setattr(experiments, "simulate_plans", recording)
        walked = runner.obs.metrics.counter(DETAILED_INSTRUCTIONS)
        rows = ablation(runner, "gzip", **kwargs)
        assert walked.value == trace.total_instructions
        assert len(swept) == len(rows) > 1

        # Each row matches evaluating its plan on its own against a
        # separate full-trace baseline run.
        simulator = TimingSimulator(trace, CONFIG_A)
        baseline = simulator.simulate_full().metrics()
        for row, plan in zip(rows, swept):
            alone = evaluate_plan(plan, simulator, baseline).deviation
            assert row.values["cpi_deviation"] == pytest.approx(
                alone.cpi, rel=FLOAT_RTOL, abs=FLOAT_RTOL
            )
            if "l2_deviation" in row.values:
                assert row.values["l2_deviation"] == pytest.approx(
                    alone.l2_hit_rate, rel=FLOAT_RTOL, abs=FLOAT_RTOL
                )
