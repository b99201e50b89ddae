"""Tests for the performance-regression bench subsystem and its CLI."""

import json

import pytest

from repro.backend import get_backend
from repro.bench import (
    BENCH_SCHEMA_VERSION,
    BENCH_SUITE,
    BenchCase,
    BenchReport,
    compare_reports,
    load_report,
    run_bench,
    select_cases,
)
from repro.bench.runner import BENCH_REPS, BackendTiming, CaseResult
from repro.cli import EXIT_PARTIAL, main
from repro.errors import HarnessError
from repro.obs import ObsContext


def _fake_case(name="fake", backends=("vectorized", "scalar")):
    calls = {"setup": 0, "run": []}

    def setup(scale):
        calls["setup"] += 1
        return {"scale": scale}

    def run(payload):
        calls["run"].append(get_backend())

    case = BenchCase(
        name=name, description="a fake case", backends=tuple(backends),
        setup=setup, run=run,
    )
    return case, calls


def _result(name="fake", vec=0.01, scal=0.05, backends=("vectorized", "scalar")):
    timings = {}
    if "vectorized" in backends:
        timings["vectorized"] = BackendTiming("vectorized", (vec, vec * 2))
    if "scalar" in backends:
        timings["scalar"] = BackendTiming("scalar", (scal, scal * 2))
    return CaseResult(
        name=name, description="d", reps=2, warmup=0, timings=timings
    )


class TestSuite:
    def test_default_suite_order(self):
        names = [case.name for case in select_cases(None)]
        assert names == [case.name for case in BENCH_SUITE]
        assert "kmeans_sweep" in names and "detailed_timing" in names

    def test_filter_selects_substring(self):
        chosen = select_cases("kmeans")
        assert [case.name for case in chosen] == \
            ["kmeans_sweep", "kmeans_sweep_coarse"]

    def test_unmatched_filter_rejected(self):
        with pytest.raises(HarnessError, match="no bench case"):
            select_cases("warp_drive")

    def test_speedup_cases_have_scalar_reference(self):
        for case in BENCH_SUITE:
            assert case.backends[0] == "vectorized"
            assert set(case.backends) <= {"vectorized", "scalar"}

    def test_engine_cases_present_with_layer(self):
        by_name = {case.name: case for case in BENCH_SUITE}
        for name in ("trace_build", "coarse_profile", "structure_profile",
                     "functional_run"):
            assert by_name[name].layer == "engine"
            assert by_name[name].backends == ("vectorized", "scalar")
        assert by_name["kmeans_sweep"].layer == "analysis"

    def test_trace_filter_selects_engine_case(self):
        chosen = select_cases("trace_")
        assert [case.name for case in chosen] == ["trace_build"]

    def test_glob_filter_matches_whole_name(self):
        assert [c.name for c in select_cases("trace_*")] == ["trace_build"]
        assert [c.name for c in select_cases("*_profile")] == \
            ["coarse_profile", "structure_profile"]

    def test_layer_filter_selects_whole_layer(self):
        chosen = select_cases("engine")
        assert [case.name for case in chosen] == \
            ["trace_build", "coarse_profile", "structure_profile",
             "functional_run"]
        assert all(case.layer == "engine" for case in chosen)

    def test_unmatched_filter_raises(self):
        with pytest.raises(HarnessError, match="no bench case"):
            select_cases("no_such_case_*")


class TestRunner:
    def test_run_counts_and_timings(self):
        case, calls = _fake_case()
        obs = ObsContext()
        results = run_bench([case], scale=0.1, reps=3, warmup=2, obs=obs)
        assert calls["setup"] == 1
        # Per backend: 2 warmup + 3 measured.
        assert calls["run"].count("vectorized") == 5
        assert calls["run"].count("scalar") == 5
        (result,) = results
        assert set(result.timings) == {"vectorized", "scalar"}
        assert len(result.timings["vectorized"].seconds) == 3
        assert result.speedup is not None and result.speedup > 0
        assert obs.metrics.value(
            BENCH_REPS, case="fake", backend="vectorized"
        ) == 3

    def test_spans_nest_under_case(self):
        case, _ = _fake_case()
        obs = ObsContext()
        run_bench([case], scale=0.1, reps=2, warmup=0, obs=obs)
        (root,) = obs.tracer.roots
        assert root.name == "bench_case"
        names = [span.name for span in root.walk()]
        assert names.count("bench_setup") == 1
        assert names.count("bench_rep") == 4  # 2 reps x 2 backends
        reps = [s for s in root.walk() if s.name == "bench_rep"]
        assert all(s.duration is not None for s in reps)

    def test_vectorized_only_case_has_no_speedup(self):
        case, _ = _fake_case(backends=("vectorized",))
        (result,) = run_bench([case], scale=0.1, reps=1, warmup=0)
        assert result.speedup is None

    def test_bad_reps_and_warmup_rejected(self):
        case, _ = _fake_case()
        with pytest.raises(HarnessError, match="reps"):
            run_bench([case], scale=0.1, reps=0)
        with pytest.raises(HarnessError, match="warmup"):
            run_bench([case], scale=0.1, reps=1, warmup=-1)

    def test_backend_timing_statistics(self):
        timing = BackendTiming("vectorized", (0.3, 0.1, 0.2))
        assert timing.best == 0.1
        assert timing.mean == pytest.approx(0.2)
        assert timing.to_dict()["best_seconds"] == 0.1


class TestReport:
    def test_build_stamps_schema_and_host(self):
        report = BenchReport.build([_result()], scale=0.25)
        assert report.schema_version == BENCH_SCHEMA_VERSION
        for key in ("python_version", "numpy_version", "platform",
                    "repro_version", "created"):
            assert key in report.host
        assert report.speedup("fake") == pytest.approx(5.0)
        assert report.best_seconds("fake") == 0.01
        assert report.case("absent") is None

    def test_write_load_round_trip(self, tmp_path):
        report = BenchReport.build(
            [_result()], scale=0.25, min_speedups={"fake": 2.0}
        )
        path = report.write(tmp_path / "bench.json")
        loaded = load_report(path)
        assert loaded.to_dict() == report.to_dict()
        assert loaded.min_speedups == {"fake": 2.0}

    def test_missing_baseline_rejected(self, tmp_path):
        with pytest.raises(HarnessError, match="not found"):
            load_report(tmp_path / "nope.json")

    def test_unreadable_baseline_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(HarnessError, match="unreadable"):
            load_report(path)

    def test_unknown_schema_version_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"schema_version": 99, "cases": []}))
        with pytest.raises(HarnessError, match="schema version"):
            load_report(path)

    def test_committed_baseline_loads(self):
        baseline = load_report("benchmarks/BENCH_baseline.json")
        assert baseline.schema_version == BENCH_SCHEMA_VERSION
        assert set(baseline.min_speedups) <= {
            case["name"] for case in baseline.cases
        }
        # The tentpole's acceptance floor: kmeans sweep >= 2x.
        assert baseline.min_speedups["kmeans_sweep"] >= 2.0
        # The engine floors: coarse profiling >= 5x, trace build >= 2x.
        assert baseline.min_speedups["coarse_profile"] >= 5.0
        assert baseline.min_speedups["trace_build"] >= 2.0


class TestCompare:
    def test_clean_comparison(self):
        baseline = BenchReport.build(
            [_result()], scale=0.25, min_speedups={"fake": 2.0}
        )
        current = BenchReport.build([_result()], scale=0.25)
        assert compare_reports(current, baseline) == []

    def test_floor_violation_flagged(self):
        baseline = BenchReport.build(
            [_result()], scale=0.25, min_speedups={"fake": 2.0}
        )
        slow = BenchReport.build(
            [_result(vec=0.04, scal=0.05)], scale=0.25
        )
        regressions = compare_reports(slow, baseline)
        assert any("floor" in r for r in regressions)

    def test_floor_demands_a_measured_ratio(self):
        baseline = BenchReport.build(
            [_result(backends=("vectorized",))], scale=0.25,
            min_speedups={"fake": 2.0},
        )
        current = BenchReport.build(
            [_result(backends=("vectorized",))], scale=0.25
        )
        regressions = compare_reports(current, baseline)
        assert any("no ratio was measured" in r for r in regressions)

    def test_relative_slowdown_flagged(self):
        baseline = BenchReport.build([_result(vec=0.01, scal=0.10)],
                                     scale=0.25)  # 10x
        current = BenchReport.build([_result(vec=0.01, scal=0.04)],
                                    scale=0.25)   # 4x
        regressions = compare_reports(current, baseline, threshold=0.5)
        assert any("below baseline" in r for r in regressions)
        # A generous threshold tolerates the same drop.
        assert compare_reports(current, baseline, threshold=0.99) == []

    def test_missing_case_flagged(self):
        baseline = BenchReport.build([_result()], scale=0.25)
        current = BenchReport.build([], scale=0.25)
        regressions = compare_reports(current, baseline)
        assert regressions == ["fake: present in baseline but not run"]

    def test_wall_clock_check_is_opt_in(self):
        # Ten times slower in wall-clock at an unchanged speedup ratio:
        # only the opt-in wall check may fire.
        baseline = BenchReport.build([_result(vec=0.01, scal=0.05)],
                                     scale=0.25)
        current = BenchReport.build([_result(vec=0.10, scal=0.50)],
                                    scale=0.25)
        assert compare_reports(current, baseline, wall=False) == []
        regressions = compare_reports(current, baseline, wall=True)
        assert any("exceeds baseline" in r for r in regressions)

    def test_bad_threshold_rejected(self):
        report = BenchReport.build([], scale=0.25)
        with pytest.raises(HarnessError, match="threshold"):
            compare_reports(report, report, threshold=0.0)


class TestBenchCLI:
    def test_list_prints_suite(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for case in BENCH_SUITE:
            assert case.name in out
            assert f"[{case.layer}:" in out

    def test_nonpositive_scale_exits_config_error(self, capsys, tmp_path):
        code = main([
            "bench", "--filter", "trace_build", "--scale", "0",
            "--out", str(tmp_path / "bench.json"),
        ])
        assert code == 2
        assert "scale" in capsys.readouterr().err

    def test_negative_scale_exits_config_error(self, capsys, tmp_path):
        code = main([
            "bench", "--filter", "trace_build", "--scale", "-0.5",
            "--out", str(tmp_path / "bench.json"),
        ])
        assert code == 2
        assert "scale" in capsys.readouterr().err

    def test_negative_reps_exits_config_error(self, capsys, tmp_path):
        code = main([
            "bench", "--filter", "trace_build", "--reps", "-3",
            "--out", str(tmp_path / "bench.json"),
        ])
        assert code == 2
        assert "reps" in capsys.readouterr().err

    def test_small_real_run_writes_report(self, capsys, tmp_path):
        out_path = tmp_path / "bench.json"
        code = main([
            "bench", "--filter", "signature_build", "--reps", "1",
            "--warmup", "0", "--out", str(out_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "signature_build" in out and "bench report written" in out
        report = load_report(out_path)
        assert report.schema_version == BENCH_SCHEMA_VERSION
        assert report.speedup("signature_build") is not None

    def test_missing_baseline_exits_config_error(self, capsys, tmp_path):
        code = main([
            "bench", "--filter", "signature_build", "--reps", "1",
            "--compare", str(tmp_path / "absent.json"),
            "--out", str(tmp_path / "bench.json"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "not found" in err
        assert "Traceback" not in err

    def test_bad_reps_exits_config_error(self, capsys, tmp_path):
        code = main([
            "bench", "--filter", "signature_build", "--reps", "0",
            "--out", str(tmp_path / "bench.json"),
        ])
        assert code == 2
        assert "reps" in capsys.readouterr().err

    def test_bad_threshold_exits_config_error(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        BenchReport.build([], scale=0.25).write(baseline)
        code = main([
            "bench", "--filter", "signature_build", "--reps", "1",
            "--compare", str(baseline), "--threshold", "0",
            "--out", str(tmp_path / "bench.json"),
        ])
        assert code == 2
        assert "threshold" in capsys.readouterr().err

    def test_unmatched_filter_exits_config_error(self, capsys):
        code = main(["bench", "--filter", "warp_drive", "--list"])
        assert code == 2
        assert "no bench case" in capsys.readouterr().err

    def test_regression_exits_partial(self, capsys, tmp_path):
        # An absurd floor no host can meet forces the regression path.
        baseline = tmp_path / "baseline.json"
        BenchReport.build(
            [_result(name="signature_build")], scale=0.25,
            min_speedups={"signature_build": 1e9},
        ).write(baseline)
        code = main([
            "bench", "--filter", "signature_build", "--reps", "1",
            "--warmup", "0", "--compare", str(baseline),
            "--out", str(tmp_path / "bench.json"),
        ])
        captured = capsys.readouterr()
        assert code == EXIT_PARTIAL
        assert "perf regression" in captured.err
        assert "floor" in captured.err
