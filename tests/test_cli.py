"""Tests for the command-line interface."""

import pytest

from repro import backend as backend_mod
from repro.cli import EXIT_PARTIAL, EXPERIMENTS, build_parser, exit_code_for, main
from repro.errors import (
    ConfigError,
    FaultSpecError,
    HarnessError,
    ReproError,
)
from repro.harness.faults import FAULTS_ENV, STAGE_ORDER
from repro.workloads import benchmark_names


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "gzip"])
        assert args.benchmark == "gzip"
        assert args.config == "a"
        assert args.scale == 1.0

    def test_unknown_benchmark_rejected(self, capsys):
        # `run` accepts set expressions now, so unknown names surface as
        # a resolution error (exit 2), not an argparse choices failure.
        code = main(["run", "doom3"])
        err = capsys.readouterr().err
        assert code == 2
        assert "doom3" in err and "Traceback" not in err

    def test_experiment_names(self):
        for name in EXPERIMENTS:
            args = build_parser().parse_args(["experiment", name])
            assert args.name == name

    def test_scale_flag(self):
        args = build_parser().parse_args(["--scale", "0.1", "run", "mcf"])
        assert args.scale == 0.1

    def test_suite_jobs_and_quick(self):
        args = build_parser().parse_args(
            ["suite", "--quick", "--jobs", "4"]
        )
        assert args.jobs == 4
        assert args.quick
        args = build_parser().parse_args(["suite"])
        assert args.jobs == 1 and not args.quick

    def test_experiment_jobs_zero_means_auto(self):
        args = build_parser().parse_args(
            ["experiment", "fig3", "--jobs", "0"]
        )
        assert args.jobs == 0

    def test_verbose_counts(self):
        assert build_parser().parse_args(["run", "gzip"]).verbose == 0
        assert build_parser().parse_args(["-v", "run", "gzip"]).verbose == 1
        assert build_parser().parse_args(
            ["suite", "-vv"]
        ).verbose == 2

    def test_timing_flags(self):
        args = build_parser().parse_args(["suite", "--timing"])
        assert args.timing
        # One timing option: the JSON numbers come from the trace.
        assert [k for k in vars(args) if k.startswith("timing")] == \
            ["timing"]

    def test_fault_flags(self):
        args = build_parser().parse_args(
            ["suite", "--retries", "3", "--timeout", "5.5",
             "--fail-fast", "--resume"]
        )
        assert args.retries == 3
        assert args.timeout == 5.5
        assert args.fail_fast and args.resume
        args = build_parser().parse_args(["experiment", "fig3"])
        assert args.retries == 1
        assert args.timeout is None
        assert not args.fail_fast and not args.resume


class TestExitCodes:
    def test_error_class_mapping(self):
        assert exit_code_for(ConfigError("x")) == 2
        assert exit_code_for(HarnessError("x")) == 2
        assert exit_code_for(FaultSpecError("x")) == 2

        class OtherLibraryError(ReproError):
            pass

        assert exit_code_for(OtherLibraryError("x")) == 70

    def test_unknown_subcommand_exits_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_negative_jobs_exits_cleanly(self, capsys, tmp_path,
                                         monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["suite", "--quick", "--jobs", "-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "jobs" in err
        assert "Traceback" not in err

    def test_invalid_policy_exits_cleanly(self, capsys):
        code = main(["suite", "--quick", "--retries", "-3"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "max_retries" in err
        assert "Traceback" not in err

    def test_bad_fault_spec_exits_cleanly(self, capsys, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv(FAULTS_ENV, "explode:gzip")
        code = main(["--scale", "0.04", "run", "gzip"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "explode:gzip" in err
        assert "Traceback" not in err

    def test_retired_fault_stage_rejected_before_any_run(
            self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv(FAULTS_ENV, "kill:gzip:baseline:0")
        code = main(["--scale", "0.04", "suite", "--quick"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown stage 'baseline'" in captured.err
        assert "detailed_simulation" in captured.err
        assert captured.out == ""

    def test_bad_backend_rejected_before_any_run(
            self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(backend_mod, "_active", None)
        monkeypatch.setenv(backend_mod.BACKEND_ENV, "turbo")
        code = main(["--scale", "0.04", "suite", "--quick", "--jobs", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown backend 'turbo'" in captured.err
        assert captured.out == ""

    def test_partial_suite_renders_table_and_exits_partial(
            self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv(FAULTS_ENV, "raise:lucas:detailed_simulation:*")
        code = main(["--scale", "0.04", "suite", "--quick",
                     "--retries", "0"])
        captured = capsys.readouterr()
        assert code == EXIT_PARTIAL
        # The completed rows still render; the failed one is explicit.
        assert "gzip" in captured.out and "mcf" in captured.out
        assert "FAILED(1/1)" in captured.out
        assert "InjectedFault in detailed_simulation" in captured.err
        assert "--resume" in captured.err


class TestExecution:
    def test_run_small_benchmark(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["--scale", "0.1", "run", "gzip"])
        out = capsys.readouterr().out
        assert code == 0
        assert "baseline CPI" in out
        assert "multilevel" in out and "coasts" in out

    def test_quick_suite_parallel_with_timing(self, capsys, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["--scale", "0.08", "suite", "--quick",
                     "--jobs", "2", "--timing"])
        out = capsys.readouterr().out
        assert code == 0
        assert "suite summary" in out
        assert "jobs=2" in out
        assert "plan_construction" in out

    @staticmethod
    def _timing_report(capsys, monkeypatch, cache, *extra):
        """(run count, cache counts, stage row names) of a quick suite's
        ``--timing`` report; jobs and wall clock are left out."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        code = main(["--scale", "0.05", "suite", "--quick", "--timing",
                     *extra])
        assert code == 0
        out = capsys.readouterr().out
        lines = out[out.index("timing: "):].splitlines()
        head, _, cache_counts = lines[0].partition(", wall ")
        head = head.split(", jobs=")[0]
        cache_counts = cache_counts.split(", ", 1)[1]
        stages = [line.split()[0] for line in lines[1:-1]]
        return head, cache_counts, stages

    def test_timing_report_agrees_across_backends(self, capsys, tmp_path,
                                                  monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        n = len(benchmark_names(quick=True))
        for label, extra in (("serial", ()), ("jobs2", ("--jobs", "2"))):
            cache = tmp_path / label
            cold = self._timing_report(capsys, monkeypatch, cache, *extra)
            assert cold == (f"timing: {n} runs", f"cache 0 hit / {n} miss",
                            list(STAGE_ORDER))
            warm = self._timing_report(capsys, monkeypatch, cache, *extra)
            assert warm == (f"timing: {n} runs", f"cache {n} hit / 0 miss",
                            [])
            # A failed attempt is a run of its own.
            monkeypatch.setenv(FAULTS_ENV, "raise:gzip:detailed_simulation:0")
            retried = self._timing_report(
                capsys, monkeypatch, tmp_path / f"{label}-fault",
                "--retries", "1", *extra,
            )
            monkeypatch.delenv(FAULTS_ENV)
            assert retried == (f"timing: {n + 1} runs",
                               f"cache 0 hit / {n + 1} miss",
                               list(STAGE_ORDER))

    def test_fig1_experiment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["--scale", "0.1", "experiment", "fig1",
                     "--benchmark", "lucas"])
        out = capsys.readouterr().out
        assert code == 0
        assert "granularity" in out
        assert "coarse" in out
