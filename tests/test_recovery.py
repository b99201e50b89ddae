"""Tests for fault-tolerant suite execution.

Exercises the recovery layer end to end with deterministic fault
injection (``$REPRO_FAULTS``): transient and permanent failures on the
serial and ``jobs=2`` (dispatched) paths, per-run timeouts against
injected hangs, killed workers, corrupted cache entries, and
checkpoint/resume via
the suite journal.  Faulted campaigns must produce results byte-identical
to clean serial ones — retries re-run a pure function.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.config import CONFIG_A
from repro.errors import (
    FaultSpecError,
    HarnessError,
    InjectedFault,
    RunTimeout,
)
from repro.harness import (
    ExperimentRunner,
    FaultPolicy,
    ResultCache,
    RunFailure,
    SuiteJournal,
    SuiteOutcome,
    failure_rows,
    parse_faults,
    speedup_experiment,
    suite_fingerprint,
)
from repro.harness.faults import FAULTS_ENV, STAGE_ORDER, FaultSpec
from repro.harness.recovery import assemble_outcome, run_deadline

from .conftest import TEST_SCALE

#: Benchmarks used by the fault-injection suites (quick subset).
SUITE_NAMES = ("gzip", "lucas", "mcf")

#: Generous per-run bound for hang tests: far above a clean run at
#: TEST_SCALE (tenths of a second) yet short enough to keep tests quick.
HANG_TIMEOUT = 3.0


def _runner(sampling, cache_dir, jobs=1, **policy_kwargs):
    policy_kwargs.setdefault("backoff_base", 0.0)
    return ExperimentRunner(
        sampling=sampling,
        cache=ResultCache(directory=cache_dir),
        workload_scale=TEST_SCALE,
        jobs=jobs,
        policy=FaultPolicy(**policy_kwargs),
    )


def _payload(runs):
    return [json.dumps(run.to_dict(), sort_keys=True) for run in runs]


@pytest.fixture
def clean_payload(tmp_path, test_sampling, monkeypatch):
    """Fault-free serial reference results for SUITE_NAMES."""
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    runner = _runner(test_sampling, tmp_path / "clean")
    return _payload(runner.run_suite(CONFIG_A, names=SUITE_NAMES))


class TestFaultPolicy:
    def test_defaults(self):
        policy = FaultPolicy()
        assert policy.max_retries == 1
        assert policy.max_attempts == 2
        assert policy.timeout is None
        assert not policy.fail_fast

    def test_backoff_is_deterministic_exponential(self):
        policy = FaultPolicy(backoff_base=0.5, backoff_factor=2.0)
        assert policy.backoff_seconds(0) == 0.0
        assert policy.backoff_seconds(1) == 0.5
        assert policy.backoff_seconds(2) == 1.0
        assert policy.backoff_seconds(3) == 2.0

    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"timeout": 0.0},
        {"timeout": -2.0},
        {"backoff_base": -0.1},
        {"backoff_factor": 0.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(HarnessError):
            FaultPolicy(**kwargs)


class TestRunFailure:
    def _failure(self):
        return RunFailure(
            benchmark="gzip", config_name="config_a", attempts=2,
            max_attempts=3, error_type="InjectedFault",
            error_message="boom", traceback="tb", stage="baseline",
        )

    def test_label_and_describe(self):
        failure = self._failure()
        assert failure.label == "FAILED(2/3)"
        text = failure.describe()
        assert "gzip" in text and "InjectedFault" in text
        assert "in baseline" in text and "2/3" in text

    def test_dict_roundtrip(self):
        failure = self._failure()
        assert RunFailure.from_dict(failure.to_dict()) == failure

    def test_from_exception_reads_stage_marker(self):
        error = InjectedFault("boom")
        error._repro_stage = "point_simulation"
        failure = RunFailure.from_exception(
            "mcf", "config_b", error, attempts=1, max_attempts=1, tb="tb",
        )
        assert failure.stage == "point_simulation"
        assert failure.error_type == "InjectedFault"
        failure = RunFailure.from_exception(
            "mcf", "config_b", HarnessError("x"), 1, 1, tb="tb",
        )
        assert failure.stage is None

    def test_failure_rows_mark_gaps(self):
        rows = failure_rows([self._failure()], width=4)
        assert rows == [["gzip", "FAILED(2/3)", "-", "-"]]


class TestParseFaults:
    def test_single_spec(self):
        (spec,) = parse_faults("raise:gzip:detailed_simulation:0,1")
        assert spec == FaultSpec("raise", "gzip", "detailed_simulation", (0, 1))
        assert spec.matches("gzip", "detailed_simulation", 0)
        assert spec.matches("gzip", "detailed_simulation", 1)
        assert not spec.matches("gzip", "detailed_simulation", 2)
        assert not spec.matches("gzip", "profiling", 0)
        assert not spec.matches("mcf", "detailed_simulation", 0)

    def test_wildcards(self):
        (spec,) = parse_faults("hang:*:*:*")
        assert spec.attempts == ()
        assert spec.matches("anything", "any_stage", 7)

    def test_stage_none_skips_stage_matching(self):
        (spec,) = parse_faults("corrupt:gzip:detailed_simulation:0")
        # corrupt faults fire after the run publishes, outside any stage.
        assert spec.matches("gzip", None, 0)

    def test_multiple_specs(self):
        specs = parse_faults("raise:gzip:*:0; kill:mcf:detailed_simulation:*")
        assert [s.kind for s in specs] == ["raise", "kill"]

    def test_empty_is_no_faults(self):
        assert parse_faults("") == ()
        assert parse_faults(" ; ") == ()

    @pytest.mark.parametrize("text", [
        "raise:gzip:baseline",          # wrong arity
        "explode:gzip:baseline:0",      # unknown kind
        "raise:gzip:baseline:x",        # non-integer attempt
        "raise:gzip:baseline:-1",       # negative attempt
        "raise:gzip:baseline:",         # empty attempt list
        "kill:gzip:baseline:0",         # retired stage name
        "raise:gzip:point_simulation:0",  # retired stage name
        "worker_exit:gzip:nowhere:0",   # unknown stage, any kind
    ])
    def test_malformed_specs_rejected(self, text):
        with pytest.raises(FaultSpecError):
            parse_faults(text)

    def test_unknown_stage_error_lists_valid_stages(self):
        with pytest.raises(FaultSpecError) as caught:
            parse_faults("kill:gzip:baseline:0")
        message = str(caught.value)
        assert "'baseline'" in message
        for stage in STAGE_ORDER:
            assert stage in message


class TestSuiteOutcome:
    def test_behaves_like_a_run_list(self):
        outcome = SuiteOutcome(["a", "b"])
        assert len(outcome) == 2
        assert outcome[0] == "a"
        assert list(outcome) == ["a", "b"]
        assert outcome.ok
        outcome.raise_if_failed()

    def test_failures_raise_in_strict_mode(self):
        failure = RunFailure("gzip", "config_a", 2, 2, "InjectedFault",
                             "boom", "tb", "baseline")
        outcome = SuiteOutcome(["a"], [failure])
        assert not outcome.ok
        assert "1 of 2 runs failed" in outcome.failure_summary()
        with pytest.raises(HarnessError):
            outcome.raise_if_failed()

    def test_assemble_outcome_rejects_lost_runs(self):
        tasks = [("gzip", CONFIG_A), ("mcf", CONFIG_A)]
        with pytest.raises(HarnessError, match="mcf"):
            assemble_outcome(tasks, {0: "run"}, {})
        outcome = assemble_outcome(tasks, {0: "run"}, {
            1: RunFailure("mcf", "config_a", 1, 1, "E", "m", "tb", None),
        })
        assert list(outcome) == ["run"]
        assert len(outcome.failures) == 1


class TestRunDeadline:
    def test_interrupts_a_hung_run(self):
        began = time.monotonic()
        with pytest.raises(RunTimeout):
            with run_deadline(0.2):
                time.sleep(30)
        assert time.monotonic() - began < 5.0

    def test_disabled_and_cleared(self):
        with run_deadline(None):
            pass
        with run_deadline(5.0):
            pass
        time.sleep(0.05)  # a leaked timer would fire here


class TestSerialRecovery:
    def test_transient_failure_retried_to_identical_result(
            self, tmp_path, test_sampling, monkeypatch, clean_payload):
        monkeypatch.setenv(FAULTS_ENV, "raise:gzip:detailed_simulation:0")
        runner = _runner(test_sampling, tmp_path / "faulted", max_retries=1)
        outcome = runner.run_suite(CONFIG_A, names=SUITE_NAMES)
        assert outcome.ok
        assert _payload(outcome) == clean_payload

    def test_permanent_failure_isolates_one_run(
            self, tmp_path, test_sampling, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise:mcf:detailed_simulation:*")
        runner = _runner(test_sampling, tmp_path, max_retries=1)
        outcome = runner.run_suite(CONFIG_A, names=SUITE_NAMES)
        assert [run.benchmark for run in outcome] == ["gzip", "lucas"]
        (failure,) = outcome.failures
        assert failure.benchmark == "mcf"
        assert failure.stage == "detailed_simulation"
        assert failure.attempts == 2 and failure.max_attempts == 2
        assert failure.error_type == "InjectedFault"
        assert "InjectedFault" in failure.traceback
        assert runner.failures == [failure]

    def test_fail_fast_restores_abort_semantics(
            self, tmp_path, test_sampling, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise:gzip:trace_build:*")
        runner = _runner(test_sampling, tmp_path, max_retries=0,
                         fail_fast=True)
        with pytest.raises(HarnessError, match="fail_fast"):
            runner.run_suite(CONFIG_A, names=SUITE_NAMES)

    def test_hang_hits_timeout_and_retry_succeeds(
            self, tmp_path, test_sampling, monkeypatch, clean_payload):
        monkeypatch.setenv(FAULTS_ENV, "hang:gzip:detailed_simulation:0")
        runner = _runner(test_sampling, tmp_path / "hung",
                         max_retries=1, timeout=HANG_TIMEOUT)
        outcome = runner.run_suite(CONFIG_A, names=SUITE_NAMES)
        assert outcome.ok
        assert _payload(outcome) == clean_payload

    def test_timeout_exhausted_becomes_failure(
            self, tmp_path, test_sampling, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "hang:lucas:detailed_simulation:*")
        runner = _runner(test_sampling, tmp_path, max_retries=0, timeout=1.0)
        outcome = runner.run_suite(CONFIG_A, names=("gzip", "lucas"))
        (failure,) = outcome.failures
        assert failure.benchmark == "lucas"
        assert failure.error_type == "RunTimeout"
        assert failure.stage == "detailed_simulation"
        assert [run.benchmark for run in outcome] == ["gzip"]


class TestParallelRecovery:
    def test_transient_double_failure_byte_identical(
            self, tmp_path, test_sampling, monkeypatch, clean_payload):
        # The acceptance scenario: one benchmark fails twice transiently,
        # the parallel suite retries it to completion, and the result set
        # matches a clean serial run exactly.
        monkeypatch.setenv(FAULTS_ENV, "raise:gzip:detailed_simulation:0,1")
        runner = _runner(test_sampling, tmp_path / "faulted", jobs=2,
                         max_retries=2)
        outcome = runner.run_suite(CONFIG_A, names=SUITE_NAMES)
        assert outcome.ok
        assert _payload(outcome) == clean_payload

    def test_permanent_failure_isolates_one_run(
            self, tmp_path, test_sampling, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise:lucas:*:*")
        runner = _runner(test_sampling, tmp_path, jobs=2, max_retries=1)
        outcome = runner.run_suite(CONFIG_A, names=SUITE_NAMES)
        assert [run.benchmark for run in outcome] == ["gzip", "mcf"]
        (failure,) = outcome.failures
        assert failure.benchmark == "lucas"
        assert failure.stage is not None
        assert failure.attempts == 2

    def test_killed_worker_recovered(
            self, tmp_path, test_sampling, monkeypatch, clean_payload):
        # os._exit(137) kills a worker mid-stage; the dispatcher reclaims
        # its lease, charges the crash an attempt, and the retry
        # completes on a replacement worker.
        monkeypatch.setenv(FAULTS_ENV, "kill:gzip:trace_build:0")
        runner = _runner(test_sampling, tmp_path / "killed", jobs=2,
                         max_retries=2)
        outcome = runner.run_suite(CONFIG_A, names=SUITE_NAMES)
        assert outcome.ok
        assert _payload(outcome) == clean_payload

    def test_hang_hits_timeout_and_retry_succeeds(
            self, tmp_path, test_sampling, monkeypatch, clean_payload):
        monkeypatch.setenv(FAULTS_ENV, "hang:lucas:detailed_simulation:0")
        runner = _runner(test_sampling, tmp_path / "hung", jobs=2,
                         max_retries=1, timeout=HANG_TIMEOUT)
        outcome = runner.run_suite(CONFIG_A, names=SUITE_NAMES)
        assert outcome.ok
        assert _payload(outcome) == clean_payload


class TestBackoffHistogram:
    def test_serial_retry_waits_are_observed(
            self, tmp_path, test_sampling, monkeypatch):
        from repro.obs import RETRY_BACKOFF_SECONDS

        monkeypatch.setenv(FAULTS_ENV, "raise:gzip:detailed_simulation:0")
        runner = _runner(test_sampling, tmp_path, max_retries=1)
        outcome = runner.run_suite(CONFIG_A, names=("gzip",))
        assert outcome.ok
        histogram = runner.obs.metrics.histogram(RETRY_BACKOFF_SECONDS)
        assert histogram.count == 1
        assert histogram.sum == 0.0  # backoff_base=0 in these tests

    def test_parallel_retry_waits_are_observed(
            self, tmp_path, test_sampling, monkeypatch):
        from repro.obs import RETRY_BACKOFF_SECONDS

        monkeypatch.setenv(FAULTS_ENV, "raise:gzip:detailed_simulation:0")
        runner = _runner(test_sampling, tmp_path, jobs=2, max_retries=1)
        outcome = runner.run_suite(CONFIG_A, names=("gzip", "lucas"))
        assert outcome.ok
        histogram = runner.obs.metrics.histogram(RETRY_BACKOFF_SECONDS)
        assert histogram.count == 1


class TestCorruptCacheInjection:
    def test_corrupt_entry_quarantined_and_recomputed(
            self, tmp_path, test_sampling, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "corrupt:gzip:*:0")
        first = _runner(test_sampling, tmp_path)
        run = first.run_benchmark("gzip", CONFIG_A)
        # The fault overwrote the just-published entry with garbage.
        monkeypatch.delenv(FAULTS_ENV)
        second = _runner(test_sampling, tmp_path)
        again = second.run_benchmark("gzip", CONFIG_A)
        assert second.cache.corrupt == 1
        assert second.cache.hits == 0
        assert list(tmp_path.glob("*.json.corrupt"))
        assert json.dumps(again.to_dict(), sort_keys=True) == \
            json.dumps(run.to_dict(), sort_keys=True)
        # The recompute republished a healthy entry.
        third = _runner(test_sampling, tmp_path)
        third.run_benchmark("gzip", CONFIG_A)
        assert third.cache.hits == 1 and third.cache.corrupt == 0


class TestSuiteJournal:
    def _journal(self, tmp_path, fingerprint="abc123"):
        return SuiteJournal(tmp_path / "suite.journal.jsonl", fingerprint)

    def test_fingerprint_tracks_inputs(self, tmp_path, test_sampling):
        runner = _runner(test_sampling, tmp_path)
        base = suite_fingerprint(runner, CONFIG_A, SUITE_NAMES)
        assert base == suite_fingerprint(runner, CONFIG_A, SUITE_NAMES)
        assert base != suite_fingerprint(runner, CONFIG_A, ("gzip",))
        other = ExperimentRunner(workload_scale=TEST_SCALE / 2)
        assert base != suite_fingerprint(other, CONFIG_A, SUITE_NAMES)

    def test_record_and_load_roundtrip(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.reset()
        journal.record_run("gzip", "config_a", {"cpi": 1.0})
        journal.record_failure(RunFailure(
            "mcf", "config_a", 2, 2, "InjectedFault", "boom", "tb",
            "baseline",
        ))
        clone = self._journal(tmp_path)
        assert clone.load() == 2
        assert clone.completed() == {("gzip", "config_a"): {"cpi": 1.0}}
        (failure,) = clone.failed()
        assert failure.benchmark == "mcf"
        clone.drop_failures()
        assert clone.failed() == []
        assert self._journal(tmp_path).load() == 1

    def test_foreign_fingerprint_ignored(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.reset()
        journal.record_run("gzip", "config_a", {})
        assert self._journal(tmp_path, "different").load() == 0

    def test_torn_lines_tolerated(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.reset()
        journal.record_run("gzip", "config_a", {})
        with open(journal.path, "a") as handle:
            handle.write('{"type": "run", "benchm')  # torn mid-write
        assert self._journal(tmp_path).load() == 1

    def test_torn_lines_counted_and_healed(self, tmp_path):
        from repro.obs import JOURNAL_TORN, MetricsRegistry

        journal = self._journal(tmp_path)
        journal.reset()
        journal.record_run("gzip", "config_a", {})
        with open(journal.path, "a") as handle:
            handle.write('{"type": "run", "benchm')  # torn final line
        metrics = MetricsRegistry()
        healed = SuiteJournal(journal.path, "abc123", metrics=metrics)
        assert healed.load() == 1
        assert metrics.value(JOURNAL_TORN) == 1.0
        # The load rewrote the file: the torn tail is gone, so a record
        # appended now cannot concatenate onto it.
        healed.record_run("mcf", "config_a", {})
        lines = journal.path.read_text().splitlines()
        assert len(lines) == 3  # header + two runs, all valid JSON
        for line in lines:
            json.loads(line)
        fresh = SuiteJournal(journal.path, "abc123", metrics=metrics)
        assert fresh.load() == 2
        assert metrics.value(JOURNAL_TORN) == 1.0  # no new tears

    def test_records_append_without_rewriting(self, tmp_path):
        # The append-only promise: recording N runs must not rewrite the
        # file N times (the old scheme replaced it per record, making
        # checkpointing O(n^2) over a campaign).  os.replace allocates a
        # new inode, so inode stability proves appends.
        import os

        journal = self._journal(tmp_path)
        journal.reset()
        inode = os.stat(journal.path).st_ino
        for index in range(5):
            journal.record_run(f"bench{index}", "config_a", {"i": index})
            journal.record_failure(RunFailure(
                f"bench{index}", "config_a", 1, 1, "E", "m", "tb", None,
            ))
        assert os.stat(journal.path).st_ino == inode
        clone = self._journal(tmp_path)
        assert clone.load() == 10
        assert len(clone.completed()) == 5
        assert len(clone.failed()) == 5
        # Structural edits still rewrite atomically.
        clone.drop_failures()
        assert os.stat(journal.path).st_ino != inode
        assert self._journal(tmp_path).load() == 5

    def test_missing_file_loads_empty(self, tmp_path):
        assert self._journal(tmp_path).load() == 0


class TestResume:
    def test_resume_reattempts_only_the_failed_run(
            self, tmp_path, test_sampling, monkeypatch, clean_payload):
        monkeypatch.setenv(FAULTS_ENV, "raise:mcf:*:*")
        first = _runner(test_sampling, tmp_path / "c1", max_retries=0)
        outcome = first.run_suite(CONFIG_A, names=SUITE_NAMES)
        assert len(outcome) == 2 and len(outcome.failures) == 1
        (journal_path,) = (tmp_path / "c1").glob("suite-*.journal.jsonl")

        # Fault cleared: resume must restore gzip+lucas from the journal
        # and execute mcf alone (fresh cache directory proves the restored
        # runs came from the journal, not the result cache).
        monkeypatch.delenv(FAULTS_ENV)
        second = _runner(test_sampling, tmp_path / "c2", max_retries=0)
        resumed = second.run_suite(CONFIG_A, names=SUITE_NAMES,
                                   resume=True, journal=journal_path)
        assert resumed.ok
        runs = [s for s in second.obs.tracer.spans() if s.name == "run"]
        assert [r.attributes["benchmark"] for r in runs] == ["mcf"]
        assert _payload(resumed) == clean_payload

    def test_non_resume_resets_the_journal(
            self, tmp_path, test_sampling, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        runner = _runner(test_sampling, tmp_path)
        runner.run_suite(CONFIG_A, names=("gzip",))
        (journal_path,) = tmp_path.glob("suite-*.journal.jsonl")
        journal = SuiteJournal(
            journal_path, suite_fingerprint(runner, CONFIG_A, ("gzip",)),
        )
        assert journal.load() == 1
        # A fresh (non-resume) invocation starts the journal over.
        fresh = _runner(test_sampling, tmp_path)
        fresh.cache.enabled = False
        fresh.run_suite(CONFIG_A, names=("gzip",), journal=journal_path)
        assert journal.load() == 1  # one new run, no stale entries

    def test_journal_false_disables_checkpointing(
            self, tmp_path, test_sampling, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        runner = _runner(test_sampling, tmp_path)
        runner.run_suite(CONFIG_A, names=("gzip",), journal=False)
        assert list(tmp_path.glob("suite-*.journal.jsonl")) == []


class TestExperimentDegradation:
    def test_speedup_series_carries_failures(
            self, tmp_path, test_sampling, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise:mcf:*:*")
        runner = _runner(test_sampling, tmp_path, max_retries=0)
        series = speedup_experiment(runner, "coasts", names=SUITE_NAMES)
        assert sorted(series.speedups) == ["gzip", "lucas"]
        assert series.geomean > 0
        (failure,) = series.failures
        assert failure.benchmark == "mcf"
        assert failure_rows(series.failures, width=2) == \
            [["mcf", "FAILED(1/1)"]]


class TestKillAndResumeViaCli:
    def test_serial_kill_then_resume_completes(self, tmp_path):
        # A kill fault on the serial path takes down the suite process
        # itself (simulating an OOM kill of the whole campaign), so it is
        # observed from outside: the journal left behind lets --resume
        # finish the job.
        src = Path(__file__).resolve().parents[1] / "src"
        env = {
            "PYTHONPATH": str(src),
            "REPRO_CACHE_DIR": str(tmp_path),
            "PATH": "/usr/bin:/bin",
        }
        argv = [sys.executable, "-m", "repro", "--scale", str(TEST_SCALE),
                "suite", "--quick"]
        killed = subprocess.run(
            argv, env={**env, FAULTS_ENV: "kill:lucas:detailed_simulation:*"},
            capture_output=True, text=True, timeout=300,
        )
        assert killed.returncode == 137
        # gzip completed before the kill and must be in the journal.
        (journal_path,) = tmp_path.glob("suite-*.journal.jsonl")
        assert '"benchmark": "gzip"' in journal_path.read_text()

        resumed = subprocess.run(
            argv + ["--resume"], env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr
        for name in SUITE_NAMES:
            assert name in resumed.stdout
