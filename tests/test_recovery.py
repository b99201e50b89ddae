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
import logging
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    LeaseTable,
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
from repro.harness.recovery import TaskLedger, error_report, run_deadline

from .conftest import TEST_SCALE

#: Benchmarks used by the fault-injection suites (quick subset).
SUITE_NAMES = ("gzip", "lucas", "mcf")

#: Generous per-run bound for hang tests: far above a clean run at
#: TEST_SCALE (tenths of a second) yet short enough to keep tests quick.
HANG_TIMEOUT = 3.0


def _runner(sampling, cache_dir, jobs=1, methods=None, **policy_kwargs):
    policy_kwargs.setdefault("backoff_base", 0.0)
    return ExperimentRunner(
        sampling=sampling,
        cache=ResultCache(directory=cache_dir),
        workload_scale=TEST_SCALE,
        methods=methods,
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
        report = error_report(error, tb="tb")
        assert report["stage"] == "point_simulation"
        assert report["error_type"] == "InjectedFault"
        failure = RunFailure("mcf", "config_b", 1, 1, **report)
        assert failure.stage == "point_simulation"
        assert error_report(HarnessError("x"), tb="tb")["stage"] is None

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

    def test_failures_mark_outcome_not_ok(self):
        failure = RunFailure("gzip", "config_a", 2, 2, "InjectedFault",
                             "boom", "tb", "baseline")
        outcome = SuiteOutcome(["a"], [failure])
        assert not outcome.ok
        assert "1 of 2 runs failed" in outcome.failure_summary()

    def test_assemble_outcome_rejects_lost_runs(self):
        # The ledger's outcome insists every task settled.
        tasks = [("gzip", CONFIG_A), ("mcf", CONFIG_A)]
        ledger = TaskLedger(tasks, FaultPolicy(max_retries=0),
                            restored={0: "run"})
        with pytest.raises(HarnessError, match="mcf"):
            ledger.outcome()
        ledger.start(1)
        assert ledger.failed(1, 0.0, "E") is None
        outcome = ledger.outcome()
        assert list(outcome) == ["run"]
        assert len(outcome.failures) == 1


#: The error type each ``$REPRO_FAULTS`` kind reaches the ledger as:
#: ``raise`` fails the attempt in place, ``hang`` trips the per-run
#: deadline, ``kill``/``worker_exit`` end the worker mid-lease, and
#: ``heartbeat_drop``/``partition`` let the lease expire.
LEDGER_ERRORS = {
    "raise": "InjectedFault",
    "hang": "RunTimeout",
    "kill": "WorkerCrash",
    "worker_exit": "WorkerCrash",
    "heartbeat_drop": "LeaseExpired",
    "partition": "LeaseExpired",
}


class _Recorded:
    """A ledger plus everything its sinks and hooks saw."""

    def __init__(self, tasks, policy):
        from repro.obs import EventLog, MetricsRegistry

        self.metrics = MetricsRegistry()
        self.events = EventLog()
        self.runs = []
        self.failed = []
        self.ledger = TaskLedger(
            tasks, policy, metrics=self.metrics, events=self.events,
            on_run=lambda index, run: self.runs.append(index),
            on_failure=lambda index, failure: self.failed.append(index),
        )

    def summary(self):
        from repro.obs import (
            RETRY_BACKOFF_SECONDS,
            RUN_FAILURES,
            RUN_RETRIES,
            RUN_TIMEOUTS,
            RUNS_COMPLETED,
        )

        outcome = self.ledger.outcome()
        histogram = self.metrics.histogram(RETRY_BACKOFF_SECONDS)
        retries = sorted(
            (e["benchmark"], e["attempt"], e["error"])
            for e in self.events.tail(filters={"kind": "retry"})
        )
        return {
            "runs": list(outcome),
            "failures": list(outcome.failures),
            "counters": [self.metrics.value(name) for name in (
                RUNS_COMPLETED, RUN_RETRIES, RUN_FAILURES, RUN_TIMEOUTS,
            )],
            "backoff": (histogram.count, histogram.sum),
            "retry_events": retries,
            "on_run": sorted(self.runs),
            "on_failure": sorted(self.failed),
        }


def _error(schedule, attempt):
    return (LEDGER_ERRORS[schedule[attempt]],
            f"{schedule[attempt]} on attempt {attempt}")


def _replay_serial(recorded, schedules):
    """In-order replay: each task retried in place until it settles."""
    ledger, now = recorded.ledger, 0.0
    for index in ledger.pending():
        while True:
            attempt = ledger.start(index)
            if attempt >= len(schedules[index]):
                ledger.succeeded(index, f"run-{index}")
                break
            delay = ledger.failed(index, now, *_error(schedules[index], attempt))
            if delay is None:
                break
            now += delay


class TestTaskLedgerProperty:
    """Any interleaving of per-task fault schedules settles like serial.

    Subprocess-free: a dispatcher-style driver composes the ledger with a
    :class:`LeaseTable`, starting ready tasks and reporting attempts in a
    drawn order, with late results from reclaimed leases mixed in.
    """

    @settings(deadline=None, max_examples=300)
    @given(
        max_retries=st.integers(min_value=0, max_value=3),
        backoff_base=st.sampled_from([0.0, 0.25, 0.5]),
        fail_fast=st.booleans(),
        schedules=st.lists(
            st.lists(st.sampled_from(sorted(LEDGER_ERRORS)), max_size=5),
            min_size=1, max_size=4,
        ),
        data=st.data(),
    )
    def test_interleaved_reports_settle_like_serial(
            self, max_retries, backoff_base, fail_fast, schedules, data):
        policy = FaultPolicy(max_retries=max_retries, fail_fast=fail_fast,
                             backoff_base=backoff_base)
        tasks = [(f"bench{i}", CONFIG_A) for i in range(len(schedules))]
        recorded = _Recorded(tasks, policy)
        ledger = recorded.ledger
        table = LeaseTable(lease_timeout=10.0, heartbeat_interval=2.0,
                           metrics=recorded.metrics)
        now = 0.0
        running = {}   # task index -> active lease id
        reclaimed = []  # lease ids whose worker may still send a result
        started = [0] * len(tasks)
        not_before = [0.0] * len(tasks)  # end of each task's backoff
        late = 0
        while ledger.pending() or running or reclaimed:
            choices = (
                [("start", i) for i in ledger.ready(now)]
                + [("report", i) for i in sorted(running)]
                + [("late", lease_id) for lease_id in reclaimed]
            )
            if not choices:
                now += 1.0  # every backoff here is <= 4 s
                continue
            action, target = data.draw(st.sampled_from(choices))
            now += data.draw(st.sampled_from([0.0, 0.1, 0.6]))
            if action == "start":
                attempt = ledger.attempts[target]
                schedule = schedules[target]
                partitioned = (attempt < len(schedule)
                               and schedule[attempt] == "partition")
                lease = table.grant(target, target, now, partitioned)
                assert ledger.start(target) == attempt
                assert now >= not_before[target]
                started[target] += 1
                assert started[target] <= policy.max_attempts
                running[target] = lease.lease_id
                continue
            if action == "late":
                # A reclaimed lease's worker comes back with a result:
                # the lease table gates it out before it can reach the
                # ledger, and the ledger would refuse it anyway.
                reclaimed.remove(target)
                assert table.settle(target, ok=True, now=now) is None
                late += 1
                continue
            lease_id = running.pop(target)
            attempt = ledger.attempts[target]
            schedule = schedules[target]
            if attempt >= len(schedule):
                assert table.settle(lease_id, ok=True, now=now) is not None
                ledger.succeeded(target, f"run-{target}")
                continue
            kind = schedule[attempt]
            if kind == "partition":
                # The partition eats the result; the lease stays active
                # until the monitor reclaims it.
                assert table.settle(lease_id, ok=True, now=now) is None
            if LEDGER_ERRORS[kind] == "InjectedFault":
                assert table.settle(lease_id, ok=False, now=now) is not None
            else:
                assert table.reclaim(lease_id) is not None
                reclaimed.append(lease_id)
            exhausted = attempt + 1 >= policy.max_attempts
            if fail_fast and exhausted:
                # The first exhausted task aborts the campaign.
                with pytest.raises(HarnessError, match=f"bench{target} "):
                    ledger.failed(target, now, *_error(schedule, attempt))
                assert recorded.failed == [] and ledger.failures == {}
                return
            delay = ledger.failed(target, now, *_error(schedule, attempt))
            assert (delay is None) == exhausted
            if delay is not None:
                assert delay == policy.backoff_seconds(attempt + 1)
                not_before[target] = now + delay

        from repro.obs import DISPATCH_STALE_COMMITS

        assert recorded.metrics.value(DISPATCH_STALE_COMMITS) == late
        exhausted = [i for i, s in enumerate(schedules)
                     if len(s) >= policy.max_attempts]
        assert not (fail_fast and exhausted)
        # Every task settled exactly once, hooks included, and a stale
        # report for a settled task is refused.
        outcome = ledger.outcome()
        assert sorted(ledger.results) == sorted(recorded.runs) == sorted(
            set(range(len(tasks))) - set(exhausted))
        assert sorted(ledger.failures) == sorted(recorded.failed) == exhausted
        for index in range(len(tasks)):
            with pytest.raises(HarnessError, match="without a running"):
                ledger.succeeded(index, "late")
        assert all(f.attempts == policy.max_attempts
                   for f in outcome.failures)
        # Outcome, counters, backoff histogram and retry events equal
        # an in-order replay of the same schedules.
        serial = _Recorded(tasks, policy)
        _replay_serial(serial, schedules)
        assert recorded.summary() == serial.summary()
        retried = sum(min(len(s), max_retries) for s in schedules)
        timeouts = sum(s[:policy.max_attempts].count("hang")
                       for s in schedules)
        assert serial.summary()["counters"] == [
            len(tasks) - len(exhausted), retried, len(exhausted), timeouts,
        ]


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
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retry_accounting_is_driver_independent(
            self, tmp_path, test_sampling, monkeypatch, jobs):
        # gzip fails once and is retried to success; lucas fails both
        # attempts.  The serial loop and the dispatcher report to the
        # same ledger, so they must book exactly the same numbers.
        from repro.obs import (
            RETRY_BACKOFF_SECONDS,
            RUN_FAILURES,
            RUN_RETRIES,
            RUNS_COMPLETED,
            EventLog,
            TelemetryPlane,
        )

        monkeypatch.setenv(
            FAULTS_ENV, "raise:gzip:detailed_simulation:0;raise:lucas:*:*"
        )
        runner = _runner(test_sampling, tmp_path, jobs=jobs, max_retries=1)
        runner.telemetry = TelemetryPlane(runner.obs, events=EventLog())
        outcome = runner.run_suite(CONFIG_A, names=("gzip", "lucas"))
        assert [run.benchmark for run in outcome] == ["gzip"]
        assert [f.benchmark for f in outcome.failures] == ["lucas"]
        metrics = runner.obs.metrics
        assert metrics.value(RUN_RETRIES) == 2.0
        assert metrics.value(RUN_FAILURES) == 1.0
        assert metrics.value(RUNS_COMPLETED) == 1.0
        assert metrics.histogram(RETRY_BACKOFF_SECONDS).count == 2
        retries = sorted(
            (e["benchmark"], e["config"], e["attempt"], e["error"])
            for e in runner.telemetry.events.tail(filters={"kind": "retry"})
        )
        assert retries == [
            ("gzip", "config_a", 1, "InjectedFault"),
            ("lucas", "config_a", 1, "InjectedFault"),
        ]


class TestFailedAttemptLogging:
    """One log policy for both drivers: a retried attempt logs at INFO,
    only a final failure at WARNING."""

    def _ledger_records(self, caplog, level):
        return [r for r in caplog.records
                if r.name == "repro.harness.recovery" and r.levelno == level]

    def test_transient_failure_logs_no_warning(
            self, tmp_path, test_sampling, monkeypatch, caplog):
        monkeypatch.setenv(FAULTS_ENV, "raise:gzip:detailed_simulation:0")
        runner = _runner(test_sampling, tmp_path, max_retries=1)
        with caplog.at_level(logging.INFO, logger="repro"):
            assert runner.run_suite(CONFIG_A, names=("gzip",)).ok
        assert self._ledger_records(caplog, logging.WARNING) == []
        (retry,) = self._ledger_records(caplog, logging.INFO)
        assert "retrying in" in retry.getMessage()

    def test_permanent_failure_logs_one_warning(
            self, tmp_path, test_sampling, monkeypatch, caplog):
        monkeypatch.setenv(FAULTS_ENV, "raise:gzip:detailed_simulation:*")
        runner = _runner(test_sampling, tmp_path, max_retries=1)
        with caplog.at_level(logging.INFO, logger="repro"):
            outcome = runner.run_suite(CONFIG_A, names=("gzip",))
        assert len(outcome.failures) == 1
        (warning,) = self._ledger_records(caplog, logging.WARNING)
        assert warning.getMessage().startswith("run failed: gzip")


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


def _journaled_runs(path):
    """Benchmarks of the run lines in the journal at *path*, in order
    (the first line must be the header)."""
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    assert entries[0]["type"] == "header"
    return [e["benchmark"] for e in entries[1:] if e["type"] == "run"]


class TestJournalRecordsComputedRuns:
    """The journal holds one line per run the invocation computed; a full
    cache hit is stored already, and the cache re-serves it on resume."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cold_suite_journals_every_run_and_warm_none(
            self, tmp_path, test_sampling, monkeypatch, jobs):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        journal = tmp_path / "suite.journal.jsonl"
        cold = _runner(test_sampling, tmp_path / "cache", jobs=jobs)
        computed = cold.run_suite(CONFIG_A, names=SUITE_NAMES,
                                  journal=journal)
        assert computed.ok
        assert sorted(_journaled_runs(journal)) == sorted(SUITE_NAMES)
        assert not any(run.cached for run in computed)

        warm = _runner(test_sampling, tmp_path / "cache", jobs=jobs)
        served = warm.run_suite(CONFIG_A, names=SUITE_NAMES,
                                journal=journal)
        assert served.ok
        assert _journaled_runs(journal) == []
        assert all(run.cached for run in served)
        assert _payload(served) == _payload(computed)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_partial_hit_journals_only_the_grown_run(
            self, tmp_path, test_sampling, monkeypatch, jobs):
        # gzip's entry lacks multilevel (a partial hit); lucas's has both
        # methods (a full hit).  Only gzip computes, so only it journals.
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        cache = tmp_path / "cache"
        for name, methods in (("gzip", ("coasts",)),
                              ("lucas", ("coasts", "multilevel"))):
            _runner(test_sampling, cache, methods=methods).run_suite(
                CONFIG_A, names=(name,), journal=False,
            )
        journal = tmp_path / "suite.journal.jsonl"
        runner = _runner(test_sampling, cache, jobs=jobs,
                         methods=("coasts", "multilevel"))
        outcome = runner.run_suite(CONFIG_A, names=("gzip", "lucas"),
                                   journal=journal)
        assert outcome.ok
        assert _journaled_runs(journal) == ["gzip"]
        assert [run.cached for run in outcome] == [False, True]

    def test_interrupted_warm_suite_resumes_from_the_cache(
            self, tmp_path, test_sampling, monkeypatch, clean_payload):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        cache = tmp_path / "cache"
        journal = tmp_path / "suite.journal.jsonl"
        _runner(test_sampling, cache).run_suite(
            CONFIG_A, names=SUITE_NAMES, journal=False,
        )

        # The warm suite dies at lucas after gzip was served from the
        # cache: nothing was computed, so nothing was journaled.
        run_benchmark = ExperimentRunner.run_benchmark

        def interrupted(runner, benchmark, config=CONFIG_A):
            if benchmark == "lucas":
                raise KeyboardInterrupt
            return run_benchmark(runner, benchmark, config)

        monkeypatch.setattr(ExperimentRunner, "run_benchmark", interrupted)
        with pytest.raises(KeyboardInterrupt):
            _runner(test_sampling, cache).run_suite(
                CONFIG_A, names=SUITE_NAMES, journal=journal,
            )
        assert _journaled_runs(journal) == []
        monkeypatch.setattr(ExperimentRunner, "run_benchmark", run_benchmark)

        resumed = _runner(test_sampling, cache)
        outcome = resumed.run_suite(CONFIG_A, names=SUITE_NAMES,
                                    resume=True, journal=journal)
        assert outcome.ok
        assert (resumed.cache.hits, resumed.cache.misses) == \
            (len(SUITE_NAMES), 0)
        runs = [s for s in resumed.obs.tracer.spans() if s.name == "run"]
        assert [r.attributes["cache_hit"] for r in runs] == \
            [True] * len(SUITE_NAMES)
        assert _payload(outcome) == clean_payload
        assert _journaled_runs(journal) == []

    def test_cached_flag_is_not_part_of_the_result(
            self, tmp_path, test_sampling):
        computed = _runner(test_sampling, tmp_path).run_benchmark("gzip")
        served = _runner(test_sampling, tmp_path).run_benchmark("gzip")
        assert (computed.cached, served.cached) == (False, True)
        assert served == computed
        assert "cached" not in served.to_dict()
        assert json.dumps(served.to_dict()) == json.dumps(computed.to_dict())


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
