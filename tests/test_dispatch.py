"""Tests for the distributed campaign dispatcher.

Covers the lease table's at-most-once bookkeeping (unit tests plus a
hypothesis property over arbitrary interleavings of expiry, steal and
late commit), the wire codec for task payloads, and the dispatched
backend end to end: a subprocess-worker suite must be byte-identical to
the serial path — clean, and under every injected dispatch fault
(``worker_exit``, ``heartbeat_drop``, ``partition``, ``stale_commit``,
plus an in-stage ``kill``) — and must never leave an orphaned worker
process behind.  ``run_suite(jobs=N)`` maps onto the same dispatcher.
"""

import json
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _make_runner, build_parser
from repro.config import CONFIG_A
from repro.errors import DispatchError, HarnessError
from repro.harness import (
    DispatchPool,
    ExperimentRunner,
    FaultPolicy,
    LeaseTable,
    ResultCache,
    decode_task_payload,
    encode_task_payload,
    pool_for,
)
from repro.harness.faults import FAULTS_ENV
from repro.obs import (
    DISPATCH_HEARTBEATS,
    DISPATCH_LEASES,
    DISPATCH_MISSED,
    DISPATCH_RECLAIMS,
    DISPATCH_STALE_COMMITS,
    DISPATCH_STEALS,
    MetricsRegistry,
)

from .conftest import TEST_SCALE

#: Benchmarks used by the dispatched suites (two keeps both workers busy).
SUITE_NAMES = ("gzip", "lucas")


def _runner(sampling, cache_dir, **policy_kwargs):
    policy_kwargs.setdefault("backoff_base", 0.0)
    return ExperimentRunner(
        sampling=sampling,
        cache=ResultCache(directory=cache_dir),
        workload_scale=TEST_SCALE,
        policy=FaultPolicy(**policy_kwargs),
    )


def _payload(outcome):
    return [json.dumps(run.to_dict(), sort_keys=True) for run in outcome]


def _assert_no_orphans(pool):
    """Every worker the pool ever spawned must be gone."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        alive = [
            pid for pid in pool.spawned_pids
            if os.path.exists(f"/proc/{pid}")
            # Zombies are reaped by Popen.wait(); a zombie here means the
            # wait just hasn't been observed yet, not a leak.
        ]
        if not alive:
            return
        time.sleep(0.05)
    raise AssertionError(f"orphaned dispatch workers: {alive}")


def _dispatched(sampling, cache_dir, names=SUITE_NAMES, workers=2,
                lease_timeout=10.0, **policy_kwargs):
    runner = _runner(sampling, cache_dir, **policy_kwargs)
    pool = DispatchPool(workers=workers, lease_timeout=lease_timeout)
    outcome = runner.run_suite(CONFIG_A, names=names, pool=pool)
    _assert_no_orphans(pool)
    return runner, pool, outcome


@pytest.fixture
def serial_payload(tmp_path, test_sampling, monkeypatch):
    """Fault-free serial reference results for SUITE_NAMES."""
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    runner = _runner(test_sampling, tmp_path / "serial-ref")
    return _payload(runner.run_suite(CONFIG_A, names=SUITE_NAMES))


# ----------------------------------------------------------------------
# lease table
# ----------------------------------------------------------------------
class TestLeaseTable:
    def _table(self, metrics=None):
        return LeaseTable(
            lease_timeout=10.0, heartbeat_interval=2.0, metrics=metrics
        )

    def test_grant_settle_commits_once(self):
        metrics = MetricsRegistry()
        table = self._table(metrics)
        lease = table.grant(0, worker=1, now=0.0)
        assert table.active_count() == 1
        settled = table.settle(lease.lease_id, ok=True, now=1.0)
        assert settled is lease
        assert table.active_count() == 0
        # The same lease settling again is a stale commit, counted.
        assert table.settle(lease.lease_id, ok=True, now=2.0) is None
        assert metrics.value(DISPATCH_LEASES) == 1.0
        assert metrics.value(DISPATCH_STALE_COMMITS) == 1.0

    def test_committed_task_cannot_be_regranted(self):
        table = self._table()
        lease = table.grant(0, worker=1, now=0.0)
        table.settle(lease.lease_id, ok=True, now=1.0)
        with pytest.raises(DispatchError, match="already committed"):
            table.grant(0, worker=2, now=2.0)

    def test_active_task_cannot_be_double_leased(self):
        table = self._table()
        table.grant(0, worker=1, now=0.0)
        with pytest.raises(DispatchError, match="already leased"):
            table.grant(0, worker=2, now=0.0)

    def test_error_settle_frees_the_task_for_retry(self):
        table = self._table()
        lease = table.grant(0, worker=1, now=0.0)
        assert table.settle(lease.lease_id, ok=False, now=1.0) is lease
        # Not committed: the task can be granted again.
        table.grant(0, worker=1, now=2.0)

    def test_heartbeat_renews_and_sweep_expires(self):
        metrics = MetricsRegistry()
        table = self._table(metrics)
        lease = table.grant(0, worker=1, now=0.0)
        assert table.renew(lease.lease_id, now=9.0)
        assert table.sweep(now=15.0) == []  # renewed at t=9, deadline 19
        expired = table.sweep(now=20.0)
        assert [e.lease_id for e in expired] == [lease.lease_id]
        assert table.active_count() == 0
        assert metrics.value(DISPATCH_HEARTBEATS) == 1.0
        assert metrics.value(DISPATCH_RECLAIMS) == 1.0
        # 11s without contact at 2s heartbeat interval = 5 missed slots.
        assert metrics.value(DISPATCH_MISSED) == 5.0
        # The expired lease can no longer renew or commit.
        assert not table.renew(lease.lease_id, now=21.0)
        assert table.settle(lease.lease_id, ok=True, now=21.0) is None
        assert metrics.value(DISPATCH_STALE_COMMITS) == 1.0

    def test_steal_counted_only_across_workers(self):
        metrics = MetricsRegistry()
        table = self._table(metrics)
        lease = table.grant(0, worker=1, now=0.0)
        table.sweep(now=11.0)
        table.grant(0, worker=1, now=12.0)  # same worker retakes it
        assert metrics.value(DISPATCH_STEALS) == 0.0
        table.sweep(now=23.0)
        table.grant(0, worker=2, now=24.0)  # another worker steals it
        assert metrics.value(DISPATCH_STEALS) == 1.0
        assert lease.lease_id != table.active_ids()[0]

    def test_partitioned_lease_drops_messages_until_reclaimed(self):
        metrics = MetricsRegistry()
        table = self._table(metrics)
        lease = table.grant(0, worker=1, now=0.0, partitioned=True)
        assert table.is_partitioned(lease.lease_id)
        # Heartbeats and results concerning the lease vanish silently —
        # no stale-commit count, and the lease stays active.
        assert not table.renew(lease.lease_id, now=1.0)
        assert table.settle(lease.lease_id, ok=True, now=2.0) is None
        assert table.active_count() == 1
        assert metrics.value(DISPATCH_STALE_COMMITS) == 0.0
        (expired,) = table.sweep(now=11.0)
        assert expired.lease_id == lease.lease_id
        # Once reclaimed, the same result *is* a stale commit.
        assert table.settle(lease.lease_id, ok=True, now=12.0) is None
        assert metrics.value(DISPATCH_STALE_COMMITS) == 1.0

    def test_ungrant_rolls_back_without_counters(self):
        metrics = MetricsRegistry()
        table = self._table(metrics)
        lease = table.grant(0, worker=1, now=0.0)
        assert table.ungrant(lease.lease_id) is lease
        assert table.active_count() == 0
        assert metrics.value(DISPATCH_RECLAIMS) == 0.0
        table.grant(0, worker=2, now=1.0)  # re-grantable, not a steal
        assert metrics.value(DISPATCH_STEALS) == 0.0

    def test_validation(self):
        with pytest.raises(HarnessError):
            LeaseTable(lease_timeout=0.0, heartbeat_interval=1.0)
        with pytest.raises(HarnessError):
            LeaseTable(lease_timeout=1.0, heartbeat_interval=0.0)


class TestLeaseInterleavingProperty:
    """Any interleaving of expiry, steal and late commit is at-most-once."""

    @settings(deadline=None, max_examples=200)
    @given(st.lists(
        st.tuples(
            st.sampled_from(["grant", "expire", "commit", "error", "late"]),
            st.integers(min_value=0, max_value=2),
        ),
        max_size=60,
    ))
    def test_exactly_one_journal_entry_per_run(self, actions):
        table = LeaseTable(lease_timeout=10.0, heartbeat_interval=2.0)
        now = 0.0
        next_worker = 0
        issued = {index: [] for index in range(3)}
        journal = []  # committed task indices, in commit order

        def _active_lease_of(index):
            for lease_id in table.active_ids():
                if table.get(lease_id).index == index:
                    return lease_id
            return None

        for action, index in actions:
            now += 1.0
            if action == "grant":
                try:
                    lease = table.grant(index, next_worker, now)
                except DispatchError:
                    continue  # already leased or committed
                next_worker += 1
                issued[index].append(lease.lease_id)
            elif action == "expire":
                now += 11.0
                table.sweep(now)
            elif action in ("commit", "error"):
                lease_id = _active_lease_of(index)
                if lease_id is None:
                    continue
                lease = table.settle(lease_id, ok=(action == "commit"),
                                     now=now)
                if lease is not None and action == "commit":
                    journal.append(index)
            elif action == "late":
                # A stale worker re-sends an old (reclaimed or settled)
                # lease's result: the gate must always reject it.
                for lease_id in issued[index]:
                    if table.get(lease_id) is None:
                        assert table.settle(lease_id, ok=True,
                                            now=now) is None
                        break

        for index in range(3):
            assert journal.count(index) <= 1
            if index in journal:
                with pytest.raises(DispatchError):
                    table.grant(index, 999, now + 100.0)


# ----------------------------------------------------------------------
# wire codec
# ----------------------------------------------------------------------
class TestTaskPayloadCodec:
    def test_json_roundtrip_rebuilds_configs(self, test_sampling, tmp_path):
        from repro.config import DEFAULT_COST_MODEL

        payload = {
            "sampling": test_sampling,
            "cost_model": DEFAULT_COST_MODEL,
            "config": CONFIG_A,
            "cache_dir": tmp_path / "cache",
            "cache_enabled": True,
            "workload_scale": TEST_SCALE,
            "methods": ("simpoint", "coasts"),
            "diagnostics": True,
            "benchmark": "gzip",
        }
        wire = json.loads(json.dumps(encode_task_payload(payload)))
        decoded = decode_task_payload(wire)
        assert decoded["sampling"] == test_sampling
        assert decoded["cost_model"] == DEFAULT_COST_MODEL
        assert decoded["config"] == CONFIG_A
        assert decoded["cache_dir"] == tmp_path / "cache"
        assert decoded["methods"] == ("simpoint", "coasts")
        assert decoded["benchmark"] == "gzip"


# ----------------------------------------------------------------------
# pool construction
# ----------------------------------------------------------------------
class TestPoolFactory:
    def test_jobs_mapping(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert pool_for(0, tasks=5).workers == 3
        assert pool_for(None, tasks=5).workers == 3
        pool = pool_for(4, tasks=5, launcher="python -m x",
                        lease_timeout=5.0)
        assert isinstance(pool, DispatchPool)
        assert (pool.workers, pool.launcher, pool.lease_timeout) == \
            (4, "python -m x", 5.0)
        # One worker or one task stays on the in-process serial loop.
        assert pool_for(1, tasks=5) is None
        assert pool_for(4, tasks=1) is None
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert pool_for(0, tasks=5) is None
        with pytest.raises(HarnessError):
            pool_for(-1, tasks=5)

    def test_dispatch_pool_validation(self):
        with pytest.raises(HarnessError):
            DispatchPool(workers=0)
        with pytest.raises(HarnessError):
            DispatchPool(lease_timeout=0.0)
        with pytest.raises(HarnessError):
            DispatchPool(heartbeat_interval=-1.0)
        with pytest.raises(HarnessError):
            DispatchPool(launcher="   ").command()

    def test_launcher_prefix_is_shell_split(self):
        pool = DispatchPool(launcher="ssh node7 python -m repro.harness.worker")
        assert pool.command() == [
            "ssh", "node7", "python", "-m", "repro.harness.worker",
        ]

    def test_cli_flags_build_a_dispatch_pool(self):
        args = build_parser().parse_args([
            "suite", "--jobs", "3", "--lease-timeout", "7.5",
            "--launcher", "python -m x",
        ])
        runner = _make_runner(args)
        assert (runner.jobs, runner.launcher, runner.lease_timeout) == \
            (3, "python -m x", 7.5)
        # --jobs is the only worker count.
        for retired in (["--dispatch"], ["--workers", "2"]):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(["suite", *retired])
            assert exit_info.value.code == 2

    def test_broken_launcher_raises_dispatch_error(
            self, tmp_path, test_sampling):
        runner = _runner(test_sampling, tmp_path)
        pool = DispatchPool(
            workers=1, launcher="repro-no-such-worker-binary",
            lease_timeout=5.0,
        )
        with pytest.raises(DispatchError, match="cannot launch worker"):
            runner.run_suite(CONFIG_A, names=("gzip",), pool=pool,
                             journal=False)


# ----------------------------------------------------------------------
# dispatched suites end to end
# ----------------------------------------------------------------------
class TestDispatchedSuite:
    def test_clean_dispatch_matches_serial(
            self, tmp_path, test_sampling, monkeypatch, serial_payload):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        runner, pool, outcome = _dispatched(
            test_sampling, tmp_path / "dispatched"
        )
        assert outcome.ok
        assert _payload(outcome) == serial_payload
        metrics = runner.obs.metrics
        assert metrics.value(DISPATCH_LEASES) == float(len(SUITE_NAMES))
        assert metrics.value(DISPATCH_STALE_COMMITS) == 0.0
        assert len(pool.spawned_pids) == 2

    def test_local_pool_backend_matches_serial(
            self, tmp_path, test_sampling, monkeypatch, serial_payload):
        # jobs=2 runs on a pool of local dispatch workers; a single task
        # stays in-process.
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        runner = _runner(test_sampling, tmp_path / "local")
        outcome = runner.run_suite(CONFIG_A, names=SUITE_NAMES, jobs=2)
        assert outcome.ok
        assert _payload(outcome) == serial_payload
        assert runner.obs.metrics.value(DISPATCH_LEASES) == 2.0
        single = _runner(test_sampling, tmp_path / "local")
        assert single.run_suite(CONFIG_A, names=["gzip"], jobs=2).ok
        assert single.obs.metrics.value(DISPATCH_LEASES) == 0.0

    def test_worker_exit_is_reclaimed_and_stolen(
            self, tmp_path, test_sampling, monkeypatch, serial_payload):
        # Node loss: the worker holding gzip dies silently on receipt.
        # The monitor reclaims the lease, the replacement worker steals
        # the task, and the campaign still matches serial byte for byte.
        monkeypatch.setenv(FAULTS_ENV, "worker_exit:gzip:*:0")
        runner, pool, outcome = _dispatched(
            test_sampling, tmp_path / "exit", max_retries=2,
            lease_timeout=5.0,
        )
        assert outcome.ok
        assert _payload(outcome) == serial_payload
        metrics = runner.obs.metrics
        assert metrics.value(DISPATCH_RECLAIMS) >= 1.0
        assert metrics.value(DISPATCH_STEALS) >= 1.0
        assert metrics.value("repro_worker_crashes_total") >= 1.0
        assert len(pool.spawned_pids) > 2  # a replacement was spawned

    def test_in_stage_kill_mirrors_shm_worker_kill(
            self, tmp_path, test_sampling, monkeypatch, serial_payload):
        # The stage-level kill fault (os._exit mid-stage) must be
        # survivable under dispatch too.
        monkeypatch.setenv(FAULTS_ENV, "kill:gzip:trace_build:0")
        runner, pool, outcome = _dispatched(
            test_sampling, tmp_path / "killed", max_retries=2,
            lease_timeout=5.0,
        )
        assert outcome.ok
        assert _payload(outcome) == serial_payload
        assert runner.obs.metrics.value(DISPATCH_RECLAIMS) >= 1.0

    def test_stale_commit_rejected_at_most_once(
            self, tmp_path, test_sampling, monkeypatch, serial_payload):
        # The worker finishes gzip but withholds the result (and stops
        # heartbeating); its lease expires, the task is re-run
        # elsewhere, and the withheld result — flushed when the worker
        # is told to shut down, deterministically after the reclaim —
        # must be counted stale and discarded, never double-committed.
        monkeypatch.setenv(FAULTS_ENV, "stale_commit:gzip:*:0")
        runner, pool, outcome = _dispatched(
            test_sampling, tmp_path / "stale", max_retries=2,
            lease_timeout=1.0,
        )
        assert outcome.ok
        assert _payload(outcome) == serial_payload
        metrics = runner.obs.metrics
        assert metrics.value(DISPATCH_RECLAIMS) >= 1.0
        assert metrics.value(DISPATCH_STALE_COMMITS) >= 1.0

    def test_partition_strands_worker_and_task_is_stolen(
            self, tmp_path, test_sampling, monkeypatch, serial_payload):
        # The dispatcher drops every message for gzip's first lease; the
        # stranded worker's heartbeats and result vanish, the lease
        # expires, and a replacement worker re-runs the task.
        monkeypatch.setenv(FAULTS_ENV, "partition:gzip:*:0")
        runner, pool, outcome = _dispatched(
            test_sampling, tmp_path / "partition", max_retries=2,
            lease_timeout=1.5,
        )
        assert outcome.ok
        assert _payload(outcome) == serial_payload
        metrics = runner.obs.metrics
        assert metrics.value(DISPATCH_RECLAIMS) >= 1.0
        assert metrics.value(DISPATCH_STEALS) >= 1.0

    def test_heartbeat_drop_expires_the_lease(
            self, tmp_path, test_sampling, monkeypatch, serial_payload):
        # Heartbeats suppressed on gzip's first attempt, and the worker
        # holds the task past its lease before running it: the monitor
        # must count the missed beats and reclaim before any commit.
        monkeypatch.setenv(FAULTS_ENV, "heartbeat_drop:gzip:*:0")
        runner, pool, outcome = _dispatched(
            test_sampling, tmp_path / "deaf", max_retries=2,
            lease_timeout=0.3,
        )
        assert outcome.ok
        assert _payload(outcome) == serial_payload
        metrics = runner.obs.metrics
        assert metrics.value(DISPATCH_MISSED) >= 1.0
        assert metrics.value(DISPATCH_RECLAIMS) >= 1.0

    def test_permanent_failure_is_isolated(
            self, tmp_path, test_sampling, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise:lucas:*:*")
        runner, pool, outcome = _dispatched(
            test_sampling, tmp_path / "perma", max_retries=1,
        )
        assert [run.benchmark for run in outcome] == ["gzip"]
        (failure,) = outcome.failures
        assert failure.benchmark == "lucas"
        assert failure.attempts == 2
        assert failure.stage is not None
        assert runner.failures == [failure]
