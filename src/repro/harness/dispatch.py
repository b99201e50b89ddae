"""Campaign dispatcher: lease-based work over stdio worker subprocesses.

:class:`DispatchPool` is the one multi-process driver of a suite's
(benchmark, config) tasks.  ``run_suite(jobs=N)`` hands N > 1 workers'
worth of tasks to it (:func:`pool_for`); one worker or one task stays
on the in-process serial loop.  Workers are subprocesses launched via a
configurable launcher command (default ``python -m
repro.harness.worker``, so an SSH or cluster launcher is just a command
prefix) speaking the versioned JSONL protocol of
:mod:`repro.harness.worker` over stdin/stdout.

Task ownership is **lease-based**: the
dispatcher hands each worker a (run spec, lease, deadline) tuple,
workers heartbeat while executing, and the monitor loop reclaims and
re-queues any task whose lease expires — missed heartbeats, a dead
process, an injected partition.  Idle workers steal reclaimed work.
Results commit **at-most-once**: a lease that was reclaimed can no
longer commit (the stale result is counted and discarded), so a
partitioned or slow worker finishing late cannot double-commit a run
into the :class:`~repro.harness.recovery.SuiteJournal`; re-execution of
a reclaimed task is idempotent because every run is a pure function of
its spec and lands in the shared :class:`~repro.harness.cache
.ResultCache`.  The invariant the tests pin: serial == dispatched
output, byte-identical, including under every injected fault (the
stage-level kinds and the dispatch kinds ``worker_exit``,
``heartbeat_drop``, ``partition``, ``stale_commit`` — see
:mod:`repro.harness.faults`).

The lease bookkeeping itself lives in :class:`LeaseTable`, a pure
state machine (grant / renew / sweep / reclaim / settle) so property
tests can drive arbitrary interleavings of expiry, steal and late
commit without processes or clocks.
"""

from __future__ import annotations

import json
import logging
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path
from queue import Empty, Queue
from threading import Thread
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple,
)

from ..errors import DispatchError, HarnessError
from ..obs import (
    DISPATCH_HEARTBEATS,
    DISPATCH_LEASE_SECONDS,
    DISPATCH_LEASES,
    DISPATCH_MISSED,
    DISPATCH_RECLAIMS,
    DISPATCH_STALE_COMMITS,
    DISPATCH_STEALS,
    RETRY_BACKOFF_SECONDS,
    RUN_FAILURES,
    RUN_RETRIES,
    RUN_TIMEOUTS,
    RUNS_COMPLETED,
    WORKER_CRASHES,
    MetricsRegistry,
)
from .recovery import (
    DEFAULT_POLICY,
    FaultPolicy,
    RunFailure,
    SuiteOutcome,
    assemble_outcome,
)
from .worker import PROTOCOL_VERSION, encode_task_payload, plugin_modules

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runner import BenchmarkRun, ExperimentRunner

logger = logging.getLogger(__name__)

#: One suite task: a benchmark name under a machine configuration.
Task = Tuple[str, object]

#: Default lease timeout: a lease with no heartbeat for this long is
#: reclaimed and its task re-queued.
DEFAULT_LEASE_TIMEOUT = 30.0

#: Dispatcher monitor tick (seconds): inbox poll + deadline sweep cadence.
_DISPATCH_TICK = 0.05

#: Grace period for workers to exit after a shutdown message.
_SHUTDOWN_GRACE = 5.0

#: Consecutive worker deaths before first contact that abort the
#: campaign (the launcher command itself is broken).
_MAX_SPAWN_FAILURES = 3


# ----------------------------------------------------------------------
# lease bookkeeping (pure, property-testable)
# ----------------------------------------------------------------------
class Lease:
    """One granted lease: a task owned by a worker until a deadline."""

    __slots__ = (
        "lease_id", "index", "worker", "granted_at", "last_contact",
        "partitioned", "missed_marked",
    )

    def __init__(
        self,
        lease_id: str,
        index: int,
        worker: int,
        now: float,
        partitioned: bool = False,
    ) -> None:
        self.lease_id = lease_id
        self.index = index
        self.worker = worker
        self.granted_at = now
        self.last_contact = now
        #: Injected network partition: while the lease is active, every
        #: message concerning it is dropped at the dispatcher.
        self.partitioned = partitioned
        #: Heartbeat slots already counted as missed (monitor sweep).
        self.missed_marked = 0


class LeaseTable:
    """Lease state machine with at-most-once commit gating.

    Pure bookkeeping — no processes, no wall clock of its own; callers
    pass ``now``.  The invariants the dispatcher (and the hypothesis
    property tests) rely on:

    * a task has at most one *active* lease;
    * a committed task can never be granted again;
    * :meth:`settle` accepts a result only for an active,
      non-partitioned lease — anything else is dropped (and, unless the
      drop *is* the partition, counted as a stale commit).
    """

    def __init__(
        self,
        lease_timeout: float,
        heartbeat_interval: float,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[object] = None,
    ) -> None:
        if lease_timeout <= 0:
            raise HarnessError(
                f"lease timeout must be > 0, got {lease_timeout}"
            )
        if heartbeat_interval <= 0:
            raise HarnessError(
                f"heartbeat interval must be > 0, got {heartbeat_interval}"
            )
        self.lease_timeout = float(lease_timeout)
        self.heartbeat_interval = float(heartbeat_interval)
        self.metrics = metrics
        #: Optional flight recorder (:class:`repro.obs.events.EventLog`)
        #: — like ``metrics``, a passive sink that keeps the state
        #: machine pure.
        self.events = events
        self._active: Dict[str, Lease] = {}
        self._by_index: Dict[int, str] = {}
        self._committed: Set[int] = set()
        #: Worker that lost each reclaimed task (steal detection).
        self._lost: Dict[int, int] = {}
        self._serial = 0

    # ------------------------------------------------------------------
    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _event(self, kind: str, **fields) -> None:
        if self.events is not None:
            self.events.emit(kind, **fields)

    def active_count(self) -> int:
        """Number of currently active leases."""
        return len(self._active)

    def active_ids(self) -> List[str]:
        """The active lease ids (sorted, for deterministic tests)."""
        return sorted(self._active)

    def get(self, lease_id: str) -> Optional[Lease]:
        """The active lease *lease_id*, or None."""
        return self._active.get(lease_id)

    def is_partitioned(self, lease_id: str) -> bool:
        """Is *lease_id* active and under an injected partition?"""
        lease = self._active.get(lease_id)
        return lease is not None and lease.partitioned

    # ------------------------------------------------------------------
    def grant(
        self, index: int, worker: int, now: float, partitioned: bool = False
    ) -> Lease:
        """Lease task *index* to *worker*; counts steals of reclaimed work."""
        if index in self._committed:
            raise DispatchError(
                f"task {index} already committed; cannot re-lease"
            )
        if index in self._by_index:
            raise DispatchError(
                f"task {index} already leased as {self._by_index[index]}"
            )
        self._serial += 1
        lease = Lease(f"L{self._serial}", index, worker, now, partitioned)
        self._active[lease.lease_id] = lease
        self._by_index[index] = lease.lease_id
        self._count(DISPATCH_LEASES)
        self._event(
            "lease_grant", lease=lease.lease_id, index=index, worker=worker,
        )
        lost_to = self._lost.pop(index, None)
        if lost_to is not None and lost_to != worker:
            self._count(DISPATCH_STEALS)
            self._event(
                "lease_steal", lease=lease.lease_id, index=index,
                worker=worker, lost_by=lost_to,
            )
        return lease

    def ungrant(self, lease_id: str) -> Optional[Lease]:
        """Roll back a grant whose task message never reached the worker.

        No counters move: the lease never existed from the worker's
        point of view (the caller re-queues the task itself).
        """
        lease = self._active.pop(lease_id, None)
        if lease is not None:
            self._by_index.pop(lease.index, None)
        return lease

    def renew(self, lease_id: str, now: float) -> bool:
        """Heartbeat: refresh the lease deadline.  False when stale.

        Heartbeats for a partitioned lease are dropped (that *is* the
        partition); heartbeats for unknown leases — already reclaimed —
        are ignored, so a stale worker cannot resurrect its lease.
        """
        lease = self._active.get(lease_id)
        if lease is None or lease.partitioned:
            return False
        lease.last_contact = now
        self._count(DISPATCH_HEARTBEATS)
        return True

    def sweep(self, now: float) -> List[Lease]:
        """Monitor pass: count missed heartbeats, reclaim expired leases.

        Returns the reclaimed leases (their tasks must be re-queued by
        the caller).
        """
        expired: List[Lease] = []
        for lease in list(self._active.values()):
            age = now - lease.last_contact
            slots = int(age // self.heartbeat_interval)
            if slots > lease.missed_marked:
                self._count(DISPATCH_MISSED, slots - lease.missed_marked)
                lease.missed_marked = slots
            if age > self.lease_timeout:
                expired.append(lease)
        for lease in expired:
            self._reclaim(lease)
        return expired

    def reclaim(self, lease_id: str) -> Optional[Lease]:
        """Reclaim one lease explicitly (dead worker, run timeout)."""
        lease = self._active.get(lease_id)
        if lease is None:
            return None
        self._reclaim(lease)
        return lease

    def _reclaim(self, lease: Lease) -> None:
        del self._active[lease.lease_id]
        self._by_index.pop(lease.index, None)
        self._lost[lease.index] = lease.worker
        self._count(DISPATCH_RECLAIMS)
        self._event(
            "lease_reclaim", lease=lease.lease_id, index=lease.index,
            worker=lease.worker,
        )

    def settle(self, lease_id: str, ok: bool, now: float) -> Optional[Lease]:
        """Gate one incoming result.  Returns the lease iff it may land.

        An active, non-partitioned lease settles: the lease ends, and a
        successful result marks the task committed — for ever, which is
        the at-most-once guarantee.  A partitioned lease drops the
        message silently (the network ate it).  Anything else — the
        lease was reclaimed, possibly re-granted and even re-committed
        by now — is a stale commit attempt: counted, discarded.
        """
        lease = self._active.get(lease_id)
        if lease is None:
            self._count(DISPATCH_STALE_COMMITS)
            self._event("stale_commit", lease=lease_id)
            return None
        if lease.partitioned:
            return None
        del self._active[lease_id]
        self._by_index.pop(lease.index, None)
        if ok:
            self._committed.add(lease.index)
            self._lost.pop(lease.index, None)
            if self.metrics is not None:
                self.metrics.histogram(DISPATCH_LEASE_SECONDS).observe(
                    max(now - lease.granted_at, 0.0)
                )
            self._event(
                "lease_commit", lease=lease_id, index=lease.index,
                worker=lease.worker,
            )
        return lease


# ----------------------------------------------------------------------
# worker fleet
# ----------------------------------------------------------------------
def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a job count: ``None``/``0`` means one worker per CPU."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise HarnessError(f"jobs must be >= 0, got {jobs}")
    return jobs


def pool_for(
    jobs: Optional[int],
    tasks: int,
    launcher: Optional[str] = None,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
) -> Optional["DispatchPool"]:
    """The pool that runs *tasks* tasks at *jobs*, or ``None`` for serial.

    One worker (``jobs=1``, or ``jobs=0`` on a one-CPU host) or one task
    gains nothing from a subprocess, so it stays on the in-process
    serial loop; anything wider runs ``resolve_jobs(jobs)`` workers.
    """
    workers = resolve_jobs(jobs)
    if workers <= 1 or tasks <= 1:
        return None
    return DispatchPool(
        workers=workers, launcher=launcher, lease_timeout=lease_timeout
    )


def _worker_env() -> Dict[str, str]:
    """Environment for spawned workers: this package stays importable.

    ``$REPRO_FAULTS``, ``$REPRO_CACHE_DIR`` and the backend switches
    cross untouched; the package's ``src`` root is prepended to
    ``PYTHONPATH`` so ``python -m repro.harness.worker`` resolves even
    when the dispatcher itself was started via ``sys.path`` tweaks.
    """
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root + os.pathsep + existing if existing else src_root
    )
    return env


class _WorkerProc:
    """One launched worker: process, pipes, reader thread, lease state."""

    STARTING = "starting"  # launched, no hello yet
    IDLE = "idle"          # ready for a task
    BUSY = "busy"          # holds an active lease
    SUSPECT = "suspect"    # lease reclaimed while the process lives
    DEAD = "dead"          # EOF observed

    def __init__(
        self,
        wid: int,
        command: List[str],
        inbox: "Queue[Tuple[int, Optional[str]]]",
    ) -> None:
        self.wid = wid
        self.state = self.STARTING
        self.lease_id: Optional[str] = None
        try:
            self.proc = subprocess.Popen(
                command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                env=_worker_env(),
            )
        except OSError as error:
            raise DispatchError(
                f"cannot launch worker via {' '.join(command)!r}: {error}"
            ) from error
        self._inbox = inbox
        self.reader = Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        try:
            for line in self.proc.stdout:
                self._inbox.put((self.wid, line))
        finally:
            self._inbox.put((self.wid, None))

    def send(self, message: dict) -> bool:
        """Write one JSONL message; False when the pipe is broken."""
        try:
            self.proc.stdin.write(json.dumps(message) + "\n")
            self.proc.stdin.flush()
            return True
        except (BrokenPipeError, OSError, ValueError):
            return False

    def shutdown(self) -> None:
        """Ask the worker to exit (message + closed stdin)."""
        self.send({"v": PROTOCOL_VERSION, "type": "shutdown"})
        try:
            self.proc.stdin.close()
        except OSError:  # pragma: no cover - pipe already gone
            pass

    def kill(self) -> None:
        """Forcibly stop the worker process."""
        try:
            self.proc.kill()
        except OSError:  # pragma: no cover - already dead
            pass


class DispatchPool:
    """Subprocess-worker fleet with lease-based work stealing.

    ``launcher`` is the full worker command as one shell-style string
    (default: this interpreter running ``-m repro.harness.worker``); a
    cluster backend is just a prefix, e.g. ``"ssh node7 python -m
    repro.harness.worker"``.  ``lease_timeout`` bounds how long a task
    may go without contact before it is reclaimed and re-queued;
    workers heartbeat every ``heartbeat_interval`` (default: a fifth of
    the lease timeout) while executing.
    """

    def __init__(
        self,
        workers: int = 2,
        launcher: Optional[str] = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        heartbeat_interval: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise HarnessError(f"workers must be >= 1, got {workers}")
        if lease_timeout <= 0:
            raise HarnessError(
                f"lease timeout must be > 0, got {lease_timeout}"
            )
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise HarnessError(
                f"heartbeat interval must be > 0, got {heartbeat_interval}"
            )
        self.workers = workers
        self.launcher = launcher
        self.lease_timeout = float(lease_timeout)
        self.heartbeat_interval = (
            float(heartbeat_interval) if heartbeat_interval is not None
            else max(self.lease_timeout / 5.0, 0.05)
        )
        #: Every worker pid this pool ever spawned (tests assert none
        #: outlive a campaign).
        self.spawned_pids: List[int] = []

    def command(self) -> List[str]:
        """The worker launch command (argv form)."""
        if self.launcher:
            parts = shlex.split(self.launcher)
            if not parts:
                raise HarnessError("launcher command is empty")
            return parts
        # The runpy filter silences the (harmless) "found in sys.modules"
        # warning: the harness package itself imports .worker.
        return [
            sys.executable, "-u", "-W", "ignore::RuntimeWarning:runpy",
            "-m", "repro.harness.worker",
        ]

    def describe(self) -> str:
        """One-line human description (logs, events)."""
        return (
            f"dispatch pool ({self.workers} workers via "
            f"{' '.join(self.command())!r}, lease {self.lease_timeout}s)"
        )

    # ------------------------------------------------------------------
    def run_tasks(
        self,
        runner: "ExperimentRunner",
        tasks: Sequence[Task],
        policy: FaultPolicy = DEFAULT_POLICY,
        progress: bool = False,
        on_run: Optional[Callable[[int, "BenchmarkRun"], None]] = None,
        on_failure: Optional[Callable[[int, RunFailure], None]] = None,
    ) -> SuiteOutcome:
        """Run *tasks* on the fleet under *policy*.

        Completed runs come back in task order inside a
        :class:`SuiteOutcome`, failures (after the retry budget)
        alongside; ``on_run``/``on_failure`` fire as each task settles
        (the suite journal hooks in here).
        """
        from . import faults
        from .runner import BenchmarkRun

        if not tasks:
            return SuiteOutcome(())
        plugins = plugin_modules(runner.methods)
        metrics = runner.obs.metrics
        logger.info(
            "dispatching %d runs over %s", len(tasks), self.describe()
        )

        results: Dict[int, "BenchmarkRun"] = {}
        failures: Dict[int, RunFailure] = {}
        attempts: Dict[int, int] = {i: 0 for i in range(len(tasks))}
        eligible: Dict[int, float] = {i: 0.0 for i in range(len(tasks))}
        queue: Set[int] = set(range(len(tasks)))
        # Live telemetry plane (None unless --serve/--events-out): lease
        # ids double as metrics stream ids — unique per grant, so a
        # reclaimed-and-stolen task's partial deltas can never collide
        # with its re-run's stream.
        plane = getattr(runner, "telemetry", None)
        table = LeaseTable(
            self.lease_timeout, self.heartbeat_interval, metrics=metrics,
            events=plane.events if plane is not None else None,
        )

        def _note_worker(wid: int, state: str, benchmark=None, lease=None):
            if plane is not None:
                plane.progress.note_worker(
                    wid, state, benchmark=benchmark, lease=lease
                )

        def _drop_stream(lease_id: Optional[str]) -> None:
            if plane is not None and lease_id is not None:
                plane.live.discard(lease_id)

        def _settle_obs(lease_id: str, payload: Optional[dict]) -> None:
            """Fold a committed obs payload, atomically retiring the
            lease's streamed deltas so live scrapes never double count."""
            if plane is not None:
                plane.live.resolve(
                    lease_id, merge=lambda: runner.obs.merge_dict(payload)
                )
            else:
                runner.obs.merge_dict(payload)

        inbox: "Queue[Tuple[int, Optional[str]]]" = Queue()
        fleet: Dict[int, _WorkerProc] = {}
        spawn_state = {"serial": 0, "failures": 0}
        # Crash-looping tasks are bounded by the retry budget; this cap
        # only backstops a launcher that keeps dying *between* tasks.
        max_spawns = self.workers + len(tasks) * policy.max_attempts + 8

        payload_base = {
            "sampling": runner.sampling,
            "cost_model": runner.cost_model,
            "workload_scale": runner.workload_scale,
            "methods": runner.methods,
            "cache_dir": Path(runner.cache.directory),
            "cache_enabled": runner.cache.enabled,
            "diagnostics": runner.diagnostics,
            "plugins": plugins,
        }

        def _spawn() -> None:
            if len(self.spawned_pids) >= max_spawns:
                raise DispatchError(
                    f"spawned {len(self.spawned_pids)} workers for "
                    f"{len(tasks)} tasks; launcher or workers are "
                    f"crash-looping"
                )
            wid = spawn_state["serial"]
            spawn_state["serial"] += 1
            worker = _WorkerProc(wid, self.command(), inbox)
            fleet[wid] = worker
            self.spawned_pids.append(worker.proc.pid)
            _note_worker(wid, "starting")
            if plane is not None:
                plane.events.emit(
                    "worker_spawn", worker=wid, pid=worker.proc.pid
                )

        def _usable() -> int:
            return sum(
                1 for w in fleet.values()
                if w.state in (w.STARTING, w.IDLE, w.BUSY)
            )

        def _ensure_fleet() -> None:
            outstanding = len(queue) + table.active_count()
            target = min(self.workers, outstanding) if outstanding else 0
            while _usable() < target:
                _spawn()

        def _finalize_failure(index: int, failure: RunFailure) -> None:
            logger.warning("run failed: %s", failure.describe())
            metrics.counter(RUN_FAILURES).inc()
            if policy.fail_fast:
                raise HarnessError(f"fail_fast: {failure.describe()}")
            failures[index] = failure
            if on_failure is not None:
                on_failure(index, failure)

        def _attempt_failed(
            index: int,
            error_type: str,
            message: str,
            tb: str = "",
            stage: Optional[str] = None,
        ) -> None:
            attempts[index] += 1
            benchmark, config = tasks[index]
            if attempts[index] < policy.max_attempts:
                delay = policy.backoff_seconds(attempts[index])
                logger.info(
                    "[%s] %s attempt %d failed (%s); retrying in %.2fs",
                    config.name, benchmark, attempts[index], error_type,
                    delay,
                )
                metrics.counter(RUN_RETRIES).inc()
                metrics.histogram(RETRY_BACKOFF_SECONDS).observe(delay)
                if plane is not None:
                    plane.events.emit(
                        "retry", benchmark=benchmark, config=config.name,
                        attempt=attempts[index], error=error_type,
                    )
                eligible[index] = time.monotonic() + delay
                queue.add(index)
            else:
                _finalize_failure(index, RunFailure(
                    benchmark=benchmark,
                    config_name=config.name,
                    attempts=attempts[index],
                    max_attempts=policy.max_attempts,
                    error_type=error_type,
                    error_message=message,
                    traceback=tb,
                    stage=stage,
                ))

        def _suspend_holder(lease: Lease) -> None:
            """Detach a reclaimed lease from its (still live) worker."""
            holder = fleet.get(lease.worker)
            if holder is not None and holder.lease_id == lease.lease_id:
                holder.lease_id = None
                if holder.state == holder.BUSY:
                    holder.state = holder.SUSPECT

        def _assign(now: float) -> None:
            idle = sorted(
                (w.wid, w) for w in fleet.values() if w.state == w.IDLE
            )
            ready = sorted(i for i in queue if eligible[i] <= now)
            for (_, worker), index in zip(idle, ready):
                benchmark, config = tasks[index]
                partitioned = faults.dispatch_fault(
                    "partition", benchmark, attempts[index]
                )
                if partitioned:
                    logger.warning(
                        "injected partition on %s lease (attempt %d)",
                        benchmark, attempts[index],
                    )
                lease = table.grant(
                    index, worker.wid, now, partitioned=partitioned
                )
                if progress:
                    suffix = (
                        f" (attempt {attempts[index] + 1})"
                        if attempts[index] else ""
                    )
                    logger.info("[%s] %s ...%s", config.name, benchmark,
                                suffix)
                message = {
                    "v": PROTOCOL_VERSION,
                    "type": "task",
                    "lease": lease.lease_id,
                    "benchmark": benchmark,
                    "attempt": attempts[index],
                    "lease_timeout": self.lease_timeout,
                    "heartbeat_interval": self.heartbeat_interval,
                    "payload": encode_task_payload(dict(
                        payload_base, benchmark=benchmark, config=config,
                        worker=f"w{worker.wid}",
                        trace_ctx=runner.obs.tracer.export_context(
                            f"{benchmark}:{config.name}:a{attempts[index]}"
                        ),
                    )),
                }
                if worker.send(message):
                    worker.state = worker.BUSY
                    worker.lease_id = lease.lease_id
                    queue.discard(index)
                    _note_worker(
                        worker.wid, "busy", benchmark=benchmark,
                        lease=lease.lease_id,
                    )
                else:
                    # Broken pipe: the task never left; re-queue it
                    # without charging an attempt.  The reader's EOF
                    # event does the death bookkeeping.
                    table.ungrant(lease.lease_id)

        def _handle_death(wid: int) -> None:
            worker = fleet[wid]
            worker.proc.wait()
            was_starting = worker.state == worker.STARTING
            worker.state = worker.DEAD
            _note_worker(wid, "dead")
            if plane is not None:
                plane.events.emit(
                    "worker_dead", worker=wid,
                    exit_code=worker.proc.returncode,
                )
            lease_id, worker.lease_id = worker.lease_id, None
            if lease_id is not None:
                lease = table.reclaim(lease_id)
                _drop_stream(lease_id)
                if lease is not None:
                    metrics.counter(WORKER_CRASHES).inc()
                    _attempt_failed(
                        lease.index, "WorkerCrash",
                        f"dispatch worker died mid-lease "
                        f"(exit {worker.proc.returncode})",
                    )
            if was_starting:
                spawn_state["failures"] += 1
                if spawn_state["failures"] >= _MAX_SPAWN_FAILURES:
                    raise DispatchError(
                        f"{spawn_state['failures']} workers died before "
                        f"first contact; launcher "
                        f"{' '.join(self.command())!r} is broken "
                        f"(exit {worker.proc.returncode})"
                    )

        def _handle_result(worker: _WorkerProc, message: dict) -> None:
            status = message.get("status")
            if status == "fatal":
                raise DispatchError(
                    f"worker {worker.wid} hit a non-library error:\n"
                    f"{message.get('traceback', '')}"
                )
            lease_id = message.get("lease", "")
            now = time.monotonic()
            lease = table.settle(lease_id, ok=(status == "ok"), now=now)
            if lease is None:
                if table.is_partitioned(lease_id):
                    # The partition ate the result; the lease stays
                    # active until the monitor reclaims it.
                    return
                # Stale commit (already counted): the task was reclaimed
                # — and possibly re-run — while this worker was out of
                # contact.  Its result is discarded, but the worker
                # itself is back: return it to the rotation.
                logger.warning(
                    "worker %d: stale result for %s discarded",
                    worker.wid, lease_id,
                )
                if worker.state in (worker.BUSY, worker.SUSPECT):
                    worker.state = worker.IDLE
                    worker.lease_id = None
                    _note_worker(worker.wid, "idle")
                return
            worker.state = worker.IDLE
            worker.lease_id = None
            _note_worker(worker.wid, "idle")
            # Hand the freed worker its next lease before the commit
            # bookkeeping below (obs merge, run decode, journal fsync),
            # which is the dispatcher's work: the worker would otherwise
            # sit idle through it.
            _assign(now)
            index = lease.index
            benchmark, config = tasks[index]
            if status == "ok":
                _settle_obs(lease_id, message.get("obs"))
                metrics.counter(RUNS_COMPLETED).inc()
                results[index] = BenchmarkRun.from_dict(message["run"])
                if on_run is not None:
                    on_run(index, results[index])
                if progress:
                    logger.info("[%s] %s done", config.name, benchmark)
            else:
                info = message.get("info", {})
                _settle_obs(lease_id, info.get("obs"))
                _attempt_failed(
                    index,
                    info.get("error_type", "ReproError"),
                    info.get("error_message", ""),
                    info.get("traceback", ""),
                    info.get("stage"),
                )

        def _handle_line(wid: int, line: Optional[str]) -> None:
            worker = fleet[wid]
            if line is None:
                _handle_death(wid)
                return
            if worker.state == worker.DEAD:  # pragma: no cover - race
                return
            try:
                message = json.loads(line)
            except json.JSONDecodeError:
                logger.warning(
                    "worker %d: unparseable message %r; killing it",
                    wid, line[:120],
                )
                worker.kill()
                return
            if message.get("v") != PROTOCOL_VERSION:
                raise DispatchError(
                    f"worker {wid} speaks protocol {message.get('v')!r}; "
                    f"dispatcher speaks {PROTOCOL_VERSION}"
                )
            kind = message.get("type")
            if kind == "hello":
                spawn_state["failures"] = 0
                if worker.state == worker.STARTING:
                    worker.state = worker.IDLE
                    _note_worker(wid, "idle")
            elif kind == "heartbeat":
                lease_id = message.get("lease", "")
                renewed = table.renew(lease_id, time.monotonic())
                # Piggybacked metrics delta: fold exactly once, and only
                # for a live, non-partitioned lease — deltas of a
                # reclaimed lease are stale by definition (their run will
                # recommit elsewhere), and a partition eats its messages.
                if renewed and plane is not None and "seq" in message:
                    plane.live.fold(lease_id, message)
            elif kind == "result":
                _handle_result(worker, message)
            else:
                logger.warning(
                    "worker %d: unexpected message type %r", wid, kind
                )

        def _sweep(now: float) -> None:
            for lease in table.sweep(now):
                _suspend_holder(lease)
                _drop_stream(lease.lease_id)
                logger.warning(
                    "lease %s on %s expired (no contact for > %.1fs); "
                    "reclaiming", lease.lease_id, tasks[lease.index][0],
                    self.lease_timeout,
                )
                _attempt_failed(
                    lease.index, "LeaseExpired",
                    f"lease expired after {self.lease_timeout}s without "
                    f"heartbeat",
                )
            if policy.timeout is None:
                return
            overdue = [
                lease for lease in map(table.get, table.active_ids())
                if lease is not None
                and now - lease.granted_at > policy.timeout
            ]
            for lease in overdue:
                # A run past the policy timeout is wedged even though it
                # may still heartbeat; kill the worker (runs cannot be
                # cancelled in place) and charge the task.
                table.reclaim(lease.lease_id)
                _suspend_holder(lease)
                _drop_stream(lease.lease_id)
                holder = fleet.get(lease.worker)
                if holder is not None and holder.state != holder.DEAD:
                    holder.kill()
                metrics.counter(RUN_TIMEOUTS).inc()
                _attempt_failed(
                    lease.index, "RunTimeout",
                    f"run exceeded per-run timeout of {policy.timeout}s",
                )

        def _shutdown_fleet() -> None:
            for worker in fleet.values():
                if worker.state != worker.DEAD:
                    worker.shutdown()
            deadline = time.monotonic() + _SHUTDOWN_GRACE
            # Drain the inbox while the fleet winds down: a worker whose
            # lease was reclaimed may flush a withheld result on shutdown
            # (the node "came back"), and that late commit must still be
            # counted and rejected as stale, not vanish unread.  Only
            # dead leases are settled here — an aborting campaign (fault
            # fast-path) may still hold active ones, and those must not
            # land after the loop has stopped recording results.
            def _drain_late(line: Optional[str]) -> None:
                if line is None:
                    return
                try:
                    message = json.loads(line)
                except json.JSONDecodeError:
                    return
                lease_id = message.get("lease", "")
                if (message.get("type") == "result"
                        and table.get(lease_id) is None):
                    table.settle(lease_id, ok=False, now=time.monotonic())

            while time.monotonic() < deadline:
                if all(w.proc.poll() is not None for w in fleet.values()):
                    break
                try:
                    _, line = inbox.get(timeout=_DISPATCH_TICK)
                except Empty:
                    continue
                _drain_late(line)
            for worker in fleet.values():
                if worker.proc.returncode is not None:
                    continue
                remaining = max(deadline - time.monotonic(), 0.1)
                try:
                    worker.proc.wait(timeout=remaining)
                except subprocess.TimeoutExpired:
                    worker.kill()
                    worker.proc.wait()
            # Final sweep: the reader threads may enqueue a worker's last
            # lines (EOF flush) just after its process exits.
            while True:
                try:
                    _, line = inbox.get(timeout=_DISPATCH_TICK)
                except Empty:
                    break
                _drain_late(line)

        try:
            while queue or table.active_count():
                _ensure_fleet()
                now = time.monotonic()
                _assign(now)
                try:
                    wid, line = inbox.get(timeout=_DISPATCH_TICK)
                except Empty:
                    pass
                else:
                    _handle_line(wid, line)
                    while True:
                        try:
                            wid, line = inbox.get_nowait()
                        except Empty:
                            break
                        _handle_line(wid, line)
                _sweep(time.monotonic())
        finally:
            _shutdown_fleet()
        return assemble_outcome(tasks, results, failures)
