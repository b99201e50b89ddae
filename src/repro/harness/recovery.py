"""Fault tolerance for suite execution: policies, the task ledger, journaling.

One failed (benchmark, config) pipeline must not abort a whole campaign.
This module supplies the pieces the serial and dispatched suite drivers
share:

* :class:`FaultPolicy` — bounded retries with deterministic exponential
  backoff, an optional per-run timeout, and a ``fail_fast`` toggle that
  restores abort-on-first-failure semantics.
* :class:`TaskLedger` — the one implementation of that policy: a pure
  state machine (callers pass ``now``; metrics and events are passive
  sinks) owning each task's attempt count, retry eligibility time,
  result or final failure, and the suite's outcome.  Both drivers only
  execute tasks and report what happened: :func:`run_tasks_serial`
  in-process, :meth:`repro.harness.dispatch.DispatchPool.run_tasks` on
  the worker fleet.
* :class:`RunFailure` — the structured record of a run that exhausted
  its attempts (exception class/message, traceback, failing stage from
  the timing instrumentation, attempt accounting).
* :class:`SuiteOutcome` — what ``run_suite`` returns: the completed runs
  (in suite order; the outcome iterates like a plain run list) plus the
  failures.
* :class:`SuiteJournal` — an append-only JSONL checkpoint next to the
  result cache: one fsync'd line per computed run or final failure, so
  checkpoint cost is O(1) per record and ``--resume`` skips completed
  runs and re-attempts only failed or missing ones.  A full cache hit
  is not journaled: the result cache already holds it and re-serves it
  on resume.  A crash mid-append can tear at most the final line, which
  the loader drops (counted as ``repro_journal_torn_total``) before
  healing the file.

Retries are safe because every pipeline run is a pure function of its
(benchmark spec, scale, sampling config, machine config) inputs
(DESIGN.md decision 1): a re-attempt cannot produce a different result,
only the same result or another failure.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import signal
import tempfile
import threading
import time
import traceback as traceback_module
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterator, List, Mapping, Optional,
    Sequence, Set, Tuple,
)

from ..config import MachineConfig
from ..errors import HarnessError, ReproError, RunTimeout
from ..obs import (
    JOURNAL_TORN,
    RETRY_BACKOFF_SECONDS,
    RUN_FAILURES,
    RUN_RETRIES,
    RUN_TIMEOUTS,
    RUNS_COMPLETED,
    MetricsRegistry,
)
from .cache import CACHE_SCHEMA_VERSION

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runner import BenchmarkRun, ExperimentRunner

logger = logging.getLogger(__name__)


# ----------------------------------------------------------------------
# policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPolicy:
    """How the suite drivers respond to a failing run.

    ``max_retries`` counts *re*-attempts: a run executes at most
    ``max_retries + 1`` times.  Backoff before re-attempt *n* (1-based)
    is ``backoff_base * backoff_factor ** (n - 1)`` seconds — purely
    deterministic, no jitter, so failure schedules are reproducible.
    ``timeout`` bounds one attempt's wall clock (``None`` disables).
    ``fail_fast`` raises on the first run that exhausts its attempts
    instead of recording it and carrying on.
    """

    max_retries: int = 1
    timeout: Optional[float] = None
    fail_fast: bool = False
    backoff_base: float = 0.1
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise HarnessError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise HarnessError(f"timeout must be > 0, got {self.timeout}")
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise HarnessError(
                f"backoff must have base >= 0 and factor >= 1, got "
                f"base={self.backoff_base}, factor={self.backoff_factor}"
            )

    @property
    def max_attempts(self) -> int:
        """Total attempts a run may consume."""
        return self.max_retries + 1

    def backoff_seconds(self, reattempt: int) -> float:
        """Deterministic delay before re-attempt *reattempt* (1-based)."""
        if reattempt <= 0:
            return 0.0
        return self.backoff_base * self.backoff_factor ** (reattempt - 1)


#: Policy used when callers pass none: one retry, no timeout, graceful.
DEFAULT_POLICY = FaultPolicy()


# ----------------------------------------------------------------------
# failures
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunFailure:
    """Structured record of one run that exhausted its attempts."""

    benchmark: str
    config_name: str
    attempts: int
    max_attempts: int
    error_type: str
    error_message: str
    traceback: str
    stage: Optional[str]

    @property
    def label(self) -> str:
        """Compact table marker, e.g. ``FAILED(3/3)``."""
        return f"FAILED({self.attempts}/{self.max_attempts})"

    def describe(self) -> str:
        """One-line human summary (CLI failure reports)."""
        where = f" in {self.stage}" if self.stage else ""
        return (
            f"{self.benchmark} ({self.config_name}): {self.error_type}"
            f"{where} after {self.attempts}/{self.max_attempts} attempts"
            f" — {self.error_message}"
        )

    def to_dict(self) -> dict:
        """JSON-serialisable form (journal entries)."""
        return {
            "benchmark": self.benchmark,
            "config_name": self.config_name,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "error_type": self.error_type,
            "error_message": self.error_message,
            "traceback": self.traceback,
            "stage": self.stage,
        }

    @staticmethod
    def from_dict(payload: dict) -> "RunFailure":
        """Rebuild from :meth:`to_dict` output."""
        return RunFailure(
            benchmark=payload["benchmark"],
            config_name=payload["config_name"],
            attempts=payload["attempts"],
            max_attempts=payload["max_attempts"],
            error_type=payload["error_type"],
            error_message=payload["error_message"],
            traceback=payload["traceback"],
            stage=payload.get("stage"),
        )


def error_report(error: BaseException, tb: Optional[str] = None) -> dict:
    """The :class:`RunFailure` error fields of *error*, while handling it.

    The stage is the marker the runner attaches to exceptions escaping a
    stage span (:meth:`ExperimentRunner._stage`).
    """
    return {
        "error_type": type(error).__name__,
        "error_message": str(error),
        "traceback": tb if tb is not None else traceback_module.format_exc(),
        "stage": getattr(error, "_repro_stage", None),
    }


# ----------------------------------------------------------------------
# outcome
# ----------------------------------------------------------------------
class SuiteOutcome(Sequence):
    """Runs plus failures of one suite invocation.

    Iterating (or indexing) an outcome yields the completed
    :class:`BenchmarkRun` objects in suite order, so code written against
    the old ``List[BenchmarkRun]`` return type keeps working; the
    failures ride along in :attr:`failures`.
    """

    def __init__(
        self,
        runs: Sequence["BenchmarkRun"],
        failures: Sequence[RunFailure] = (),
    ) -> None:
        self.runs: Tuple["BenchmarkRun", ...] = tuple(runs)
        self.failures: Tuple[RunFailure, ...] = tuple(failures)

    def __len__(self) -> int:
        return len(self.runs)

    def __getitem__(self, index):
        return self.runs[index]

    def __iter__(self) -> Iterator["BenchmarkRun"]:
        return iter(self.runs)

    def __repr__(self) -> str:
        return (
            f"SuiteOutcome({len(self.runs)} runs, "
            f"{len(self.failures)} failures)"
        )

    @property
    def ok(self) -> bool:
        """True when every run completed."""
        return not self.failures

    def failure_summary(self) -> str:
        """Multi-line report of every failure (CLI / logs)."""
        total = len(self.runs) + len(self.failures)
        lines = [f"{len(self.failures)} of {total} runs failed:"]
        lines += [f"  {failure.describe()}" for failure in self.failures]
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the task ledger (pure, property-testable)
# ----------------------------------------------------------------------
class TaskLedger:
    """Attempts, retry schedule, results and failures of one suite's tasks.

    The one implementation of :class:`FaultPolicy`, shared by both suite
    drivers.  Pure like :class:`~repro.harness.dispatch.LeaseTable`:
    callers pass ``now``; ``metrics`` and ``events`` are passive sinks.
    A driver marks a :meth:`ready` task with :meth:`start`, executes it
    and reports :meth:`succeeded` or :meth:`failed`; every counter, event,
    log line, hook and :class:`RunFailure` of the policy is booked here.
    A task is pending, running or settled; a report for a task that is
    not running is refused, so each task settles exactly once.
    *restored* seeds runs a ``--resume`` restored: settled from the
    start, with no hook fired and no counter moved.
    """

    def __init__(
        self,
        tasks: Sequence[Tuple[str, MachineConfig]],
        policy: FaultPolicy = DEFAULT_POLICY,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[object] = None,
        progress: bool = False,
        on_run: Optional[Callable[[int, "BenchmarkRun"], None]] = None,
        on_failure: Optional[Callable[[int, RunFailure], None]] = None,
        restored: Optional[Mapping[int, "BenchmarkRun"]] = None,
    ) -> None:
        self.tasks = list(tasks)
        self.policy = policy
        self.metrics = metrics
        self.events = events
        self.progress = progress
        self.on_run = on_run
        self.on_failure = on_failure
        self.results: Dict[int, "BenchmarkRun"] = dict(restored or {})
        self.failures: Dict[int, RunFailure] = {}
        #: Failed attempts per task: the next attempt's 0-based number,
        #: as ``$REPRO_FAULTS`` counts it.
        self.attempts = [0] * len(self.tasks)
        self._eligible = [0.0] * len(self.tasks)
        self._pending = set(range(len(self.tasks))) - set(self.results)
        self._running: Set[int] = set()

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def pending(self) -> List[int]:
        """Tasks waiting for an attempt (including backoff), in order."""
        return sorted(self._pending)

    def ready(self, now: float) -> List[int]:
        """Pending tasks whose retry backoff has elapsed at *now*."""
        return sorted(i for i in self._pending if self._eligible[i] <= now)

    def start(self, index: int) -> int:
        """Mark an attempt of task *index* running; returns its number."""
        if index not in self._pending:
            raise HarnessError(f"task {index} is not pending; cannot start")
        self._pending.remove(index)
        self._running.add(index)
        attempt = self.attempts[index]
        if self.progress:
            benchmark, config = self.tasks[index]
            suffix = f" (attempt {attempt + 1})" if attempt else ""
            logger.info("[%s] %s ...%s", config.name, benchmark, suffix)
        return attempt

    def _finish(self, index: int) -> Tuple[str, MachineConfig]:
        if index not in self._running:
            raise HarnessError(
                f"task {index} reported without a running attempt"
            )
        self._running.remove(index)
        return self.tasks[index]

    def succeeded(self, index: int, run: "BenchmarkRun") -> None:
        """Settle task *index* with its completed *run*."""
        benchmark, config = self._finish(index)
        self._count(RUNS_COMPLETED)
        self.results[index] = run
        if self.on_run is not None:
            self.on_run(index, run)
        if self.progress:
            logger.info("[%s] %s done", config.name, benchmark)

    def failed(
        self,
        index: int,
        now: float,
        error_type: str = "ReproError",
        error_message: str = "",
        traceback: str = "",
        stage: Optional[str] = None,
    ) -> Optional[float]:
        """Charge task *index* one failed attempt with the given error.

        Returns the backoff when the task will be retried (it is
        :meth:`ready` again from ``now + delay``), else ``None``: it
        settled as a failure — or, under ``fail_fast``,
        :class:`HarnessError` raises.
        """
        benchmark, config = self._finish(index)
        self.attempts[index] += 1
        attempts = self.attempts[index]
        if error_type == RunTimeout.__name__:
            self._count(RUN_TIMEOUTS)
        if attempts < self.policy.max_attempts:
            delay = self.policy.backoff_seconds(attempts)
            logger.info(
                "[%s] %s attempt %d failed (%s); retrying in %.2fs",
                config.name, benchmark, attempts, error_type, delay,
            )
            self._count(RUN_RETRIES)
            if self.metrics is not None:
                self.metrics.histogram(RETRY_BACKOFF_SECONDS).observe(delay)
            if self.events is not None:
                self.events.emit(
                    "retry", benchmark=benchmark, config=config.name,
                    attempt=attempts, error=error_type,
                )
            self._eligible[index] = now + delay
            self._pending.add(index)
            return delay
        failure = RunFailure(
            benchmark, config.name, attempts, self.policy.max_attempts,
            error_type, error_message, traceback, stage,
        )
        logger.warning("run failed: %s", failure.describe())
        self._count(RUN_FAILURES)
        if self.policy.fail_fast:
            raise HarnessError(f"fail_fast: {failure.describe()}")
        self.failures[index] = failure
        if self.on_failure is not None:
            self.on_failure(index, failure)
        return None

    def outcome(self) -> SuiteOutcome:
        """Runs and failures in task order; every task must have settled.

        An unsettled task means the driver lost a result — an invariant
        violation, raised rather than silently shortening the suite.
        """
        missing = [
            f"{benchmark} ({config.name})"
            for index, (benchmark, config) in enumerate(self.tasks)
            if index not in self.results and index not in self.failures
        ]
        if missing:
            raise HarnessError(
                f"suite driver lost {len(missing)} run(s) without "
                f"recording a result or failure: {', '.join(missing)}"
            )
        return SuiteOutcome(
            runs=[self.results[i] for i in sorted(self.results)],
            failures=[self.failures[i] for i in sorted(self.failures)],
        )


# ----------------------------------------------------------------------
# per-run timeout (serial path)
# ----------------------------------------------------------------------
@contextmanager
def run_deadline(seconds: Optional[float]) -> Iterator[None]:
    """Bound the wall clock of the enclosed run via ``SIGALRM``.

    Signal-based, so it interrupts even a hung C-level sleep; only
    installable in the main thread (and on platforms with ``SIGALRM``) —
    elsewhere it degrades to a no-op, and the dispatcher enforces
    timeouts by killing workers instead.
    """
    if (
        seconds is None
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _alarm(signum, frame):
        raise RunTimeout(f"run exceeded per-run timeout of {seconds}s")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# serial execution
# ----------------------------------------------------------------------
def run_tasks_serial(runner: "ExperimentRunner", ledger: TaskLedger) -> None:
    """Run *ledger*'s pending tasks in-process, one after another.

    Each task is retried in place — sleeping the backoff the ledger
    returns — until the ledger settles it, so serial span order is suite
    order.  Library errors (including injected faults and the
    ``run_deadline`` timeout) are failed attempts; anything else —
    KeyboardInterrupt, MemoryError, genuine bugs outside the library's
    error contract — propagates.
    """
    from . import faults

    for index in ledger.pending():
        benchmark, config = ledger.tasks[index]
        while True:
            faults.set_attempt(ledger.start(index))
            run = delay = None
            try:
                with run_deadline(ledger.policy.timeout):
                    run = runner.run_benchmark(benchmark, config)
            except ReproError as error:
                delay = ledger.failed(
                    index, time.monotonic(), **error_report(error)
                )
            finally:
                faults.set_attempt(0)
            if run is not None:
                ledger.succeeded(index, run)
            if delay is None:
                break
            time.sleep(delay)


# ----------------------------------------------------------------------
# checkpoint journal
# ----------------------------------------------------------------------
def suite_fingerprint(
    runner: "ExperimentRunner",
    config: MachineConfig,
    names: Sequence[str],
) -> str:
    """Content fingerprint of one suite invocation.

    Two invocations share a journal only when every input that could
    change their results matches (same discipline as the result cache's
    content keys).
    """
    text = (
        f"v{CACHE_SCHEMA_VERSION}:{config!r}:{runner.sampling!r}:"
        f"scale={runner.workload_scale}:"
        f"methods={','.join(runner.methods)}:names={','.join(names)}"
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class SuiteJournal:
    """Append-only JSONL checkpoint of suite progress, for ``--resume``.

    The suite driver records every run it computed (with its full result
    payload) and every final failure as **one appended, fsync'd line**
    — O(1) per record, where the original rewrite-the-file scheme cost
    O(records) per record and made checkpointing quadratic over a
    campaign.  A crash (even an OOM kill mid-append) can tear at most
    the final line; the loader drops any unparseable line, counts it as
    ``repro_journal_torn_total``, and heals the file with one atomic
    rewrite (mkstemp + ``os.replace``, the :class:`ResultCache`
    discipline) so later appends cannot concatenate onto a torn tail.
    Whole-file rewrites remain only for the rare structural edits:
    ``reset`` and ``drop_failures``.  Appended entries are written, not
    kept: :meth:`completed` and :meth:`failed` describe what
    :meth:`load` read, and the rewrites rewrite exactly that.

    Only the suite *parent* writes the journal (workers return results
    to it), so there is a single writer per file — this is also the
    dispatch backend's at-most-once commit point: a stale worker's late
    result is discarded by the lease table before it ever reaches here.
    """

    VERSION = 1

    def __init__(
        self,
        path: Path,
        fingerprint: str,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.metrics = metrics
        #: The header plus what :meth:`load` read; empty until the file
        #: has a header of this suite's fingerprint.
        self._entries: List[dict] = []

    @staticmethod
    def for_suite(
        directory: Path,
        runner: "ExperimentRunner",
        config: MachineConfig,
        names: Sequence[str],
    ) -> "SuiteJournal":
        """The journal of one suite invocation, next to the cache."""
        fingerprint = suite_fingerprint(runner, config, names)
        return SuiteJournal(
            Path(directory) / f"suite-{fingerprint}.journal.jsonl",
            fingerprint,
            metrics=runner.obs.metrics,
        )

    # ------------------------------------------------------------------
    def load(self) -> int:
        """Read existing entries (tolerating torn lines); return count.

        Unparseable lines — a crash tore the final append — are dropped
        and counted (``repro_journal_torn_total``); when any were found
        the journal is immediately rewritten from the surviving entries,
        so a subsequent append cannot concatenate onto a torn tail.  A
        journal written by a different suite invocation (mismatched
        fingerprint) or journal version is ignored wholesale — resuming
        against it would mix incompatible results.
        """
        self._entries = []
        try:
            lines = self.path.read_text().splitlines()
        except OSError:
            return 0
        entries: List[dict] = []
        torn = 0
        for line in lines:
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                torn += 1
                logger.warning("journal %s: dropping torn line", self.path)
                continue
            entries.append(entry)
        if torn and self.metrics is not None:
            self.metrics.counter(JOURNAL_TORN).inc(torn)
        if not entries:
            return 0
        header = entries[0]
        if (
            header.get("type") != "header"
            or header.get("fingerprint") != self.fingerprint
            or header.get("version") != self.VERSION
        ):
            logger.warning(
                "journal %s belongs to a different suite invocation; "
                "ignoring it", self.path,
            )
            return 0
        self._entries = entries
        if torn:
            self._rewrite()
        return len(entries) - 1

    def reset(self) -> None:
        """Start a fresh journal (non-resume invocations)."""
        self._entries = [{
            "type": "header",
            "version": self.VERSION,
            "fingerprint": self.fingerprint,
        }]
        self._rewrite()

    # ------------------------------------------------------------------
    def completed(self) -> Dict[Tuple[str, str], dict]:
        """Loaded run payloads keyed by (benchmark, config_name)."""
        return {
            (e["benchmark"], e["config_name"]): e["payload"]
            for e in self._entries
            if e.get("type") == "run"
        }

    def failed(self) -> List[RunFailure]:
        """Loaded failure records (these get re-attempted on resume)."""
        return [
            RunFailure.from_dict(e["failure"])
            for e in self._entries
            if e.get("type") == "failure"
        ]

    def drop_failures(self) -> None:
        """Forget recorded failures (they are about to be re-attempted).

        A structural edit, so this is one atomic whole-file rewrite of
        what :meth:`load` read — call it before appending — once per
        resume, not once per record.
        """
        self._entries = [
            e for e in self._entries if e.get("type") != "failure"
        ]
        self._rewrite()

    # ------------------------------------------------------------------
    def record_run(
        self, benchmark: str, config_name: str, payload: dict
    ) -> None:
        """Checkpoint one computed run (one appended, fsync'd line)."""
        self._append({
            "type": "run",
            "benchmark": benchmark,
            "config_name": config_name,
            "payload": payload,
        })

    def record_failure(self, failure: RunFailure) -> None:
        """Checkpoint one final (post-retries) failure."""
        self._append({"type": "failure", "failure": failure.to_dict()})

    def _append(self, entry: dict) -> None:
        """Append one record: write the line, flush, fsync.

        The fsync bounds what a crash can lose to the final, possibly
        torn line — which :meth:`load` then drops and heals.
        """
        if not self._entries:
            self.reset()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def _rewrite(self) -> None:
        """Atomically replace the whole file (reset / heal / drop)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=self.path.stem + ".", suffix=".tmp", dir=self.path.parent
        )
        try:
            with os.fdopen(fd, "w") as handle:
                for entry in self._entries:
                    handle.write(json.dumps(entry) + "\n")
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
