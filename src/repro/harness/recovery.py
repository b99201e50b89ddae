"""Fault tolerance for suite execution: policies, failures, journaling.

One failed (benchmark, config) pipeline must not abort a whole campaign.
This module supplies the pieces the serial and dispatched suite drivers
share:

* :class:`FaultPolicy` — bounded retries with deterministic exponential
  backoff, an optional per-run timeout, and a ``fail_fast`` toggle that
  restores abort-on-first-failure semantics.
* :class:`RunFailure` — the structured record of a run that exhausted
  its attempts (exception class/message, traceback, failing stage from
  the timing instrumentation, attempt accounting).
* :class:`SuiteOutcome` — what ``run_suite`` returns: the completed runs
  (in suite order; the outcome iterates like a plain run list) plus the
  failures.
* :class:`SuiteJournal` — an append-only JSONL checkpoint next to the
  result cache: one fsync'd line per completed run or final failure, so
  checkpoint cost is O(1) per record and ``--resume`` skips completed
  runs and re-attempts only failed or missing ones.  A crash mid-append
  can tear at most the final line, which the loader drops (counted as
  ``repro_journal_torn_total``) before healing the file.

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
    TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
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

    @staticmethod
    def from_exception(
        benchmark: str,
        config_name: str,
        error: BaseException,
        attempts: int,
        max_attempts: int,
        tb: Optional[str] = None,
    ) -> "RunFailure":
        """Build a failure record from a caught exception.

        The failing stage comes from the marker the runner attaches to
        exceptions that escape a stage span (see
        :meth:`ExperimentRunner._stage`).
        """
        return RunFailure(
            benchmark=benchmark,
            config_name=config_name,
            attempts=attempts,
            max_attempts=max_attempts,
            error_type=type(error).__name__,
            error_message=str(error),
            traceback=tb if tb is not None else traceback_module.format_exc(),
            stage=getattr(error, "_repro_stage", None),
        )


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

    def raise_if_failed(self) -> None:
        """Strict-mode check: raise :class:`HarnessError` on any failure."""
        if self.failures:
            raise HarnessError(self.failure_summary())

    def failure_summary(self) -> str:
        """Multi-line report of every failure (CLI / logs)."""
        total = len(self.runs) + len(self.failures)
        lines = [f"{len(self.failures)} of {total} runs failed:"]
        lines += [f"  {failure.describe()}" for failure in self.failures]
        return "\n".join(lines)


def assemble_outcome(
    tasks: Sequence[Tuple[str, MachineConfig]],
    results: Dict[int, "BenchmarkRun"],
    failures: Dict[int, RunFailure],
) -> SuiteOutcome:
    """Build the outcome, insisting every task is accounted for.

    A task index that produced neither a run nor a failure means the
    driver lost a result — an internal invariant violation that used to
    silently shorten the suite; it is now an explicit error.
    """
    missing = [
        f"{tasks[i][0]} ({tasks[i][1].name})"
        for i in range(len(tasks))
        if i not in results and i not in failures
    ]
    if missing:
        raise HarnessError(
            f"suite driver lost {len(missing)} run(s) without recording "
            f"a result or failure: {', '.join(missing)}"
        )
    return SuiteOutcome(
        runs=[results[i] for i in range(len(tasks)) if i in results],
        failures=[failures[i] for i in sorted(failures)],
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
# serial execution with retries
# ----------------------------------------------------------------------
def run_tasks_serial(
    runner: "ExperimentRunner",
    tasks: Sequence[Tuple[str, MachineConfig]],
    policy: FaultPolicy = DEFAULT_POLICY,
    progress: bool = False,
    on_run: Optional[Callable[[int, "BenchmarkRun"], None]] = None,
    on_failure: Optional[Callable[[int, RunFailure], None]] = None,
) -> SuiteOutcome:
    """Run *tasks* in-process with per-run isolation, retries and timeout.

    Mirrors the dispatcher's recovery semantics on one process:
    each task gets up to ``policy.max_attempts`` attempts with
    deterministic backoff between them; a task that exhausts its budget
    becomes a :class:`RunFailure` (or raises, under ``fail_fast``).
    """
    from . import faults

    metrics = runner.obs.metrics
    results: Dict[int, "BenchmarkRun"] = {}
    failures: Dict[int, RunFailure] = {}
    for index, (benchmark, config) in enumerate(tasks):
        for attempt in range(policy.max_attempts):
            if attempt:
                delay = policy.backoff_seconds(attempt)
                metrics.histogram(RETRY_BACKOFF_SECONDS).observe(delay)
                time.sleep(delay)
            if progress:
                suffix = f" (attempt {attempt + 1})" if attempt else ""
                logger.info("[%s] %s ...%s", config.name, benchmark, suffix)
            faults.set_attempt(attempt)
            try:
                with run_deadline(policy.timeout):
                    run = runner.run_benchmark(benchmark, config)
            except ReproError as error:
                # Library errors (including injected faults and serial
                # timeouts) are retryable run failures; anything else —
                # KeyboardInterrupt, MemoryError, genuine bugs outside
                # the library's error contract — still propagates.
                if isinstance(error, RunTimeout):
                    metrics.counter(RUN_TIMEOUTS).inc()
                failure = RunFailure.from_exception(
                    benchmark, config.name, error,
                    attempts=attempt + 1,
                    max_attempts=policy.max_attempts,
                )
                logger.warning("run failed: %s", failure.describe())
                if attempt + 1 < policy.max_attempts:
                    metrics.counter(RUN_RETRIES).inc()
                    plane = getattr(runner, "telemetry", None)
                    if plane is not None:
                        plane.events.emit(
                            "retry", benchmark=benchmark,
                            config=config.name, attempt=attempt + 1,
                            error=failure.error_type,
                        )
                    continue
                metrics.counter(RUN_FAILURES).inc()
                if policy.fail_fast:
                    raise HarnessError(
                        f"fail_fast: {failure.describe()}"
                    ) from error
                failures[index] = failure
                if on_failure is not None:
                    on_failure(index, failure)
                break
            finally:
                faults.set_attempt(0)
            results[index] = run
            metrics.counter(RUNS_COMPLETED).inc()
            if on_run is not None:
                on_run(index, run)
            break
    return assemble_outcome(tasks, results, failures)


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

    The suite driver records every completed run (with its full result
    payload) and every final failure as **one appended, fsync'd line**
    — O(1) per record, where the original rewrite-the-file scheme cost
    O(records) per record and made checkpointing quadratic over a
    campaign.  A crash (even an OOM kill mid-append) can tear at most
    the final line; the loader drops any unparseable line, counts it as
    ``repro_journal_torn_total``, and heals the file with one atomic
    rewrite (mkstemp + ``os.replace``, the :class:`ResultCache`
    discipline) so later appends cannot concatenate onto a torn tail.
    Whole-file rewrites remain only for the rare structural edits:
    ``reset`` and ``drop_failures``.

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

        A structural edit, so this is one atomic whole-file rewrite —
        it happens once per resume, not once per record.
        """
        self._entries = [
            e for e in self._entries if e.get("type") != "failure"
        ]
        self._rewrite()

    # ------------------------------------------------------------------
    def record_run(
        self, benchmark: str, config_name: str, payload: dict
    ) -> None:
        """Checkpoint one completed run (one appended, fsync'd line)."""
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
        self._entries.append(entry)
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
