"""Deterministic fault injection for the experiment harness.

The fault-tolerance machinery (:mod:`repro.harness.recovery`) is only
trustworthy if every recovery path can be exercised on demand, in tests,
reproducibly.  This module installs hooks at the pipeline's stage
boundaries (the runner calls :func:`fire_stage` as each stage span
opens) and at the cache-publish point that fire on *chosen*
``(benchmark, attempt)`` pairs — never randomly — so a test that
injects a fault sees exactly the same failure on every run, serial or
parallel alike.

Faults are configured through the ``$REPRO_FAULTS`` environment variable,
which crosses the process boundary to worker processes for free.  The value
is a semicolon-separated list of specs::

    kind:benchmark:stage:attempts

* ``kind`` — one of ``raise`` (raise :class:`InjectedFault` on stage
  entry), ``hang`` (block in the stage until killed or timed out),
  ``kill`` (``os._exit`` the current process, simulating an OOM-killed
  worker), ``corrupt`` (overwrite the run's just-published cache entry
  with garbage), or a dispatch-level kind understood by the ``jobs > 1``
  dispatcher (:mod:`repro.harness.dispatch`): ``worker_exit`` (the
  subprocess worker dies the moment it receives the matching task),
  ``heartbeat_drop`` (the worker executes the task but sends no
  heartbeats and holds the task past its lease deadline before
  running it), ``partition`` (the dispatcher drops every message
  concerning the matching lease until the lease is reclaimed,
  simulating a network partition), ``stale_commit`` (the worker
  withholds its finished result until after its lease deadline, so the
  commit must be rejected as stale).
* ``benchmark`` — benchmark name, or ``*`` for all.
* ``stage`` — pipeline stage name (``trace_build``, ``profiling``,
  ``plan_construction``, ``detailed_simulation``, ``diagnostics``; see
  :data:`STAGE_ORDER`), or ``*``; anything else is
  rejected, so a spec naming a renamed stage cannot silently never fire.
  Ignored for ``corrupt`` (which fires after the run publishes) and for
  the dispatch-level kinds (which fire at lease grant / task receipt,
  outside any stage).
* ``attempts`` — comma-separated attempt numbers (0-based), or ``*``.

Example: ``raise:gzip:detailed_simulation:0,1`` makes gzip's first two
attempts die in the detailed-simulation stage; the third succeeds — a
transient failure.

.. warning:: ``kill`` terminates the *current* process.  With
   ``jobs > 1`` that is a worker subprocess (the scenario being simulated);
   on the serial path it is the suite process itself — only inject serial
   kills into a subprocess (e.g. a CLI invocation) whose death and
   ``--resume`` you then observe.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import FaultSpecError, InjectedFault
from ..obs import FAULTS_INJECTED

logger = logging.getLogger(__name__)

#: Pipeline stage names in pipeline order (the ``--timing`` report
#: renders in this order; stages a run never entered are absent).
STAGE_ORDER = (
    "trace_build",
    "profiling",
    "plan_construction",
    "detailed_simulation",
    "diagnostics",
)

#: Environment variable holding the fault specs.
FAULTS_ENV = "REPRO_FAULTS"

#: Fault kinds that fire at pipeline stage boundaries.
STAGE_FAULT_KINDS = ("raise", "hang", "kill")

#: Fault kinds handled by the distributed dispatcher / its workers.
DISPATCH_FAULT_KINDS = (
    "worker_exit", "heartbeat_drop", "partition", "stale_commit",
)

#: Recognised fault kinds.
FAULT_KINDS = STAGE_FAULT_KINDS + ("corrupt",) + DISPATCH_FAULT_KINDS

#: Exit status used by ``kill`` faults (mirrors SIGKILL's 128+9).
KILL_EXIT_CODE = 137

#: Upper bound on a ``hang`` fault, so a misconfigured test cannot wedge
#: a machine forever (per-run timeouts are expected to fire far sooner).
HANG_SECONDS = 300.0


@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault: fire *kind* on (benchmark, stage, attempt)."""

    kind: str
    benchmark: str  # "*" matches every benchmark
    stage: str      # "*" matches every stage
    attempts: Tuple[int, ...]  # empty tuple matches every attempt

    def matches(self, benchmark: str, stage: Optional[str], attempt: int) -> bool:
        """Does this spec fire for the given site?"""
        if self.benchmark != "*" and self.benchmark != benchmark:
            return False
        if stage is not None and self.stage not in ("*", stage):
            return False
        if self.attempts and attempt not in self.attempts:
            return False
        return True


def parse_faults(text: str) -> Tuple[FaultSpec, ...]:
    """Parse a ``$REPRO_FAULTS`` value into specs (raises on bad input)."""
    specs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 4:
            raise FaultSpecError(
                f"fault spec {chunk!r} is not kind:benchmark:stage:attempts"
            )
        kind, benchmark, stage, attempts_text = (p.strip() for p in parts)
        if kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {kind!r} (expected one of {FAULT_KINDS})"
            )
        if stage != "*" and stage not in STAGE_ORDER:
            raise FaultSpecError(
                f"unknown stage {stage!r} in {chunk!r} (expected * or one "
                f"of {', '.join(STAGE_ORDER)})"
            )
        if attempts_text == "*":
            attempts: Tuple[int, ...] = ()
        else:
            try:
                attempts = tuple(
                    int(a) for a in attempts_text.split(",") if a.strip()
                )
            except ValueError as error:
                raise FaultSpecError(
                    f"bad attempt list {attempts_text!r} in {chunk!r}"
                ) from error
            if not attempts or any(a < 0 for a in attempts):
                raise FaultSpecError(
                    f"bad attempt list {attempts_text!r} in {chunk!r}"
                )
        specs.append(FaultSpec(kind, benchmark, stage, attempts))
    return tuple(specs)


# Parsed specs are cached against the exact env value so the per-stage
# hook costs one dict lookup when faults are configured and one environ
# read when they are not.
_parsed: Tuple[str, Tuple[FaultSpec, ...]] = ("", ())

#: Attempt number of the run currently executing in this process; the
#: recovery layer sets it before each (re-)attempt, workers set it from
#: their task payload.
_current_attempt = 0


def set_attempt(attempt: int) -> None:
    """Declare the attempt number of the run about to execute."""
    global _current_attempt
    _current_attempt = attempt


def current_attempt() -> int:
    """The attempt number declared via :func:`set_attempt` (default 0)."""
    return _current_attempt


def active_faults() -> Tuple[FaultSpec, ...]:
    """The specs currently configured through ``$REPRO_FAULTS``."""
    global _parsed
    text = os.environ.get(FAULTS_ENV, "")
    if text != _parsed[0]:
        _parsed = (text, parse_faults(text))
    return _parsed[1]


def dispatch_fault(kind: str, benchmark: str, attempt: int) -> bool:
    """Is a dispatch-level fault of *kind* configured for this task?

    Dispatch faults fire outside any pipeline stage — at lease grant on
    the dispatcher side (``partition``) or at task receipt on the worker
    side (``worker_exit``, ``heartbeat_drop``, ``stale_commit``) — so
    only the (benchmark, attempt) coordinates select them.
    """
    if kind not in DISPATCH_FAULT_KINDS:
        raise FaultSpecError(f"{kind!r} is not a dispatch fault kind")
    return any(
        spec.kind == kind and spec.matches(benchmark, None, attempt)
        for spec in active_faults()
    )


def fire_stage(benchmark: str, stage: str) -> None:
    """Fault hook at stage entry (the runner calls it as each stage opens)."""
    for spec in active_faults():
        if spec.kind not in STAGE_FAULT_KINDS:
            continue
        if not spec.matches(benchmark, stage, _current_attempt):
            continue
        logger.warning(
            "injected fault %s on %s/%s attempt %d",
            spec.kind, benchmark, stage, _current_attempt,
        )
        if spec.kind == "raise":
            raise InjectedFault(
                f"injected failure in {benchmark}/{stage} "
                f"(attempt {_current_attempt})"
            )
        if spec.kind == "hang":
            deadline = time.monotonic() + HANG_SECONDS
            while time.monotonic() < deadline:
                time.sleep(0.05)
            raise InjectedFault(
                f"injected hang in {benchmark}/{stage} outlived its "
                f"{HANG_SECONDS}s bound"
            )
        if spec.kind == "kill":
            os._exit(KILL_EXIT_CODE)


def corrupt_cache_entry(cache, key: str, benchmark: str) -> None:
    """Fault hook after a run publishes its cache entry.

    Overwrites the entry with garbage, simulating a torn write or bad
    disk; the next reader must quarantine it and recompute.
    """
    for spec in active_faults():
        if spec.kind != "corrupt":
            continue
        if not spec.matches(benchmark, None, _current_attempt):
            continue
        path = cache.path_for(key)
        if path.exists():
            logger.warning(
                "injected cache corruption for %s (attempt %d)",
                benchmark, _current_attempt,
            )
            cache.metrics.counter(FAULTS_INJECTED, site="cache").inc()
            path.write_text("{corrupted by injected fault")
