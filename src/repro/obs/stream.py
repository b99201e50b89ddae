"""Live metrics streaming: whole-registry snapshots, resolved on commit.

Each worker ships its whole registry in its final ``result`` message
(``obs["metrics"]``).  This module adds the in-flight view:

* :class:`LiveRegistry` — parent side.  Every dispatch heartbeat carries
  the task registry's whole ``MetricsRegistry.to_dict()`` (the same form
  as the committed payload); the latest one per stream (one dispatch
  lease) replaces the previous one as that stream's *pending* registry.
  A lease's heartbeats travel in order on one worker pipe, and a
  dropped heartbeat costs only staleness — the next snapshot restores
  the stream.  When a task's final payload arrives the stream is
  *resolved*: under one lock the pending snapshot is dropped
  and the authoritative payload merged, so a killed worker's partial
  snapshot never double-counts against its committed result and scraped
  counters stay monotone.  At suite completion every stream has been
  resolved or discarded, so ``snapshot()`` equals the post-hoc merged
  registry exactly.
* :class:`ProgressBoard` — the ``/progress`` state: runs done/total and
  per-worker lease state, maintained by the suite driver (runs) and the
  dispatcher (leases).
* :class:`TelemetryPlane` — the bundle a runner carries when live
  telemetry is enabled (``--serve`` / ``--events-out``): live registry,
  progress board, flight recorder.

Telemetry is strictly out-of-band: nothing here may influence results,
and every entry point is a no-op when no plane is attached.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional

from ..errors import ObservabilityError
from .context import ObsContext
from .events import EventLog
from .metrics import TELEMETRY_DROPPED, MetricsRegistry


def copy_registry(registry: MetricsRegistry, retries: int = 8) -> MetricsRegistry:
    """A deep copy of *registry*, tolerant of concurrent writers.

    The worker's main thread mutates its registry while the heartbeat
    thread serialises it; ``dict`` iteration during an insert raises
    ``RuntimeError``, so retry — instrument updates are tiny and a
    quiet window always arrives.
    """
    for _ in range(retries):
        try:
            return MetricsRegistry.from_dict(registry.to_dict())
        except RuntimeError:
            continue
    return MetricsRegistry.from_dict(registry.to_dict())


class LiveRegistry:
    """Parent-side view of the authoritative registry plus the latest
    streamed snapshot of every in-flight lease; the source behind a live
    ``/metrics`` scrape."""

    def __init__(self, base: MetricsRegistry) -> None:
        #: The runner's own registry — only committed payloads land
        #: here (through :meth:`resolve`'s *merge*).
        self.base = base
        self._lock = threading.RLock()
        self._streams: Dict[str, MetricsRegistry] = {}
        #: Streams already settled — a straggler snapshot that was still
        #: in flight when its task committed must not resurrect the
        #: stream (its content is covered by the committed payload).
        self._closed: set = set()

    # ------------------------------------------------------------------
    def update(self, stream_id: str, metrics: Any) -> bool:
        """Replace a stream's pending registry with one streamed
        snapshot (a ``MetricsRegistry.to_dict()``); True if kept.

        A malformed payload or one for a settled stream is dropped and
        counted; the stream keeps its previous snapshot.
        """
        try:
            pending = MetricsRegistry.from_dict(metrics)
        except (KeyError, TypeError, ValueError, AttributeError,
                ObservabilityError):
            pending = None
        with self._lock:
            if pending is None or stream_id in self._closed:
                self.base.counter(TELEMETRY_DROPPED).inc()
                return False
            self._streams[stream_id] = pending
            return True

    # ------------------------------------------------------------------
    def resolve(
        self, stream_id: str, merge: Optional[Callable[[], Any]] = None
    ) -> None:
        """Settle a stream against its committed final payload.

        Atomically (w.r.t. :meth:`snapshot`) drops the stream's pending
        snapshot and runs *merge* — the fold of the final obs payload
        into the base registry.  The final payload is a superset of
        every streamed snapshot, so a scrape never observes a counter
        going backwards.
        """
        with self._lock:
            self._streams.pop(stream_id, None)
            self._closed.add(stream_id)
            if merge is not None:
                merge()

    def discard(self, stream_id: str) -> None:
        """Drop a stream's partial snapshot (reclaimed lease, dead
        worker) — the retried attempt streams under a fresh id."""
        with self._lock:
            self._streams.pop(stream_id, None)
            self._closed.add(stream_id)

    def pending_streams(self) -> List[str]:
        with self._lock:
            return sorted(self._streams)

    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsRegistry:
        """Authoritative state plus every in-flight snapshot, as a fresh
        registry (safe to render off-thread)."""
        with self._lock:
            snap = copy_registry(self.base)
            for pending in self._streams.values():
                snap.merge(pending)
            return snap


class ProgressBoard:
    """Thread-safe run/worker progress behind ``/progress``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.total = 0
        self.done = 0
        self.failed = 0
        self.resumed = 0
        self.phase = "idle"
        self._workers: Dict[str, Dict[str, Any]] = {}

    def begin_suite(self, total: int, resumed: int = 0) -> None:
        with self._lock:
            self.total = int(total)
            self.resumed = int(resumed)
            self.done = 0
            self.failed = 0
            self.phase = "running"

    def end_suite(self) -> None:
        with self._lock:
            self.phase = "done"

    def run_done(self, benchmark: str) -> None:
        with self._lock:
            self.done += 1

    def run_failed(self, benchmark: str) -> None:
        with self._lock:
            self.failed += 1

    def note_worker(
        self,
        worker: Any,
        state: str,
        benchmark: Optional[str] = None,
        lease: Optional[str] = None,
    ) -> None:
        with self._lock:
            self._workers[str(worker)] = {
                "state": state,
                "benchmark": benchmark,
                "lease": lease,
            }

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "phase": self.phase,
                "runs": {
                    "total": self.total,
                    "done": self.done,
                    "failed": self.failed,
                    "resumed": self.resumed,
                },
                "workers": {
                    wid: dict(info)
                    for wid, info in sorted(self._workers.items())
                },
            }


class TelemetryPlane:
    """Everything live telemetry needs, hanging off one runner."""

    def __init__(
        self, obs: ObsContext, events: Optional[EventLog] = None
    ) -> None:
        self.obs = obs
        self.live = LiveRegistry(obs.metrics)
        self.progress = ProgressBoard()
        self.events = events if events is not None else EventLog()

    def close(self) -> None:
        self.events.close()
