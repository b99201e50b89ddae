"""Flight recorder: a bounded ring of harness lifecycle events.

Metrics say *how much*; the flight recorder says *what happened, in
order*: lease grants/reclaims/steals, retries, cache hits and misses,
commits, worker lifecycle.  Events live in a fixed-capacity in-memory
ring (old events fall off — this is a black box, not an audit log) and,
when a sink path is given (``--events-out``), are also appended as
JSONL so ``repro obs events --follow`` can tail a running campaign and
CI can archive the log as an artefact.

Emission is thread-safe and deliberately cheap; like all telemetry it
is out-of-band and must never influence results.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

#: Known event kinds (a convention, not a straitjacket — emitters may
#: add new kinds without touching this module).
EVENT_KINDS = (
    "suite_begin", "suite_end",
    "run_done", "run_failed", "retry",
    "cache_hit", "cache_miss",
    "lease_grant", "lease_reclaim", "lease_steal", "lease_commit",
    "stale_commit",
    "worker_spawn", "worker_dead",
)

#: Default ring capacity — enough for a full campaign's lifecycle
#: events without unbounded growth under pathological retry storms.
DEFAULT_CAPACITY = 4096


class EventLog:
    """Bounded in-memory event ring with an optional JSONL sink."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        sink: Optional[Any] = None,
    ) -> None:
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=int(capacity))
        self._seq = 0
        self._sink_path = Path(sink) if sink is not None else None
        self._sink_handle = None

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or 0

    @property
    def sink_path(self) -> Optional[Path]:
        return self._sink_path

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    # ------------------------------------------------------------------
    def emit(self, kind: str, **fields: Any) -> dict:
        """Record one event; returns the stored record."""
        with self._lock:
            self._seq += 1
            record = {"seq": self._seq, "ts": time.time(), "kind": kind}
            record.update(fields)
            self._ring.append(record)
            if self._sink_path is not None:
                if self._sink_handle is None:
                    self._sink_handle = open(self._sink_path, "a")
                self._sink_handle.write(json.dumps(record) + "\n")
                self._sink_handle.flush()
        return record

    def tail(
        self,
        limit: Optional[int] = None,
        filters: Optional[Dict[str, str]] = None,
    ) -> List[dict]:
        """The most recent events (oldest first), optionally filtered."""
        with self._lock:
            records = list(self._ring)
        if filters:
            records = [r for r in records if match_event(r, filters)]
        if limit is not None and limit >= 0:
            records = records[-limit:]
        return records

    def close(self) -> None:
        with self._lock:
            if self._sink_handle is not None:
                self._sink_handle.close()
                self._sink_handle = None


# ----------------------------------------------------------------------
# reading / filtering / rendering (repro obs events)
# ----------------------------------------------------------------------
def parse_filters(expressions) -> Dict[str, str]:
    """``key=value`` filter expressions; a bare word filters ``kind``."""
    filters: Dict[str, str] = {}
    for expression in expressions or ():
        if "=" in expression:
            key, _, value = expression.partition("=")
            filters[key.strip()] = value.strip()
        else:
            filters["kind"] = expression.strip()
    return filters


def match_event(record: dict, filters: Dict[str, str]) -> bool:
    """Every filter key must be present and stringify-equal."""
    for key, expected in filters.items():
        if key not in record or str(record[key]) != expected:
            return False
    return True


def read_events(path) -> List[dict]:
    """Parse an events JSONL file (a torn trailing line is skipped —
    the writer may still be mid-append)."""
    records: List[dict] = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return records


def format_event(record: dict) -> str:
    """One human line: ``#seq HH:MM:SS kind key=value ...``."""
    seq = record.get("seq", "?")
    ts = record.get("ts")
    clock = (
        time.strftime("%H:%M:%S", time.localtime(ts))
        if isinstance(ts, (int, float)) else "--:--:--"
    )
    kind = record.get("kind", "?")
    detail = " ".join(
        f"{key}={record[key]}"
        for key in sorted(record)
        if key not in ("seq", "ts", "kind")
    )
    return f"#{seq:>5} {clock} {kind:<14} {detail}".rstrip()


def follow_events(
    path,
    poll_interval: float = 0.25,
    stop: Optional[threading.Event] = None,
    duration: Optional[float] = None,
) -> Iterator[dict]:
    """Yield events appended to *path*, tail -f style.

    Stops when *stop* is set or *duration* seconds have elapsed; a
    missing file is waited for, not an error.
    """
    deadline = (
        time.monotonic() + duration if duration is not None else None
    )
    path = Path(path)
    offset = 0
    buffer = ""
    while True:
        if path.exists():
            with open(path, "r") as handle:
                handle.seek(offset)
                chunk = handle.read()
                offset = handle.tell()
            buffer += chunk
            while "\n" in buffer:
                line, _, buffer = buffer.partition("\n")
                if not line.strip():
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError:
                    continue
        if stop is not None and stop.is_set():
            return
        if deadline is not None and time.monotonic() >= deadline:
            return
        time.sleep(poll_interval)
