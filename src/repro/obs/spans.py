"""Hierarchical span tracing.

A *span* is one timed operation — a whole suite, one pipeline run, one
pipeline stage, one parallel drive — with a name, key/value attributes,
a parent, and children.  Spans form trees; a :class:`Tracer` collects
the roots.  Durations come from :func:`time.perf_counter` (monotonic),
so they are immune to wall-clock steps; each span also records a
``time.time()`` start timestamp so trees from different processes can be
ordered coarsely in reports.

The tracer is deliberately tiny and dependency-free:

* ``with tracer.span("detailed_simulation", attempt=0):`` times a
  block and nests it under the innermost active ``span()`` context;
* :meth:`Tracer.start_span` opens a span *without* entering a context —
  for an instant record the caller ends at once via :meth:`Span.end`;
* span trees serialise to plain dicts (:meth:`Span.to_dict`) and back,
  which is how parallel workers ship their trees to the suite driver —
  :meth:`Tracer.merge_payload` re-attaches them under the driver's
  current span, so a merged trace reads ``suite -> run -> stages`` no
  matter which process executed the run.

An exception escaping a span context marks the span ``status="error"``
with the exception class recorded, and still propagates.

Spans also carry a stable identity — ``span_id`` / ``parent_id`` /
``trace_id`` — assigned by the tracer from a deterministic per-tracer
counter (``origin:serial``), never from randomness, so two runs of the
same suite produce the same ids.  The driver hands workers a *trace
context* (:meth:`Tracer.export_context`) inside the task payload; the
worker adopts it (:meth:`Tracer.adopt_context`) so the root spans it
ships back already point at the owning ``suite``/``run`` span, stitching
one coherent cross-process trace per campaign.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class Span:
    """One timed operation in a trace tree."""

    __slots__ = (
        "name", "attributes", "children", "started_at", "duration",
        "status", "error", "span_id", "parent_id", "trace_id", "_began",
    )

    def __init__(self, name: str, attributes: Optional[Dict[str, Any]] = None):
        self.name = name
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.children: List["Span"] = []
        #: Wall-clock start (``time.time()``), for cross-process ordering.
        self.started_at = time.time()
        #: Seconds from start to :meth:`end`; None while the span is open.
        self.duration: Optional[float] = None
        self.status = "ok"
        self.error: Optional[str] = None
        #: Stable identity, assigned by the owning :class:`Tracer`; a
        #: bare ``Span()`` (e.g. rebuilt from a legacy dump) has none.
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None
        self.trace_id: Optional[str] = None
        self._began = time.perf_counter()

    # ------------------------------------------------------------------
    @property
    def ended(self) -> bool:
        """Has :meth:`end` been called?"""
        return self.duration is not None

    def end(self, error: Optional[BaseException] = None) -> None:
        """Close the span (idempotent); *error* marks it failed."""
        if self.duration is None:
            self.duration = time.perf_counter() - self._began
        if error is not None:
            self.status = "error"
            self.error = type(error).__name__

    def set(self, **attributes: Any) -> "Span":
        """Attach (or overwrite) attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    @property
    def elapsed(self) -> float:
        """Seconds booked so far: the duration, or time-since-start."""
        if self.duration is not None:
            return self.duration
        return time.perf_counter() - self._began

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration:.6f}s" if self.ended else "open"
        return f"Span({self.name!r}, {state}, {len(self.children)} children)"

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable nested form (children recurse)."""
        payload: Dict[str, Any] = {
            "name": self.name,
            "started_at": self.started_at,
            "duration": self.duration,
            "status": self.status,
        }
        if self.error is not None:
            payload["error"] = self.error
        if self.span_id is not None:
            payload["span_id"] = self.span_id
        if self.parent_id is not None:
            payload["parent_id"] = self.parent_id
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        if self.children:
            payload["children"] = [c.to_dict() for c in self.children]
        return payload

    @staticmethod
    def from_dict(payload: dict) -> "Span":
        """Rebuild a (closed) span tree from :meth:`to_dict` output."""
        span = Span(payload["name"], payload.get("attributes"))
        span.started_at = payload.get("started_at", 0.0)
        span.duration = payload.get("duration")
        span.status = payload.get("status", "ok")
        span.error = payload.get("error")
        span.span_id = payload.get("span_id")
        span.parent_id = payload.get("parent_id")
        span.trace_id = payload.get("trace_id")
        span.children = [
            Span.from_dict(c) for c in payload.get("children", ())
        ]
        return span


class Tracer:
    """Collector of span trees for one process.

    Thread-compatibility note: the active-context stack is plain instance
    state.  The suite drivers are single-threaded per process (parallelism
    is process-based), which is exactly the regime this supports.
    """

    def __init__(
        self, origin: str = "main", trace_id: Optional[str] = None
    ) -> None:
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        #: Prefix of every span id this tracer assigns; unique per
        #: process role (the driver is ``main``, workers derive theirs
        #: from the task identity) so merged trees never collide.
        self.origin = origin
        self.trace_id = trace_id if trace_id is not None else f"T-{origin}"
        self._serial = 0
        #: ``parent_id`` stamped on new roots — the driver-side span a
        #: worker's trees will re-attach under (from adopt_context).
        self._context_parent: Optional[str] = None

    # ------------------------------------------------------------------
    def current(self) -> Optional[Span]:
        """The innermost active ``span()`` context, if any."""
        return self._stack[-1] if self._stack else None

    def adopt_context(
        self,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        origin: Optional[str] = None,
    ) -> None:
        """Join a distributed trace started elsewhere.

        Workers call this with the context the driver put in the task
        payload: subsequent spans carry the campaign's ``trace_id``, ids
        are minted under *origin*, and new roots point their
        ``parent_id`` at the driver-side owning span.
        """
        if origin is not None:
            self.origin = origin
        if trace_id is not None:
            self.trace_id = trace_id
        self._context_parent = parent_id

    def export_context(self, origin: str) -> dict:
        """The trace context to embed in a task payload for a worker
        whose tracer should mint ids under *origin*."""
        parent = self.current()
        return {
            "trace_id": self.trace_id,
            "parent_id": parent.span_id if parent is not None else None,
            "origin": origin,
        }

    def start_span(self, name: str, **attributes: Any) -> Span:
        """Open a span under the innermost active context (or as a
        root outside any) without entering it; end it explicitly."""
        parent = self.current()
        span = Span(name, attributes)
        self._serial += 1
        span.span_id = f"{self.origin}:{self._serial}"
        span.trace_id = self.trace_id
        if parent is not None:
            span.parent_id = parent.span_id
            parent.children.append(span)
        else:
            span.parent_id = self._context_parent
            self.roots.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Context manager: time the block as a span, nest children."""
        span = self.start_span(name, **attributes)
        self._stack.append(span)
        try:
            yield span
        except BaseException as error:
            span.end(error=error)
            raise
        else:
            span.end()
        finally:
            self._stack.pop()

    # ------------------------------------------------------------------
    def spans(self) -> Iterator[Span]:
        """Every recorded span, depth-first across roots."""
        for root in self.roots:
            yield from root.walk()

    def to_payload(self) -> List[dict]:
        """Serialise all root trees (worker -> driver)."""
        return [root.to_dict() for root in self.roots]

    def merge_payload(self, payload: Optional[List[dict]]) -> None:
        """Attach serialised root trees under the innermost active span
        (or as new roots outside any context)."""
        if not payload:
            return
        parent = self.current()
        for item in payload:
            span = Span.from_dict(item)
            if parent is not None:
                # Stitch id-less legacy trees under their new parent;
                # trees that travelled with a trace context already
                # point at the right driver-side span.
                if span.parent_id is None:
                    span.parent_id = parent.span_id
                if span.trace_id is None:
                    span.trace_id = parent.trace_id
                parent.children.append(span)
            else:
                self.roots.append(span)
