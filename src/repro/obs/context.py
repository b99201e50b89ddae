"""The per-process observability context: one tracer + one registry.

Every :class:`~repro.harness.runner.ExperimentRunner` owns an
:class:`ObsContext`; the runner's run and stage spans, the cache, the
recovery drivers and the simulators all record into it.  Parallel
workers serialise their context (:meth:`to_dict`) alongside each result
and the suite driver folds it back in (:meth:`merge_dict`) — span trees
re-parent under the driver's current span, metrics merge per-instrument
— so one context ends up describing the whole campaign regardless of
process layout.
"""

from __future__ import annotations

from typing import Optional

from .metrics import MetricsRegistry
from .spans import Tracer


class ObsContext:
    """Aggregates one process's spans and metrics."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()

    def to_dict(self) -> dict:
        """Serialise spans + metrics (worker -> suite driver)."""
        return {
            "spans": self.tracer.to_payload(),
            "metrics": self.metrics.to_dict(),
        }

    def merge_dict(self, payload: Optional[dict]) -> None:
        """Fold a serialised context into this one.

        Incoming span roots attach under the tracer's innermost active
        span — the suite span, during a suite.
        """
        if not payload:
            return
        self.tracer.merge_payload(payload.get("spans"))
        self.metrics.merge_dict(payload.get("metrics"))
