"""Two-level memory hierarchy: split L1 I/D caches over a unified L2.

The hierarchy owns the three caches; its users (the instruction-level
OoO reference) drive ``il1``, ``dl1`` and ``ul2`` directly, feeding each
level's misses to the next.
"""

from __future__ import annotations

from ..config import MachineConfig
from .cache import Cache


class MemoryHierarchy:
    """L1I + L1D over a unified L2, with miss propagation."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.il1 = Cache(config.icache)
        self.dl1 = Cache(config.dcache)
        self.ul2 = Cache(config.l2cache)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MemoryHierarchy il1={self.il1!r} dl1={self.dl1!r} "
            f"ul2={self.ul2!r}>"
        )
