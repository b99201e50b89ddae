"""Set-associative LRU cache model.

Caches are simulated at cache-line granularity: callers translate byte
addresses into line ids (``address // line_size``) and collapse consecutive
accesses to the same line (which are hits by construction for the private
strided streams our blocks generate) before calling :meth:`Cache.access_run`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Tuple

import numpy as np

from ..config import CacheConfig


class Cache:
    """One level of set-associative LRU cache, keyed by line id."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.n_sets = config.n_sets
        self.assoc = config.assoc
        self.capacity_lines = config.n_lines
        self._sets: Dict[int, OrderedDict] = {}
        self.accesses = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Invalidate all lines and zero the statistics."""
        self._sets.clear()
        self.accesses = 0
        self.misses = 0

    @property
    def hits(self) -> int:
        """Accesses that hit."""
        return self.accesses - self.misses

    # ------------------------------------------------------------------
    def access(self, line: int) -> bool:
        """Access one line; returns True on hit."""
        self.accesses += 1
        set_index = line % self.n_sets
        ways = self._sets.get(set_index)
        if ways is None:
            ways = OrderedDict()
            self._sets[set_index] = ways
        if line in ways:
            ways.move_to_end(line)
            return True
        self.misses += 1
        ways[line] = True
        if len(ways) > self.assoc:
            ways.popitem(last=False)
        return False

    # ------------------------------------------------------------------
    def access_run(self, lines: np.ndarray) -> Tuple[int, List[int]]:
        """Access a run of distinct-line touches.

        Returns ``(misses, miss_lines)`` where ``miss_lines`` is the list of
        line ids that missed (the refill stream for the next level).
        """
        n = len(lines)
        if n == 0:
            return 0, []
        miss_lines: List[int] = []
        n_sets = self.n_sets
        assoc = self.assoc
        sets = self._sets
        misses = 0
        for line in lines:
            line = int(line)
            ways = sets.get(line % n_sets)
            if ways is None:
                ways = OrderedDict()
                sets[line % n_sets] = ways
            if line in ways:
                ways.move_to_end(line)
            else:
                misses += 1
                miss_lines.append(line)
                ways[line] = True
                if len(ways) > assoc:
                    ways.popitem(last=False)
        self.accesses += n
        self.misses += misses
        return misses, miss_lines

    # ------------------------------------------------------------------
    def resident_lines(self) -> int:
        """Number of currently valid lines (for tests/inspection)."""
        return sum(len(ways) for ways in self._sets.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cfg = self.config
        return (
            f"<Cache {cfg.name} {cfg.size}B {cfg.assoc}-way "
            f"{self.accesses} accesses, {self.misses} misses>"
        )
