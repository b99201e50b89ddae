"""Static loop structure (the "cyclic program structures" of the paper).

COASTS forms its coarse-grained intervals from iteration instances of
outer-level cyclic structures, so the program model carries an explicit loop
nest.  The nest is a forest: top-level loops have ``parent is None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

from ..errors import ProgramError


@dataclass(frozen=True)
class Loop:
    """One static loop.

    ``header`` is the block id that starts every iteration; ``blocks`` is the
    set of block ids belonging to the loop body (header included).
    """

    loop_id: int
    header: int
    blocks: FrozenSet[int]
    parent: Optional[int] = None
    depth: int = 0

    def __post_init__(self) -> None:
        if self.header not in self.blocks:
            raise ProgramError(f"loop {self.loop_id}: header not in body")
        if self.depth < 0:
            raise ProgramError("loop depth must be non-negative")
        if self.parent is not None and self.parent == self.loop_id:
            raise ProgramError("loop cannot be its own parent")


@dataclass(frozen=True)
class LoopNest:
    """A forest of loops for one program."""

    loops: Tuple[Loop, ...] = field(default=())

    def __post_init__(self) -> None:
        ids = [loop.loop_id for loop in self.loops]
        if ids != list(range(len(ids))):
            raise ProgramError("loop ids must be consecutive from 0")
        for loop in self.loops:
            if loop.parent is not None:
                parent = self.loops[loop.parent]
                if loop.depth != parent.depth + 1:
                    raise ProgramError(
                        f"loop {loop.loop_id}: depth {loop.depth} inconsistent "
                        f"with parent depth {parent.depth}"
                    )
                if not loop.blocks <= parent.blocks:
                    raise ProgramError(
                        f"loop {loop.loop_id}: body escapes parent loop"
                    )
            elif loop.depth != 0:
                raise ProgramError(f"top-level loop {loop.loop_id} has depth != 0")

    def __len__(self) -> int:
        return len(self.loops)

    def __iter__(self):
        return iter(self.loops)

    @property
    def top_level(self) -> List[Loop]:
        """Loops with no parent (the paper's outermost loops)."""
        return [loop for loop in self.loops if loop.parent is None]

    def children_of(self, loop_id: int) -> List[Loop]:
        """Immediate children of the given loop."""
        return [loop for loop in self.loops if loop.parent == loop_id]

    def loop_of_header(self, block_id: int) -> Optional[Loop]:
        """The loop whose header is *block_id*, if any."""
        for loop in self.loops:
            if loop.header == block_id:
                return loop
        return None

    def innermost_containing(self, block_id: int) -> Optional[Loop]:
        """The deepest loop containing *block_id*, if any."""
        best: Optional[Loop] = None
        for loop in self.loops:
            if block_id in loop.blocks and (best is None or loop.depth > best.depth):
                best = loop
        return best
