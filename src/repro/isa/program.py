"""Whole-program representation: blocks, CFG edges, memory regions, loops."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Tuple

import numpy as np

from ..errors import ProgramError
from .block import BasicBlock
from .loops import LoopNest


@dataclass(frozen=True)
class MemRegion:
    """A contiguous data region (array / heap arena) a program accesses."""

    region_id: int
    name: str
    base: int
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ProgramError(f"region {self.name!r}: size must be positive")
        if self.base < 0:
            raise ProgramError(f"region {self.name!r}: negative base address")


@dataclass(frozen=True)
class Program:
    """A static program: indexed basic blocks, CFG, data regions, loop nest.

    Blocks must be stored with ``blocks[i].block_id == i``.  ``successors``
    maps a block id to the ids control may flow to; it is informational for
    the trace generator (which drives control flow from the workload spec)
    but validated for consistency so analyses can rely on it.
    """

    name: str
    blocks: Tuple[BasicBlock, ...]
    successors: Mapping[int, Tuple[int, ...]]
    regions: Tuple[MemRegion, ...]
    loops: LoopNest = field(default_factory=LoopNest)
    entry: int = 0

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ProgramError(f"program {self.name!r} has no blocks")
        for i, block in enumerate(self.blocks):
            if block.block_id != i:
                raise ProgramError(
                    f"program {self.name!r}: block at index {i} has id "
                    f"{block.block_id}"
                )
        n = len(self.blocks)
        if not 0 <= self.entry < n:
            raise ProgramError("entry block out of range")
        for src, dsts in self.successors.items():
            if not 0 <= src < n:
                raise ProgramError(f"successor edge from unknown block {src}")
            for dst in dsts:
                if not 0 <= dst < n:
                    raise ProgramError(f"edge {src}->{dst} targets unknown block")
        region_ids = [r.region_id for r in self.regions]
        if region_ids != list(range(len(region_ids))):
            raise ProgramError("region ids must be consecutive from 0")
        for block in self.blocks:
            for inst in block.memory_instructions:
                if inst.mem_region >= len(self.regions):
                    raise ProgramError(
                        f"block {block.name!r} references unknown region "
                        f"{inst.mem_region}"
                    )
        for loop in self.loops:
            for block_id in loop.blocks:
                if block_id >= n:
                    raise ProgramError(
                        f"loop {loop.loop_id} references unknown block {block_id}"
                    )

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def n_blocks(self) -> int:
        """Number of static basic blocks."""
        return len(self.blocks)

    def block(self, block_id: int) -> BasicBlock:
        """Return the block with the given id."""
        return self.blocks[block_id]

    @cached_property
    def block_sizes(self) -> np.ndarray:
        """Vector of block instruction counts, indexed by block id."""
        return np.array([b.size for b in self.blocks], dtype=np.int64)

    def region(self, region_id: int) -> MemRegion:
        """Return the region with the given id."""
        return self.regions[region_id]
