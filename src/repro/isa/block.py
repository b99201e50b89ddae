"""Basic blocks."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from ..errors import ProgramError
from .instruction import Instruction
from .opcodes import Opcode

#: Bytes per encoded instruction (used for I-cache addressing).
INSTRUCTION_BYTES = 4


@dataclass(frozen=True)
class BasicBlock:
    """A static basic block: a straight-line run of instructions.

    ``block_id`` indexes the owning program's block table; ``address`` is the
    byte address of the first instruction (for I-cache simulation).
    ``branch_bias`` is the probability that the terminating conditional
    branch (if any) is taken when it is *not* acting as a loop back-edge; the
    trace generator uses it to emit noise paths, and the timing model uses it
    for the steady-state mispredict rate of data-dependent branches.
    """

    block_id: int
    name: str
    instructions: Tuple[Instruction, ...]
    address: int = 0
    branch_bias: float = 1.0

    def __post_init__(self) -> None:
        if self.block_id < 0:
            raise ProgramError("block_id must be non-negative")
        if not self.instructions:
            raise ProgramError(f"block {self.name!r} has no instructions")
        if not 0.0 <= self.branch_bias <= 1.0:
            raise ProgramError("branch_bias must be in [0, 1]")
        for inst in self.instructions[:-1]:
            if inst.opcode.control:
                raise ProgramError(
                    f"block {self.name!r}: control instruction before block end"
                )

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def size(self) -> int:
        """Number of instructions in the block."""
        return len(self.instructions)

    @cached_property
    def terminator(self) -> Instruction:
        """The last instruction of the block."""
        return self.instructions[-1]

    @cached_property
    def ends_in_branch(self) -> bool:
        """True if the block ends in a conditional branch."""
        return self.terminator.opcode is Opcode.BRANCH

    @cached_property
    def memory_instructions(self) -> Tuple[Instruction, ...]:
        """The LOAD/STORE instructions of the block, in program order."""
        return tuple(i for i in self.instructions if i.opcode.memory)

    @cached_property
    def load_count(self) -> int:
        """Number of LOAD instructions."""
        return sum(1 for i in self.instructions if i.opcode is Opcode.LOAD)

    @cached_property
    def store_count(self) -> int:
        """Number of STORE instructions."""
        return sum(1 for i in self.instructions if i.opcode is Opcode.STORE)

    @cached_property
    def end_address(self) -> int:
        """Byte address just past the last instruction."""
        return self.address + self.size * INSTRUCTION_BYTES

    def instruction_lines(self, line_size: int) -> range:
        """I-cache line indices touched when fetching the whole block."""
        first = self.address // line_size
        last = (self.end_address - 1) // line_size
        return range(first, last + 1)
