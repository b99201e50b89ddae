"""Instruction representation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..errors import ProgramError
from .opcodes import Opcode


@dataclass(frozen=True)
class Instruction:
    """One static instruction.

    Registers are small integers (architectural names); ``dest is None`` for
    instructions that produce no register value (stores, branches).  Memory
    instructions carry a static address descriptor: the accessed *region*
    (an index into the program's region table), a per-iteration *stride* in
    bytes and a fixed byte *offset*.  The dynamic address of execution
    ``i`` of the enclosing block is::

        region.base + (i * stride + offset) % region.size

    which lets both simulators generate identical address streams without a
    heap model.
    """

    opcode: Opcode
    dest: Optional[int] = None
    srcs: Tuple[int, ...] = field(default=())
    mem_region: Optional[int] = None
    mem_stride: int = 0
    mem_offset: int = 0

    def __post_init__(self) -> None:
        opcode = self.opcode
        if opcode.memory:
            if self.mem_region is None:
                raise ProgramError(f"{opcode} requires a mem_region")
        elif self.mem_region is not None:
            raise ProgramError(f"{opcode} must not carry a mem_region")
        if opcode is Opcode.LOAD and self.dest is None:
            raise ProgramError("LOAD must write a destination register")
        if opcode.control and self.dest is not None:
            raise ProgramError("control instructions write no register")
        if self.mem_stride < 0 or self.mem_offset < 0:
            raise ProgramError("mem_stride / mem_offset must be non-negative")

    @property
    def latency(self) -> int:
        """Best-case execution latency in cycles."""
        return self.opcode.base_latency

    @property
    def is_memory(self) -> bool:
        """True if this instruction accesses memory."""
        return self.opcode.memory

    @property
    def is_control(self) -> bool:
        """True if this instruction is a branch or jump."""
        return self.opcode.control

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.opcode.value]
        if self.dest is not None:
            parts.append(f"r{self.dest}")
        parts.extend(f"r{s}" for s in self.srcs)
        if self.mem_region is not None:
            parts.append(f"[reg{self.mem_region}+{self.mem_offset}+i*{self.mem_stride}]")
        return f"<{' '.join(parts)}>"
