"""Opcode definitions for the synthetic RISC ISA.

The ISA is deliberately small: it exists to give the timing simulators real
dataflow (register dependences), real functional-unit contention and real
memory / branch behaviour, which is all SimPoint-style phase analysis ever
observes of an ISA.
"""

from __future__ import annotations

import enum


class FuClass(enum.Enum):
    """Functional-unit class an opcode executes on (Table I unit names).

    ``index`` is the unit's position in declaration order, so per-unit
    tallies can live in a list instead of a dict keyed by the member.
    """

    INT_ALU = "int_alu"
    LOAD_STORE = "load_store"
    FP_ADD = "fp_add"
    INT_MULT_DIV = "int_mult_div"
    FP_MULT_DIV = "fp_mult_div"

    index: int


for _index, _unit in enumerate(FuClass):
    _unit.index = _index
del _index, _unit


class Opcode(enum.Enum):
    """Instruction opcodes.

    Each member carries its static properties as plain attributes —
    ``fu_class``, ``base_latency`` (the execution latency in cycles; for
    LOAD the best case, added to the L1 hit latency by the scheduler),
    ``memory`` and ``control`` — so per-instruction code reads them
    without hashing the member (``Enum.__hash__`` is Python-level).
    ``value`` stays the opcode's mnemonic.
    """

    IALU = ("ialu", FuClass.INT_ALU, 1)
    IMUL = ("imul", FuClass.INT_MULT_DIV, 3)
    IDIV = ("idiv", FuClass.INT_MULT_DIV, 12)
    FADD = ("fadd", FuClass.FP_ADD, 2)
    FMUL = ("fmul", FuClass.FP_MULT_DIV, 4)
    FDIV = ("fdiv", FuClass.FP_MULT_DIV, 12)
    LOAD = ("load", FuClass.LOAD_STORE, 1)
    STORE = ("store", FuClass.LOAD_STORE, 1)
    BRANCH = ("branch", FuClass.INT_ALU, 1)
    JUMP = ("jump", FuClass.INT_ALU, 1)
    NOP = ("nop", FuClass.INT_ALU, 1)

    fu_class: FuClass
    base_latency: int
    memory: bool
    control: bool

    def __new__(cls, mnemonic: str, fu_class: FuClass, latency: int):
        member = object.__new__(cls)
        member._value_ = mnemonic
        member.fu_class = fu_class
        member.base_latency = latency
        member.memory = mnemonic in ("load", "store")
        member.control = mnemonic in ("branch", "jump")
        return member


#: Execution latency in cycles per opcode (see :class:`Opcode`).
LATENCY: dict[Opcode, int] = {op: op.base_latency for op in Opcode}

#: Functional unit class required by each opcode.
FU_CLASS: dict[Opcode, FuClass] = {op: op.fu_class for op in Opcode}


def is_memory(opcode: Opcode) -> bool:
    """Return True if *opcode* references memory."""
    return opcode.memory


def is_control(opcode: Opcode) -> bool:
    """Return True if *opcode* transfers control."""
    return opcode.control
