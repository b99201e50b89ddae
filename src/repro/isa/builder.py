"""Program construction helpers.

:class:`ProgramBuilder` assembles programs block by block, synthesising
instruction sequences with a requested opcode mix and dataflow density, then
lays blocks out in memory and validates the result.  The workload generator
(:mod:`repro.workloads.generator`) is its main client, but it is public API:
examples use it to build custom benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ProgramError
from .block import INSTRUCTION_BYTES, BasicBlock
from .instruction import Instruction
from .loops import Loop, LoopNest
from .opcodes import Opcode
from .program import MemRegion, Program

#: Architectural integer/fp register count used when synthesising operands.
N_REGISTERS = 32

_UINT32_MASK = 0xFFFF_FFFF
_TWO_POW_M53 = 1.0 / 9007199254740992.0


class _BulkDraws:
    """numpy's scalar ``Generator.random()``/``integers(n)`` stream, drawn in bulk.

    One ``random_raw`` call fetches a block's 64-bit words up front; the
    methods consume them exactly as numpy's scalar API would on a PCG64
    generator:

    * ``random()`` is ``(w >> 11) * 2**-53`` of the next word;
    * ``integers(n)`` is Lemire's bounded draw on ``next_uint32``, which
      returns the low half of a fresh word and buffers the high half for
      the next call (PCG64's ``has_uint32``/``uinteger``); ``n == 1``
      draws nothing.

    :meth:`close` rewinds the generator, advances it by the words
    consumed and restores the half-word buffer, so the generator ends
    exactly where the scalar calls would have left it.  There is no
    scalar twin to switch to: numpy's own scalar API is the oracle, and
    ``tests/test_properties.py`` pins this class to it.
    """

    __slots__ = ("_bitgen", "_saved", "_words", "_used", "_has_uint32",
                 "_uinteger")

    def __init__(self, bitgen: np.random.BitGenerator, expected: int) -> None:
        self._bitgen = bitgen
        self._saved = bitgen.state
        self._words: List[int] = bitgen.random_raw(expected).tolist()
        self._used = 0
        self._has_uint32 = self._saved["has_uint32"]
        self._uinteger = self._saved["uinteger"]

    def _next64(self) -> int:
        used = self._used
        if used == len(self._words):
            self._words += self._bitgen.random_raw(used + 8).tolist()
        self._used = used + 1
        return self._words[used]

    def random(self) -> float:
        """The next ``Generator.random()`` value."""
        return (self._next64() >> 11) * _TWO_POW_M53

    def integers(self, n: int) -> int:
        """The next ``Generator.integers(n)`` value, for ``1 <= n < 2**32``."""
        if n == 1:
            return 0
        while True:
            # next_uint32: the buffered high half, else a fresh word's low half.
            if self._has_uint32:
                self._has_uint32 = 0
                half = self._uinteger
            else:
                word = self._next64()
                self._has_uint32 = 1
                self._uinteger = word >> 32
                half = word & _UINT32_MASK
            product = half * n
            leftover = product & _UINT32_MASK
            # Lemire: reject only leftovers below 2**32 mod n.
            if leftover >= n or leftover >= (0x1_0000_0000 - n) % n:
                return product >> 32

    def close(self) -> None:
        """Leave the generator where the scalar calls would have."""
        bitgen = self._bitgen
        bitgen.state = self._saved
        bitgen.advance(self._used)
        state = bitgen.state
        state["has_uint32"] = self._has_uint32
        state["uinteger"] = self._uinteger
        bitgen.state = state


@dataclass(frozen=True)
class InstructionMix:
    """Fractions of the non-terminator instructions in each opcode group.

    The remaining fraction (1 - sum of the others) is plain integer ALU work.
    """

    load: float = 0.20
    store: float = 0.10
    fp: float = 0.0
    mul_div: float = 0.03

    def __post_init__(self) -> None:
        parts = (self.load, self.store, self.fp, self.mul_div)
        if any(p < 0 for p in parts):
            raise ProgramError("instruction mix fractions must be non-negative")
        if sum(parts) > 1.0 + 1e-9:
            raise ProgramError("instruction mix fractions exceed 1.0")

    @property
    def ialu(self) -> float:
        """Implied integer-ALU fraction."""
        return max(0.0, 1.0 - (self.load + self.store + self.fp + self.mul_div))


def _counts_from_mix(n: int, mix: InstructionMix) -> Dict[str, int]:
    """Integer opcode-group counts for *n* instructions under *mix*."""
    loads = int(round(n * mix.load))
    stores = int(round(n * mix.store))
    fps = int(round(n * mix.fp))
    muls = int(round(n * mix.mul_div))
    overflow = loads + stores + fps + muls - n
    while overflow > 0:
        if fps > 0:
            fps -= 1
        elif muls > 0:
            muls -= 1
        elif stores > 0:
            stores -= 1
        else:
            loads -= 1
        overflow -= 1
    return {"load": loads, "store": stores, "fp": fps, "mul_div": muls}


class ProgramBuilder:
    """Incrementally build a :class:`~repro.isa.program.Program`.

    All randomness (operand selection, opcode ordering) is drawn from a
    seeded generator so identical builder calls produce identical programs.
    """

    def __init__(self, name: str, seed: int = 0) -> None:
        self.name = name
        self._rng = np.random.default_rng(seed)
        self._blocks: List[BasicBlock] = []
        self._edges: Dict[int, List[int]] = {}
        self._regions: List[MemRegion] = []
        self._loops: List[Loop] = []
        self._next_address = 0x1000
        self._next_region_base = 0x10_0000

    # ------------------------------------------------------------------
    # regions
    # ------------------------------------------------------------------
    def add_region(self, name: str, size: int) -> int:
        """Declare a data region of *size* bytes; returns its region id."""
        if size <= 0:
            raise ProgramError(f"region {name!r}: size must be positive")
        region_id = len(self._regions)
        # Regions are laid out disjointly, aligned to 4K pages, so distinct
        # regions never share cache lines.
        base = self._next_region_base
        self._regions.append(MemRegion(region_id, name, base, size))
        self._next_region_base = base + ((size + 0xFFF) & ~0xFFF) + 0x1000
        return region_id

    # ------------------------------------------------------------------
    # blocks
    # ------------------------------------------------------------------
    def add_block(
        self,
        name: str,
        n_instructions: int,
        mix: Optional[InstructionMix] = None,
        region: Optional[int] = None,
        stride: int = 8,
        offset_step: int = 8,
        dependency_density: float = 0.45,
        branch_bias: float = 1.0,
        terminator: str = "branch",
    ) -> int:
        """Synthesise a block and append it; returns the new block id.

        ``dependency_density`` is the probability that each source operand
        reads one of the most recently written registers in the block,
        controlling the ILP the scheduler can extract.  ``terminator`` is
        ``"branch"``, ``"jump"`` or ``"none"``.
        """
        if n_instructions < 1:
            raise ProgramError("blocks need at least one instruction")
        if terminator not in ("branch", "jump", "none"):
            raise ProgramError(f"unknown terminator {terminator!r}")
        mix = mix or InstructionMix()
        if (mix.load or mix.store) and region is None and n_instructions > 1:
            counts = _counts_from_mix(n_instructions - 1, mix)
            if counts["load"] or counts["store"]:
                raise ProgramError(
                    f"block {name!r}: memory mix requires a region"
                )

        body_len = n_instructions - (0 if terminator == "none" else 1)
        opcodes = self._draw_opcodes(max(body_len, 0), mix)
        # An instruction takes at most two doubles and three half-words,
        # so only a run of Lemire rejections ever fetches more words.
        draws = _BulkDraws(self._rng.bit_generator, 4 * len(opcodes) + 8)
        instructions = self._assemble(draws, opcodes, region, stride,
                                      offset_step, dependency_density)
        if terminator == "branch":
            instructions.append(
                Instruction(Opcode.BRANCH, srcs=(draws.integers(N_REGISTERS),))
            )
        elif terminator == "jump":
            instructions.append(Instruction(Opcode.JUMP))
        draws.close()
        if not instructions:
            instructions.append(Instruction(Opcode.NOP))

        block_id = len(self._blocks)
        block = BasicBlock(
            block_id=block_id,
            name=name,
            instructions=tuple(instructions),
            address=self._next_address,
            branch_bias=branch_bias,
        )
        self._next_address = block.end_address + INSTRUCTION_BYTES * 2
        self._blocks.append(block)
        self._edges.setdefault(block_id, [])
        return block_id

    def _draw_opcodes(self, n: int, mix: InstructionMix) -> List[Opcode]:
        """Draw a shuffled opcode sequence matching *mix* for *n* slots."""
        counts = _counts_from_mix(n, mix)
        opcodes: List[Opcode] = []
        opcodes += [Opcode.LOAD] * counts["load"]
        opcodes += [Opcode.STORE] * counts["store"]
        fp_ops = counts["fp"]
        opcodes += [Opcode.FMUL] * (fp_ops // 3)
        opcodes += [Opcode.FADD] * (fp_ops - fp_ops // 3)
        opcodes += [Opcode.IMUL] * counts["mul_div"]
        opcodes += [Opcode.IALU] * (n - len(opcodes))
        self._rng.shuffle(opcodes)
        return opcodes

    @staticmethod
    def _assemble(
        draws: _BulkDraws,
        opcodes: List[Opcode],
        region: Optional[int],
        stride: int,
        offset_step: int,
        dependency_density: float,
    ) -> List[Instruction]:
        """Turn an opcode sequence into instructions with synthetic dataflow."""
        random = draws.random
        integers = draws.integers
        instructions: List[Instruction] = []
        recent: List[int] = []
        mem_offset = 0
        for opcode in opcodes:
            srcs = []
            for _ in range(1 if opcode is Opcode.LOAD else 2):
                if recent and random() < dependency_density:
                    srcs.append(recent[-1 - integers(min(3, len(recent)))])
                else:
                    srcs.append(integers(N_REGISTERS))
            dest: Optional[int] = integers(N_REGISTERS)
            if opcode.memory:
                if opcode is Opcode.STORE:
                    dest = None
                instructions.append(Instruction(
                    opcode, dest, tuple(srcs), region, stride, mem_offset
                ))
                mem_offset += offset_step
            else:
                instructions.append(Instruction(opcode, dest, tuple(srcs)))
            if dest is not None:
                recent.append(dest)
                if len(recent) > 8:
                    recent.pop(0)
        return instructions

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def add_edge(self, src: int, dst: int) -> None:
        """Record a CFG edge."""
        for endpoint in (src, dst):
            if not 0 <= endpoint < len(self._blocks):
                raise ProgramError(f"edge references unknown block {endpoint}")
        if dst not in self._edges[src]:
            self._edges[src].append(dst)

    def add_loop(
        self, header: int, blocks: List[int], parent: Optional[int] = None
    ) -> int:
        """Register a loop over existing blocks; returns its loop id."""
        depth = 0 if parent is None else self._loops[parent].depth + 1
        loop = Loop(
            loop_id=len(self._loops),
            header=header,
            blocks=frozenset(blocks),
            parent=parent,
            depth=depth,
        )
        self._loops.append(loop)
        return loop.loop_id

    def build(self, entry: int = 0) -> Program:
        """Finalise and validate the program."""
        return Program(
            name=self.name,
            blocks=tuple(self._blocks),
            successors={k: tuple(v) for k, v in self._edges.items()},
            regions=tuple(self._regions),
            loops=LoopNest(tuple(self._loops)),
            entry=entry,
        )
