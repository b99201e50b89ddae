"""Benchmark specifications.

A benchmark is described declaratively: a set of behaviour *regimes* (the
ground-truth coarse phases), each composed of inner loops with their own
instruction mix, working set, stride and branch predictability; plus a
*schedule* assigning a regime to every outer-loop iteration and a per-
iteration size multiplier.  The generator turns a spec into a static
:class:`~repro.isa.program.Program`, and the trace builder unrolls the
schedule into the dynamic instruction stream.

The suite in :mod:`repro.workloads.suite` tunes these specs so the phase
facts published in the paper hold (coarse phase counts, last-point
positions, gcc's dominant iteration, lucas's smooth coarse / chaotic fine
BBV curves).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple

from ..errors import ProgramError
from ..isa.builder import InstructionMix

#: Instructions in a loop-header (glue) block.
HEADER_BLOCK_SIZE = 6

#: Instructions in a noise block.
NOISE_BLOCK_SIZE = 12

#: Number of shared noise blocks per benchmark.
N_NOISE_BLOCKS = 4


@dataclass(frozen=True)
class InnerLoopSpec:
    """One inner loop of a regime.

    ``iterations`` is the mean trip count per visit; ``jitter`` the sigma of
    the lognormal factor applied per visit; ``visits`` how many times the
    loop is (re-)entered per outer iteration — visits of different inner
    loops are interleaved round-robin, which is what makes fine-grained
    fixed-size intervals look chaotic while the whole outer iteration stays
    stable.
    """

    name: str
    body_blocks: int = 3
    block_size: int = 24
    iterations: int = 200
    jitter: float = 0.10
    mix: InstructionMix = field(default_factory=InstructionMix)
    working_set: int = 64 * 1024
    stride: int = 8
    branch_bias: float = 0.92
    visits: int = 1
    #: Name of a benchmark-wide shared data region; loops of different
    #: regimes naming the same region operate on the same data (as real
    #: programs' phases do on shared arrays).  None = private region.
    region: Optional[str] = None

    def __post_init__(self) -> None:
        if self.body_blocks < 1:
            raise ProgramError(f"loop {self.name!r}: needs at least one body block")
        if self.block_size < 4:
            raise ProgramError(f"loop {self.name!r}: block_size too small")
        if self.iterations < 1 or self.visits < 1:
            raise ProgramError(f"loop {self.name!r}: iterations/visits must be >= 1")
        if self.jitter < 0:
            raise ProgramError(f"loop {self.name!r}: jitter must be non-negative")
        if self.working_set <= 0 or self.stride <= 0:
            raise ProgramError(f"loop {self.name!r}: bad memory behaviour")
        if not 0.0 <= self.branch_bias <= 1.0:
            raise ProgramError(f"loop {self.name!r}: branch_bias out of range")

    @property
    def instructions_per_visit(self) -> float:
        """Expected dynamic instructions of one visit (header included)."""
        return HEADER_BLOCK_SIZE + self.iterations * self.body_blocks * self.block_size

    @property
    def mem_instructions_per_block(self) -> int:
        """Memory instructions per body block implied by the mix."""
        body = max(1, self.block_size - 1)
        return max(1, int(round(body * (self.mix.load + self.mix.store))))


@dataclass(frozen=True)
class RegimeSpec:
    """A behaviour regime: the inner loops active while the regime runs."""

    name: str
    loops: Tuple[InnerLoopSpec, ...]

    def __post_init__(self) -> None:
        if not self.loops:
            raise ProgramError(f"regime {self.name!r} has no loops")
        names = [loop.name for loop in self.loops]
        if len(set(names)) != len(names):
            raise ProgramError(f"regime {self.name!r}: duplicate loop names")

    @property
    def instructions_per_iteration(self) -> float:
        """Expected dynamic instructions of one outer iteration."""
        return sum(l.visits * l.instructions_per_visit for l in self.loops)


@dataclass(frozen=True)
class BenchmarkSpec:
    """A full benchmark: regimes plus the outer-iteration schedule."""

    name: str
    seed: int
    regimes: Tuple[RegimeSpec, ...]
    schedule: Tuple[int, ...]
    iteration_scale: Tuple[float, ...] = ()
    noise: float = 0.02
    prologue_iterations: int = 2
    description: str = ""

    def __post_init__(self) -> None:
        if not self.regimes:
            raise ProgramError(f"benchmark {self.name!r}: no regimes")
        if not self.schedule:
            raise ProgramError(f"benchmark {self.name!r}: empty schedule")
        for regime_index in self.schedule:
            if not 0 <= regime_index < len(self.regimes):
                raise ProgramError(
                    f"benchmark {self.name!r}: schedule references regime "
                    f"{regime_index}"
                )
        if self.iteration_scale and len(self.iteration_scale) != len(self.schedule):
            raise ProgramError(
                f"benchmark {self.name!r}: iteration_scale length must match "
                "schedule length"
            )
        if any(s <= 0 for s in self.iteration_scale):
            raise ProgramError(f"benchmark {self.name!r}: non-positive scale")
        if not 0.0 <= self.noise <= 1.0:
            raise ProgramError(f"benchmark {self.name!r}: noise out of range")
        if self.prologue_iterations < 0:
            raise ProgramError(f"benchmark {self.name!r}: bad prologue")
        names = [r.name for r in self.regimes]
        if len(set(names)) != len(names):
            raise ProgramError(f"benchmark {self.name!r}: duplicate regime names")

    @cached_property
    def fingerprint(self) -> str:
        """``repr(self)``, rendered once.

        Result-cache keys embed it on every lookup, and a family member's
        repr runs to several KB; the spec is frozen, so it never goes
        stale.
        """
        return repr(self)

    @property
    def n_outer_iterations(self) -> int:
        """Number of outer-loop iterations."""
        return len(self.schedule)

    def scale_of(self, outer_index: int) -> float:
        """Size multiplier of the given outer iteration (default 1.0)."""
        if self.iteration_scale:
            return self.iteration_scale[outer_index]
        return 1.0

    @property
    def expected_instructions(self) -> float:
        """Rough expected dynamic instruction count of the whole run."""
        total = 0.0
        for i, regime_index in enumerate(self.schedule):
            regime = self.regimes[regime_index]
            total += regime.instructions_per_iteration * self.scale_of(i)
        return total

    def regime_first_positions(self) -> Tuple[float, ...]:
        """Fraction of instructions completed at the *end* of each regime's
        first scheduled iteration — a design-time proxy for where COASTS will
        place its last simulation point."""
        total = self.expected_instructions
        seen = {}
        done = 0.0
        for i, regime_index in enumerate(self.schedule):
            regime = self.regimes[regime_index]
            done += regime.instructions_per_iteration * self.scale_of(i)
            if regime_index not in seen:
                seen[regime_index] = done / total
        return tuple(seen[r] for r in sorted(seen))
