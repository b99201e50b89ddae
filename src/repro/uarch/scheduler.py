"""Static block scheduling.

For every basic block the scheduler derives the steady-state cycles one
execution costs on a given machine, assuming all loads hit in L1 (dynamic
miss penalties are added by the timing simulator):

* **throughput bound** — instructions / issue width, and per functional-unit
  class, instructions needing that class / unit count;
* **latency bound** — the block's dataflow critical path, de-rated by how
  many block iterations the ROB can keep in flight simultaneously.

This is the "interval model" decomposition: steady-state cycles are the
maximum of the structural bounds, and miss/mispredict events add penalties
on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..config import MachineConfig
from ..isa.block import BasicBlock
from ..isa.opcodes import FuClass, Opcode
from ..isa.program import Program


@dataclass(frozen=True)
class BlockTiming:
    """Scheduling result for one block."""

    base_cycles: float
    throughput_cycles: float
    critical_path: int

    def __post_init__(self) -> None:
        assert self.base_cycles >= self.throughput_cycles > 0


class BlockScheduler:
    """Compute per-block steady-state timing for one machine config."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        units = config.functional_units
        counts = {
            FuClass.INT_ALU: units.int_alu,
            FuClass.LOAD_STORE: units.load_store,
            FuClass.FP_ADD: units.fp_add,
            FuClass.INT_MULT_DIV: units.int_mult_div,
            FuClass.FP_MULT_DIV: units.fp_mult_div,
        }
        #: Unit count per functional-unit class, indexed by ``FuClass.index``.
        self._fu_counts: List[int] = [counts[fu] for fu in FuClass]
        self._load_latency = config.dcache.latency + 1

    # ------------------------------------------------------------------
    def schedule(self, block: BasicBlock) -> BlockTiming:
        """Derive the steady-state timing of *block*."""
        config = self.config
        n = block.size

        width_bound = n / config.issue_width
        fu_use = [0] * len(self._fu_counts)
        for inst in block.instructions:
            fu_use[inst.opcode.fu_class.index] += 1
        fu_bound = 0.0
        for count, units in zip(fu_use, self._fu_counts):
            if count and count / units > fu_bound:
                fu_bound = count / units
        throughput = max(width_bound, fu_bound, 1e-9)

        critical_path = self._critical_path(block)
        # The ROB overlaps ~rob/n block iterations, so the per-iteration
        # share of the dataflow latency is cp / (rob / n).
        overlap = max(1.0, config.rob_entries / n)
        latency_bound = critical_path / overlap

        base = max(throughput, latency_bound)
        return BlockTiming(
            base_cycles=base,
            throughput_cycles=throughput,
            critical_path=critical_path,
        )

    # ------------------------------------------------------------------
    def _critical_path(self, block: BasicBlock) -> int:
        """Longest register-dependence chain, in cycles."""
        load_latency = self._load_latency
        done_at: Dict[int, int] = {}
        longest = 0
        for inst in block.instructions:
            ready = 0
            for src in inst.srcs:
                done = done_at.get(src, 0)
                if done > ready:
                    ready = done
            opcode = inst.opcode
            finish = ready + (load_latency if opcode is Opcode.LOAD
                              else opcode.base_latency)
            if finish > longest:
                longest = finish
            if inst.dest is not None:
                done_at[inst.dest] = finish
        return longest

    # ------------------------------------------------------------------
    def schedule_program(self, program: Program) -> np.ndarray:
        """Vector of per-block base cycles for *program*."""
        return np.array(
            [self.schedule(block).base_cycles for block in program.blocks],
            dtype=np.float64,
        )


def effective_mlp(config: MachineConfig) -> float:
    """Memory-level parallelism factor used to de-rate miss penalties.

    Scales with the LSQ depth: a 64-entry LSQ sustains more outstanding
    misses than a 16-entry one.  Clamped to [1, 4].
    """
    return float(min(4.0, max(1.0, math.sqrt(config.lsq_entries / 8.0))))
