"""Tests for the ISA layer: opcodes, instructions, blocks, programs."""

import pytest

from repro.errors import ProgramError
from repro.isa import (
    BasicBlock,
    FU_CLASS,
    FuClass,
    INSTRUCTION_BYTES,
    Instruction,
    InstructionMix,
    LATENCY,
    Loop,
    LoopNest,
    Opcode,
    ProgramBuilder,
    is_control,
    is_memory,
)


class TestOpcodes:
    def test_every_opcode_has_latency_and_fu(self):
        for opcode in Opcode:
            assert opcode in LATENCY
            assert opcode in FU_CLASS

    def test_memory_classification(self):
        assert is_memory(Opcode.LOAD)
        assert is_memory(Opcode.STORE)
        assert not is_memory(Opcode.IALU)

    def test_control_classification(self):
        assert is_control(Opcode.BRANCH)
        assert is_control(Opcode.JUMP)
        assert not is_control(Opcode.LOAD)

    def test_memory_ops_use_load_store_units(self):
        assert FU_CLASS[Opcode.LOAD] is FuClass.LOAD_STORE
        assert FU_CLASS[Opcode.STORE] is FuClass.LOAD_STORE

    def test_divide_slower_than_add(self):
        assert LATENCY[Opcode.IDIV] > LATENCY[Opcode.IALU]
        assert LATENCY[Opcode.FDIV] > LATENCY[Opcode.FADD]


class TestInstruction:
    def test_load_requires_region(self):
        with pytest.raises(ProgramError):
            Instruction(Opcode.LOAD, dest=1)

    def test_load_requires_dest(self):
        with pytest.raises(ProgramError):
            Instruction(Opcode.LOAD, dest=None, mem_region=0)

    def test_alu_must_not_carry_region(self):
        with pytest.raises(ProgramError):
            Instruction(Opcode.IALU, dest=1, mem_region=0)

    def test_branch_writes_no_register(self):
        with pytest.raises(ProgramError):
            Instruction(Opcode.BRANCH, dest=3)

    def test_store_has_no_dest(self):
        inst = Instruction(Opcode.STORE, srcs=(1, 2), mem_region=0)
        assert inst.dest is None
        assert inst.is_memory

    def test_negative_stride_rejected(self):
        with pytest.raises(ProgramError):
            Instruction(Opcode.LOAD, dest=1, mem_region=0, mem_stride=-8)


def _block(instructions, **kwargs):
    return BasicBlock(block_id=0, name="b", instructions=tuple(instructions),
                      **kwargs)


class TestBasicBlock:
    def test_rejects_empty_block(self):
        with pytest.raises(ProgramError):
            _block([])

    def test_rejects_mid_block_control(self):
        insts = [
            Instruction(Opcode.BRANCH),
            Instruction(Opcode.IALU, dest=1),
        ]
        with pytest.raises(ProgramError):
            _block(insts)

    def test_terminator_and_branch_detection(self):
        block = _block([
            Instruction(Opcode.IALU, dest=1),
            Instruction(Opcode.BRANCH, srcs=(1,)),
        ])
        assert block.ends_in_branch
        assert block.terminator.opcode is Opcode.BRANCH

    def test_memory_instructions_in_order(self):
        block = _block([
            Instruction(Opcode.LOAD, dest=1, mem_region=0, mem_offset=0),
            Instruction(Opcode.IALU, dest=2),
            Instruction(Opcode.STORE, srcs=(2,), mem_region=0, mem_offset=8),
        ])
        assert block.load_count == 1
        assert block.store_count == 1
        offsets = [i.mem_offset for i in block.memory_instructions]
        assert offsets == [0, 8]

    def test_instruction_lines_cover_block(self):
        block = BasicBlock(
            block_id=0, name="b", address=100,
            instructions=tuple(Instruction(Opcode.IALU, dest=1)
                               for _ in range(20)),
        )
        lines = block.instruction_lines(32)
        assert lines.start == 100 // 32
        assert lines.stop == (100 + 20 * INSTRUCTION_BYTES - 1) // 32 + 1


class TestLoopNest:
    def test_header_must_be_in_body(self):
        with pytest.raises(ProgramError):
            Loop(loop_id=0, header=5, blocks=frozenset({1, 2}))

    def test_nest_depth_consistency(self):
        outer = Loop(loop_id=0, header=0, blocks=frozenset({0, 1, 2}))
        bad_child = Loop(loop_id=1, header=1, blocks=frozenset({1, 2}),
                         parent=0, depth=2)
        with pytest.raises(ProgramError):
            LoopNest((outer, bad_child))

    def test_child_must_be_subset_of_parent(self):
        outer = Loop(loop_id=0, header=0, blocks=frozenset({0, 1}))
        escapee = Loop(loop_id=1, header=1, blocks=frozenset({1, 9}),
                       parent=0, depth=1)
        with pytest.raises(ProgramError):
            LoopNest((outer, escapee))

    def test_top_level_and_children(self):
        outer = Loop(loop_id=0, header=0, blocks=frozenset({0, 1, 2}))
        inner = Loop(loop_id=1, header=1, blocks=frozenset({1, 2}),
                     parent=0, depth=1)
        nest = LoopNest((outer, inner))
        assert [l.loop_id for l in nest.top_level] == [0]


class TestInstructionMix:
    def test_fractions_must_not_exceed_one(self):
        with pytest.raises(ProgramError):
            InstructionMix(load=0.6, store=0.5)

    def test_implied_alu_fraction(self):
        mix = InstructionMix(load=0.2, store=0.1, fp=0.3, mul_div=0.05)
        assert mix.ialu == pytest.approx(0.35)


class TestProgramBuilder:
    def test_builds_valid_program(self):
        builder = ProgramBuilder("test", seed=1)
        region = builder.add_region("data", 4096)
        b0 = builder.add_block(
            "entry", 10, mix=InstructionMix(load=0.0, store=0.0),
            terminator="jump",
        )
        b1 = builder.add_block(
            "loop", 20, mix=InstructionMix(load=0.3, store=0.1),
            region=region, terminator="branch",
        )
        builder.add_edge(b0, b1)
        builder.add_edge(b1, b1)
        builder.add_loop(b1, [b1])
        program = builder.build()
        assert program.n_blocks == 2
        assert program.block(b1).size == 20
        assert len(program.loops) == 1

    def test_blocks_have_disjoint_addresses(self):
        builder = ProgramBuilder("test", seed=1)
        region = builder.add_region("d", 4096)
        ids = [builder.add_block(f"b{i}", 12, region=region)
               for i in range(5)]
        program = builder.build()
        spans = [(program.block(i).address, program.block(i).end_address)
                 for i in ids]
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert start >= end

    def test_mix_is_respected(self):
        builder = ProgramBuilder("test", seed=2)
        region = builder.add_region("data", 8192)
        block_id = builder.add_block(
            "b", 41, mix=InstructionMix(load=0.25, store=0.10),
            region=region,
        )
        block = builder.build().block(block_id)
        assert block.load_count == pytest.approx(10, abs=1)
        assert block.store_count == pytest.approx(4, abs=1)

    def test_memory_mix_without_region_fails(self):
        builder = ProgramBuilder("test", seed=1)
        with pytest.raises(ProgramError):
            builder.add_block("b", 20, mix=InstructionMix(load=0.3))

    def test_deterministic_given_seed(self):
        def build():
            builder = ProgramBuilder("t", seed=7)
            region = builder.add_region("d", 4096)
            builder.add_block("b", 30, mix=InstructionMix(load=0.2),
                              region=region)
            return builder.build()

        p1, p2 = build(), build()
        assert p1.blocks == p2.blocks

    def test_region_layout_page_aligned_disjoint(self):
        builder = ProgramBuilder("t", seed=0)
        r0 = builder.add_region("a", 5000)
        r1 = builder.add_region("b", 100)
        builder.add_block("entry", 4, mix=InstructionMix(load=0.0, store=0.0))
        program = builder.build()
        a, b = program.region(r0), program.region(r1)
        assert a.base % 4096 == 0 and b.base % 4096 == 0
        assert b.base >= a.base + a.size

    def test_unknown_edge_rejected(self):
        builder = ProgramBuilder("t", seed=0)
        builder.add_block("b", 4, mix=InstructionMix(load=0.0, store=0.0))
        with pytest.raises(ProgramError):
            builder.add_edge(0, 3)
