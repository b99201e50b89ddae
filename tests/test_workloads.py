"""Tests for the workload layer: specs, schedules, generator, suite."""

import pytest

from repro.errors import ProgramError
from repro.workloads import (
    BenchmarkSpec,
    InnerLoopSpec,
    RegimeSpec,
    SUITE_NAMES,
    benchmark_names,
    build_suite,
    generate_workload,
    get_spec,
    load_workload,
    scaled_spec,
    schedule as sched,
)


class TestSchedules:
    def test_cyclic_covers_all_regimes_immediately(self):
        s = sched.cyclic(3, 9)
        assert s[:3] == (0, 1, 2)
        assert set(s) == {0, 1, 2}

    def test_blocked_is_contiguous(self):
        s = sched.blocked(2, 10)
        assert s == (0,) * 5 + (1,) * 5

    def test_late_phase_delays_first_occurrence(self):
        base = sched.cyclic(3, 100)
        s = sched.late_phase(base, late_regime=2, first_at=0.4)
        assert 2 not in s[:40]
        assert 2 in s[40:]
        assert len(s) == 100

    def test_staggered_intro_positions(self):
        s = sched.staggered(3, 60, intros=(0, 10, 20))
        assert s[0] == 0
        assert 1 not in s[:10] and s[10] == 1
        assert 2 not in s[:20] and s[20] == 2
        assert set(s) == {0, 1, 2}

    def test_staggered_validates_intros(self):
        with pytest.raises(ProgramError):
            sched.staggered(2, 10, intros=(5, 0))
        with pytest.raises(ProgramError):
            sched.staggered(2, 10, intros=(0, 99))

    def test_markov_reaches_every_regime(self):
        s = sched.markov(4, 50, stay_probability=0.5, seed=3)
        assert set(s) == {0, 1, 2, 3}

    def test_markov_deterministic(self):
        assert sched.markov(3, 40, seed=5) == sched.markov(3, 40, seed=5)

    def test_dominant_scales_hold_requested_fraction(self):
        scales = sched.dominant_iteration_scales(
            20, dominant_index=7, dominant_fraction=0.6, seed=1
        )
        assert scales[7] / sum(scales) == pytest.approx(0.6)


class TestSpecValidation:
    def test_schedule_regime_bounds(self):
        regime = RegimeSpec("r", (InnerLoopSpec("l"),))
        with pytest.raises(ProgramError):
            BenchmarkSpec(name="x", seed=1, regimes=(regime,), schedule=(0, 1))

    def test_iteration_scale_length_must_match(self):
        regime = RegimeSpec("r", (InnerLoopSpec("l"),))
        with pytest.raises(ProgramError):
            BenchmarkSpec(
                name="x", seed=1, regimes=(regime,), schedule=(0, 0),
                iteration_scale=(1.0,),
            )

    def test_regime_first_positions_monotone_information(self):
        spec = get_spec("gzip")
        positions = spec.regime_first_positions()
        assert len(positions) == len(spec.regimes)
        assert all(0 < p <= 1 for p in positions)


class TestSuite:
    def test_suite_has_16_benchmarks(self):
        suite = build_suite()
        assert len(suite) == 16
        assert set(suite) == set(SUITE_NAMES)

    def test_paper_phase_counts(self):
        """Section III-B: gzip 4, equake 6, fma3d 5 regimes; average ~3."""
        suite = build_suite()
        assert len(suite["gzip"].regimes) == 4
        assert len(suite["equake"].regimes) == 6
        assert len(suite["fma3d"].regimes) == 5
        average = sum(len(s.regimes) for s in suite.values()) / len(suite)
        assert 2.5 <= average <= 3.5

    def test_gcc_has_56_iterations_with_dominant(self):
        gcc = build_suite()["gcc"]
        assert gcc.n_outer_iterations == 56
        shares = [
            gcc.regimes[r].instructions_per_iteration * gcc.scale_of(i)
            for i, r in enumerate(gcc.schedule)
        ]
        assert max(shares) / sum(shares) > 0.5

    def test_late_phase_design_positions(self):
        """gcc ~86%, art ~47%, bzip2 ~36% last-first-position (design)."""
        suite = build_suite()
        assert max(suite["gcc"].regime_first_positions()) > 0.7
        assert 0.35 <= max(suite["art"].regime_first_positions()) <= 0.6
        assert 0.25 <= max(suite["bzip2"].regime_first_positions()) <= 0.45
        assert max(suite["gzip"].regime_first_positions()) < 0.1

    def test_benchmark_names_order(self):
        assert benchmark_names()[0] == "gzip"
        assert len(benchmark_names(quick=True)) == 3

    def test_get_spec_unknown_raises(self):
        with pytest.raises(ProgramError) as caught:
            get_spec("doom")
        assert str(caught.value) == (
            "unknown benchmark 'doom'; known: "
            f"{', '.join(sorted(SUITE_NAMES))}, fam:<family>[i], "
            "import:<path>"
        )


class TestGenerator:
    def test_workload_structure(self, small_workload):
        wl = small_workload
        program = wl.program
        assert program.n_blocks > 10
        # one top-level init loop + one outer loop
        top = program.loops.top_level
        assert {wl.init_loop_id, wl.outer_loop_id} == {l.loop_id for l in top}
        # every regime loop is a child of the outer loop
        for layout in wl.regime_layouts:
            for inner in layout.loops:
                assert program.loops.loops[inner.loop_id].parent == \
                    wl.outer_loop_id

    def test_regimes_use_disjoint_blocks(self, small_workload):
        seen = set()
        for layout in small_workload.regime_layouts:
            for inner in layout.loops:
                blocks = {inner.header_block, *inner.body_blocks}
                assert not blocks & seen
                seen |= blocks

    def test_every_region_has_init_scan(self, small_workload):
        scanned = {b for b, _ in small_workload.init_scans}
        program = small_workload.program
        regions_scanned = {
            program.block(b).memory_instructions[0].mem_region
            for b in scanned
        }
        loop_regions = {
            inner.region_id
            for layout in small_workload.regime_layouts
            for inner in layout.loops
        }
        assert loop_regions <= regions_scanned

    def test_shared_regions_resolve_to_one_region(self):
        wl = generate_workload(scaled_spec(get_spec("swim"), 0.05))
        region_ids = {
            inner.region_id
            for layout in wl.regime_layouts
            for inner in layout.loops
            if inner.spec.region == "grid"
        }
        assert len(region_ids) == 1

    def test_load_workload_caches(self):
        a = load_workload("gzip", scale=0.02)
        b = load_workload("gzip", scale=0.02)
        assert a is b

    def test_family_lookup_never_builds_the_suite(self, monkeypatch):
        from repro.workloads import registry

        def refuse():
            raise AssertionError("build_suite called")

        monkeypatch.setattr(registry, "_SPECS", None)
        monkeypatch.setattr(registry, "build_suite", refuse)
        spec = get_spec("fam:irregular[3]")
        assert spec.name == "fam:irregular[3]"
        load_workload("fam:phase-heavy[1]", scale=0.05)
        with pytest.raises(AssertionError, match="build_suite called"):
            get_spec("gzip")

    def test_scaled_spec_preserves_phase_structure(self):
        spec = scaled_spec(get_spec("equake"), 0.05)
        assert len(spec.regimes) == 6
        assert set(spec.schedule) == set(range(6))
