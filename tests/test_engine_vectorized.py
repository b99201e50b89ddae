"""Differential tests for the engine's vectorized backends.

The array-native trace builder and the vectorized functional profilers
claim *bit*-identity with the retained scalar reference implementations
— same flat arrays, same RNG draw order, same float accumulation order.
Every comparison here is therefore exact (``==`` / ``array_equal``),
never approximate.  Each path runs once per backend, selected with the
one switch, :func:`~repro.backend.use_backend`.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CONFIG_A
from repro import backend as backend_mod
from repro.backend import BACKEND_ENV, get_backend, use_backend
from repro.engine import (
    TRACE_ARRAY_FIELDS,
    FunctionalSimulator,
    Trace,
    TraceBuilder,
    build_trace,
)
from repro.errors import ConfigError, TraceError
from repro.harness import ExperimentRunner, ResultCache

from .conftest import TEST_SCALE

#: Derived arrays that must match in addition to the canonical fields.
DERIVED_FIELDS = (
    "flat_offsets",
    "rep_lengths",
    "segment_instructions",
    "seg_starts",
    "outer_starts",
)


def _assert_traces_identical(a: Trace, b: Trace) -> None:
    for field in TRACE_ARRAY_FIELDS + DERIVED_FIELDS:
        left, right = getattr(a, field), getattr(b, field)
        assert left.dtype == right.dtype, field
        assert np.array_equal(left, right), field
    assert a.total_instructions == b.total_instructions
    assert a.prologue_end == b.prologue_end


def _under(backend, kernel, *args, **kwargs):
    """``kernel(*args, **kwargs)`` with *backend* selected."""
    with use_backend(backend):
        return kernel(*args, **kwargs)


class TestEngineBackendControl:
    """The engine follows the one switch, :mod:`repro.backend`."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Record which trace builder twin each build runs."""
        seen = []
        for twin in ("scalar", "vectorized"):
            original = getattr(TraceBuilder, f"_build_{twin}")

            def spy(self, _twin=twin, _original=original):
                seen.append(_twin)
                return _original(self)

            monkeypatch.setattr(TraceBuilder, f"_build_{twin}", spy)
        return seen

    def test_default_is_vectorized(self, small_workload, builds):
        assert get_backend() == "vectorized"
        build_trace(small_workload)
        assert builds == ["vectorized"]

    def test_set_and_restore(self, small_workload, builds):
        # A build that fails inside the block still restores the switch.
        with pytest.raises(RuntimeError):
            with use_backend("scalar"):
                build_trace(small_workload)
                raise RuntimeError("boom")
        build_trace(small_workload)
        assert builds == ["scalar", "vectorized"]

    def test_use_backend_scopes_selection(self, small_workload, builds):
        before = get_backend()
        with use_backend("scalar"):
            assert get_backend() == "scalar"
            build_trace(small_workload)
        assert get_backend() == before
        build_trace(small_workload)
        assert builds == ["scalar", "vectorized"]

    def test_unknown_backend_raises_trace_error(
        self, monkeypatch, small_workload, builds
    ):
        # An unknown name is a configuration error (ConfigError, like
        # TraceError a ReproError), raised before the engine builds.
        with pytest.raises(ConfigError, match="turbo"):
            with use_backend("turbo"):
                build_trace(small_workload)
        monkeypatch.setattr(backend_mod, "_active", None)
        monkeypatch.setenv(BACKEND_ENV, "bogus")
        with pytest.raises(ConfigError, match="bogus"):
            build_trace(small_workload)
        assert builds == []

    def test_environment_variable_selects_backend(
        self, monkeypatch, small_workload, builds
    ):
        monkeypatch.setattr(backend_mod, "_active", None)
        monkeypatch.setenv(BACKEND_ENV, "scalar")
        build_trace(small_workload)
        assert builds == ["scalar"]


class TestTraceBuilderDifferential:
    def test_builders_bit_identical(self, small_workload):
        scalar = _under("scalar", TraceBuilder(small_workload).build)
        vector = _under("vectorized", TraceBuilder(small_workload).build)
        _assert_traces_identical(scalar, vector)

    def test_segment_views_equal(self, small_workload):
        scalar = _under("scalar", TraceBuilder(small_workload).build)
        vector = _under("vectorized", TraceBuilder(small_workload).build)
        assert scalar.segments == vector.segments

    @pytest.mark.parametrize("name", ["gzip", "vpr", "lucas"])
    def test_builders_bit_identical_across_workloads(self, name):
        # Jitter, noise and per-iteration scaling all vary by spec; the
        # RNG draw order is part of the trace's definition, so every
        # spec shape must agree between backends.
        from repro.workloads import load_workload

        workload = load_workload(name, scale=0.05)
        _assert_traces_identical(
            _under("scalar", TraceBuilder(workload).build),
            _under("vectorized", TraceBuilder(workload).build),
        )

    def test_global_switch_drives_builder(self, small_workload):
        with use_backend("scalar"):
            scalar = build_trace(small_workload)
        _assert_traces_identical(scalar, build_trace(small_workload))


class TestTraceArrayConstruction:
    def test_arrays_roundtrip(self, small_trace):
        clone = Trace(small_trace.workload, arrays=small_trace.arrays())
        _assert_traces_identical(small_trace, clone)
        assert clone.segments == small_trace.segments

    def test_segments_and_arrays_mutually_exclusive(self, small_trace):
        with pytest.raises(TraceError, match="not both"):
            Trace(
                small_trace.workload,
                list(small_trace.segments),
                arrays=small_trace.arrays(),
            )

    def test_array_length_mismatch_rejected(self, small_trace):
        arrays = small_trace.arrays()
        arrays["reps"] = arrays["reps"][:-1]
        with pytest.raises(TraceError):
            Trace(small_trace.workload, arrays=arrays)

    def test_bad_reps_rejected(self, small_trace):
        arrays = {k: v.copy() for k, v in small_trace.arrays().items()}
        arrays["reps"][0] = 0
        with pytest.raises(TraceError, match="reps"):
            Trace(small_trace.workload, arrays=arrays)

    def test_lazy_views_memoised(self, small_workload):
        trace = _under("vectorized", TraceBuilder(small_workload).build)
        seg = trace.segment_at(3)
        assert trace.segment_at(3) is seg
        assert trace.segments[3] is seg


class TestFunctionalDifferential:
    def test_run_bit_identical(self, small_functional):
        scalar = _under("scalar", small_functional.run)
        vector = _under("vectorized", small_functional.run)
        assert scalar.total_instructions == vector.total_instructions
        assert np.array_equal(scalar.block_counts, vector.block_counts)
        assert np.array_equal(
            scalar.block_instructions, vector.block_instructions
        )

    def test_coarse_profile_bit_identical(self, small_functional):
        profile = small_functional.profile_coarse_intervals
        scalar = _under("scalar", profile)
        vector = _under("vectorized", profile)
        assert np.array_equal(scalar.starts, vector.starts)
        assert np.array_equal(scalar.instructions, vector.instructions)
        assert (scalar.bbv == vector.bbv).all()
        assert (scalar.segment_bbvs == vector.segment_bbvs).all()

    def test_coarse_profile_custom_bounds(self, small_functional,
                                          small_trace):
        bounds = small_trace.outer_bounds()[2:7]
        profile = small_functional.profile_coarse_intervals
        scalar = _under("scalar", profile, n_segments=7, bounds=bounds)
        vector = _under("vectorized", profile, n_segments=7, bounds=bounds)
        assert (scalar.bbv == vector.bbv).all()
        assert (scalar.segment_bbvs == vector.segment_bbvs).all()

    def test_structure_profile_identical(self, small_functional):
        assert _under("scalar", small_functional.profile_structures) == \
            _under("vectorized", small_functional.profile_structures)

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_empty_bounds_error_matches(self, small_functional, backend):
        bounds = np.array([[100, 100]], dtype=np.int64)
        with use_backend(backend), pytest.raises(
            TraceError, match="instance 0: empty bounds"
        ):
            small_functional.profile_coarse_intervals(bounds=bounds)

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_bad_clip_error_matches(self, small_functional, small_trace,
                                    backend):
        total = small_trace.total_instructions
        bounds = np.array([[0, 50], [10, total + 1]], dtype=np.int64)
        with use_backend(backend), pytest.raises(
            TraceError, match="bad clip range"
        ):
            small_functional.profile_coarse_intervals(bounds=bounds)

    def test_first_offending_instance_reported(self, small_functional,
                                               small_trace):
        # Two bad instances: both backends must report the *first* one.
        total = small_trace.total_instructions
        bounds = np.array([[0, 50], [7, 7], [10, total + 1]],
                          dtype=np.int64)
        for backend in ("scalar", "vectorized"):
            with use_backend(backend), pytest.raises(
                TraceError, match="instance 1"
            ):
                small_functional.profile_coarse_intervals(bounds=bounds)


class TestCoarseProfileProperties:
    """Randomized bit-identity: arbitrary sub-ranges and chunk counts."""

    @settings(max_examples=25, deadline=None)
    @given(
        lo_frac=st.floats(0.0, 0.9),
        span_frac=st.floats(0.01, 1.0),
        n_segments=st.integers(1, 9),
        n_instances=st.integers(1, 6),
    )
    def test_random_bounds_bit_identical(
        self, shared_functional, lo_frac, span_frac, n_segments, n_instances
    ):
        trace = shared_functional.trace
        total = trace.total_instructions
        start = int(lo_frac * (total - n_instances))
        end = min(total, start + max(n_instances,
                                     int(span_frac * (total - start))))
        edges = np.linspace(start, end, n_instances + 1).astype(np.int64)
        edges = np.unique(edges)
        if len(edges) < 2:
            return
        bounds = np.stack([edges[:-1], edges[1:]], axis=1)
        profile = shared_functional.profile_coarse_intervals
        scalar = _under(
            "scalar", profile, n_segments=n_segments, bounds=bounds
        )
        vector = _under(
            "vectorized", profile, n_segments=n_segments, bounds=bounds
        )
        assert (scalar.bbv == vector.bbv).all()
        assert (scalar.segment_bbvs == vector.segment_bbvs).all()

    @settings(max_examples=10, deadline=None)
    @given(scale=st.floats(0.02, 0.06), seed_bump=st.integers(0, 3))
    def test_random_specs_build_identically(self, scale, seed_bump):
        from dataclasses import replace

        from repro.workloads import generate_workload, get_spec, scaled_spec

        spec = scaled_spec(get_spec("vpr"), scale)
        spec = replace(spec, seed=spec.seed + seed_bump)
        workload = generate_workload(spec)
        _assert_traces_identical(
            _under("scalar", TraceBuilder(workload).build),
            _under("vectorized", TraceBuilder(workload).build),
        )


@pytest.fixture(scope="module")
def shared_functional():
    """A module-scoped functional simulator for the property tests."""
    from repro.workloads import generate_workload, get_spec, scaled_spec

    spec = scaled_spec(get_spec("gzip"), TEST_SCALE)
    return FunctionalSimulator(build_trace(generate_workload(spec)))


class TestEndToEndIdentity:
    """The whole pipeline — plans, CPI deviations, cache digests — must
    not depend on which engine backend produced the trace."""

    def _run(self, tmp_path, which):
        runner = ExperimentRunner(
            cache=ResultCache(directory=tmp_path / which),
            workload_scale=TEST_SCALE,
            methods=("simpoint", "coasts"),
        )
        with use_backend(which):
            run = runner.run_benchmark("gzip", CONFIG_A)
        return json.dumps(run.to_dict(), sort_keys=True)

    def test_pipeline_identical_across_backends(self, tmp_path):
        assert self._run(tmp_path, "scalar") == \
            self._run(tmp_path, "vectorized")
