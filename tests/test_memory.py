"""A run holds one benchmark's working set, and only while it needs it.

Host-independent checks: allocation peaks under :mod:`tracemalloc`, and
object lifetimes under :mod:`weakref` with an explicit ``gc.collect()``.
None reads the process's resident size.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import pytest

from repro.config import CONFIG_A
from repro.detailed.timing import TimingSimulator
from repro.engine import FunctionalSimulator, Trace
from repro.engine import functional as functional_mod
from repro.harness import ExperimentRunner, ResultCache
from repro.workloads.registry import load_trace

from .conftest import TEST_SCALE

#: Bytes a coarse-profile chunk may allocate per unit of its bound: at
#: most 32 int64/float64 arrays of one element per expanded entry.
BYTES_PER_CHUNK_ENTRY = 32 * 8
#: Bytes the pass may allocate per instance, across all chunks (its
#: segment ranges and chunk sizes).
BYTES_PER_INSTANCE = 8 * 8


@pytest.mark.parametrize("bound", [1024, functional_mod._CHUNK_ENTRIES])
def test_coarse_profile_peaks_within_outputs_and_chunk_budget(
    monkeypatch, bound
):
    trace = load_trace("gzip", scale=0.25)
    # Trace-owned, computed on first use by any profiler: not the pass's.
    trace.flat_composition
    simulator = FunctionalSimulator(trace)
    monkeypatch.setattr(functional_mod, "_CHUNK_ENTRIES", bound)
    tracemalloc.start()
    try:
        profile = simulator.profile_coarse_intervals()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = sum(array.nbytes for array in (
        profile.starts, profile.instructions, profile.bbv,
        profile.segment_bbvs,
    ))
    budget = (bound * BYTES_PER_CHUNK_ENTRY
              + len(profile.starts) * BYTES_PER_INSTANCE)
    assert peak <= outputs + budget, (
        f"peak {peak} B > outputs {outputs} B + chunk budget {budget} B"
    )


def test_workload_is_freed_with_its_runner(tmp_path):
    runner = ExperimentRunner(
        cache=ResultCache(tmp_path), workload_scale=TEST_SCALE,
        methods=("coasts", "multilevel"),
    )
    run = runner.run_benchmark("fam:irregular[3]", CONFIG_A)
    assert not run.cached
    workload = weakref.ref(runner.trace("fam:irregular[3]").workload)
    del runner, run
    gc.collect()
    assert workload() is None


def test_walk_leaves_no_list_columns_on_the_trace(small_trace):
    trace = Trace(small_trace.workload, arrays=small_trace.arrays())
    TimingSimulator(trace, CONFIG_A).simulate_full()
    assert "_piece_columns" not in trace.__dict__
