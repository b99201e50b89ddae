"""Tests for parallel suite execution and the machinery backing it.

Covers four areas introduced together: (1) the process-parallel
``run_suite`` path must be byte-identical to the serial one, (2) the disk
cache must survive concurrent writers, (3) the vectorized BBV/timing hot
paths are pinned to numerics captured before the vectorization (the
rewrites claim bit-identity, so comparisons are exact), and (4) the
per-stage timing records that ride along with every run.
"""

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.config import CONFIG_A
from repro.detailed import TimingSimulator
from repro.errors import HarnessError
from repro.harness import (
    CACHE_SCHEMA_VERSION,
    ExperimentRunner,
    ResultCache,
    RunTiming,
    SuiteTiming,
    resolve_jobs,
)
from repro.harness.timing import STAGE_ORDER
from repro.sampling.estimate import simulate_point_set

from .conftest import TEST_SCALE

#: Benchmarks used for serial/parallel equivalence (quick subset).
SUITE_NAMES = ("gzip", "lucas", "mcf")


def _suite_payload(sampling, cache_dir, jobs):
    runner = ExperimentRunner(
        sampling=sampling,
        cache=ResultCache(directory=cache_dir),
        workload_scale=TEST_SCALE,
        jobs=jobs,
    )
    runs = runner.run_suite(CONFIG_A, names=SUITE_NAMES)
    payload = [json.dumps(run.to_dict(), sort_keys=True) for run in runs]
    return runner, payload


class TestParallelSuite:
    def test_parallel_byte_identical_to_serial(self, tmp_path,
                                               test_sampling):
        _, serial = _suite_payload(test_sampling,
                                   tmp_path / "serial", jobs=1)
        parallel_runner, parallel = _suite_payload(
            test_sampling, tmp_path / "parallel", jobs=2
        )
        assert parallel == serial
        # Results must come back in task order, not completion order.
        order = [json.loads(p)["benchmark"] for p in parallel]
        assert order == list(SUITE_NAMES)
        assert parallel_runner.timing.jobs == 2

    def test_worker_timing_merged_into_parent(self, tmp_path,
                                              test_sampling):
        runner, _ = _suite_payload(test_sampling, tmp_path, jobs=2)
        assert len(runner.timing.runs) == len(SUITE_NAMES)
        covered = {r.benchmark for r in runner.timing.runs}
        assert covered == set(SUITE_NAMES)
        for record in runner.timing.runs:
            assert set(record.stages) == set(STAGE_ORDER)
        assert runner.timing.cache_misses == len(SUITE_NAMES)
        assert runner.timing.cache_hits == 0

    def test_parallel_run_hits_shared_cache(self, tmp_path, test_sampling):
        _suite_payload(test_sampling, tmp_path, jobs=2)
        runner, second = _suite_payload(test_sampling, tmp_path,
                                        jobs=2)
        _, serial = _suite_payload(test_sampling,
                                   tmp_path / "fresh", jobs=1)
        assert second == serial
        assert runner.timing.cache_hits == len(SUITE_NAMES)

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)
        with pytest.raises(HarnessError):
            resolve_jobs(-1)

    def test_negative_jobs_rejected_at_construction(self):
        with pytest.raises(HarnessError):
            ExperimentRunner(jobs=-2)


def _hammer_cache(payload):
    """Worker body for the concurrency test (must be module-level)."""
    directory, worker_id, rounds, n_keys = payload
    cache = ResultCache(directory=directory)
    bad = 0
    for i in range(rounds):
        key = f"shared-{i % n_keys}"
        cache.put(key, {"worker": worker_id, "round": i})
        value = cache.get(key)
        # A concurrent writer may have replaced the entry, but a reader
        # must never see a torn or partial file.
        if value is not None and set(value) != {"worker", "round"}:
            bad += 1
    return bad


class TestCacheConcurrency:
    def test_concurrent_putters_never_tear(self, tmp_path):
        workers = 4
        with ProcessPoolExecutor(max_workers=workers) as pool:
            bad = list(pool.map(
                _hammer_cache,
                [(tmp_path, w, 40, 8) for w in range(workers)],
            ))
        assert bad == [0] * workers
        # Every surviving entry is whole, and no temp files are stranded.
        cache = ResultCache(directory=tmp_path)
        for i in range(8):
            value = cache.get(f"shared-{i}")
            assert value is not None
            assert set(value) == {"worker", "round"}
        assert list(tmp_path.glob("*.tmp")) == []

    def test_corrupt_entry_reads_as_miss_and_quarantines(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("ok", {"x": 1})
        path = cache.path_for("ok")
        path.write_text("{ torn write")
        assert cache.get("ok") is None
        assert cache.misses == 1
        assert cache.corrupt == 1
        # Quarantined aside, so the recompute's entry is fresh, not the
        # same torn bytes forever.
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()

    def test_stale_schema_version_quarantined(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("k", {"x": 1})
        path = cache.path_for("k")
        wrapper = json.loads(path.read_text())
        wrapper["version"] = CACHE_SCHEMA_VERSION - 1
        path.write_text(json.dumps(wrapper))
        # Structurally whole but written under another schema generation:
        # a miss, and quarantined like a torn file.
        assert cache.get("k") is None
        assert cache.corrupt == 1
        assert path.with_name(path.name + ".corrupt").exists()
        cache.put("k", {"x": 1})
        assert cache.get("k") == {"x": 1}

    def test_key_collision_quarantined(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("k", {"x": 1})
        path = cache.path_for("k")
        wrapper = json.loads(path.read_text())
        wrapper["key"] = "something else"
        path.write_text(json.dumps(wrapper))
        assert cache.get("k") is None
        assert cache.corrupt == 1

    def test_clear_removes_stranded_tmp_and_corrupt_files(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("a", 1)
        (tmp_path / "stranded.tmp").write_text("half a payload")
        cache.put("b", 2)
        cache.path_for("b").write_text("{ torn")
        assert cache.get("b") is None  # quarantines to *.corrupt
        cache.clear()
        assert list(tmp_path.glob("*.json")) == []
        assert list(tmp_path.glob("*.tmp")) == []
        assert list(tmp_path.glob("*.corrupt")) == []

    def test_hit_miss_counters(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        assert cache.get("absent") is None
        cache.put("present", [1, 2])
        assert cache.get("present") == [1, 2]
        assert (cache.hits, cache.misses) == (1, 1)


def _digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class TestVectorizedGoldens:
    """Pre-vectorization numerics, captured on the scalar implementations.

    The vectorized BBV accumulation preserves the scalar per-cell float
    addition order (np.bincount adds sequentially in entry order), and the
    batched timing loop leaves all state-carrying accesses in original
    order — so every comparison here is exact, not approximate.  Values
    are gzip at scale 0.04 under config A.  The timing pins were
    re-captured when data visits became keyed by (segment index, block)
    and points moved to the one warmed walk.
    """

    GOLDEN_TOTAL = 296490
    GOLDEN_BLOCK_COUNTS_SHA = (
        "78e9e112cabdaef57bc905b01d29de6cca1e1af54c52bcd3d8a315512b010393"
    )
    GOLDEN_FIXED_BBV_SHA = (
        "d035b5849049579c3b8a016efdd05c6fd06a3ffb64a4db877d911e6e21c66ac7"
    )
    GOLDEN_SUB_BBV_SHA = (
        "e939ec4c7940b4084b12babe87275cb7ccd77a2fc0c2e4ea9a0e1fdec758a753"
    )

    def test_run_block_counts(self, small_functional):
        result = small_functional.run()
        assert result.total_instructions == self.GOLDEN_TOTAL
        assert _digest(result.block_counts) == self.GOLDEN_BLOCK_COUNTS_SHA

    def test_fixed_interval_bbv(self, small_fine_profile):
        assert _digest(small_fine_profile.bbv) == self.GOLDEN_FIXED_BBV_SHA
        assert float(small_fine_profile.bbv.sum()) == float(
            self.GOLDEN_TOTAL
        )
        assert small_fine_profile.bbv.sum(axis=1)[:10].tolist() == \
            [1000.0] * 10

    def test_range_restricted_bbv(self, small_functional, small_trace):
        start = small_trace.total_instructions // 4
        profile = small_functional.profile_fixed_intervals(
            1000, start=start, end=start + 4000
        )
        assert _digest(profile.bbv) == self.GOLDEN_SUB_BBV_SHA
        assert float(profile.bbv.sum()) == 4000.0

    def test_coarse_interval_bbv(self, small_functional):
        coarse = small_functional.profile_coarse_intervals(4)
        assert float(coarse.bbv.sum()) == 287832.0

    def test_full_timing_simulation(self, small_trace):
        full = TimingSimulator(small_trace, CONFIG_A).simulate_full()
        assert full.cycles == 174920.32527426333
        assert full.instructions == 296490
        assert full.l1d_misses == 40493.26368962733
        assert full.l1d_accesses == 94634
        assert full.l1i_misses == 87
        assert full.l1i_accesses == 47774
        assert full.l2_misses == 4114.671368887111
        assert full.l2_accesses == 40580.263689627325
        assert full.branches == 12374
        assert full.mispredicts == 964.0467844426604

    def test_warmed_point_simulation(self, small_trace):
        sim = TimingSimulator(small_trace, CONFIG_A)
        mid = small_trace.total_instructions // 2
        point = (mid, mid + 1500)
        result = simulate_point_set(sim, [point])[point]
        assert result.cycles == 471.9786743043288
        assert result.instructions == 1554
        assert result.l1d_misses == 139.39243007532548
        assert result.mispredicts == 4.536585365853658


class TestTimingRecords:
    def test_stage_context_accumulates(self):
        timing = SuiteTiming()
        record = timing.start_run("gzip", "config_a")
        with timing.stage(record, "trace_build"):
            pass
        with timing.stage(record, "trace_build"):
            pass
        assert record.stages["trace_build"] >= 0.0
        assert timing.runs == [record]

    def test_stage_noop_without_record(self):
        timing = SuiteTiming()
        with timing.stage(None, "profiling"):
            pass
        assert timing.runs == []

    def test_roundtrip(self):
        timing = SuiteTiming()
        timing.jobs = 3
        record = timing.start_run("mcf", "config_b")
        record.add_stage("baseline", 1.25)
        record.cache_hit = True
        record.total_seconds = 1.5
        clone = SuiteTiming.from_dict(timing.to_dict())
        assert clone.jobs == 3
        assert clone.cache_hits == 1
        assert clone.runs[0].stages == {"baseline": 1.25}
        assert clone.runs[0].to_dict() == record.to_dict()

    def test_merge_combines_runs(self):
        left, right = SuiteTiming(), SuiteTiming()
        left.start_run("gzip", "config_a").add_stage("baseline", 1.0)
        right.start_run("mcf", "config_a").add_stage("baseline", 2.0)
        right.runs[0].cache_hit = True
        left.merge(right)
        assert [r.benchmark for r in left.runs] == ["gzip", "mcf"]
        assert left.stage_totals()["baseline"] == 3.0
        assert (left.cache_hits, left.cache_misses) == (1, 1)

    def test_report_lists_stages(self):
        timing = SuiteTiming()
        record = timing.start_run("gzip", "config_a")
        for stage in STAGE_ORDER:
            record.add_stage(stage, 0.5)
        report = timing.format_report()
        for stage in STAGE_ORDER:
            assert stage in report

    def test_run_benchmark_records_all_stages(self, tmp_path,
                                              test_sampling):
        runner = ExperimentRunner(
            sampling=test_sampling,
            cache=ResultCache(directory=tmp_path),
            workload_scale=TEST_SCALE,
        )
        runner.run_benchmark("gzip", CONFIG_A)
        (record,) = runner.timing.runs
        assert set(record.stages) == set(STAGE_ORDER)
        assert not record.cache_hit
        runner.run_benchmark("gzip", CONFIG_A)
        assert isinstance(RunTiming.from_dict(record.to_dict()), RunTiming)
