"""Tests for parallel suite execution and the machinery backing it.

Covers four areas introduced together: (1) the process-parallel
``run_suite`` path must be byte-identical to the serial one, (2) the disk
cache must survive concurrent writers, (3) the vectorized BBV/timing hot
paths are pinned to numerics captured before the vectorization (the
rewrites claim bit-identity, so comparisons are exact), and (4) the
run and stage spans every run records, and the timing view over them.
"""

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.config import CONFIG_A
from repro.detailed import TimingSimulator
from repro.errors import HarnessError
from repro.cli import format_timing
from repro.harness import (
    CACHE_SCHEMA_VERSION,
    ExperimentRunner,
    ResultCache,
    resolve_jobs,
)
from repro.harness.faults import STAGE_ORDER
from repro.harness.runner import timing_summary
from repro.obs import ObsContext
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


def _run_spans(runner):
    return [s for s in runner.obs.tracer.spans() if s.name == "run"]


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
        assert timing_summary(parallel_runner.obs.tracer)["jobs"] == 2

    def test_worker_timing_merged_into_parent(self, tmp_path,
                                              test_sampling):
        runner, _ = _suite_payload(test_sampling, tmp_path, jobs=2)
        runs = _run_spans(runner)
        assert len(runs) == len(SUITE_NAMES)
        covered = {run.attributes["benchmark"] for run in runs}
        assert covered == set(SUITE_NAMES)
        for run in runs:
            assert [c.name for c in run.children] == list(STAGE_ORDER)
            assert run.attributes["cache_hit"] is False
        summary = timing_summary(runner.obs.tracer)
        assert summary["cache_misses"] == len(SUITE_NAMES)
        assert summary["cache_hits"] == 0

    def test_parallel_run_hits_shared_cache(self, tmp_path, test_sampling):
        _suite_payload(test_sampling, tmp_path, jobs=2)
        runner, second = _suite_payload(test_sampling, tmp_path,
                                        jobs=2)
        _, serial = _suite_payload(test_sampling,
                                   tmp_path / "fresh", jobs=1)
        assert second == serial
        runs = _run_spans(runner)
        assert len(runs) == len(SUITE_NAMES)
        assert all(run.attributes["cache_hit"] for run in runs)
        assert timing_summary(runner.obs.tracer)["cache_hits"] == \
            len(SUITE_NAMES)

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)
        with pytest.raises(HarnessError):
            resolve_jobs(-1)

    def test_negative_jobs_rejected_at_construction(self):
        with pytest.raises(HarnessError):
            ExperimentRunner(jobs=-2)

    def test_suite_span_records_effective_jobs(self, tmp_path,
                                               test_sampling):
        # jobs=0 means one worker per CPU; a single remaining run stays
        # in-process however many workers were asked for.
        runner, _ = _suite_payload(test_sampling, tmp_path, jobs=0)
        (suite,) = runner.obs.tracer.roots
        assert suite.attributes["jobs"] == resolve_jobs(0)
        single = ExperimentRunner(
            sampling=test_sampling,
            cache=ResultCache(directory=tmp_path),
            workload_scale=TEST_SCALE,
        )
        single.run_suite(CONFIG_A, names=["gzip"], jobs=4)
        (suite,) = single.obs.tracer.roots
        assert suite.attributes["jobs"] == 1
        assert timing_summary(single.obs.tracer)["jobs"] == 1


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
    def _runner(self, test_sampling, tmp_path):
        return ExperimentRunner(
            sampling=test_sampling,
            cache=ResultCache(directory=tmp_path),
            workload_scale=TEST_SCALE,
        )

    def test_stage_context_accumulates(self, test_sampling, tmp_path):
        runner = self._runner(test_sampling, tmp_path)
        with runner._run_span("gzip", "config_a"):
            with runner._stage("gzip", "trace_build") as first:
                pass
            with runner._stage("gzip", "trace_build") as second:
                pass
        (run,) = runner.obs.tracer.roots
        assert run.children == [first, second]
        totals = timing_summary(runner.obs.tracer)["stage_totals"]
        assert totals == {"trace_build": first.duration + second.duration}

    def test_stage_noop_without_record(self, test_sampling, tmp_path):
        # Plans built outside any run are timed, but are not a run.
        runner = self._runner(test_sampling, tmp_path)
        runner.plans("gzip")
        assert [s.name for s in runner.obs.tracer.roots] == [
            "profiling", "plan_construction",
        ]
        summary = timing_summary(runner.obs.tracer)
        assert summary["runs"] == 0
        assert summary["stage_totals"] == {}

    def test_roundtrip(self, test_sampling, tmp_path):
        # Worker -> driver: the view survives span serialisation.
        runner = self._runner(test_sampling, tmp_path)
        runner.run_benchmark("mcf", CONFIG_A)
        runner.run_benchmark("mcf", CONFIG_A)
        clone = ObsContext()
        clone.merge_dict(runner.obs.to_dict())
        assert timing_summary(clone.tracer) == \
            timing_summary(runner.obs.tracer)
        assert timing_summary(clone.tracer)["cache_hits"] == 1

    def test_merge_combines_runs(self):
        left, right = ObsContext(), ObsContext()
        with left.tracer.span("run", benchmark="gzip", cache_hit=False):
            with left.tracer.span("trace_build") as gzip_stage:
                pass
        with right.tracer.span("run", benchmark="mcf", cache_hit=True):
            with right.tracer.span("trace_build") as mcf_stage:
                pass
        with left.tracer.span("suite", jobs=3):
            left.merge_dict(right.to_dict())
        summary = timing_summary(left.tracer)
        assert summary["runs"] == 2
        assert (summary["cache_hits"], summary["cache_misses"]) == (1, 1)
        assert summary["jobs"] == 3
        assert summary["stage_totals"]["trace_build"] == \
            gzip_stage.duration + mcf_stage.duration

    def test_report_lists_stages(self):
        summary = {
            "runs": 2, "jobs": 3, "wall_seconds": 1.5, "cache_hits": 1,
            "cache_misses": 1,
            "stage_totals": {stage: 0.5 for stage in reversed(STAGE_ORDER)},
        }
        lines = format_timing(summary).splitlines()
        assert lines[0] == \
            "timing: 2 runs, jobs=3, wall 1.50s, cache 1 hit / 1 miss"
        assert [line.split()[0] for line in lines[1:-1]] == \
            list(STAGE_ORDER)
        assert lines[1] == "  trace_build             0.500s   20.0%"
        assert lines[-1] == "  (stage total)           2.500s"

    def test_run_benchmark_records_all_stages(self, tmp_path,
                                              test_sampling):
        runner = self._runner(test_sampling, tmp_path)
        runner.run_benchmark("gzip", CONFIG_A)
        (run,) = runner.obs.tracer.roots
        assert run.name == "run"
        assert [c.name for c in run.children] == list(STAGE_ORDER)
        assert run.attributes["cache_hit"] is False
        runner.run_benchmark("gzip", CONFIG_A)
        rerun = runner.obs.tracer.roots[-1]
        assert rerun.attributes["cache_hit"] is True
        assert rerun.children == []
