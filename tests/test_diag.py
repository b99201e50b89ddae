"""Tests for the accuracy diagnostics (per-phase error attribution).

The load-bearing invariant: for every method, the signed per-phase
contributions plus the residual sum *exactly* to the method's total
signed deviation (the residual is defined as the difference, so the
check is that the attribution algebra is implemented consistently and
that the totals match the independently computed ``Deviation``).  gcc —
the paper's pathological benchmark — must light up the
giant-coarse-point telemetry.
"""

import json
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from repro.analysis.bbv import normalize_rows
from repro.analysis.kmeans import KMeansResult, cluster_quality, kmeans
from repro.config import CONFIG_A, CONFIG_B
from repro.errors import ClusteringError
from repro.harness import ExperimentRunner, ResultCache
from repro.obs import (
    MetricsRegistry,
    Span,
    read_trace_jsonl,
    write_trace_jsonl,
)
from repro.obs.diag import (
    DIAG_METRICS,
    DIAG_RESIDUAL,
    DIAG_TOTAL_ERROR,
    MethodDiag,
    format_diag_report,
    record_diag_metrics,
    run_diagnostics,
)

from .conftest import TEST_SCALE


@pytest.fixture(scope="module")
def gcc_run(test_sampling):
    """One fully diagnosed gcc run (module-shared: the baseline pass
    plus the diagnostics truth pass dominate this file's runtime)."""
    runner = ExperimentRunner(
        sampling=test_sampling,
        cache=ResultCache(enabled=False),
        workload_scale=TEST_SCALE,
    )
    run = runner.run_benchmark("gcc", CONFIG_A)
    return runner, run


class TestAttributionExactness:
    def test_contributions_plus_residual_equal_total(self, gcc_run):
        _, run = gcc_run
        assert set(run.diagnostics) == set(run.methods)
        for name, diag in run.diagnostics.items():
            for metric in DIAG_METRICS:
                total = diag.total_error[metric]
                explained = sum(
                    row.contributions.get(metric, 0.0)
                    for row in diag.phases
                ) + diag.residual[metric]
                assert explained == pytest.approx(total, abs=1e-9), \
                    (name, metric)

    def test_total_cpi_matches_reported_deviation(self, gcc_run):
        _, run = gcc_run
        for name, diag in run.diagnostics.items():
            deviation = run.methods[name].deviation
            assert abs(diag.total_error["cpi"]) == \
                pytest.approx(deviation.cpi, abs=1e-9), name
            assert abs(diag.total_error["l1"]) == \
                pytest.approx(deviation.l1_hit_rate, abs=1e-9), name

    def test_members_cleared_and_never_serialised(self, gcc_run):
        _, run = gcc_run
        for diag in run.diagnostics.values():
            assert diag.members == {}
            assert "members" not in diag.to_dict()


class TestGccPathology:
    def test_giant_coarse_point_flagged(self, gcc_run, test_sampling):
        _, run = gcc_run
        coasts = run.diagnostics["coasts"]
        assert coasts.resample_threshold == test_sampling.resample_threshold
        assert coasts.n_oversized >= 1
        oversized = [row for row in coasts.phases if row.oversized]
        assert all(
            row.point_size > test_sampling.resample_threshold
            for row in oversized
        )
        assert any(
            "GIANT-COASTS-POINT" not in row.flags()
            and "GIANT-COARSE-POINT" in row.flags()
            for row in oversized
        )

    def test_multilevel_marks_oversized_phases_resampled(self, gcc_run):
        _, run = gcc_run
        ml = run.diagnostics["multilevel"]
        assert ml.method == "multilevel"
        for row in ml.phases:
            assert row.resampled == row.oversized

    def test_report_renders_flags_and_residual(self, gcc_run):
        _, run = gcc_run
        views = {("gcc", CONFIG_A.name): run.diagnostics}
        report = format_diag_report(views, benchmark="gcc")
        assert "GIANT-COARSE-POINT" in report
        assert "coverage/aggregation" in report
        assert f"gcc / coasts ({CONFIG_A.name})" in report
        # Worst phase first: the first table row carries the largest
        # absolute CPI contribution.
        coasts = run.diagnostics["coasts"]
        worst = coasts.sorted_phases()[0]
        table = [
            line for line in
            format_diag_report(
                {("gcc", CONFIG_A.name): {"coasts": coasts}}
            ).splitlines()
            if line.strip() and line.strip()[0].isdigit()
        ]
        assert table[0].split()[0] == str(worst.phase)


class TestRoundTrips:
    def test_dict_round_trip(self, gcc_run):
        _, run = gcc_run
        for diag in run.diagnostics.values():
            payload = json.loads(json.dumps(diag.to_dict()))
            rebuilt = MethodDiag.from_dict(payload)
            assert rebuilt.to_dict() == diag.to_dict()

    def test_quick_run_records_round_trip_byte_for_byte(
            self, tmp_path, test_sampling):
        """A cache hit publishes the stored diagnostics as they are; the
        computed path published ``MethodDiag.to_dict()``.  Both give the
        same span bytes only if every stored record survives
        ``from_dict``/``to_dict`` unchanged."""
        runner = ExperimentRunner(
            sampling=test_sampling,
            cache=ResultCache(directory=tmp_path / "cache"),
            workload_scale=TEST_SCALE,
        )
        assert runner.run_suite(CONFIG_A, quick=True, journal=False).ok
        records = [
            record
            for path in sorted((tmp_path / "cache").glob("*.json"))
            for record in json.loads(path.read_text())["payload"][
                "diagnostics"].values()
        ]
        assert records
        for record in records:
            rebuilt = MethodDiag.from_dict(record).to_dict()
            assert rebuilt == record
            assert json.dumps(rebuilt) == json.dumps(record)

    def test_trace_round_trip(self, gcc_run, tmp_path):
        """The run span's diagnostics survive --trace-out exactly."""
        runner, run = gcc_run
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(path, runner.obs.tracer, runner.obs.metrics)
        views = run_diagnostics(read_trace_jsonl(path).spans())
        assert set(views) == {("gcc", CONFIG_A.name)}
        rebuilt = views["gcc", CONFIG_A.name]
        assert set(rebuilt) == set(run.diagnostics)
        for name, original in run.diagnostics.items():
            assert rebuilt[name].to_dict() == original.to_dict(), name

    def test_recording_is_idempotent(self, gcc_run):
        _, run = gcc_run
        registry = MetricsRegistry()
        span = Span("run")
        diags = {name: d.to_dict() for name, d in run.diagnostics.items()}
        record_diag_metrics(registry, span, CONFIG_A.name, diags)
        once = (registry.to_dict(), json.dumps(span.attributes))
        record_diag_metrics(registry, span, CONFIG_A.name, diags)
        assert (registry.to_dict(), json.dumps(span.attributes)) == once
        # Per method only: each run's total error and residual.
        assert {name for name, _, _ in registry.samples()} == \
            {DIAG_TOTAL_ERROR, DIAG_RESIDUAL}
        assert len(registry) == 2 * len(run.diagnostics) * len(DIAG_METRICS)

    def test_cache_hit_run_span_carries_diagnostics(self, tmp_path,
                                                    test_sampling):
        cache_dir = tmp_path / "cache"
        first = ExperimentRunner(
            sampling=test_sampling,
            cache=ResultCache(directory=cache_dir),
            workload_scale=TEST_SCALE,
        )
        first.run_benchmark("gzip", CONFIG_A)
        second = ExperimentRunner(
            sampling=test_sampling,
            cache=ResultCache(directory=cache_dir),
            workload_scale=TEST_SCALE,
        )
        run = second.run_benchmark("gzip", CONFIG_A)
        assert second.cache.hits == 1
        assert run.diagnostics  # survived the disk round-trip
        (span,) = second.obs.tracer.spans()
        assert span.name == "run" and span.attributes["cache_hit"]
        assert span.attributes["diagnostics"] == {
            name: diag.to_dict() for name, diag in run.diagnostics.items()
        }
        assert second.obs.metrics.value(
            DIAG_TOTAL_ERROR, benchmark="gzip", config=CONFIG_A.name,
            method="coasts", metric="cpi",
        ) == run.diagnostics["coasts"].total_error["cpi"]


class TestConfigs:
    def test_one_table_per_config(self, tmp_path, test_sampling):
        """A trace holding one benchmark under both configs renders a
        table per config, each with that run's own totals."""
        runner = ExperimentRunner(
            sampling=test_sampling,
            cache=ResultCache(enabled=False),
            workload_scale=TEST_SCALE,
        )
        runs = {
            config.name: runner.run_benchmark("gzip", config)
            for config in (CONFIG_A, CONFIG_B)
        }
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(path, runner.obs.tracer, runner.obs.metrics)
        views = run_diagnostics(read_trace_jsonl(path).spans())
        assert set(views) == {("gzip", name) for name in runs}
        for config, run in runs.items():
            for name, diag in run.diagnostics.items():
                assert views["gzip", config][name].to_dict() == \
                    diag.to_dict(), (config, name)
                assert runner.obs.metrics.value(
                    DIAG_TOTAL_ERROR, benchmark="gzip", config=config,
                    method=name, metric="cpi",
                ) == diag.total_error["cpi"]
        # The configs really differ, so neither table hides the other.
        assert runs[CONFIG_A.name].diagnostics["coasts"].total_error != \
            runs[CONFIG_B.name].diagnostics["coasts"].total_error
        report = format_diag_report(views, method="coasts").splitlines()
        headers = [
            line.split(":")[0] for line in report if line.startswith("gzip")
        ]
        assert headers == [f"gzip / coasts ({name})" for name in sorted(runs)]
        totals = [line for line in report
                  if line.startswith("total signed deviation")]
        for config, line in zip(sorted(runs), totals):
            error = runs[config].diagnostics["coasts"].total_error
            assert line == (
                "total signed deviation: "
                f"CPI {100 * error['cpi']:+.3f}%, "
                f"L1 {100 * error['l1']:+.3f}%, "
                f"L2 {100 * error['l2']:+.3f}%"
            )


class TestClusterQuality:
    def test_single_cluster_has_zero_silhouette(self):
        data = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5]])
        result = KMeansResult(
            centroids=data.mean(axis=0, keepdims=True),
            labels=np.zeros(3, dtype=int),
            inertia=0.0,
        )
        quality = cluster_quality(data, result)
        assert quality.k == 1
        assert quality.silhouettes[0] == 0.0
        assert quality.mean_silhouette == 0.0
        assert quality.sizes[0] == 3
        assert quality.variances[0] == pytest.approx(
            np.mean(np.sum((data - data.mean(axis=0)) ** 2, axis=1))
        )

    def test_well_separated_clusters_score_high(self):
        rng = np.random.default_rng(7)
        a = rng.normal(0.0, 0.01, size=(20, 3))
        b = rng.normal(5.0, 0.01, size=(20, 3))
        data = np.vstack([a, b])
        labels = np.array([0] * 20 + [1] * 20)
        centroids = np.vstack([a.mean(axis=0), b.mean(axis=0)])
        quality = cluster_quality(
            data, KMeansResult(centroids=centroids, labels=labels,
                               inertia=0.0)
        )
        assert quality.mean_silhouette > 0.9
        assert all(quality.member_distances < 0.1)

    def test_real_clustering_quality_is_consistent(self, small_fine_profile,
                                                   test_sampling):
        data = normalize_rows(small_fine_profile.bbv.astype(float))
        result = kmeans(data, 3, n_seeds=test_sampling.kmeans_seeds)
        quality = cluster_quality(data, result)
        assert quality.k == len(result.centroids)
        assert len(quality.member_distances) == len(data)
        assert len(quality.member_silhouettes) == len(data)
        assert all(-1.0 - 1e-9 <= s <= 1.0 + 1e-9
                   for s in quality.member_silhouettes)
        assert sum(quality.sizes) == len(data)

    def test_shape_mismatch_raises(self):
        data = np.zeros((4, 2))
        result = KMeansResult(
            centroids=np.zeros((1, 2)), labels=np.zeros(3, dtype=int),
            inertia=0.0,
        )
        with pytest.raises(ClusteringError):
            cluster_quality(data, result)


class TestFrozenPlanRecords:
    def test_shared_plan_record_is_never_mutated(self, test_sampling):
        """One plan serves configs A and B: attributing either run must
        leave the memoised plan-time records exactly as built."""
        runner = ExperimentRunner(
            sampling=test_sampling,
            cache=ResultCache(enabled=False),
            workload_scale=TEST_SCALE,
        )
        runner.plans("gzip")
        built = {
            name: diag for name, (_, diag) in
            runner.context("gzip").built.items() if diag is not None
        }
        assert set(built) == set(runner.methods)
        before = {
            name: (json.dumps(diag.to_dict()), json.dumps(diag.members))
            for name, diag in built.items()
        }
        assert all(diag.members for diag in built.values())
        runner.run_benchmark("gzip", CONFIG_A)
        run_b = runner.run_benchmark("gzip", CONFIG_B)
        for name, (_, diag) in runner.context("gzip").built.items():
            if diag is None:
                continue
            assert diag is built[name]
            assert (json.dumps(diag.to_dict()),
                    json.dumps(diag.members)) == before[name], name

        fresh = ExperimentRunner(
            sampling=test_sampling,
            cache=ResultCache(enabled=False),
            workload_scale=TEST_SCALE,
        ).run_benchmark("gzip", CONFIG_B)
        assert {name: diag.to_dict()
                for name, diag in run_b.diagnostics.items()} == \
            {name: diag.to_dict()
             for name, diag in fresh.diagnostics.items()}

        coasts = built["coasts"]
        with pytest.raises(FrozenInstanceError):
            coasts.method = "other"
        with pytest.raises(FrozenInstanceError):
            coasts.phases[0].resampled = True
