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

import numpy as np
import pytest

from repro.analysis.bbv import normalize_rows
from repro.analysis.kmeans import KMeansResult, cluster_quality, kmeans
from repro.config import CONFIG_A
from repro.errors import ClusteringError
from repro.harness import ExperimentRunner, ResultCache
from repro.obs import MetricsRegistry
from repro.obs.diag import (
    DIAG_METRICS,
    MethodDiag,
    diag_views,
    format_diag_report,
    record_diag_metrics,
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
        views = {"gcc": run.diagnostics}
        report = format_diag_report(views, benchmark="gcc")
        assert "GIANT-COARSE-POINT" in report
        assert "coverage/aggregation" in report
        assert "gcc / coasts" in report
        # Worst phase first: the first table row carries the largest
        # absolute CPI contribution.
        coasts = run.diagnostics["coasts"]
        worst = coasts.sorted_phases()[0]
        table = [
            line for line in
            format_diag_report({"gcc": {"coasts": coasts}}).splitlines()
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

    def test_registry_round_trip(self, gcc_run):
        """record_diag_metrics -> diag_views reconstructs the tables."""
        _, run = gcc_run
        registry = MetricsRegistry()
        record_diag_metrics(registry, run.diagnostics)
        views = diag_views(registry)
        assert set(views) == {"gcc"}
        assert set(views["gcc"]) == set(run.diagnostics)
        for name, original in run.diagnostics.items():
            rebuilt = views["gcc"][name]
            assert rebuilt.n_clusters == original.n_clusters
            assert rebuilt.total_error == pytest.approx(original.total_error)
            assert rebuilt.residual == pytest.approx(original.residual)
            assert [row.phase for row in rebuilt.phases] == \
                [row.phase for row in sorted(original.phases,
                                             key=lambda r: r.phase)]
            for row in rebuilt.phases:
                source = original.phase_by_id(row.phase)
                assert row.contributions == pytest.approx(
                    source.contributions
                )
                assert row.oversized == source.oversized

    def test_recording_is_idempotent(self, gcc_run):
        _, run = gcc_run
        registry = MetricsRegistry()
        record_diag_metrics(registry, run.diagnostics)
        once = registry.to_dict()
        record_diag_metrics(registry, run.diagnostics)
        assert registry.to_dict() == once

    def test_cache_hit_still_records_diag_gauges(self, tmp_path,
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
        views = diag_views(second.obs.metrics)
        assert set(views.get("gzip", {})) == set(run.diagnostics)


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
