"""Differential tests: vectorized kernels against the scalar reference.

The contract is **bit-identity**, not approximate equality: every
assertion here uses ``np.array_equal`` / ``==`` on floats.  The
vectorized kernels are built exclusively from numpy operations whose
per-element rounding matches the scalar loops (see
:mod:`repro.analysis.backend`), so any drift is a real kernel bug, not
tolerable noise.
"""

import numpy as np
import pytest

from repro.analysis import (
    BACKEND_ENV,
    BACKENDS,
    assign_points,
    bic_score,
    cluster_with_bic,
    concat_signatures,
    earliest_member,
    get_backend,
    kmeans,
    nearest_to_centroid,
    normalize_rows,
    project_bbvs,
    resolve_backend,
    set_backend,
    squared_distances,
    use_backend,
)
from repro.analysis import backend as backend_mod
from repro.config import SamplingConfig
from repro.errors import ClusteringError
from repro.sampling.coasts import Coasts
from repro.sampling.multilevel import MultiLevelSampler

#: (n points, dims, k) shapes covering the awkward corners: k > n,
#: a single point, a single cluster, and production-like sizes.
SHAPES = [
    (30, 5, 4),
    (100, 15, 8),
    (3, 2, 7),    # more clusters requested than points
    (1, 3, 1),    # single point
    (50, 4, 1),   # single cluster
]

SEEDS = [0, 1, 2]


def _dataset(n, d, seed):
    return np.random.default_rng(seed).random((n, d))


def _dataset_with_duplicates(n, d, seed):
    """Half the rows duplicated — exercises zero-distance seeding."""
    rng = np.random.default_rng(seed)
    base = rng.random((max(1, n // 2), d))
    data = np.concatenate([base, base])[:n]
    return data


class TestDistanceKernels:
    @pytest.mark.parametrize("n,d,k", SHAPES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_squared_distances_bit_identical(self, n, d, k, seed):
        data = _dataset(n, d, seed)
        centers = _dataset(k, d, seed + 100)
        fast = squared_distances(data, centers, backend="vectorized")
        slow = squared_distances(data, centers, backend="scalar")
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("n,d,k", SHAPES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_assign_points_bit_identical(self, n, d, k, seed):
        data = _dataset(n, d, seed)
        centers = _dataset(k, d, seed + 100)
        fast_labels, fast_best = assign_points(data, centers, backend="vectorized")
        slow_labels, slow_best = assign_points(data, centers, backend="scalar")
        assert np.array_equal(fast_labels, slow_labels)
        assert np.array_equal(fast_best, slow_best)

    def test_assign_points_tie_break_matches_argmin(self):
        # Two identical centers: both backends must pick the first.
        data = np.array([[0.5, 0.5], [1.0, 0.0]])
        centers = np.array([[0.5, 0.5], [0.5, 0.5]])
        for backend in BACKENDS:
            labels, _ = assign_points(data, centers, backend=backend)
            assert np.array_equal(labels, [0, 0])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_nearest_to_centroid_bit_identical(self, seed):
        data = _dataset(40, 6, seed)
        centroids = _dataset(5, 6, seed + 7)
        # Labels leave cluster 3 empty so the -1 branch is exercised.
        labels = np.random.default_rng(seed).integers(0, 3, size=40)
        fast = nearest_to_centroid(data, labels, centroids, backend="vectorized")
        slow = nearest_to_centroid(data, labels, centroids, backend="scalar")
        assert np.array_equal(fast, slow)
        assert fast[3] == -1 and fast[4] == -1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_earliest_member_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(-1, 6, size=50)  # includes invalid -1 labels
        fast = earliest_member(labels, 6, backend="vectorized")
        slow = earliest_member(labels, 6, backend="scalar")
        assert np.array_equal(fast, slow)

    def test_earliest_member_empty_labels(self):
        for backend in BACKENDS:
            picks = earliest_member(np.array([], dtype=np.int64), 3,
                                    backend=backend)
            assert np.array_equal(picks, [-1, -1, -1])

    def test_blocking_does_not_change_results(self, monkeypatch):
        # The row-block size is a pure memory knob; shrinking it to force
        # many blocks must not change a single bit.
        from repro.analysis import distance as distance_mod

        data = _dataset(64, 7, 3)
        centers = _dataset(5, 7, 4)
        whole = squared_distances(data, centers, backend="vectorized")
        monkeypatch.setattr(distance_mod, "_BLOCK_ELEMENTS", 16)
        blocked = squared_distances(data, centers, backend="vectorized")
        labels, best = assign_points(data, centers, backend="vectorized")
        assert np.array_equal(whole, blocked)
        assert np.array_equal(best, whole[np.arange(64), labels])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ClusteringError):
            squared_distances(np.zeros((3, 2)), np.zeros((2, 5)))


class TestKMeansDifferential:
    @pytest.mark.parametrize("n,d,k", SHAPES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_kmeans_bit_identical(self, n, d, k, seed):
        data = _dataset(n, d, seed)
        fast = kmeans(data, k, seed=seed, n_seeds=2, backend="vectorized")
        slow = kmeans(data, k, seed=seed, n_seeds=2, backend="scalar")
        assert np.array_equal(fast.labels, slow.labels)
        assert np.array_equal(fast.centroids, slow.centroids)
        assert fast.inertia == slow.inertia
        assert fast.inertia_history == slow.inertia_history

    @pytest.mark.parametrize("seed", SEEDS)
    def test_kmeans_on_duplicates_bit_identical(self, seed):
        data = _dataset_with_duplicates(24, 4, seed)
        fast = kmeans(data, 5, seed=seed, n_seeds=2, backend="vectorized")
        slow = kmeans(data, 5, seed=seed, n_seeds=2, backend="scalar")
        assert np.array_equal(fast.labels, slow.labels)
        assert np.array_equal(fast.centroids, slow.centroids)
        assert fast.inertia == slow.inertia

    def test_kmeans_all_identical_points(self):
        data = np.full((10, 3), 0.25)
        for backend in BACKENDS:
            result = kmeans(data, 4, seed=0, n_seeds=1, backend=backend)
            assert result.inertia == 0.0
            assert not np.isnan(result.centroids).any()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bic_scores_bit_identical(self, seed):
        data = _dataset(60, 5, seed)
        result = kmeans(data, 4, seed=seed, n_seeds=1, backend="vectorized")
        assert bic_score(data, result, backend="vectorized") == \
            bic_score(data, result, backend="scalar")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cluster_with_bic_bit_identical(self, seed):
        data = _dataset(50, 6, seed)
        fast, fast_scores = cluster_with_bic(
            data, kmax=5, seed=seed, n_seeds=2, backend="vectorized"
        )
        slow, slow_scores = cluster_with_bic(
            data, kmax=5, seed=seed, n_seeds=2, backend="scalar"
        )
        assert fast_scores == slow_scores
        assert fast.k == slow.k
        assert np.array_equal(fast.labels, slow.labels)
        assert np.array_equal(fast.centroids, slow.centroids)


class TestSignatureDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_normalize_rows_bit_identical(self, seed):
        data = _dataset(20, 8, seed)
        data[3] = 0.0  # a zero row must stay zero on both paths
        fast = normalize_rows(data, backend="vectorized")
        slow = normalize_rows(data, backend="scalar")
        assert np.array_equal(fast, slow)
        assert np.array_equal(fast[3], np.zeros(8))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_project_bbvs_bit_identical(self, seed):
        raw = _dataset(30, 64, seed)
        fast = project_bbvs(raw, 10, seed=seed, backend="vectorized")
        slow = project_bbvs(raw, 10, seed=seed, backend="scalar")
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_concat_signatures_bit_identical(self, seed):
        segments = _dataset(12, 4 * 32, seed).reshape(12, 4, 32)
        fast = concat_signatures(segments, dim=6, seed=seed,
                                 backend="vectorized")
        slow = concat_signatures(segments, dim=6, seed=seed,
                                 backend="scalar")
        assert fast.shape == (12, 24)
        assert np.array_equal(fast, slow)


class TestBackendSelection:
    def test_default_is_vectorized(self):
        assert get_backend() == "vectorized"
        assert resolve_backend(None) == get_backend()

    def test_set_backend_returns_previous(self):
        previous = set_backend("scalar")
        try:
            assert previous == "vectorized"
            assert get_backend() == "scalar"
        finally:
            set_backend(previous)

    def test_use_backend_restores_on_exit(self):
        before = get_backend()
        with use_backend("scalar"):
            assert get_backend() == "scalar"
        assert get_backend() == before

    def test_use_backend_restores_on_error(self):
        before = get_backend()
        with pytest.raises(RuntimeError):
            with use_backend("scalar"):
                raise RuntimeError("boom")
        assert get_backend() == before

    def test_explicit_argument_beats_global(self):
        data = _dataset(10, 3, 0)
        with use_backend("scalar"):
            # Still runs (and validates) the requested backend.
            assert resolve_backend("vectorized") == "vectorized"
            result = kmeans(data, 2, seed=0, n_seeds=1, backend="vectorized")
        assert result.k == 2

    def test_environment_variable_selects_backend(self, monkeypatch):
        monkeypatch.setattr(backend_mod.CONTROL, "_active", None)
        monkeypatch.setenv(BACKEND_ENV, "scalar")
        assert get_backend() == "scalar"

    def test_bad_environment_variable_rejected(self, monkeypatch):
        monkeypatch.setattr(backend_mod.CONTROL, "_active", None)
        monkeypatch.setenv(BACKEND_ENV, "turbo")
        with pytest.raises(ClusteringError):
            get_backend()

    @pytest.mark.parametrize("bad", ["", "Vectorized", "numpy", "turbo"])
    def test_unknown_backend_rejected_everywhere(self, bad):
        with pytest.raises(ClusteringError):
            set_backend(bad)
        with pytest.raises(ClusteringError):
            resolve_backend(bad)
        with pytest.raises(ClusteringError):
            with use_backend(bad):
                pass
        with pytest.raises(ClusteringError):
            kmeans(np.zeros((3, 2)), 2, backend=bad)


class TestEndToEndPlanIdentity:
    """Whole sampling plans must not depend on the backend."""

    @pytest.fixture(scope="class")
    def plan_sampling(self):
        return SamplingConfig(
            fine_interval_size=1000,
            fine_kmax=10,
            coarse_kmax=3,
            resample_threshold=3000,
            kmeans_seeds=2,
        )

    def _plans(self, trace, sampling, backend):
        with use_backend(backend):
            coarse = Coasts(sampling).sample(trace, benchmark="gzip")
            multi = MultiLevelSampler(sampling).sample(
                trace, benchmark="gzip", coarse_plan=coarse
            )
        return coarse, multi

    def test_two_level_plans_identical(self, small_trace, plan_sampling):
        fast_coarse, fast_multi = self._plans(
            small_trace, plan_sampling, "vectorized"
        )
        slow_coarse, slow_multi = self._plans(
            small_trace, plan_sampling, "scalar"
        )
        assert fast_coarse.points == slow_coarse.points
        assert fast_multi.points == slow_multi.points
        assert fast_multi.n_clusters == slow_multi.n_clusters
