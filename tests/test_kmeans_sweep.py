"""The k-means sweep: one exact computation per BIC sweep.

The ``vectorized`` sweep seeds once per attempt at the largest k, reads
the first assignment off the seeding pass, reuses an assignment while
the centroids come back unchanged, prunes the other assignment steps
with bounds, and advances the runs of neighbouring ks in lockstep.  The
``scalar`` twin clusters each k on its own, unpruned, and is the oracle:
every property here compares against it bit for bit.
"""

import importlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis import cluster_with_bic, kmeans, kmeans_sweep
from repro.backend import BACKENDS, use_backend
from repro.errors import ClusteringError
from repro.obs import (
    DISTANCE_EVALS,
    KMEANS_ITERATIONS,
    KMEANS_RUNS,
    ObsContext,
)
from repro.samplers import PlanContext, get_sampler


def _under(backend, kernel, *args, **kwargs):
    with use_backend(backend):
        return kernel(*args, **kwargs)


@st.composite
def sweep_cases(draw):
    """Small data sets full of duplicates and exact ties, and odd ks.

    Rows are either integer-grid points (many points equidistant from two
    centres) or drawn from a pool of at most eight distinct float rows,
    so k often exceeds the distinct points (the seeding fill branch and
    empty clusters).  ``ks`` is unsorted, may repeat and may exceed n.
    """
    d = draw(st.sampled_from([1, 2, 3, 15]))
    n = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        step = draw(st.sampled_from([1.0, 0.1, 0.3]))
        span = draw(st.integers(2, 8))
        data = rng.integers(0, span, size=(n, d)) * step
    else:
        pool = rng.random((draw(st.integers(1, 8)), d))
        data = pool[rng.integers(0, len(pool), size=n)]
    return {
        "data": data,
        "ks": draw(st.lists(st.integers(1, n + 3), min_size=1, max_size=4)),
        "seed": draw(st.integers(0, 2 ** 16)),
        "n_seeds": draw(st.integers(1, 2)),
        "max_iterations": draw(st.sampled_from([0, 1, 2, 100])),
    }


def _line(values, k, seed):
    """A pinned 1-D case, run as one k with one seed."""
    return {
        "data": np.array(values, dtype=np.float64)[:, None],
        "ks": [k],
        "seed": seed,
        "n_seeds": 1,
        "max_iterations": 100,
    }


class TestSweepMatchesScalarOracle:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=sweep_cases())
    # A point lands exactly midway between its centre and a lower-index
    # one, so it must move there (first on ties): no settling at equality.
    @example(case=_line([4, 5, 0, 7, 3, 0, 2, 6, 1, 2], k=2, seed=4070))
    @example(case=_line([6, 3, 1, 3, 5, 2, 0, 2, 1], k=3, seed=4865))
    # Lower bounds must drop by the largest move of the *other* centres.
    @example(case=_line([1, 0, 3, 6, 4, 0], k=2, seed=477))
    # Runs advanced in lockstep stop at different iterations (the best
    # runs of ks 1-6 take 2, 4, 2, 3, 3 and 2), k = 1 among them.
    @example(case={
        "data": np.array([[8, 6], [5, 2], [3, 0], [0, 0], [1, 8], [6, 9],
                          [5, 6], [9, 7], [6, 5], [5, 9], [2, 8], [6, 0],
                          [3, 8], [5, 0]], dtype=np.float64),
        "ks": [6, 1, 2, 3, 4, 5],
        "seed": 0,
        "n_seeds": 2,
        "max_iterations": 100,
    })
    def test_vectorized_sweep_equals_scalar_per_k_kmeans(self, case):
        data, ks = case["data"], case["ks"]
        knobs = {key: case[key]
                 for key in ("seed", "n_seeds", "max_iterations")}
        sweep = _under("vectorized", kmeans_sweep, data, ks, **knobs)
        expected_ks = sorted({min(k, len(data)) for k in ks})
        assert list(sweep.results) == expected_ks
        for k, fast in sweep.results.items():
            slow = _under("scalar", kmeans, data, k, **knobs)
            assert np.array_equal(fast.labels, slow.labels)
            assert fast.centroids.tobytes() == slow.centroids.tobytes()
            assert fast.inertia == slow.inertia
            assert fast.inertia_history == slow.inertia_history


class TestWorkTallies:
    @staticmethod
    def _blobs():
        rng = np.random.default_rng(7)
        centers = rng.random((4, 6)) * 10
        return np.vstack([rng.normal(c, 0.3, size=(40, 6)) for c in centers])

    def test_iterations_equal_and_vectorized_evaluates_fewer(self):
        data = self._blobs()
        fast = _under("vectorized", cluster_with_bic, data, kmax=8, seed=3,
                      n_seeds=2)
        slow = _under("scalar", cluster_with_bic, data, kmax=8, seed=3,
                      n_seeds=2)
        assert fast.iterations == slow.iterations
        assert fast.iterations >= len(fast.scores) * 2
        assert 0 < fast.distance_evals < slow.distance_evals
        # The tallies ride along; callers still unpack the pair.
        result, scores = fast
        assert result is fast.result and scores is fast.scores

    def test_one_seeding_pass_per_attempt(self, monkeypatch):
        # The package re-exports ``kmeans`` under the module's name.
        kmeans_mod = importlib.import_module("repro.analysis.kmeans")
        seen = []
        seeding = kmeans_mod._kmeanspp_init

        def spy_seeding(data, k, rng, backend):
            seen.append((k, backend))
            return seeding(data, k, rng, backend)

        monkeypatch.setattr(kmeans_mod, "_kmeanspp_init", spy_seeding)
        data = self._blobs()
        kmeans_sweep(data, [5, 2, 8, 2], n_seeds=3)
        assert seen == [(8, "vectorized")] * 3
        seen.clear()
        _under("scalar", kmeans_sweep, data, [5, 2, 8, 2], n_seeds=3)
        assert seen == [(k, "scalar") for k in (2, 5, 8) for _ in range(3)]

    def test_single_centre_reuses_seeding_and_skips_refresh(self):
        # k = 1 converges in two iterations: the second update returns
        # the same centroid.  The vectorized path evaluates n distances to
        # seed (the first assignment) and n to re-check the second; the
        # scalar twin seeds, then assigns twice and refreshes.
        data = np.random.default_rng(7).random((40, 3))
        fast = kmeans_sweep(data, [1], n_seeds=1)
        slow = _under("scalar", kmeans_sweep, data, [1], n_seeds=1)
        assert fast.iterations == slow.iterations == 2
        assert fast.distance_evals == 2 * 40
        assert slow.distance_evals == 40 + 3 * 40

    def test_planning_sites_book_the_tallies(self, small_trace,
                                             test_sampling):
        obs = ObsContext()
        context = PlanContext(small_trace, test_sampling, "gzip", obs=obs)
        for method in ("simpoint", "coasts"):
            context.plan(get_sampler(method))
        booked = {
            (name, dict(labels)["method"]): metric.value
            for name, labels, metric in obs.metrics.samples()
            if name in (KMEANS_RUNS, KMEANS_ITERATIONS, DISTANCE_EVALS)
        }
        for method in ("simpoint", "coasts"):
            runs = booked[(KMEANS_RUNS, method)]
            # Every (k, seed) run makes at least one Lloyd iteration.
            assert booked[(KMEANS_ITERATIONS, method)] >= runs > 0
            assert booked[(DISTANCE_EVALS, method)] > 0


class TestNonFiniteRejected:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [1, 3])
    def test_kmeans_rejects_non_finite(self, backend, bad, k):
        data = np.random.default_rng(0).random((20, 3))
        data[5, 1] = bad
        with pytest.raises(ClusteringError, match="finite"):
            _under(backend, kmeans, data, k, n_seeds=2)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bic_sweep_rejects_non_finite(self, backend):
        data = np.random.default_rng(1).random((20, 3))
        data[0, 0] = np.nan
        with pytest.raises(ClusteringError, match="finite"):
            _under(backend, cluster_with_bic, data, kmax=4, n_seeds=1)
