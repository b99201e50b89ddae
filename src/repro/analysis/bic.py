"""Bayesian Information Criterion model selection for k-means.

SimPoint scores each candidate k with the BIC of a spherical-Gaussian
mixture fitted by the clustering (the X-means formulation of Pelleg &
Moore), then picks the *smallest* k whose score reaches a threshold of the
observed score range — 90% by default, as in the SimPoint release.

The per-cluster log-likelihood terms are evaluated batched on the
``vectorized`` backend and looped on the ``scalar`` one; the expressions
are written identically in both, and both sum the term array with
``np.sum``, so the scores are bit-identical (:mod:`repro.backend`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, Sequence

import numpy as np

from ..backend import get_backend
from ..errors import ClusteringError
from .kmeans import KMeansResult, kmeans_sweep

#: Floor on the fitted variance, guarding against degenerate clusterings.
_VARIANCE_FLOOR = 1e-12


def bic_score(data: np.ndarray, result: KMeansResult) -> float:
    """BIC of *result* as a spherical-Gaussian mixture over *data*."""
    data = np.asarray(data, dtype=np.float64)
    n, d = data.shape
    k = result.k
    if n == 0:
        raise ClusteringError("BIC of an empty data set")
    if n <= k:
        # A cluster per point: perfect fit, maximally penalised.
        return -math.inf

    variance = max(result.inertia / (d * (n - k)), _VARIANCE_FLOOR)
    log_norm = np.log(2.0 * np.pi * variance)
    sizes = result.cluster_sizes()
    if get_backend() == "scalar":
        terms = []
        for size in sizes:
            if size <= 0:
                continue
            n_j = np.float64(size)
            terms.append(
                n_j * np.log(n_j / n) - n_j * d / 2.0 * log_norm
                - (n_j - 1.0) * d / 2.0
            )
        log_likelihood = float(np.sum(np.array(terms, dtype=np.float64)))
    else:
        n_j = sizes[sizes > 0].astype(np.float64)
        terms = (
            n_j * np.log(n_j / n) - n_j * d / 2.0 * log_norm
            - (n_j - 1.0) * d / 2.0
        )
        log_likelihood = float(np.sum(terms))
    n_parameters = k * (d + 1)
    return log_likelihood - n_parameters / 2.0 * math.log(n)


def select_k(scores: Dict[int, float], threshold: float = 0.9) -> int:
    """Smallest k whose BIC reaches *threshold* of the score range."""
    if not scores:
        raise ClusteringError("no BIC scores to select from")
    if not 0.0 < threshold <= 1.0:
        raise ClusteringError("threshold must be in (0, 1]")
    finite = {k: s for k, s in scores.items() if math.isfinite(s)}
    if not finite:
        return min(scores)
    low = min(finite.values())
    high = max(finite.values())
    # Clamp: low + threshold*(high-low) can round above high when the
    # range is large, leaving no eligible k even at threshold == 1.0.
    cutoff = min(low + threshold * (high - low), high)
    eligible = [k for k, s in finite.items() if s >= cutoff]
    return min(eligible)


@dataclass(frozen=True)
class BicSweep:
    """A BIC sweep's chosen clustering, its scores and its work tallies.

    Unpacks as ``(result, scores)``; ``iterations`` and
    ``distance_evals`` are the sweep's exact work counts
    (:class:`~repro.analysis.kmeans.KMeansSweep`).
    """

    result: KMeansResult
    scores: Dict[int, float]
    iterations: int
    distance_evals: int

    def __iter__(self) -> Iterator:
        return iter((self.result, self.scores))


def cluster_with_bic(
    data: np.ndarray,
    kmax: int,
    seed: int = 0,
    n_seeds: int = 5,
    threshold: float = 0.9,
    ks: Sequence[int] | None = None,
) -> BicSweep:
    """Cluster for k = 1..kmax and return the BIC-selected clustering.

    Returns ``(best_result, scores)`` where *scores* maps each tried k to
    its BIC.  ``ks`` overrides the candidate list (ablations).  All
    candidates run as one :func:`~repro.analysis.kmeans.kmeans_sweep`.
    """
    data = np.asarray(data, dtype=np.float64)
    if kmax <= 0:
        raise ClusteringError("kmax must be positive")
    candidates = list(ks) if ks is not None else list(range(1, kmax + 1))
    candidates = [k for k in candidates if k >= 1]
    if not candidates:
        raise ClusteringError("no candidate k values")

    sweep = kmeans_sweep(data, candidates, seed=seed, n_seeds=n_seeds)
    scores = {
        k: bic_score(data, result) for k, result in sweep.results.items()
    }
    chosen = select_k(scores, threshold=threshold)
    return BicSweep(
        result=sweep.results[chosen],
        scores=scores,
        iterations=sweep.iterations,
        distance_evals=sweep.distance_evals,
    )
