"""Distance kernels shared by clustering and representative selection.

Each kernel has a batched (``vectorized``) and a loop (``scalar``)
implementation selected via :mod:`repro.backend`; the pairs are
bit-identical (DESIGN decision 12 says why), which is what the
differential tests in ``tests/test_vectorized.py`` pin.

The batched kernels avoid BLAS on purpose: squared distances come from
``((x - c) ** 2).sum(axis=-1)`` — an innermost-axis pairwise reduction
that rounds exactly like the scalar per-pair ``np.sum`` — instead of the
classic ``||x||^2 - 2 x.c + ||c||^2`` expansion, whose ``x @ c.T`` term
is not reproducible element-for-element outside the BLAS call.  Large
batches are processed in row blocks to bound the broadcast temporary;
blocking never changes a per-row reduction, so results are independent
of the block size.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..backend import get_backend
from ..errors import ClusteringError

#: Upper bound on the (rows x centers x dims) broadcast temporary, in
#: float64 elements (~32 MiB).  Purely a memory knob: results are
#: identical for any positive value.
_BLOCK_ELEMENTS = 4 * 1024 * 1024


def _check_pair(data: np.ndarray, centers: np.ndarray) -> None:
    if data.ndim != 2 or centers.ndim != 2 or data.shape[1] != centers.shape[1]:
        raise ClusteringError("dimension mismatch in distance kernel")


def _row_block(n_centers: int, n_dims: int) -> int:
    return max(1, _BLOCK_ELEMENTS // max(1, n_centers * n_dims))


def squared_distances(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances: (n, d) x (k, d) -> (n, k)."""
    data = np.asarray(data, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    _check_pair(data, centers)
    n, k = len(data), len(centers)
    out = np.empty((n, k), dtype=np.float64)
    if get_backend() == "scalar":
        for i in range(n):
            for j in range(k):
                out[i, j] = np.sum((data[i] - centers[j]) ** 2)
        return out
    block = _row_block(k, data.shape[1])
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        delta = data[lo:hi, None, :] - centers[None, :, :]
        out[lo:hi] = (delta ** 2).sum(axis=2)
    return out


def assign_points(
    data: np.ndarray, centers: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused distance/assignment: nearest center per point.

    Returns ``(labels, distances)`` where ``labels[i]`` is the index of
    the closest center (first on ties, like ``np.argmin``) and
    ``distances[i]`` the squared distance to it.  This is the inner
    kernel of every Lloyd iteration; fusing the argmin with the distance
    computation avoids materialising the full (n, k) matrix per caller.
    """
    data = np.asarray(data, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    _check_pair(data, centers)
    n, k = len(data), len(centers)
    labels = np.empty(n, dtype=np.int64)
    best = np.empty(n, dtype=np.float64)
    if get_backend() == "scalar":
        row = np.empty(k, dtype=np.float64)
        for i in range(n):
            for j in range(k):
                row[j] = np.sum((data[i] - centers[j]) ** 2)
            label = int(np.argmin(row))
            labels[i] = label
            best[i] = row[label]
        return labels, best
    block = _row_block(k, data.shape[1])
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        delta = data[lo:hi, None, :] - centers[None, :, :]
        distances = (delta ** 2).sum(axis=2)
        chunk_labels = np.argmin(distances, axis=1)
        labels[lo:hi] = chunk_labels
        best[lo:hi] = distances[np.arange(hi - lo), chunk_labels]
    return labels, best


def nearest_to_centroid(
    data: np.ndarray,
    labels: np.ndarray,
    centroids: np.ndarray,
) -> np.ndarray:
    """Index of the member closest to each centroid (SimPoint's pick).

    Returns an array of length k; entries for empty clusters are -1.
    """
    data = np.asarray(data, dtype=np.float64)
    labels = np.asarray(labels)
    k = len(centroids)
    picks = np.full(k, -1, dtype=np.int64)
    distances = squared_distances(data, centroids)
    if get_backend() == "scalar":
        for j in range(k):
            members = np.flatnonzero(labels == j)
            if len(members):
                picks[j] = members[np.argmin(distances[members, j])]
        return picks
    # Mask out non-members, then one argmin per column.  np.argmin takes
    # the first minimum, i.e. the lowest member index — the same
    # tie-break as the scalar per-member scan.
    member = labels[:, None] == np.arange(k)[None, :]
    masked = np.where(member, distances, np.inf)
    candidates = np.argmin(masked, axis=0)
    occupied = member.any(axis=0)
    picks[occupied] = candidates[occupied]
    return picks


def earliest_member(labels: np.ndarray, k: int) -> np.ndarray:
    """Index of the earliest member of each cluster (COASTS's pick)."""
    labels = np.asarray(labels)
    picks = np.full(k, -1, dtype=np.int64)
    if get_backend() == "scalar":
        for j in range(k):
            members = np.flatnonzero(labels == j)
            if len(members):
                picks[j] = members[0]
        return picks
    if len(labels):
        valid = (labels >= 0) & (labels < k)
        first = np.full(k, len(labels), dtype=np.int64)
        np.minimum.at(first, labels[valid], np.flatnonzero(valid))
        found = first < len(labels)
        picks[found] = first[found]
    return picks
