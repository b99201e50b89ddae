"""Random projection of basic-block vectors.

SimPoint reduces raw BBVs (one dimension per static basic block) to 15
dimensions with a random linear projection before clustering; the projection
preserves relative distances well (Johnson-Lindenstrauss) while making
k-means cheap.  We draw the projection matrix uniformly from [0, 1) with a
fixed seed, as the SimPoint release does.

The batched kernel computes each output dimension as a row-batched
multiply + innermost-axis sum rather than one BLAS ``data @ matrix``:
the pairwise row reduction rounds exactly like the scalar per-element
``np.sum(data[i] * column)``, so the ``vectorized`` and ``scalar``
backends (:mod:`repro.backend`) are bit-identical — a property
a BLAS product cannot provide (its blocked dot products round
differently) and which the end-to-end differential tests rely on.
"""

from __future__ import annotations

import numpy as np

from ..backend import get_backend
from ..errors import ClusteringError


class RandomProjection:
    """A fixed random linear map from ``n_features`` to ``dim`` dimensions."""

    def __init__(self, n_features: int, dim: int, seed: int = 0) -> None:
        if n_features <= 0 or dim <= 0:
            raise ClusteringError("projection dimensions must be positive")
        self.n_features = n_features
        self.dim = dim
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.matrix = rng.random((n_features, dim))

    def project(self, data: np.ndarray) -> np.ndarray:
        """Project rows of *data* (n, n_features) to (n, dim)."""
        data = np.asarray(data, dtype=np.float64)
        squeeze = data.ndim == 1
        if squeeze:
            data = data[None, :]
        if data.shape[1] != self.n_features:
            raise ClusteringError(
                f"projection expects {self.n_features} features, got "
                f"{data.shape[1]}"
            )
        out = np.empty((len(data), self.dim), dtype=np.float64)
        if get_backend() == "scalar":
            for i in range(len(data)):
                for j in range(self.dim):
                    out[i, j] = np.sum(data[i] * self.matrix[:, j])
        else:
            # One row-batched pass per output dimension; each row's
            # product-sum reduces over the contiguous feature axis.
            for j in range(self.dim):
                out[:, j] = (data * self.matrix[:, j]).sum(axis=1)
        return out[0] if squeeze else out
