"""Phase-analysis primitives: BBVs, projection, PCA, k-means, BIC.

The hot kernels come in bit-identical ``vectorized`` / ``scalar``
implementations selected through :mod:`repro.backend`; DESIGN decision
12 gives the rounding argument and ``repro bench`` the measured
speedups.
"""

from .bbv import concat_signatures, normalize_rows, project_bbvs
from .bic import bic_score, cluster_with_bic, select_k
from .distance import (
    assign_points,
    earliest_member,
    nearest_to_centroid,
    squared_distances,
)
from .kmeans import KMeansResult, kmeans, kmeans_sweep
from .metrics import (
    METRIC_KINDS,
    loop_frequency_matrix,
    metric_matrix,
    working_set_matrix,
)
from .pca import PCA, first_component
from .projection import RandomProjection

__all__ = [
    "KMeansResult",
    "METRIC_KINDS",
    "PCA",
    "RandomProjection",
    "assign_points",
    "bic_score",
    "cluster_with_bic",
    "concat_signatures",
    "earliest_member",
    "first_component",
    "kmeans",
    "kmeans_sweep",
    "loop_frequency_matrix",
    "metric_matrix",
    "nearest_to_centroid",
    "normalize_rows",
    "project_bbvs",
    "select_k",
    "squared_distances",
    "working_set_matrix",
]
