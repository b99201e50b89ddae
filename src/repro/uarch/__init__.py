"""Microarchitecture component models."""

from .branch import (
    BimodalPredictor,
    CombinedPredictor,
    GSharePredictor,
    advance_loop_branch,
    exit_loop_branch,
    make_predictor,
    stationary_mispredict_rate,
)
from .cache import Cache
from .hierarchy import MemoryHierarchy
from .occupancy import DataHierarchyModel, OccupancyCache
from .scheduler import BlockScheduler, BlockTiming, effective_mlp

__all__ = [
    "BimodalPredictor",
    "BlockScheduler",
    "BlockTiming",
    "Cache",
    "CombinedPredictor",
    "GSharePredictor",
    "DataHierarchyModel",
    "MemoryHierarchy",
    "OccupancyCache",
    "advance_loop_branch",
    "effective_mlp",
    "exit_loop_branch",
    "make_predictor",
    "stationary_mispredict_rate",
]
