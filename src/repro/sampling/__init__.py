"""Sampling methods: SimPoint, EarlySP, COASTS and the multi-level framework."""

from .coasts import BoundaryInfo, Coasts
from .cost import (
    SimulationCost,
    full_detail_cost,
    plan_cost,
    speedup,
    speedup_over_full,
)
from .early import EarlySimPoint
from .estimate import PlanEvaluation, estimate_plan, evaluate_plan
from .multilevel import MultiLevelSampler
from .points import SamplingPlan, SimulationPoint
from .ranked_set import RankedSetSampler
from .simpoint import DEFAULT_MAX_CLUSTER_SAMPLES, SimPoint
from .stratified import StratifiedSampler

__all__ = [
    "BoundaryInfo",
    "Coasts",
    "DEFAULT_MAX_CLUSTER_SAMPLES",
    "EarlySimPoint",
    "MultiLevelSampler",
    "PlanEvaluation",
    "RankedSetSampler",
    "SamplingPlan",
    "SimPoint",
    "StratifiedSampler",
    "SimulationCost",
    "SimulationPoint",
    "estimate_plan",
    "evaluate_plan",
    "full_detail_cost",
    "plan_cost",
    "speedup",
    "speedup_over_full",
]
