"""Built-in sampler registrations.

Registration order is reporting order: the paper's four methods first
(Table II / Table III order), then the related-work samplers.  Importing
this module (which :mod:`repro.samplers` does) is what populates the
registry, so any process that can run the harness — driver, pool worker,
dispatched worker — sees the same method set.
"""

from __future__ import annotations

from ..sampling.coasts import Coasts
from ..sampling.early import EarlySimPoint
from ..sampling.multilevel import MultiLevelSampler
from ..sampling.ranked_set import RankedSetSampler
from ..sampling.simpoint import SimPoint
from ..sampling.stratified import StratifiedSampler
from .registry import PlanContext, get_sampler, register_sampler


@register_sampler(
    "simpoint",
    "fixed-length SimPoint: BBV k-means, centroid-nearest points",
    requires=("fine",),
    config_knobs=("fine_interval_size", "fine_kmax", "projection_dim",
                  "kmeans_seeds", "bic_threshold", "random_seed"),
)
def _build_simpoint(ctx: PlanContext):
    sampler = SimPoint(ctx.sampling, obs=ctx.obs)
    plan = sampler.sample(
        ctx.fine_profile(), benchmark=ctx.benchmark, context=ctx
    )
    return plan, sampler.last_diagnostics


@register_sampler(
    "early_sp",
    "SimPoint with early-point selection (EarlySP, PACT 2003)",
    requires=("fine",),
    config_knobs=("fine_interval_size", "fine_kmax", "projection_dim",
                  "kmeans_seeds", "bic_threshold", "random_seed"),
)
def _build_early_sp(ctx: PlanContext):
    sampler = EarlySimPoint(ctx.sampling, obs=ctx.obs)
    plan = sampler.sample(
        ctx.fine_profile(), benchmark=ctx.benchmark, context=ctx
    )
    return plan, sampler.last_diagnostics


@register_sampler(
    "coasts",
    "COASTS: coarse structure-bounded intervals, earliest-instance points",
    requires=("trace", "coarse"),
    config_knobs=("coarse_kmax", "min_structure_coverage",
                  "signature_segments", "projection_dim", "kmeans_seeds",
                  "bic_threshold", "random_seed"),
)
def _build_coasts(ctx: PlanContext):
    sampler = Coasts(ctx.sampling, obs=ctx.obs)
    plan = sampler.sample(ctx.trace, benchmark=ctx.benchmark)
    return plan, sampler.last_diagnostics


@register_sampler(
    "multilevel",
    "COASTS + in-point fine-grained SimPoint re-sampling (the paper)",
    requires=("trace", "coarse"),
    config_knobs=("coarse_kmax", "resample_threshold", "fine_interval_size",
                  "fine_kmax", "projection_dim", "kmeans_seeds",
                  "bic_threshold", "random_seed"),
)
def _build_multilevel(ctx: PlanContext):
    coarse_plan, coarse_diag = ctx.plan(get_sampler("coasts"))
    sampler = MultiLevelSampler(ctx.sampling, obs=ctx.obs)
    plan = sampler.sample(
        ctx.trace, benchmark=ctx.benchmark,
        coarse_plan=coarse_plan, coarse_diag=coarse_diag,
    )
    return plan, sampler.last_diagnostics


@register_sampler(
    "stratified",
    "two-phase stratified sampling: BBV strata, Neyman budget allocation",
    requires=("fine",),
    config_knobs=("fine_interval_size", "fine_kmax", "stratified_budget",
                  "projection_dim", "kmeans_seeds", "bic_threshold",
                  "random_seed"),
)
def _build_stratified(ctx: PlanContext):
    sampler = StratifiedSampler(ctx.sampling, obs=ctx.obs)
    plan = sampler.sample(
        ctx.fine_profile(), benchmark=ctx.benchmark, context=ctx
    )
    return plan, sampler.last_diagnostics


@register_sampler(
    "ranked_set",
    "ranked-set sampling with repeated subsampling over a BBV-PC proxy",
    requires=("fine",),
    config_knobs=("fine_interval_size", "ranked_set_size",
                  "ranked_set_cycles", "random_seed"),
)
def _build_ranked_set(ctx: PlanContext):
    sampler = RankedSetSampler(ctx.sampling, obs=ctx.obs)
    plan = sampler.sample(ctx.fine_profile(), benchmark=ctx.benchmark)
    return plan, sampler.last_diagnostics
