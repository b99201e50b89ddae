"""A sampler defined outside the ``repro`` package.

Importing this module registers it, which is how a fresh worker process
learns of it: ``run_suite(jobs=N)`` ships the module name and each worker
imports it before building its runner (see ``tests/test_samplers.py``).
"""

from repro.samplers import register_sampler
from repro.sampling import SamplingPlan, SimulationPoint

NAME = "first_interval_plugin"


@register_sampler(NAME, "first fine interval only", requires=("fine",))
def build_first_interval(ctx):
    profile = ctx.fine_profile()
    start = int(profile.starts[0])
    end = start + int(profile.instructions[0])
    plan = SamplingPlan(
        method=NAME,
        benchmark=ctx.benchmark,
        points=(SimulationPoint(
            start=start, end=end, weight=1.0, phase=0, interval_index=0,
        ),),
        total_instructions=ctx.trace.total_instructions,
        n_clusters=1,
        origin=start,
    )
    return plan, None
