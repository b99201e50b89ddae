"""Every registered sampler reproduces a committed bit-exact plan snapshot.

``tests/data/plan_snapshot.json`` holds, for each quick-set benchmark at
scale 0.05 under the default sampling config, and for gzip at scale 0.04
under :data:`RESAMPLING`, whose coarse points multilevel re-samples:

* every registered method's plan: its fields and its points (children
  included), weights as ``float.hex``;
* the method's :meth:`MethodDiag.to_dict` and its per-phase member
  bounds;
* the rows of :func:`ablation_representative_policy`.

Plan assembly is shared by the samplers and the ablation, so this pins
all of them at once.  The pipeline is deterministic and both kernel
backends claim bit-identity, so the test admits no tolerance (run it
under ``REPRO_BACKEND=scalar`` too).  Regenerate the file only for a
deliberate change of a sampler::

    PYTHONPATH=src python tests/test_plan_snapshot.py > tests/data/plan_snapshot.json
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, Tuple

import pytest

from repro.config import DEFAULT_SAMPLING, SamplingConfig
from repro.harness import ablation_representative_policy
from repro.harness.cache import ResultCache
from repro.harness.runner import ExperimentRunner
from repro.samplers import get_sampler, registered_methods
from repro.sampling.points import SimulationPoint
from repro.workloads import QUICK_SUITE_NAMES

SNAPSHOT = Path(__file__).parent / "data" / "plan_snapshot.json"
SCALE = 0.05
#: The golden-accuracy config: multilevel re-samples three of gzip's
#: coarse points at scale 0.04, so the in-point SimPoint path runs.
RESAMPLING = SamplingConfig(
    fine_interval_size=1000,
    fine_kmax=10,
    coarse_kmax=3,
    resample_threshold=3000,
    kmeans_seeds=2,
)


def exact(value):
    """*value* with every float replaced by its exact hex form."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(key): exact(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [exact(item) for item in value]
    return value


def encode_point(point: SimulationPoint) -> Dict[str, object]:
    return {
        "start": point.start,
        "end": point.end,
        "weight": point.weight.hex(),
        "phase": point.phase,
        "interval_index": point.interval_index,
        "children": [encode_point(child) for child in point.children],
    }


def cases() -> Iterator[Tuple[str, object]]:
    """Every snapshot case, in order, as ``(name, encoded value)``."""
    yield from runner_cases(DEFAULT_SAMPLING, SCALE, QUICK_SUITE_NAMES, "")
    yield from runner_cases(RESAMPLING, 0.04, ("gzip",), "resampling/")


def runner_cases(
    sampling: SamplingConfig,
    scale: float,
    benchmarks: Tuple[str, ...],
    prefix: str,
) -> Iterator[Tuple[str, object]]:
    """The cases of *benchmarks* under one sampling config and scale."""
    runner = ExperimentRunner(
        sampling=sampling,
        cache=ResultCache(enabled=False),
        workload_scale=scale,
    )
    for benchmark in benchmarks:
        context = runner.context(benchmark)
        for method in registered_methods():
            plan, diag = context.plan(get_sampler(method))
            yield f"{prefix}plan/{benchmark}/{method}", {
                "method": plan.method,
                "benchmark": plan.benchmark,
                "total_instructions": plan.total_instructions,
                "n_clusters": plan.n_clusters,
                "origin": plan.origin,
                "points": [encode_point(point) for point in plan.points],
            }
            yield f"{prefix}diag/{benchmark}/{method}", (
                None if diag is None else {
                    "diag": exact(diag.to_dict()),
                    "members": exact(diag.members),
                }
            )
        rows = ablation_representative_policy(runner, benchmark)
        yield f"{prefix}ablation/{benchmark}/representative_policy", [
            {"setting": row.setting, "values": exact(row.values)}
            for row in rows
        ]


def render(encoded: Dict[str, object]) -> str:
    """The snapshot file's text: one case per line."""
    lines = [f"  {json.dumps(name)}: {json.dumps(value, sort_keys=True)}"
             for name, value in encoded.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.fixture(scope="module")
def snapshot():
    return json.loads(SNAPSHOT.read_text())


def test_plans_reproduce_snapshot(snapshot):
    # One JSON round trip turns tuples into lists, as in the file.
    built = json.loads(json.dumps(dict(cases())))
    assert list(built) == list(snapshot)
    mismatched = [name for name in built if built[name] != snapshot[name]]
    assert not mismatched, (
        f"{len(mismatched)} cases differ from the snapshot, first "
        f"{mismatched[0]}: {built[mismatched[0]]} != "
        f"{snapshot[mismatched[0]]}"
    )


if __name__ == "__main__":
    print(render(dict(cases())), end="")
