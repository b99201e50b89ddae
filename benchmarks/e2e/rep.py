"""One rep of one workload, in a fresh interpreter started by ``run.py``.

    python rep.py --workload NAME --seed N --spawned T --result FILE
                  [--traced] [--spans]

The working directory is the rep's private scratch directory, which holds
the result cache and the suite journal.  The rep runs the workload through
``ExperimentRunner.run_suite`` exactly as ``repro suite`` does (default
journal next to a private cache) and writes one JSON object to
``--result``: the set-up and wall times, peak RSS, the results digest,
accuracy, the program's own counters and, with ``--traced``, the per-layer
metrics (and, with ``--spans``, the spans themselves).

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this interpreter; on Linux that clock is shared by every process, so
``setup_s`` covers interpreter start, ``import repro``, set resolution and
runner construction (plus the cache fill of a warm-rerun workload).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def results_digest(payloads) -> str:
    """sha256 of the sorted-key JSON of every ``BenchmarkRun.to_dict()``."""
    text = json.dumps(list(payloads), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child,
    in MiB (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def accuracy(runs) -> dict:
    """Mean and worst |CPI deviation| in %, and the geomean modelled
    speedup over full detailed simulation, over (run, method) pairs."""
    devs, logs = [], []
    for run in runs:
        for method, result in run.methods.items():
            devs.append(100.0 * abs(result.deviation.cpi))
            logs.append(math.log(run.speedup_over_full(method)))
    return {
        "cpi_dev_mean_pct": sum(devs) / len(devs),
        "cpi_dev_max_pct": max(devs),
        "modelled_speedup_geomean": math.exp(sum(logs) / len(logs)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    import repro
    from repro import obs
    from repro.config import CONFIG_A
    from repro.harness.cache import ResultCache
    from repro.harness.runner import ExperimentRunner
    from repro.obs.manifest import host_fingerprint
    from repro.workloads.registry import benchmark_names
    from repro.workloads.sets import resolve

    COUNTERS = {
        "detailed_insts": obs.DETAILED_INSTRUCTIONS,
        "detailed_calls": obs.DETAILED_CALLS,
        "cache_hits": obs.CACHE_HITS,
        "cache_misses": obs.CACHE_MISSES,
        "shm_fallbacks": obs.TRACE_SHM_FALLBACKS,
        "retries": obs.RUN_RETRIES,
    }
    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"error: imported repro from {source}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    expression = workload.expression(args.seed)
    names = (list(resolve(expression)) if expression
             else benchmark_names(quick=True))
    cache_dir = Path.cwd() / "cache"

    def new_runner() -> ExperimentRunner:
        return ExperimentRunner(
            cache=ResultCache(cache_dir),
            workload_scale=workload.scale,
            methods=workload.methods,
        )

    fill_digest = None
    fill_failed = 0
    if workload.reruns:
        fill = new_runner().run_suite(
            CONFIG_A, names=names, jobs=workload.fill_jobs)
        fill_digest = results_digest(run.to_dict() for run in fill)
        fill_failed = len(fill.failures)
    recorder = None
    if args.traced:
        from layers import Recorder

        recorder = Recorder(workload.name)
        recorder.install()
    # The traced run is serial: the wrappers cannot see pool workers.
    jobs = 1 if args.traced else workload.jobs
    ready = None if workload.reruns else new_runner()
    setup_s = time.monotonic() - args.spawned

    # Each pass (one cold suite, or one of the warm reruns) is timed on its
    # own; its bookkeeping below is not, and nothing of it outlives the
    # next pass, so later reruns do not pay for the earlier ones' heap.
    wall_s = 0.0
    digests, failed = set(), 0
    counters = dict.fromkeys(COUNTERS, 0.0)
    for _ in range(workload.reruns or 1):
        outcome = payloads = None
        began = time.perf_counter()
        runner = ready if ready is not None else new_runner()
        outcome = runner.run_suite(CONFIG_A, names=names, jobs=jobs)
        wall_s += time.perf_counter() - began
        ready = None
        payloads = [run.to_dict() for run in outcome]
        digests.add(results_digest(payloads))
        failed += len(outcome.failures)
        for key, name in COUNTERS.items():
            counters[key] += runner.obs.metrics.value(name)
    if recorder is not None:
        recorder.restore()

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": args.traced,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": len(names) * (workload.reruns or 1),
        "failed": failed,
        "fill_failed": fill_failed,
        "digests": sorted(digests),
        "fill_digest": fill_digest,
        "counters": counters,
        "host": host_fingerprint(),
    }
    if not outcome.runs:
        print("error: no run completed", file=sys.stderr)
        return 1
    result.update(accuracy(outcome.runs))
    if recorder is not None:
        from layers import layer_metrics, purpose_split

        result["layers"] = layer_metrics(recorder.spans, payloads)
        result["purposes"] = purpose_split(recorder.spans)
        if args.spans:
            result["spans"] = recorder.spans
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
