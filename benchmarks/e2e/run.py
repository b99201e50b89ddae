"""End-to-end campaign benchmark: timed runs, ledgers and comparison.

One timed run of one workload (what ``BENCHMARK.json``'s command runs)::

    python3 benchmarks/e2e/run.py --workload plan-heavy --seed 0 \\
        --seconds 15 --trace 0

repeats reps of the workload until ``--seconds`` have passed (at least
three), then prints one JSON line: ``correct``, ``attempted``, ``failed``
and the median of every end-to-end metric (``--trace 1``: the per-layer
metrics of traced reps, alternated with untraced ones).

A ledger of every workload, written with provenance and every rep's raw
values::

    python3 benchmarks/e2e/run.py --out A.json [--reps 5] [--seed 0] \\
        [--trace-out spans.jsonl]

runs the reps round-robin across workloads, then one traced rep per
workload.  Two ledgers compare metric by metric under the bounds of
``BENCHMARK.json``::

    python3 benchmarks/e2e/run.py compare A.json B.json

Every rep runs in a fresh interpreter (``rep.py``) inside a private
scratch directory under ``.e2e_scratch/`` at the repository root, with
every ``REPRO_*`` variable scrubbed from its environment; the scratch
directory is removed before ``run.py`` exits.  Any failed correctness
check exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from layers import METHODS
from stats import (
    IMPROVED, PASS, REGRESSED, UNRESOLVED, classify, median,
    quartile_spread,
)
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCRATCH = ROOT / ".e2e_scratch"

#: Reps per timed run at least, whatever ``--seconds`` says: the set-up
#: time is reported as the median of several set-ups.
MIN_REPS = 3
#: A timed run must end within 180 s; reps get what is left of this.
RUN_BUDGET_S = 170.0
#: Per-rep limit of a ledger run.
LEDGER_REP_TIMEOUT_S = 900.0
#: ``setup_s`` regresses only when worse by more than its relative bound
#: and by more than this many seconds.
SETUP_FLOOR_S = 0.15
#: Per-layer counts that must repeat exactly between two ledgers.
EXACT_LAYERS = (
    "analysis.cluster_calls", "detailed.calls", "detailed.insts.baseline",
    "detailed.insts.points", "detailed.insts.diagnostics",
    "harness.run_count",
) + tuple(f"samplers.detail_insts.{method}" for method in METHODS)
CHANGED = "CHANGED"


class BenchError(Exception):
    """A rep failed to run, or the checkout cannot be benchmarked."""


def load_spec() -> dict:
    """``BENCHMARK.json`` at the repository root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Reps
# ----------------------------------------------------------------------
class Reps:
    """Runs reps in fresh interpreters under one scratch directory."""

    def __init__(self) -> None:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program source at {ROOT / 'src' / 'repro'}")
        SCRATCH.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix=f"{os.getpid()}.",
                                          dir=SCRATCH))
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def build(self) -> None:
        """Byte-compile the program (into its ``__pycache__`` directories,
        as any first import would), so no rep's set-up pays for it."""
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"),
             str(HERE)],
            env=self.env, check=True, stdout=sys.stderr,
        )

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run's scratch is still there

    def run(self, workload: str, seed: int, traced: bool = False,
            spans: bool = False, timeout: float = LEDGER_REP_TIMEOUT_S
            ) -> dict:
        """One rep; returns the JSON object ``rep.py`` wrote."""
        scratch = Path(tempfile.mkdtemp(prefix=f"{workload}.",
                                        dir=self.root))
        (scratch / "tmp").mkdir()
        env = dict(self.env, TMPDIR=str(scratch / "tmp"),
                   REPRO_HISTORY_DIR=str(scratch / "history"))
        result = scratch / "result.json"
        command = [sys.executable, str(HERE / "rep.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--result", str(result)]
        command += ["--traced"] * traced + ["--spans"] * spans
        spawned = time.monotonic()
        process = subprocess.Popen(
            command + ["--spawned", repr(spawned)], cwd=scratch, env=env,
            stdout=sys.stderr, start_new_session=True,
        )
        try:
            code = process.wait(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} rep exceeded {timeout:.0f} s")
        finally:
            # The rep's process group holds its pool workers too.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
        if code != 0:
            raise BenchError(f"{workload} rep exited with status {code}")
        data = json.loads(result.read_text())
        shutil.rmtree(scratch)
        return data


# ----------------------------------------------------------------------
# Correctness gate and derived metrics
# ----------------------------------------------------------------------
def gate(workload: str, untraced: List[dict], traced: List[dict]
         ) -> List[str]:
    """Every failed correctness check of one workload's reps."""
    problems = []
    reps = untraced + traced
    for rep in reps:
        kind = "traced" if rep["traced"] else "untraced"
        if rep["failed"] or rep["fill_failed"]:
            problems.append(f"{workload}: {kind} rep had failed runs "
                            f"({rep['failed']} + {rep['fill_failed']} in "
                            f"set-up)")
        if len(rep["digests"]) != 1:
            problems.append(f"{workload}: warm reruns disagree")
    digests = {digest for rep in reps for digest in rep["digests"]}
    if len(digests) != 1:
        problems.append(f"{workload}: results differ between reps "
                        f"({len(digests)} digests; traced reps are serial)")
    if WORKLOADS[workload].reruns:
        for rep in reps:
            counters = rep["counters"]
            if rep["fill_digest"] not in rep["digests"]:
                problems.append(f"{workload}: cache round trip changed "
                                f"results")
            if counters["cache_misses"] or \
                    counters["cache_hits"] != rep["attempted"]:
                problems.append(f"{workload}: cache hit ratio is not 1")
            if counters["detailed_insts"]:
                problems.append(f"{workload}: warm reruns simulated "
                                f"{counters['detailed_insts']:.0f} detailed "
                                f"instructions")
    for rep in traced:
        purposes, counters = rep["purposes"], rep["counters"]
        attributed = (purposes["baseline"] + purposes["points"]
                      + purposes["diagnostics"])
        if attributed != counters["detailed_insts"]:
            problems.append(
                f"{workload}: detailed instructions by purpose sum to "
                f"{attributed}, the program counted "
                f"{counters['detailed_insts']:.0f}")
        if rep["layers"]["detailed.calls"] != counters["detailed_calls"]:
            problems.append(f"{workload}: the tracer missed detailed calls")
    return problems


def derived_layers(workload: str, untraced: List[dict], traced: List[dict]
                   ) -> Dict[str, float]:
    """Per-layer metrics: medians over traced reps, plus those that need
    the untraced reps as well."""
    names = traced[0]["layers"]
    layers = {name: median([rep["layers"][name] for rep in traced])
              for name in names}
    wall = median([rep["wall_s"] for rep in untraced])
    jobs = WORKLOADS[workload].jobs
    layers["harness.parallel_efficiency"] = (
        layers["harness.run_s_sum"] / (jobs * wall))
    layers["bench.trace_overhead_pct"] = 100.0 * (
        median([rep["wall_s"] for rep in traced]) / wall - 1.0)
    # Pool counters come from the untraced reps (the traced run is
    # serial); any nonzero rep shows.
    layers["harness.shm_fallbacks"] = max(
        rep["counters"]["shm_fallbacks"] for rep in untraced)
    layers["harness.retries"] = max(
        rep["counters"]["retries"] for rep in untraced)
    return layers


def end_to_end(spec: dict, reps: List[dict]) -> Dict[str, float]:
    """Median of every end-to-end metric over *reps*."""
    return {metric["name"]: median([rep[metric["name"]] for rep in reps])
            for metric in spec["end_to_end"]}


def report(values: Dict[str, float], metrics: List[dict]) -> dict:
    """``{name: {"value": v, "unit": u}}`` for every metric listed."""
    return {metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in metrics}


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def timed_run(args, spec: dict) -> int:
    """The timed mode: reps of one workload for ``--seconds``."""
    began = time.monotonic()
    reps = Reps()
    try:
        reps.build()
        untraced: List[dict] = []
        traced: List[dict] = []
        while (len(untraced) < (MIN_REPS if not args.trace else 1)
               or time.monotonic() - began < args.seconds):
            left = RUN_BUDGET_S - (time.monotonic() - began)
            untraced.append(reps.run(args.workload, args.seed,
                                     timeout=left))
            if args.trace:
                left = RUN_BUDGET_S - (time.monotonic() - began)
                traced.append(reps.run(
                    args.workload, args.seed, traced=True,
                    spans=bool(args.trace_out), timeout=left))
    finally:
        reps.close()
    if args.trace_out:
        write_spans(args.trace_out, traced)
    problems = gate(args.workload, untraced, traced)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        metrics = report(derived_layers(args.workload, untraced, traced),
                         spec["per_layer"])
    else:
        metrics = report(end_to_end(spec, untraced), spec["end_to_end"])
    all_reps = untraced + traced
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(rep["attempted"] for rep in all_reps),
        "failed": sum(rep["failed"] for rep in all_reps),
        "metrics": metrics,
    }))
    return 1 if problems else 0


def write_spans(path: Path, traced: List[dict]) -> None:
    """Every span of the traced reps, one JSON object per line."""
    with open(path, "w") as handle:
        for rep in traced:
            for span in rep.get("spans", ()):
                handle.write(json.dumps(span) + "\n")


def provenance(args, first_rep: dict) -> dict:
    """Who, where and what code produced a ledger."""

    def git(*command: str) -> Optional[str]:
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *command],
                                  capture_output=True, text=True, check=True)
        except (OSError, subprocess.CalledProcessError):
            return None
        return done.stdout.strip()

    status = git("status", "--porcelain", "--untracked-files=no")
    src_loc = sum(
        1 for path in (ROOT / "src" / "repro").rglob("*.py")
        for line in path.read_text().splitlines() if line.strip()
    )
    return {
        "host": first_rep["host"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_loc": src_loc,
        "seed": args.seed,
        "reps": args.reps,
    }


def ledger_run(args, spec: dict) -> int:
    """Every workload, ``--reps`` untraced reps round-robin, then one
    traced rep each; writes the ledger to ``--out``."""
    names = list(WORKLOADS)
    untraced: Dict[str, List[dict]] = {name: [] for name in names}
    traced: Dict[str, List[dict]] = {}
    reps = Reps()
    try:
        reps.build()
        for index in range(args.reps):
            for name in names:
                print(f"[rep {index + 1}/{args.reps}] {name}",
                      file=sys.stderr)
                untraced[name].append(reps.run(name, args.seed))
        for name in names:
            print(f"[traced] {name}", file=sys.stderr)
            traced[name] = [reps.run(name, args.seed, traced=True,
                                     spans=bool(args.trace_out))]
    finally:
        reps.close()
    if args.trace_out:
        write_spans(args.trace_out,
                    [rep for name in names for rep in traced[name]])

    problems = []
    workloads = {}
    for name in names:
        problems += gate(name, untraced[name], traced[name])
        for rep in traced[name]:
            rep.pop("spans", None)
        workloads[name] = {
            "end_to_end": end_to_end(spec, untraced[name]),
            "per_layer": derived_layers(name, untraced[name], traced[name]),
            "digest": traced[name][0]["digests"][0],
            "reps": untraced[name],
            "traced": traced[name],
        }
    if workloads["campaign-jobs2"]["digest"] != \
            workloads["warm-rerun"]["digest"]:
        problems.append("campaign-jobs2 and warm-rerun results differ "
                        "(parallel vs cache round trip)")
    ledger = {
        "provenance": provenance(args, untraced[names[0]][0]),
        "correct": not problems,
        "problems": problems,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(ledger, indent=1) + "\n")
    print_ledger(spec, ledger)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 1 if problems else 0


def print_ledger(spec: dict, ledger: dict) -> None:
    """Every metric by name and unit, one row per (metric, workload)."""
    rows = [("metric", "workload", "median", "unit", "spread")]
    for metric in spec["end_to_end"]:
        for name, data in ledger["workloads"].items():
            values = [rep[metric["name"]] for rep in data["reps"]]
            rows.append((metric["name"], name,
                         f"{data['end_to_end'][metric['name']]:.6g}",
                         metric["unit"],
                         f"{100 * quartile_spread(values):.1f}%"))
    for metric in spec["per_layer"]:
        for name, data in ledger["workloads"].items():
            rows.append((metric["name"], name,
                         f"{data['per_layer'][metric['name']]:.6g}",
                         metric["unit"], ""))
    print_table(rows)


def print_table(rows) -> None:
    widths = [max(len(str(row[i])) for row in rows)
              for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(str(cell).ljust(width)
                        for cell, width in zip(row, widths)).rstrip())


def compare(base: dict, change: dict, spec: dict) -> int:
    """Classify every (metric, workload) row of two ledgers' workloads."""
    shared = [workload for workload in base if workload in change]
    rows = [("metric", "workload", "base", "change", "delta", "verdict")]
    verdicts = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        for workload in shared:
            before = [rep[name] for rep in base[workload]["reps"]]
            after = [rep[name] for rep in change[workload]["reps"]]
            verdict = classify(
                before, after, metric["bound"], metric["better"],
                floor=SETUP_FLOOR_S if name == "setup_s" else 0.0)
            b, c = median(before), median(after)
            rows.append((name, workload, f"{b:.6g}", f"{c:.6g}",
                         f"{100 * (c - b) / b:+.1f}%" if b else "", verdict))
            verdicts.append(verdict)
    for workload in shared:
        exact = [("results_digest", base[workload]["digest"],
                  change[workload]["digest"])]
        exact += [(name, base[workload]["per_layer"][name],
                   change[workload]["per_layer"][name])
                  for name in EXACT_LAYERS]
        for name, b, c in exact:
            verdict = PASS if b == c else CHANGED
            rows.append((name, workload, str(b)[:16], str(c)[:16], "",
                         verdict))
            verdicts.append(verdict)
    print_table(rows)
    counts = {v: verdicts.count(v)
              for v in (PASS, IMPROVED, UNRESOLVED, REGRESSED, CHANGED)}
    print(", ".join(f"{count} {verdict}" for verdict, count in counts.items()))
    return 1 if counts[REGRESSED] or counts[CHANGED] else 0


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        spec = load_spec()
    except (OSError, ValueError) as error:
        print(f"error: cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base", type=Path)
        parser.add_argument("change", type=Path)
        args = parser.parse_args(argv[1:])
        try:
            ledgers = [json.loads(path.read_text())["workloads"]
                       for path in (args.base, args.change)]
        except (OSError, ValueError, KeyError) as error:
            print(f"error: cannot read ledger: {error}", file=sys.stderr)
            return 2
        return compare(*ledgers, spec)

    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Timed mode: --workload --seed --seconds --trace. "
               "Ledger mode: --out [--reps] [--seed].")
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1 or args.reps < 1:
        parser.error("--seed must be >= 0, --seconds and --reps >= 1")
    if (args.workload is None) == (args.out is None):
        parser.error("give exactly one of --workload and --out")
    try:
        if args.out is not None:
            return ledger_run(args, spec)
        return timed_run(args, spec)
    except (BenchError, subprocess.CalledProcessError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
