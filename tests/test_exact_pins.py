"""Exact pins of a cold and a warm quick suite, serial and ``--jobs 2``.

A cold ``repro --scale 0.12 suite --quick`` runs once per module in each
mode, in a fresh interpreter with its own cache and history directories
and no inherited ``REPRO_*`` variable, exactly as a user would start it;
the ``--jobs 2`` mode then reruns the same command warm, in the same
cache and history.  Every run writes ``--metrics-out`` and
``--trace-out``.  The read-only commands (``obs report``, ``obs diag``,
``obs diff``, and a ``leaderboard`` served wholly from the warm cache)
run in this process through :func:`repro.cli.main`.

The pinned values are counts of work done and bytes rendered,
deterministic for the traces, so any move is a change of what the
pipeline does, never noise:

* **One walk per run.**  The cache is cold, so each run makes its one
  warmed detailed walk over the whole trace: the detailed-instruction
  counter equals the quick traces' instructions exactly.
* **Walked pieces.**  The walk books 10,632 pieces (8,084 quick-trace
  segments plus the cuts that range bounds add), the same serial and
  ``--jobs 2``.
* **Journal shapes.**  A cold suite journal holds its header plus one
  ``run`` line per quick benchmark; the warm rerun's holds the header
  only (full cache hits are not journaled).
* **Cluster once.**  simpoint, early_sp and stratified share one
  clustering per benchmark, and multilevel refines the memoised COASTS
  plan, so the fine family and coasts each book one sweep per quick
  benchmark.  All four planning counter families read the same serial
  and ``--jobs 2``.
* **Sweep tallies.**  Lloyd iterations 4,481 (simpoint) and 124
  (coasts), distance evaluations 6,687,171 and 12,430, in both modes.
  How a sweep's runs are scheduled must not move either count.
* **Stage seconds.**  Every pipeline stage has positive seconds in
  ``obs report --json``'s ``span_totals``.
* **Diag tables.**  ``obs diag`` renders one error-budget table per
  (quick benchmark, registered method), the same bytes serial and
  ``--jobs 2``.
* **Warm identities.**  The warm rerun's ``repro_diag_total_error`` and
  ``repro_diag_residual`` lines and its ``obs diag`` output equal the
  cold run's byte for byte, and ``obs diff prev last`` passes.
* **Leaderboard ranks.**  The aggregate ranks over the quick set equal
  ``benchmarks/LEADERBOARD_golden.json``.

Run just these pins with::

    PYTHONPATH=src python -m pytest -q tests/test_exact_pins.py
"""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import pytest

from repro.cli import main
from repro.harness.faults import STAGE_ORDER
from repro.samplers import registered_methods
from repro.workloads.registry import benchmark_names, load_trace

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: The scale every pin was recorded at.
PIN_SCALE = 0.12
QUICK = benchmark_names(quick=True)
#: ``repro_detailed_pieces_total`` of one cold quick suite.
WALKED_PIECES = 10632
#: Exact sweep work of one cold quick suite, by (counter, method).
SWEEP_TALLIES = {
    ("repro_kmeans_iterations_total", "simpoint"): 4481,
    ("repro_kmeans_iterations_total", "coasts"): 124,
    ("repro_distance_evals_total", "simpoint"): 6687171,
    ("repro_distance_evals_total", "coasts"): 12430,
}
#: ``repro_diag_total_error`` and ``repro_diag_residual`` sample lines.
DIAG_GAUGE_LINES = 108
#: ``--jobs`` value of each cold mode.
MODES = {"serial": 1, "--jobs 2": 2}
#: The mode whose cache and history the warm rerun reuses.
WARM_BASE = "--jobs 2"


@dataclass(frozen=True)
class SuiteRun:
    """What one quick suite left behind."""

    root: Path
    metrics: str
    trace: Path
    journal: List[str]


def _suite(root: Path, jobs: int, tag: str) -> SuiteRun:
    """Run the quick suite in a fresh interpreter with *root*'s state."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    metrics, trace = root / f"metrics-{tag}.prom", root / f"trace-{tag}.jsonl"
    done = subprocess.run(
        [sys.executable, "-m", "repro", "--scale", str(PIN_SCALE),
         "suite", "--quick", "--jobs", str(jobs), "--retries", "1",
         "--timeout", "300", "--metrics-out", str(metrics),
         "--trace-out", str(trace)],
        env={**env, "PYTHONPATH": str(SRC),
             "REPRO_CACHE_DIR": str(root / "cache"),
             "REPRO_HISTORY_DIR": str(root / "history")},
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    # Read the journal now: a rerun of the same suite restarts the file.
    journals = list((root / "cache").glob("suite-*.journal.jsonl"))
    assert len(journals) == 1, journals
    types = [json.loads(line)["type"]
             for line in journals[0].read_text().splitlines()]
    return SuiteRun(root, metrics.read_text(), trace, types)


@pytest.fixture(scope="module")
def suites(tmp_path_factory) -> Dict[str, SuiteRun]:
    """One cold suite per mode, then the warm rerun (key ``"warm"``)."""
    runs = {mode: _suite(tmp_path_factory.mktemp(f"pins-jobs{jobs}"),
                         jobs, "cold")
            for mode, jobs in MODES.items()}
    runs["warm"] = _suite(runs[WARM_BASE].root, MODES[WARM_BASE], "warm")
    return runs


def repro(monkeypatch, run: SuiteRun, *argv: str) -> Tuple[int, str]:
    """``repro *argv`` in this process over *run*'s cache and history."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        monkeypatch.delenv(key)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(run.root / "cache"))
    monkeypatch.setenv("REPRO_HISTORY_DIR", str(run.root / "history"))
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def diag(monkeypatch, run: SuiteRun) -> str:
    """``repro obs diag`` of *run*'s trace."""
    code, out = repro(monkeypatch, run, "obs", "diag", str(run.trace))
    assert code == 0
    return out


def sample(text: str, name: str) -> Optional[float]:
    """The value of the unlabelled sample *name* in a metrics file."""
    found = re.search(rf"^{name} (\S+)$", text, re.M)
    return float(found.group(1)) if found else None


def planning(text: str) -> Dict[Tuple[str, str], float]:
    """Every planning counter sample, by (counter, method)."""
    return {(name, method): float(value) for name, method, value
            in re.findall(r'^(repro_(?:cluster_sweeps|kmeans_runs'
                          r'|kmeans_iterations|distance_evals)_total)'
                          r'\{method="(\w+)"\} (\S+)$', text, re.M)}


def diag_gauge_lines(text: str) -> List[str]:
    """The ``repro_diag_total_error`` and ``repro_diag_residual`` lines."""
    return re.findall(r"^repro_diag_(?:total_error|residual)\{.*$",
                      text, re.M)


@pytest.mark.parametrize("mode", MODES)
def test_one_walk_per_run(suites, mode):
    expected = sum(load_trace(name, scale=PIN_SCALE).total_instructions
                   for name in QUICK)
    walked = sample(suites[mode].metrics,
                    "repro_detailed_instructions_total")
    assert walked == expected


def test_walked_pieces(suites):
    serial, parallel = (sample(suites[mode].metrics,
                               "repro_detailed_pieces_total")
                        for mode in MODES)
    assert serial == parallel == WALKED_PIECES


@pytest.mark.parametrize("mode", MODES)
def test_cold_journal_has_one_run_line_per_benchmark(suites, mode):
    assert suites[mode].journal == ["header"] + ["run"] * len(QUICK)


def test_warm_journal_has_header_only(suites):
    assert suites["warm"].journal == ["header"]


@pytest.mark.parametrize("mode", MODES)
def test_cluster_once(suites, mode):
    counters = planning(suites[mode].metrics)
    fine = sum(counters.get(("repro_cluster_sweeps_total", method), 0)
               for method in ("simpoint", "early_sp", "stratified"))
    assert fine == len(QUICK)
    assert counters.get(("repro_cluster_sweeps_total", "coasts")) \
        == len(QUICK)


def test_planning_counters_serial_equals_jobs2(suites):
    serial, parallel = (planning(suites[mode].metrics) for mode in MODES)
    for counter in ("repro_cluster_sweeps_total", "repro_kmeans_runs_total",
                    "repro_kmeans_iterations_total",
                    "repro_distance_evals_total"):
        assert any(name == counter for name, _ in parallel), counter
    assert serial == parallel


@pytest.mark.parametrize("mode", MODES)
def test_sweep_tallies(suites, mode):
    counters = planning(suites[mode].metrics)
    assert {key: counters.get(key) for key in SWEEP_TALLIES} \
        == SWEEP_TALLIES


@pytest.mark.parametrize("mode", MODES)
def test_every_stage_has_seconds(suites, monkeypatch, mode):
    code, out = repro(monkeypatch, suites[mode], "obs", "report", "--json",
                      str(suites[mode].trace))
    assert code == 0
    totals = json.loads(out)["span_totals"]
    assert [stage for stage in STAGE_ORDER
            if totals.get(stage, {}).get("seconds", 0) <= 0] == []


@pytest.mark.parametrize("mode", MODES)
def test_one_diag_table_per_benchmark_and_method(suites, monkeypatch,
                                                 mode):
    tables = re.findall(r"^(\S+) / (\S+) \(config_a\): ",
                        diag(monkeypatch, suites[mode]), re.M)
    expected = [(bench, method) for bench in QUICK
                for method in registered_methods()]
    assert sorted(tables) == sorted(expected)


def test_diag_tables_serial_equals_jobs2(suites, monkeypatch):
    serial, parallel = (diag(monkeypatch, suites[mode]) for mode in MODES)
    assert serial == parallel


def test_warm_diag_gauges_equal_cold(suites):
    cold = diag_gauge_lines(suites[WARM_BASE].metrics)
    assert len(cold) == DIAG_GAUGE_LINES
    assert diag_gauge_lines(suites["warm"].metrics) == cold


def test_warm_diag_tables_equal_cold(suites, monkeypatch):
    assert diag(monkeypatch, suites["warm"]) \
        == diag(monkeypatch, suites[WARM_BASE])


def test_warm_rerun_passes_history_diff(suites, monkeypatch):
    code, out = repro(monkeypatch, suites["warm"], "obs", "diff", "prev",
                      "last")
    assert code == 0, out
    assert "verdict: PASS" in out


def test_leaderboard_ranks_match_golden(suites, monkeypatch):
    board_path = suites["warm"].root / "leaderboard.json"
    code, out = repro(monkeypatch, suites["warm"], "--scale",
                      str(PIN_SCALE), "leaderboard", "--quick", "--json",
                      str(board_path), "--no-history")
    assert code == 0
    assert "leaderboard aggregate" in out
    board = json.loads(board_path.read_text())
    golden = json.loads(
        (ROOT / "benchmarks" / "LEADERBOARD_golden.json").read_text())
    ranks = {row["method"]: row["rank"] for row in board["aggregate"]}
    assert len(ranks) >= 6
    assert ranks == {row["method"]: row["rank"]
                     for row in golden["aggregate"]}
