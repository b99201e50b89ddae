"""Tests of the end-to-end benchmark itself (not of the program).

Run explicitly; the tier-1 suite does not collect them::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from layers import Recorder, purpose_split  # noqa: E402
from stats import (  # noqa: E402
    IMPROVED, PASS, REGRESSED, UNRESOLVED, classify, median, percentile,
    quartile_spread,
)
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ----------------------------------------------------------------------
# Order statistics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("values", [[3.0], [2.0, 1.0], [5, 1, 4, 2, 3],
                                    [0.5, 9.0, 1.5, 1.5, 7.25, 3.0]])
def test_median_and_percentile_match_numpy(values):
    assert median(values) == pytest.approx(np.median(values))
    for q in (0, 10, 50, 90, 100):
        assert percentile(values, q) == pytest.approx(
            np.percentile(values, q))


def test_order_statistics_reject_bad_input():
    with pytest.raises(ValueError):
        median([])
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_quartile_spread_uses_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0]
    # statistics.quantiles(n=4) (exclusive method): q1 = 11, q3 = 15.
    assert quartile_spread(values) == pytest.approx(4.0 / 13.0)
    assert quartile_spread([7.0]) == 0.0
    assert quartile_spread([1.0] * 5) == 0.0


# ----------------------------------------------------------------------
# compare classification
# ----------------------------------------------------------------------
TIGHT = [10.0, 10.1, 9.9, 10.0, 10.05]


def test_identical_reps_pass():
    assert classify(TIGHT, TIGHT, 0.10, "lower") == PASS


def test_worse_than_bound_regresses_both_directions():
    slower = [v * 1.2 for v in TIGHT]
    assert classify(TIGHT, slower, 0.10, "lower") == REGRESSED
    assert classify(TIGHT, [v * 1.05 for v in TIGHT], 0.10, "lower") == PASS
    assert classify(slower, TIGHT, 0.10, "higher") == REGRESSED


def test_clear_win_improves():
    assert classify(TIGHT, [v * 0.8 for v in TIGHT], 0.10, "lower") \
        == IMPROVED
    assert classify(TIGHT, [v * 1.2 for v in TIGHT], 0.10, "higher") \
        == IMPROVED


def test_wide_base_spread_is_unresolved():
    wide = [8.0, 10.0, 12.0, 14.0, 9.0]
    assert quartile_spread(wide) > 0.10
    assert classify(wide, [v * 1.3 for v in wide], 0.10, "lower") \
        == UNRESOLVED
    assert classify(wide, wide, 0.10, "lower") == UNRESOLVED


def test_every_change_rep_better_resolves_a_wide_base():
    wide = [10.0, 14.0, 18.0, 12.0, 16.0]
    change = [9.5, 9.6, 9.7, 9.8, 9.9]
    assert quartile_spread(wide) > 0.10
    assert classify(wide, change, 0.10, "lower") == PASS


def test_setup_floor_absorbs_small_absolute_changes():
    base = [0.20, 0.21, 0.20, 0.20, 0.21]
    change = [0.24, 0.25, 0.24, 0.24, 0.25]
    assert classify(base, change, 0.25, "lower") == PASS
    assert classify(base, change, 0.10, "lower") == REGRESSED
    assert classify(base, change, 0.10, "lower", floor=0.05) == PASS
    assert classify(base, [v + 0.2 for v in base], 0.25, "lower",
                    floor=run.SETUP_FLOOR_S) == REGRESSED


def _ledger(path: Path, wall, digest="d0", insts=100) -> Path:
    spec = run.load_spec()
    rep = {metric["name"]: 1.0 for metric in spec["end_to_end"]}
    layers = {name: insts for name in run.EXACT_LAYERS}
    path.write_text(json.dumps({"workloads": {"plan-heavy": {
        "reps": [dict(rep, wall_s=value) for value in wall],
        "per_layer": layers,
        "digest": digest,
    }}}))
    return path


def test_compare_cli_verdicts(tmp_path, capsys):
    base = _ledger(tmp_path / "a.json", TIGHT)
    same = _ledger(tmp_path / "b.json", TIGHT)
    slow = _ledger(tmp_path / "c.json", [v * 1.5 for v in TIGHT])
    other = _ledger(tmp_path / "d.json", TIGHT, digest="d1")
    assert run.main(["compare", str(base), str(same)]) == 0
    assert not re.search(r"REGRESSED$", capsys.readouterr().out, re.M)
    assert run.main(["compare", str(base), str(slow)]) == 1
    assert re.search(r"wall_s\s+plan-heavy.*REGRESSED",
                     capsys.readouterr().out)
    assert run.main(["compare", str(base), str(other)]) == 1
    assert re.search(r"results_digest\s+plan-heavy.*CHANGED",
                     capsys.readouterr().out)


# ----------------------------------------------------------------------
# The benchmark's definition
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_workloads():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert set(run.EXACT_LAYERS) - {"harness.run_count"} <= {
        m["name"] for m in spec["per_layer"]}


def test_campaign_seed_selects_member_windows():
    campaign = WORKLOADS["campaign-jobs2"]
    assert campaign.expression(0).startswith("fam:irregular[0:32] + ")
    assert "fam:cache-hostile[64:96]" in campaign.expression(2)
    assert WORKLOADS["plan-heavy"].expression(5) is None


def test_gate_flags_disagreeing_reps():
    rep = {"traced": False, "failed": 0, "fill_failed": 0,
           "digests": ["x"], "attempted": 3,
           "counters": {"detailed_insts": 10}}
    assert run.gate("plan-heavy", [rep, rep], []) == []
    other = dict(rep, digests=["y"])
    assert run.gate("plan-heavy", [rep, other], [])
    failed = dict(rep, failed=1)
    assert run.gate("plan-heavy", [failed], [])
    counted = dict(rep["counters"], detailed_calls=4)
    traced = dict(rep, traced=True, counters=counted,
                  layers={"detailed.calls": 4}, purposes={
                      "baseline": 6, "points": 2, "diagnostics": 2,
                      "other": 0})
    assert run.gate("plan-heavy", [rep], [traced]) == []
    unattributed = dict(traced, purposes=dict(traced["purposes"],
                                              baseline=5, other=1))
    assert run.gate("plan-heavy", [rep], [unattributed])
    missed = dict(traced, layers={"detailed.calls": 3})
    assert run.gate("plan-heavy", [rep], [missed])


# ----------------------------------------------------------------------
# Against the program
# ----------------------------------------------------------------------
def test_purpose_attribution_matches_program_counters(tmp_path):
    from repro.harness.cache import ResultCache
    from repro.harness.runner import ExperimentRunner
    from repro.obs import DETAILED_CALLS, DETAILED_INSTRUCTIONS

    recorder = Recorder("test")
    recorder.install()
    try:
        runner = ExperimentRunner(cache=ResultCache(tmp_path),
                                  workload_scale=0.05)
        result = runner.run_benchmark("gzip")
    finally:
        recorder.restore()
    insts = purpose_split(recorder.spans)
    counted = runner.obs.metrics.value(DETAILED_INSTRUCTIONS)
    assert insts["other"] == 0
    assert insts["baseline"] + insts["points"] + insts["diagnostics"] \
        == counted
    assert insts["baseline"] == result.total_instructions
    assert insts["points"] > 0 and insts["diagnostics"] > 0
    ranges = [s for s in recorder.spans
              if s["name"] == "detailed.simulate_range"]
    assert len(ranges) == runner.obs.metrics.value(DETAILED_CALLS)
    # Restored: a second run records nothing.
    before = len(recorder.spans)
    ExperimentRunner(cache=ResultCache(tmp_path), workload_scale=0.05
                     ).run_benchmark("gzip")
    assert len(recorder.spans) == before


def _files() -> set:
    skip = {"__pycache__", ".git", ".pytest_cache", ".hypothesis"}
    return {path for path in ROOT.rglob("*")
            if not skip & set(path.relative_to(ROOT).parts)}


def test_child_runs_leave_no_file_and_report_every_metric():
    before = _files()
    reps = run.Reps()
    try:
        untraced = [reps.run("plan-heavy", 0)]
        traced = [reps.run("plan-heavy", 0, traced=True, spans=True)]
    finally:
        reps.close()
    assert _files() == before
    assert run.gate("plan-heavy", untraced, traced) == []
    spec = run.load_spec()
    assert set(run.end_to_end(spec, untraced)) == {
        m["name"] for m in spec["end_to_end"]}
    layers = run.derived_layers("plan-heavy", untraced, traced)
    assert {m["name"] for m in spec["per_layer"]} <= set(layers)
    spans = traced[0]["spans"]
    assert {"name", "start", "end", "parent", "workload"} <= set(spans[0])
    assert all(span["workload"] == "plan-heavy" for span in spans)
