"""Exact work pins of a cold quick suite, serial and ``--jobs 2``.

A cold ``repro --scale 0.12 suite --quick`` runs once per module in each
mode, in a fresh interpreter with its own cache and history directories
and no inherited ``REPRO_*`` variable, exactly as a user would start it.
Each test reads the run's ``--metrics-out`` file and holds a counter to
an exact value: these are counts of work done, deterministic for the
trace, so any move is a change of what the pipeline does, never noise.

* **One walk per run.**  The cache is cold, so each run makes its one
  warmed detailed walk over the whole trace: the detailed-instruction
  counter equals the quick traces' instructions exactly.
* **Walked pieces.**  The walk books 10,632 pieces (8,084 quick-trace
  segments plus the cuts that range bounds add), the same serial and
  ``--jobs 2``.  A slip in the walk's piece arithmetic moves the count.

Run just these pins with::

    PYTHONPATH=src python -m pytest -q tests/test_exact_pins.py
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional

import pytest

from repro.workloads.registry import benchmark_names, load_trace

SRC = Path(__file__).resolve().parents[1] / "src"
#: The scale every pin was recorded at.
PIN_SCALE = 0.12
#: ``repro_detailed_pieces_total`` of one cold quick suite.
WALKED_PIECES = 10632
#: ``--jobs`` value of each mode.
MODES = {"serial": 1, "--jobs 2": 2}


@pytest.fixture(scope="module")
def cold_quick_suite(tmp_path_factory) -> Dict[str, str]:
    """The ``--metrics-out`` text of one cold quick suite per mode."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    metrics = {}
    for mode, jobs in MODES.items():
        root = tmp_path_factory.mktemp(f"pins-jobs{jobs}")
        out = root / "metrics.prom"
        done = subprocess.run(
            [sys.executable, "-m", "repro", "--scale", str(PIN_SCALE),
             "suite", "--quick", "--jobs", str(jobs), "--retries", "1",
             "--timeout", "300", "--metrics-out", str(out)],
            env={**env, "REPRO_CACHE_DIR": str(root / "cache"),
                 "REPRO_HISTORY_DIR": str(root / "history")},
            cwd=root, capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stderr
        metrics[mode] = out.read_text()
    return metrics


def sample(text: str, name: str) -> Optional[float]:
    """The value of the unlabelled sample *name* in a metrics file."""
    found = re.search(rf"^{name} (\S+)$", text, re.M)
    return float(found.group(1)) if found else None


@pytest.mark.parametrize("mode", MODES)
def test_one_walk_per_run(cold_quick_suite, mode):
    expected = sum(load_trace(name, scale=PIN_SCALE).total_instructions
                   for name in benchmark_names(quick=True))
    walked = sample(cold_quick_suite[mode],
                    "repro_detailed_instructions_total")
    assert walked == expected


def test_walked_pieces(cold_quick_suite):
    serial, parallel = (sample(cold_quick_suite[mode],
                               "repro_detailed_pieces_total")
                        for mode in MODES)
    assert serial == parallel == WALKED_PIECES
