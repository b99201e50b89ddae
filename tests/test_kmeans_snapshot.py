"""Fixed k-means sweeps reproduce a committed bit-exact snapshot.

``tests/data/kmeans_snapshot.json`` holds, for each case below, the
vectorized sweep's work tallies (``iterations``, ``distance_evals``) and,
per k, a sha256 of the centroid and label bytes, the inertia and the
``inertia_history`` as ``float.hex``.  The cases cover the shapes the
samplers sweep (SimPoint's fine sweep, COASTS's coarse one), runs of
neighbouring ks that stop at different iterations, k = 1 beside larger
ks, ks clamped above n, duplicate and grid-tied points, and
``max_iterations`` of 0 and 1.  ``distance_evals`` counts the bound-pruned
path's work, so the file pins the vectorized backend; its results are
also compared with the scalar twin by ``tests/test_kmeans_sweep.py``.
Regenerate the file only for a deliberate change of the sweep::

    PYTHONPATH=src python tests/test_kmeans_snapshot.py > tests/data/kmeans_snapshot.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, Tuple

import numpy as np
import pytest

from repro.analysis import kmeans_sweep
from repro.backend import use_backend

SNAPSHOT = Path(__file__).parent / "data" / "kmeans_snapshot.json"


def _blobs(centers: int, per: int, dims: int, spread: float, seed: int):
    rng = np.random.default_rng(seed)
    middles = rng.random((centers, dims)) * 10
    return np.vstack([rng.normal(m, spread, size=(per, dims))
                      for m in middles])


def _grid(n: int, dims: int, span: int, seed: int):
    rng = np.random.default_rng(seed)
    return rng.integers(0, span, size=(n, dims)) * 1.0


def _pool(n: int, dims: int, distinct: int, seed: int):
    rng = np.random.default_rng(seed)
    pool = rng.random((distinct, dims))
    return pool[rng.integers(0, distinct, size=n)]


def sweep_cases() -> Iterator[Tuple[str, np.ndarray, Dict[str, object]]]:
    """Every case as ``(name, data, kmeans_sweep keywords)``."""
    blobs = _blobs(4, 40, 6, 0.3, seed=7)
    yield "blobs/k1-12", blobs, {"ks": range(1, 13), "seed": 3, "n_seeds": 3}
    # SimPoint's fine sweep: about 150 intervals, 15 projected dimensions.
    yield "fine/k1-30", _blobs(6, 25, 15, 0.8, seed=11), {
        "ks": range(1, 31), "seed": 0, "n_seeds": 5,
    }
    # COASTS's coarse sweep: 250 outer iterations, 60 dimensions.
    yield "coarse/k1-3", _blobs(3, 84, 60, 1.5, seed=5)[:250], {
        "ks": range(1, 4), "seed": 2, "n_seeds": 5,
    }
    yield "clamped/n7", _pool(7, 2, 7, seed=1), {
        "ks": [9, 2, 40, 5], "seed": 4, "n_seeds": 2,
    }
    yield "grid/k1-8", _grid(30, 2, 4, seed=9), {
        "ks": range(1, 9), "seed": 6, "n_seeds": 2,
    }
    yield "duplicates/k1-6", _pool(20, 3, 3, seed=2), {
        "ks": range(1, 7), "seed": 8, "n_seeds": 2,
    }
    for limit in (0, 1):
        yield f"max_iterations/{limit}", blobs, {
            "ks": [1, 3, 6], "seed": 5, "n_seeds": 2,
            "max_iterations": limit,
        }


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def cases() -> Iterator[Tuple[str, object]]:
    """Every snapshot case, in order, as ``(name, encoded value)``."""
    with use_backend("vectorized"):
        for name, data, knobs in sweep_cases():
            sweep = kmeans_sweep(data, **knobs)
            yield name, {
                "iterations": sweep.iterations,
                "distance_evals": sweep.distance_evals,
                "results": {
                    str(k): {
                        "centroids": _digest(result.centroids),
                        "labels": _digest(result.labels.astype("<i8")),
                        "inertia": result.inertia.hex(),
                        "inertia_history": [
                            value.hex() for value in result.inertia_history
                        ],
                    }
                    for k, result in sweep.results.items()
                },
            }


def render(encoded: Dict[str, object]) -> str:
    """The snapshot file's text: one case per line."""
    lines = [f"  {json.dumps(name)}: {json.dumps(value, sort_keys=True)}"
             for name, value in encoded.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.fixture(scope="module")
def snapshot():
    return json.loads(SNAPSHOT.read_text())


def test_sweeps_reproduce_snapshot(snapshot):
    built = json.loads(json.dumps(dict(cases())))
    assert list(built) == list(snapshot)
    mismatched = [name for name in built if built[name] != snapshot[name]]
    assert not mismatched, (
        f"{len(mismatched)} cases differ from the snapshot, first "
        f"{mismatched[0]}: {built[mismatched[0]]} != "
        f"{snapshot[mismatched[0]]}"
    )


def test_cases_cover_the_edges(snapshot):
    # Neighbouring ks whose best runs stop at different iterations, k = 1
    # swept beside larger ks, and ks clamped to n = 7.
    fine = snapshot["fine/k1-30"]["results"]
    lengths = {len(fine[str(k)]["inertia_history"]) for k in range(1, 6)}
    assert len(lengths) > 1
    assert "1" in fine and "30" in fine
    assert list(snapshot["clamped/n7"]["results"]) == ["2", "5", "7"]
    for limit in (0, 1):
        results = snapshot[f"max_iterations/{limit}"]["results"]
        assert {len(result["inertia_history"])
                for result in results.values()} == {limit + 1}


if __name__ == "__main__":
    print(render(dict(cases())), end="")
