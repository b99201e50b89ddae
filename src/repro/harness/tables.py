"""Result aggregation and text-table rendering."""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence

from ..errors import HarnessError


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's AVG aggregator)."""
    values = list(values)
    if not values:
        raise HarnessError("geomean of no values")
    if any(v <= 0 for v in values):
        raise HarnessError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def arithmetic_mean(values: Iterable[float]) -> float:
    """Plain mean (used for deviation aggregates, which can be zero)."""
    values = list(values)
    if not values:
        raise HarnessError("mean of no values")
    return sum(values) / len(values)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned monospaced table."""
    columns = [[str(h)] for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise HarnessError("row width does not match headers")
        for i, cell in enumerate(row):
            columns[i].append(_fmt(cell))
    widths = [max(len(cell) for cell in column) for column in columns]
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for r in range(1, len(columns[0])):
        lines.append(
            "  ".join(columns[i][r].rjust(widths[i]) for i in range(len(headers)))
        )
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        magnitude = abs(cell)
        if magnitude >= 100:
            return f"{cell:.0f}"
        if magnitude >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)


def format_percent(value: float, digits: int = 2) -> str:
    """Render a fraction as a percentage string."""
    return f"{100 * value:.{digits}f}%"


def rows_to_csv(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Simple CSV rendering of a table (for EXPERIMENTS.md extraction)."""
    out = [",".join(str(h) for h in headers)]
    for row in rows:
        out.append(",".join(_fmt(c) for c in row))
    return "\n".join(out)


def failure_rows(
    failures: Iterable["RunFailure"], width: int, label_column: int = 0
) -> List[List[str]]:
    """Table rows marking failed benchmarks in a *width*-column table.

    Each failed run renders as its benchmark name, a ``FAILED(n/m)``
    marker (attempts made / attempts allowed) in ``label_column + 1``,
    and ``-`` in the remaining cells, so partial campaigns still print
    complete tables with the gaps explicit rather than silently absent.
    """
    rows: List[List[str]] = []
    for failure in failures:
        row = ["-"] * width
        row[label_column] = failure.benchmark
        if width > label_column + 1:
            row[label_column + 1] = failure.label
        rows.append(row)
    return rows
