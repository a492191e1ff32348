"""CSV export for experiment results.

Every figure driver returns a result object carrying the plotted
series; ``write_csv`` serialises headers + rows so the figures can be
re-plotted outside this library (gnuplot, pandas, spreadsheets).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any, Iterable, List, Sequence, Tuple, Union

#: ``(headers, rows)`` as consumed by :func:`write_csv`.
CsvTable = Tuple[List[str], List[Sequence[Any]]]


def write_csv(
    path: Union[str, Path],
    headers: Sequence[str],
    rows: Iterable[Sequence],
) -> Path:
    """Write one table of experiment data as CSV; returns the path."""
    target = Path(path)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for row in rows:
            writer.writerow(list(row))
    return target


def fig2a_rows(result: Any) -> CsvTable:
    """``(headers, rows)`` for a :class:`Fig2aResult`."""
    headers = ["V", "upper", "empirical_lower", "formal_lower"]
    rows = [
        (r.control_v, r.upper, r.relaxed_penalty, r.lower)
        for r in result.reports
    ]
    return headers, rows


def backlog_rows(result: Any) -> CsvTable:
    """``(headers, rows)`` for a :class:`BacklogFigure`."""
    v_values = sorted(result.series)
    headers = ["slot"] + [f"V={v:g}" for v in v_values]
    horizon = len(next(iter(result.series.values())))
    rows = [
        [slot] + [float(result.series[v][slot]) for v in v_values]
        for slot in range(horizon)
    ]
    return headers, rows


def fig2f_rows(result: Any) -> CsvTable:
    """``(headers, rows)`` for a :class:`Fig2fResult`."""
    pairs = sorted(result.results, key=lambda key: (key[0].value, key[1]))
    headers = ["architecture", "V", "average_cost", "steady_state_cost"]
    rows = [
        (
            arch.value,
            v,
            result.results[(arch, v)].average_cost,
            result.results[(arch, v)].steady_state_cost,
        )
        for arch, v in pairs
    ]
    return headers, rows


def export_figure(result: Any, path: Union[str, Path]) -> Path:
    """Dispatch on the result type and write its CSV."""
    kind = type(result).__name__
    if kind == "Fig2aResult":
        headers, rows = fig2a_rows(result)
    elif kind == "BacklogFigure":
        headers, rows = backlog_rows(result)
    elif kind == "Fig2fResult":
        headers, rows = fig2f_rows(result)
    elif kind == "CellEdgeResult":
        headers, rows = fig2f_rows(result.comparison)
    elif kind == "VConvergenceResult":
        headers = ["V", "upper", "relative_gap"]
        rows = list(zip(result.v_values, result.uppers, result.relative_gaps))
    elif kind == "AblationTable":
        headers, rows = list(result.headers), list(result.rows)
    else:
        raise TypeError(f"no CSV exporter for {kind}")
    return write_csv(path, headers, rows)
