"""Extension experiment: how close the heuristic tracks the optimum.

Lemma 2 predicts the drift-plus-penalty policy's objective sits within
``B/V`` of the per-slot optimum.  On a finite horizon the absolute
objective itself grows with V (the battery-fill investment scales with
the ``V * gamma_max`` threshold), so the meaningful closeness measure
is the *relative* gap between the heuristic decomposition and the
per-slot-exact relaxed LP run on the identical environment:

    rel_gap(V) = (psi_heuristic - psi_relaxed) / psi_heuristic.

This experiment reads it off Fig. 2(a)'s bound reports, which already
hold both runs at every V of the bound sweep, fits the descriptive
model ``rel_gap = floor + slope / V``, and reports both; the
acceptance criterion (the figure pipeline's claim) is that the
heuristic stays within a few percent of the optimum at every V.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.reporting.tables import format_table
from repro.experiments.fig2a import Fig2aResult


@dataclass(frozen=True)
class VConvergenceResult:
    """Measured relative gaps and the fitted ``floor + slope/V`` model.

    Attributes:
        v_values: the sweep points, ascending.
        uppers: the heuristic's achieved objective per V.
        relative_gaps: (heuristic - relaxed) / heuristic per V.
        floor: fitted asymptotic relative gap.
        slope: fitted 1/V coefficient.
        table: rendered rows.
    """

    v_values: Tuple[float, ...]
    uppers: Tuple[float, ...]
    relative_gaps: Tuple[float, ...]
    floor: float
    slope: float
    table: str

    def fitted(self, v: float) -> float:
        """The fitted relative-gap model evaluated at ``v``."""
        return self.floor + self.slope / v

    @property
    def worst_relative_gap(self) -> float:
        """The largest relative gap across the sweep."""
        return max(self.relative_gaps)


def v_convergence(fig2a: Fig2aResult, v_values: Sequence[float]) -> VConvergenceResult:
    """The heuristic-to-relaxed relative gap at ``v_values``, read off
    the Fig. 2(a) reports of the same base scenario.

    Raises:
        ValueError: a V in ``v_values`` is not on Fig. 2(a)'s grid.
    """
    reports = {report.control_v: report for report in fig2a.reports}
    missing = sorted(set(v_values) - set(reports))
    if missing:
        raise ValueError(
            "V-convergence reads Fig. 2(a)'s reports, which have no run at "
            f"V={', '.join(f'{v:g}' for v in missing)}; add it to the Fig. 2(a) "
            f"grid ({', '.join(f'{v:g}' for v in sorted(reports))})"
        )
    ordered = tuple(sorted(v_values))
    uppers = []
    relative_gaps = []
    for v in ordered:
        report = reports[v]
        uppers.append(report.upper)
        denominator = max(abs(report.upper), 1e-12)
        relative_gaps.append(
            (report.upper - report.relaxed_penalty) / denominator
        )

    design = np.column_stack([np.ones(len(ordered)), 1.0 / np.array(ordered)])
    coeffs, *_ = np.linalg.lstsq(design, np.array(relative_gaps), rcond=None)
    floor, slope = float(coeffs[0]), float(coeffs[1])

    result = VConvergenceResult(
        v_values=ordered,
        uppers=tuple(uppers),
        relative_gaps=tuple(relative_gaps),
        floor=floor,
        slope=slope,
        table="",
    )
    rows = [
        (v, upper, 100.0 * gap, 100.0 * result.fitted(v))
        for v, upper, gap in zip(ordered, uppers, relative_gaps)
    ]
    table = format_table(
        ["V", "upper", "rel gap %", "fit %"],
        rows,
        title=(
            "Heuristic-vs-relaxed relative gap "
            f"(floor={100 * floor:.2f}%, slope={slope:.4g})"
        ),
    )
    return dataclasses.replace(result, table=table)
