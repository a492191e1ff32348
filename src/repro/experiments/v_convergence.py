"""Extension experiment: how close the heuristic tracks the optimum.

Lemma 2 predicts the drift-plus-penalty policy's objective sits within
``B/V`` of the per-slot optimum.  On a finite horizon the absolute
objective itself grows with V (the battery-fill investment scales with
the ``V * gamma_max`` threshold), so the meaningful closeness measure
is the *relative* gap between the heuristic decomposition and the
per-slot-exact relaxed LP run on the identical environment:

    rel_gap(V) = (psi_heuristic - psi_relaxed) / psi_heuristic.

This driver measures it across a V sweep, fits the descriptive model
``rel_gap = floor + slope / V``, and reports both; the acceptance
criterion (tests, bench) is that the heuristic stays within a few
percent of the optimum at every V.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.reporting.tables import format_table
from repro.config.parameters import ScenarioParameters
from repro.config.scenarios import paper_scenario
from repro.experiments.runner import sweep_bounds


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


def run_v_convergence(
    base: Optional[ScenarioParameters] = None,
    v_values: Sequence[float] = (1e5, 2e5, 4e5, 8e5),
    max_workers: int = 1,
) -> VConvergenceResult:
    """Measure the heuristic-to-relaxed relative gap across a V sweep."""
    if base is None:
        base = paper_scenario()
    ordered = tuple(sorted(v_values))
    reports = sweep_bounds(base, ordered, max_workers=max_workers)
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
