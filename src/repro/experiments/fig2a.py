"""Fig. 2(a): upper and lower bounds on ``psi*_P1`` versus ``V``.

The paper sweeps ``V`` from 1e5 to 1e6 and plots the achieved cost of
the proposed algorithm (upper bound, Theorem 4) against
``psi*_P3bar - B/V`` (lower bound, Theorem 5), showing the bounds
approaching each other as ``V`` grows.

Our reproduction reports three series per ``V``:

* ``upper`` — the decomposition controller's achieved P2 objective;
* ``empirical_lower`` — the relaxed LP's achieved P2 objective, a
  tight empirical anchor (this is the gap that closes visibly);
* ``formal_lower`` — the Theorem-5 value ``psi*_P3bar - B/V``.  In a
  dimensionally consistent unit system the Eq. (34) constant ``B`` is
  dominated by the beta^2-scaled virtual-queue terms, so this bound is
  loose at small ``V`` and improves like 1/V — a finding recorded in
  EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.reporting.tables import format_table
from repro.config.parameters import ScenarioParameters
from repro.config.scenarios import paper_scenario
from repro.core.bounds import BoundReport
from repro.experiments.runner import sweep_bounds

#: The paper's sweep: V = 1e5 .. 1e6.
PAPER_V_VALUES: Tuple[float, ...] = tuple(k * 1e5 for k in range(1, 11))


@dataclass(frozen=True)
class Fig2aResult:
    """The Fig. 2(a) series plus a rendered table."""

    reports: Tuple[BoundReport, ...]
    table: str

    def v_values(self) -> List[float]:
        """The sweep points, ascending."""
        return [r.control_v for r in self.reports]


def run_fig2a(
    base: ScenarioParameters = None,
    v_values: Sequence[float] = PAPER_V_VALUES,
    max_workers: int = 1,
) -> Fig2aResult:
    """Regenerate the Fig. 2(a) data.

    Args:
        base: base scenario (defaults to the paper scenario).
        v_values: the ``V`` sweep points.
        max_workers: sweep-executor fan-out (1 = in-process serial).
    """
    if base is None:
        base = paper_scenario()
    ordered = sorted(v_values)
    by_v = sweep_bounds(base, ordered, max_workers=max_workers)
    reports = [by_v[v] for v in ordered]

    rows = [
        (
            r.control_v,
            r.upper,
            r.relaxed_penalty,
            r.lower,
            r.upper - r.relaxed_penalty,
        )
        for r in reports
    ]
    table = format_table(
        headers=["V", "upper", "empirical_lower", "formal_lower", "emp_gap"],
        rows=rows,
        title="Fig. 2(a): time-averaged expected energy cost bounds vs V",
    )
    return Fig2aResult(reports=tuple(reports), table=table)
