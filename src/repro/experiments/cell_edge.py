"""Extension experiment: multi-hop savings at the cell edge.

Fig. 2(f)'s multi-hop-vs-one-hop contrast depends on where sessions
terminate: for destinations near a base station the direct hop is
cheap and relaying buys nothing.  This experiment re-runs the
architecture comparison with every session terminating at the users
*farthest* from all base stations — the regime the paper's
introduction motivates ("multi-hop communications divides direct paths
into shorter links ... lower transmission power can be assigned").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.reporting.tables import format_table
from repro.config.parameters import ScenarioParameters
from repro.config.scenarios import cell_edge_scenario
from repro.experiments.fig2f import Fig2fResult, run_fig2f
from repro.types import Architecture


@dataclass(frozen=True)
class CellEdgeResult:
    """The cell-edge comparison plus the derived savings ratios."""

    comparison: Fig2fResult
    table: str

    def multi_hop_saving(self, v: float) -> float:
        """Relative steady-state saving of multi-hop over one-hop.

        ``1 - ours / one-hop`` with renewables on both sides; positive
        means relaying pays.
        """
        ours = self.comparison.steady_cost(Architecture.MULTI_HOP_RENEWABLE, v)
        one_hop = self.comparison.steady_cost(Architecture.ONE_HOP_RENEWABLE, v)
        if one_hop <= 0:
            return 0.0
        return 1.0 - ours / one_hop


def run_cell_edge(
    base: Optional[ScenarioParameters] = None,
    v_values: Sequence[float] = (1e5, 3e5),
    max_workers: int = 1,
) -> CellEdgeResult:
    """Run the cell-edge architecture comparison."""
    if base is None:
        base = cell_edge_scenario()
    comparison = run_fig2f(base=base, v_values=v_values, max_workers=max_workers)

    rows: Tuple = tuple(
        (
            f"V={v:g}",
            comparison.steady_cost(Architecture.MULTI_HOP_RENEWABLE, v),
            comparison.steady_cost(Architecture.ONE_HOP_RENEWABLE, v),
        )
        for v in v_values
    )
    savings_rows = []
    result = CellEdgeResult(comparison=comparison, table="")
    for (label, ours, one_hop), v in zip(rows, v_values):
        savings_rows.append(
            (label, ours, one_hop, 100.0 * result.multi_hop_saving(v))
        )
    table = (
        comparison.table
        + "\n\n"
        + format_table(
            ["", "multi-hop steady", "one-hop steady", "saving %"],
            savings_rows,
            title="Cell-edge sessions: steady-state multi-hop saving",
        )
    )
    return CellEdgeResult(comparison=comparison, table=table)
