"""Fig. 2(f): energy cost of the four architectures, per ``V``.

The paper compares, at ``V`` in {1, 3, 5} x 1e5, the time-averaged
expected energy cost of the proposed system against three baselines:
multi-hop without renewables, one-hop with renewables, and one-hop
without renewables.  The proposed system wins everywhere; multi-hop
beats one-hop; renewables beat no renewables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.reporting.tables import format_table
from repro.baselines.architectures import architecture_label
from repro.config.parameters import ScenarioParameters
from repro.config.scenarios import paper_scenario
from repro.experiments.executor import SweepSpec, run_sweep
from repro.sim.results import SimulationResult
from repro.types import Architecture

#: The paper's comparison points: V = 1e5, 3e5, 5e5.
PAPER_V_VALUES: Tuple[float, ...] = (1e5, 3e5, 5e5)

#: Row order matching the paper's legend.
ARCHITECTURES: Tuple[Architecture, ...] = (
    Architecture.MULTI_HOP_RENEWABLE,
    Architecture.MULTI_HOP_NO_RENEWABLE,
    Architecture.ONE_HOP_RENEWABLE,
    Architecture.ONE_HOP_NO_RENEWABLE,
)


@dataclass(frozen=True)
class Fig2fResult:
    """Per-(architecture, V) results plus a rendered table."""

    results: Dict[Tuple[Architecture, float], SimulationResult]
    table: str

    def cost(self, architecture: Architecture, v: float) -> float:
        """Time-averaged energy cost of one cell."""
        return self.results[(architecture, v)].average_cost

    def steady_cost(self, architecture: Architecture, v: float) -> float:
        """Second-half mean cost (battery-fill transient excluded)."""
        return self.results[(architecture, v)].steady_state_cost

    def ordering_holds(self, v: float, tolerance: float = 0.005) -> bool:
        """The paper's headline: the proposed system is cheapest.

        ``tolerance`` allows for transient noise in the full-horizon
        average: the battery-fill investment dominates early slots and
        is identical in expectation across architectures, but its
        realisation differs by a fraction of a percent between runs.
        """
        ours = self.cost(Architecture.MULTI_HOP_RENEWABLE, v)
        return all(
            ours <= self.cost(arch, v) * (1 + tolerance) + 1e-9
            for arch in ARCHITECTURES
            if arch is not Architecture.MULTI_HOP_RENEWABLE
        )

    def steady_ordering_holds(self, v: float) -> bool:
        """Proposed system cheapest on the settled second half."""
        ours = self.steady_cost(Architecture.MULTI_HOP_RENEWABLE, v)
        return all(
            ours <= self.steady_cost(arch, v) + 1e-9
            for arch in ARCHITECTURES
            if arch is not Architecture.MULTI_HOP_RENEWABLE
        )


def run_fig2f(
    base: Optional[ScenarioParameters] = None,
    v_values: Sequence[float] = PAPER_V_VALUES,
    max_workers: int = 1,
) -> Fig2fResult:
    """Regenerate the Fig. 2(f) comparison.

    The (architecture, V) grid fans out over the sweep executor; with
    ``max_workers=1`` the cells run serially, in the historical order.
    """
    if base is None:
        base = paper_scenario()
    sweep = run_sweep(
        SweepSpec.architectures(base, tuple(v_values), ARCHITECTURES),
        max_workers=max_workers,
    )
    results: Dict[Tuple[Architecture, float], SimulationResult] = {
        (architecture, v): sweep.result(architecture.value, v)
        for architecture in ARCHITECTURES
        for v in v_values
    }

    headers = (
        ["architecture"]
        + [f"V={v:g}" for v in v_values]
        + [f"steady V={v:g}" for v in v_values]
    )
    rows = []
    for architecture in ARCHITECTURES:
        rows.append(
            [architecture_label(architecture)]
            + [results[(architecture, v)].average_cost for v in v_values]
            + [results[(architecture, v)].steady_state_cost for v in v_values]
        )
    table = format_table(
        headers,
        rows,
        title="Fig. 2(f): time-averaged expected energy cost by architecture",
    )
    return Fig2fResult(results=results, table=table)
