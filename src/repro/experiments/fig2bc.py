"""Figs. 2(b)-2(e): summed backlogs over time, per ``V``.

The paper plots, for ``V`` in {1, .., 5} x 1e5, the summed data-queue
backlog of the base stations (2b) and of the mobile users (2c) over
the 100-minute horizon, showing bounded backlogs that grow with ``V``;
Figs. 2(d)/2(e) (:mod:`repro.experiments.fig2de`) plot the battery
levels of the same runs.  All four are views of one integral V sweep,
so :func:`backlog_figure` renders each from a shared set of results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.reporting.tables import format_table
from repro.config.parameters import ScenarioParameters
from repro.config.scenarios import paper_scenario
from repro.experiments.runner import sweep_v
from repro.sim.results import SimulationResult

#: The paper's backlog sweep: V = 1e5 .. 5e5.
PAPER_V_VALUES: Tuple[float, ...] = tuple(k * 1e5 for k in range(1, 6))

#: Figure name -> (snapshot field plotted, table title).
BACKLOG_FIGURES: Dict[str, Tuple[str, str]] = {
    "fig2b": (
        "bs_data_packets",
        "Fig. 2(b): total BS data queue backlog (packets) vs time",
    ),
    "fig2c": (
        "user_data_packets",
        "Fig. 2(c): total user data queue backlog (packets) vs time",
    ),
    "fig2d": ("bs_energy_j", "Fig. 2(d): total BS energy buffer (J) vs time"),
    "fig2e": ("user_energy_j", "Fig. 2(e): total user energy buffer (J) vs time"),
}


@dataclass(frozen=True)
class BacklogFigure:
    """One backlog-vs-time figure: a series per ``V``.

    Attributes:
        metric: the snapshot field plotted.
        series: per-V backlog sample paths (length = horizon).
        table: sampled rows (every ``sample_every`` slots) as text.
    """

    metric: str
    series: Dict[float, np.ndarray]
    table: str

    def final_values(self) -> Dict[float, float]:
        """Backlog at the end of the horizon per ``V``."""
        return {v: float(path[-1]) for v, path in self.series.items()}

    def mean_values(self) -> Dict[float, float]:
        """Time-averaged backlog per ``V``."""
        return {v: float(path.mean()) for v, path in self.series.items()}


def backlog_figure(
    name: str,
    results: Mapping[float, SimulationResult],
    sample_every: int = 10,
) -> BacklogFigure:
    """Render one of Figs. 2(b)-2(e) from an integral V sweep's results."""
    metric, title = BACKLOG_FIGURES[name]
    series = {
        v: result.backlog_series(metric) for v, result in results.items()
    }
    horizon = len(next(iter(series.values())))
    sample_slots = list(range(0, horizon, sample_every))
    if sample_slots[-1] != horizon - 1:
        sample_slots.append(horizon - 1)
    headers = ["slot"] + [f"V={v:g}" for v in sorted(series)]
    rows = [
        [slot] + [float(series[v][slot]) for v in sorted(series)]
        for slot in sample_slots
    ]
    return BacklogFigure(
        metric=metric,
        series=series,
        table=format_table(headers, rows, title=title),
    )


def run_backlog_figure(
    name: str,
    base: Optional[ScenarioParameters],
    v_values: Sequence[float],
    max_workers: int = 1,
) -> BacklogFigure:
    """Run the integral V sweep and render one backlog figure."""
    if base is None:
        base = paper_scenario()
    results = sweep_v(base, sorted(v_values), max_workers=max_workers)
    return backlog_figure(name, results)


def run_fig2b(
    base: Optional[ScenarioParameters] = None,
    v_values: Sequence[float] = PAPER_V_VALUES,
    max_workers: int = 1,
) -> BacklogFigure:
    """Fig. 2(b): total base-station data-queue backlog over time."""
    return run_backlog_figure("fig2b", base, v_values, max_workers)


def run_fig2c(
    base: Optional[ScenarioParameters] = None,
    v_values: Sequence[float] = PAPER_V_VALUES,
    max_workers: int = 1,
) -> BacklogFigure:
    """Fig. 2(c): total mobile-user data-queue backlog over time."""
    return run_backlog_figure("fig2c", base, v_values, max_workers)
