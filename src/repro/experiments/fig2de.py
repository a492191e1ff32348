"""Figs. 2(d)/2(e): total battery energy over time, per ``V``.

The paper plots the summed energy-storage levels of base stations (2d,
kWh) and mobile users (2e, Wh) for ``V`` in {1, .., 5} x 1e5: buffers
fill over time, stay bounded, and settle higher for larger ``V`` (the
``V * gamma_max``-shifted queues hold more energy when the controller
weighs cost more heavily).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config.parameters import ScenarioParameters
from repro.experiments.fig2bc import (
    PAPER_V_VALUES,
    BacklogFigure,
    run_backlog_figure,
)


def run_fig2d(
    base: Optional[ScenarioParameters] = None,
    v_values: Sequence[float] = PAPER_V_VALUES,
    max_workers: int = 1,
) -> BacklogFigure:
    """Fig. 2(d): total base-station energy buffer (J) over time."""
    return run_backlog_figure("fig2d", base, v_values, max_workers)


def run_fig2e(
    base: Optional[ScenarioParameters] = None,
    v_values: Sequence[float] = PAPER_V_VALUES,
    max_workers: int = 1,
) -> BacklogFigure:
    """Fig. 2(e): total mobile-user energy buffer (J) over time."""
    return run_backlog_figure("fig2e", base, v_values, max_workers)
