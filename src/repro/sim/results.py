"""Simulation result container and summaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.lyapunov import LyapunovConstants
from repro.queueing.stability import StabilityReport, assess_strong_stability
from repro.sim.metrics import BACKLOG_COLUMNS, MetricsCollector


@dataclass
class SimulationResult:
    """Outcome of one simulation run.

    Attributes:
        control_v: the Lyapunov weight used.
        num_slots: horizon length.
        metrics: the full per-slot metric record.
        constants: the run's Lyapunov constants (for bound math).
    """

    control_v: float
    num_slots: int
    metrics: MetricsCollector
    constants: LyapunovConstants

    @property
    def average_cost(self) -> float:
        """Time-averaged energy cost (Theorem 4's ``psi_P3`` sample)."""
        return self.metrics.average_cost()

    @property
    def average_penalty(self) -> float:
        """Time-averaged P2 objective ``avg[f(P) - lambda sum k]``."""
        return self.metrics.average_penalty()

    @property
    def steady_state_cost(self) -> float:
        """Mean cost over the second half of the horizon.

        The first half carries the battery-fill transient (the
        ``V * gamma_max`` thresholds start empty); architectural
        comparisons are sharper on the settled tail.
        """
        costs = self.metrics.series("cost")
        if costs.size == 0:
            return 0.0
        return float(costs[costs.size // 2 :].mean())

    def stability_reports(self) -> Dict[str, StabilityReport]:
        """Empirical strong-stability assessment of the five queue and battery totals."""
        return {
            name: assess_strong_stability(self.metrics.series(name))
            for name in BACKLOG_COLUMNS
        }

    def backlog_series(self, name: str) -> np.ndarray:
        """A queue or battery total per slot (a :data:`BACKLOG_COLUMNS` name)."""
        return self.metrics.series(name)

    def session_satisfaction(self, demand_per_slot: Dict[int, float]) -> Dict[int, float]:
        """Delivered / demanded ratio per session.

        Args:
            demand_per_slot: mean demand per session (packets/slot);
                the simulator's ``model.sessions`` carries it.
        """
        recorded = self.metrics.session_delivered.tolist()
        out: Dict[int, float] = {}
        for sid, demand in demand_per_slot.items():
            total_demand = demand * self.num_slots
            delivered = recorded[sid] if 0 <= sid < len(recorded) else 0.0
            out[sid] = delivered / total_demand if total_demand > 0 else 1.0
        return out

    @property
    def average_delay_slots(self) -> float:
        """Little's-law delay estimate in slots.

        Mean network data backlog divided by mean delivery rate; under
        the paper's null-packet semantics this upper-bounds the real
        per-packet delay (phantom packets inflate the numerator).
        Returns ``inf`` when nothing was delivered.
        """
        backlog = (
            self.metrics.series("bs_data_packets")
            + self.metrics.series("user_data_packets")
        )
        delivered = self.metrics.series("delivered_pkts")
        rate = float(delivered.mean()) if delivered.size else 0.0
        if rate <= 0:
            return float("inf")
        return float(backlog.mean()) / rate

    def summary(self) -> Dict[str, float]:
        """Headline numbers for tables and the quickstart example."""
        out = {
            "control_v": self.control_v,
            "num_slots": float(self.num_slots),
            "average_cost": self.average_cost,
            "average_penalty": self.average_penalty,
            "average_grid_draw_j": self.metrics.average_grid_draw_j(),
            "average_delay_slots": self.average_delay_slots,
        }
        out.update(self.metrics.totals())
        return out
