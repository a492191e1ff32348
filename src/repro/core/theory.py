"""Closed-form predictions of the Lyapunov analysis, checkable in sim.

The drift analysis predicts several observable equilibria exactly:

* each battery settles at ``x* = min(x_max, V * gamma_max + d_max)``
  (the level where the shifted queue ``z`` crosses zero);
* each session's source backlog hovers at the admission threshold
  ``lambda * V`` (admission stops above it, Section IV-C-2);
* the formal optimality gap is ``B / V`` with ``B`` from Eq. (34).

``predict`` packages these numbers for a scenario, and ``verify``
measures a finished run against them — the quantitative version of the
qualitative claims Figs. 2(a)-2(e) make.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.core.lyapunov import LyapunovConstants
from repro.model import NetworkModel
from repro.sim.results import SimulationResult
from repro.types import NodeId


@dataclass(frozen=True)
class TheoryPredictions:
    """The analysis' closed-form predictions for one configuration.

    Attributes:
        control_v: the Lyapunov weight.
        battery_plateau_j: predicted settled level per node.
        bs_battery_total_j: summed plateau over base stations — the
            predicted asymptote of Fig. 2(d).
        admission_threshold_pkts: ``lambda * V``.
        formal_gap: ``B / V`` (Theorem 5's bound slack).
    """

    control_v: float
    battery_plateau_j: Mapping[NodeId, float]
    bs_battery_total_j: float
    admission_threshold_pkts: float
    formal_gap: float


@dataclass(frozen=True)
class PlateauCheck:
    """Measured-vs-predicted battery plateau for one aggregate."""

    predicted_j: float
    measured_j: float

    @property
    def relative_error(self) -> float:
        """``|measured - predicted| / predicted`` (0 when both 0)."""
        if self.predicted_j == 0:
            return 0.0 if self.measured_j == 0 else float("inf")
        return abs(self.measured_j - self.predicted_j) / self.predicted_j


def predict(model: NetworkModel, constants: LyapunovConstants) -> TheoryPredictions:
    """Compute the closed-form predictions for one scenario."""
    params = model.params
    v = params.control_v
    bs_plateau, user_plateau = (
        min(
            v * constants.gamma_max + energy.discharge_cap_j,
            energy.battery_capacity_j,
        )
        for energy in (params.bs_energy, params.user_energy)
    )
    plateaus: Dict[NodeId, float] = dict(
        enumerate(model.node_vector(bs_plateau, user_plateau).tolist())
    )
    bs_total = sum(plateaus[b] for b in model.bs_ids)
    return TheoryPredictions(
        control_v=v,
        battery_plateau_j=plateaus,
        bs_battery_total_j=bs_total,
        admission_threshold_pkts=params.admission_lambda * v,
        formal_gap=constants.drift_b / v if v > 0 else float("inf"),
    )


def verify_bs_plateau(
    model: NetworkModel,
    constants: LyapunovConstants,
    result: SimulationResult,
    tail_fraction: float = 0.25,
) -> PlateauCheck:
    """Compare the measured BS battery plateau against the prediction.

    The measured plateau is the mean of the final ``tail_fraction`` of
    the Fig.-2(d) series.  Meaningful only when the fill transient has
    completed within the horizon — the caller should size the horizon
    at a few multiples of ``plateau / charge_cap`` slots.
    """
    if not 0 < tail_fraction <= 1:
        raise ValueError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    predictions = predict(model, constants)
    series = result.backlog_series("bs_energy_j")
    tail_start = int(len(series) * (1 - tail_fraction))
    measured = float(series[tail_start:].mean())
    return PlateauCheck(
        predicted_j=predictions.bs_battery_total_j, measured_j=measured
    )


def fill_time_slots(model: NetworkModel, constants: LyapunovConstants) -> float:
    """Predicted slots for the slowest base station to reach its plateau.

    Lower bound: the plateau divided by the per-slot charge cap (the
    controller charges at cap while deep below threshold).
    """
    cap = model.params.bs_energy.charge_cap_j
    if cap <= 0:
        return float("inf")
    # Every station shares the one plateau of its class.
    return predict(model, constants).battery_plateau_j[model.bs_ids[0]] / cap
