"""Drift-plus-penalty term evaluation (Eqs. 35-38).

Given one slot's decision and queue state, compute the four
``Psi-hat`` terms the decomposition minimises.  The controller does not
need these values to act — each subproblem optimises its own term
directly — but they are the natural diagnostics for tests ("does the
exact S1 solution achieve a lower Psi-hat_1 than the heuristic?") and
for the per-slot trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.control.decisions import SlotDecision
from repro.core.arraystate import seq_sum
from repro.core.lyapunov import LyapunovConstants
from repro.model import NetworkModel
from repro.types import Link, NodeId, SessionId

#: Accessor signatures matching the controller's.
BacklogFn = Callable[[NodeId, SessionId], float]


@dataclass(frozen=True)
class DriftTerms:
    """The four ``Psi-hat`` values of one slot.

    Attributes:
        psi1: link-scheduling term (Eq. 35), ``<= 0``.
        psi2: resource-allocation term (Eq. 36).
        psi3: routing term (Eq. 37).
        psi4: energy-management term (Eq. 38).
    """

    psi1: float
    psi2: float
    psi3: float
    psi4: float

    @property
    def total(self) -> float:
        """The drift-plus-penalty upper bound being minimised."""
        return self.psi1 + self.psi2 + self.psi3 + self.psi4


def compute_drift_terms(
    model: NetworkModel,
    constants: LyapunovConstants,
    decision: SlotDecision,
    backlog: BacklogFn,
    h_backlogs: Mapping[Link, float],
    z_values: Mapping[NodeId, float],
) -> DriftTerms:
    """Evaluate Eqs. (35)-(38) for one decided slot.

    All queue readings must be the *pre-update* values the controller
    saw, matching the conditional expectations in the drift bound.
    """
    # Psi-hat_1 (Eq. 35): -(beta/delta) sum H_ij sum_m c a dt.  The
    # schedule already carries the service in packets (= c a dt/delta).
    psi1 = -constants.beta * sum(
        h_backlogs.get(link, 0.0) * service
        for link, service in decision.schedule.link_service_pkts.items()
    )

    # Psi-hat_2 (Eq. 36): sum_s (Q_source^s - lambda V) k_s.
    params = model.params
    threshold = params.admission_lambda * params.control_v
    psi2 = 0.0
    for session_id, source in decision.admission.sources.items():
        admitted = decision.admission.admitted[session_id]
        psi2 += (backlog(source, session_id) - threshold) * admitted

    # Psi-hat_3 (Eq. 37): per-rate coefficient (-Q_i + Q_j + beta H_ij).
    destinations = model.session_destinations()
    psi3 = 0.0
    for (tx, rx, session_id), rate in decision.routing.rates.items():
        q_tx = backlog(tx, session_id)
        q_rx = 0.0 if rx == destinations[session_id] else backlog(rx, session_id)
        h = h_backlogs.get((tx, rx), 0.0)
        psi3 += (-q_tx + q_rx + constants.beta * h) * rate

    # Psi-hat_4 (Eq. 38): V f(P) + sum z_i (c_i - d_i), in node order.
    allocation = decision.energy.allocation
    net = allocation.charge_j - allocation.discharge_j
    z = np.fromiter((z_values[node] for node in range(net.size)), float, net.size)
    psi4 = seq_sum(np.concatenate(([params.control_v * decision.energy.cost], z * net)))

    return DriftTerms(psi1=psi1, psi2=psi2, psi3=psi3, psi4=psi4)


def battery_drift_quadratic_term(decision: SlotDecision) -> float:
    """The exact-drift correction ``sum_i (c_i - d_i)^2 / 2``.

    The paper's Psi-hat_4 is the *linear* part of the battery drift;
    adding this term gives the exact per-slot drift the S4 solver
    minimises (DESIGN.md §5).
    """
    allocation = decision.energy.allocation
    net = allocation.charge_j - allocation.discharge_j
    return seq_sum(0.5 * net * net)
