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

import numpy as np

from repro.axes import AnyArray, LinkPackets, NodeJoules, QueuePackets
from repro.control.decisions import SlotDecision
from repro.core.arraystate import seq_sum
from repro.core.lyapunov import LyapunovConstants
from repro.model import NetworkModel


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


def _running_sum(terms: AnyArray) -> float:
    """``total = 0.0; total += t`` over ``terms`` in order, bit for bit.

    The leading ``0.0`` makes a lone ``-0.0`` term sum to ``0.0``, as
    the scalar accumulation does.
    """
    return seq_sum(np.concatenate(([0.0], terms)))


def compute_drift_terms(
    model: NetworkModel,
    constants: LyapunovConstants,
    decision: SlotDecision,
    q: QueuePackets,
    h_backlogs: LinkPackets,
    z_values: NodeJoules,
) -> DriftTerms:
    """Evaluate Eqs. (35)-(38) for one decided slot.

    ``q`` is the ``(N, S)`` data backlog, ``h_backlogs`` the ``(L,)``
    ``H`` by link position and ``z_values`` the ``(N,)`` shifted
    battery queues.  All must be the *pre-update* values the controller
    saw, matching the conditional expectations in the drift bound.
    Each term sums left to right in the decision's entry order.
    """
    # Psi-hat_1 (Eq. 35): -(beta/delta) sum H_ij sum_m c a dt.  The
    # schedule already carries the service in packets (= c a dt/delta).
    schedule = decision.schedule
    psi1 = -constants.beta * _running_sum(
        h_backlogs[schedule.service_pos] * schedule.service_pkts
    )

    # Psi-hat_2 (Eq. 36): sum_s (Q_source^s - lambda V) k_s, in session
    # (Q column) order — the order both S2 solvers emit.
    params = model.params
    threshold = params.admission_lambda * params.control_v
    admission = decision.admission
    admitted = np.fromiter(
        (admission.admitted[s.session_id] for s in model.sessions),
        dtype=float,
        count=len(model.sessions),
    )
    source_q = q[admission.source_rows, np.arange(admitted.size)]
    psi2 = _running_sum((source_q - threshold) * admitted)

    # Psi-hat_3 (Eq. 37): per-rate coefficient (-Q_i + Q_j + beta H_ij);
    # a destination's pinned 0.0 backlog is its Q_j.
    routing = decision.routing
    pos, col = routing.link_pos, routing.session_col
    coefficient = (
        -q[routing.link_tx[pos], col] + q[routing.link_rx[pos], col]
    ) + constants.beta * h_backlogs[pos]
    psi3 = _running_sum(coefficient * routing.pkts)

    # Psi-hat_4 (Eq. 38): V f(P) + sum z_i (c_i - d_i), in node order.
    allocation = decision.energy.allocation
    net = allocation.charge_j - allocation.discharge_j
    psi4 = seq_sum(
        np.concatenate(([params.control_v * decision.energy.cost], z_values * net))
    )

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
