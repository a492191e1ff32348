"""The dict-keyed drift-term evaluation, used only as a test oracle.

:func:`repro.core.drift.compute_drift_terms` evaluates Eqs. (35)-(38)
on the arrays: ``Q`` as ``(N, S)``, ``H`` by link position and ``z``
by node.  This module keeps the original per-entry evaluation over
``(tx, rx)`` and ``(node, session)`` keys, accumulated in the same
entry order; ``tests/test_core.py`` asserts the two agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.arraystate import seq_sum
from repro.core.drift import DriftTerms


def compute_drift_terms(model, constants, decision, q, h_backlogs, z_values):
    """Eqs. (35)-(38) over dict views of the array inputs."""
    col = {s.session_id: c for c, s in enumerate(model.sessions)}

    def backlog(node, session_id):
        return float(q[node, col[session_id]])

    topology = model.topology
    h = {
        (tx, rx): value
        for tx, rx, value in zip(
            topology.link_tx.tolist(), topology.link_rx.tolist(), h_backlogs.tolist()
        )
    }
    z = dict(enumerate(z_values.tolist()))

    psi1 = -constants.beta * sum(
        h.get(link, 0.0) * service
        for link, service in decision.schedule.link_service_pkts.items()
    )

    params = model.params
    threshold = params.admission_lambda * params.control_v
    psi2 = 0.0
    for session_id, source in decision.admission.sources.items():
        admitted = decision.admission.admitted[session_id]
        psi2 += (backlog(source, session_id) - threshold) * admitted

    destinations = model.session_destinations()
    psi3 = 0.0
    for (tx, rx, session_id), rate in decision.routing.rates.items():
        q_tx = backlog(tx, session_id)
        q_rx = 0.0 if rx == destinations[session_id] else backlog(rx, session_id)
        psi3 += (-q_tx + q_rx + constants.beta * h.get((tx, rx), 0.0)) * rate

    allocation = decision.energy.allocation
    net = allocation.charge_j - allocation.discharge_j
    z_arr = np.fromiter((z[node] for node in range(net.size)), float, net.size)
    psi4 = seq_sum(
        np.concatenate(([params.control_v * decision.energy.cost], z_arr * net))
    )
    return DriftTerms(psi1=psi1, psi2=psi2, psi3=psi3, psi4=psi4)
