"""The full-matrix S3 router, used only by the router oracle test.

``BackpressureRouter.route`` once scored every candidate link against
every session: it built the ``(L, S)`` coefficient matrix
``-Q_tx + Q_rx + beta H``, the ``(L, S)`` eligibility masks and the
``(L, M)`` Eq.-(25) capacity each slot.  The library now works on the
backpressure support only (links whose transmitter holds more than
``beta H``); this module keeps the full-matrix router as an independent
oracle.  :func:`route` returns the ``(link_pos, session_col, pkts)``
triple the library's :class:`~repro.control.decisions.RoutingDecision`
must carry for the same inputs, and draws its tie breaks from ``rng``
in the same order.
"""

from __future__ import annotations

import numpy as np

from repro.control.router import RouterMode
from repro.phy.capacity import max_link_capacity_bps


def route(
    model,
    beta,
    rng,
    mode,
    observation,
    schedule,
    admission,
    h_backlogs,
    arrays,
    allowed_mask=None,
):
    """S3 for one slot over the full link index (see the module docs)."""
    link_tx, link_rx = model.topology.link_tx, model.topology.link_rx
    dests = np.array([s.destination for s in model.sessions], dtype=np.intp)
    eligible = (link_tx[:, None] != dests[None, :]) & (
        link_rx[:, None] != dests[None, :]
    )

    beta_h = beta * h_backlogs
    q = arrays.q
    coeff = (-q[arrays.link_tx] + q[arrays.link_rx]) + beta_h[:, None]

    forced_pos, forced_col, forced_pkts = [], [], []
    for session in model.sessions:
        dest = session.destination
        demand = session.demand(observation.slot)
        if demand <= 0:
            continue
        col = arrays.session_col[session.session_id]
        # The destination's incoming links by a full scan of the link
        # index, in ascending position (so ascending transmitter).
        coefficients = {
            p: coeff[p, col]
            for p in range(link_rx.shape[0])
            if link_rx[p] == dest
            and (allowed_mask is None or allowed_mask[p])
        }
        if not coefficients:
            continue
        best_value = min(coefficients.values())
        tied = [p for p, v in coefficients.items() if v == best_value]
        chosen = tied[0] if len(tied) == 1 else tied[rng.integers(len(tied))]
        forced_pos.append(chosen)
        forced_col.append(col)
        forced_pkts.append(float(demand))

    params = model.params
    if mode is RouterMode.POTENTIAL_CAPACITY:
        num_bands = model.spectrum.num_bands
        caps_bps = np.array(
            [
                max_link_capacity_bps(
                    observation.bands.bandwidth(m), params.sinr_threshold
                )
                for m in range(num_bands)
            ],
            dtype=np.float64,
        )
        member = observation.link_band_member(model)
        best_bps = np.max(
            np.where(member, caps_bps[None, :], -np.inf), axis=1, initial=-np.inf
        )
        best_bps[~member.any(axis=1)] = 0.0
        capacity = best_bps * params.slot_seconds / params.sessions.packet_size_bits
    else:
        capacity = np.zeros(link_tx.shape[0])
        capacity[schedule.service_pos] = schedule.service_pkts

    active = capacity > 0.0
    active[forced_pos] = False
    if allowed_mask is not None:
        active &= allowed_mask
    mask = (
        eligible
        & (coeff < 0.0)
        & (admission.source_rows[None, :] != arrays.link_rx[:, None])
        & active[:, None]
    )
    routed = np.flatnonzero(mask.any(axis=1))
    best = np.min(np.where(mask, coeff, np.inf), axis=1)
    ties = mask & (coeff == best[:, None])
    routed_ties = ties[routed]
    cols = routed_ties.argmax(axis=1)
    for k in np.flatnonzero(routed_ties.sum(axis=1) > 1):
        cols[k] = rng.choice(np.flatnonzero(routed_ties[k]))
    return (
        np.concatenate((np.array(forced_pos, dtype=np.intp), routed)),
        np.concatenate((np.array(forced_col, dtype=np.intp), cols)),
        np.concatenate((forced_pkts, capacity[routed])),
    )
