"""Dense slot kernels, used only by the sparse-support oracle tests.

The slot loop once made every link-sized pass in full: the Eq. 28
update built an ``(L,)`` arrival vector and an ``(L,)`` service vector
and rewrote all of ``G``; the Eq. 15 update scattered into two ``(N, S)``
matrices and rewrote all of ``Q``; S1's backlog floor and S3's
backpressure scan compared all ``L`` links; the backlog snapshot summed
all of ``G``; and curtailment re-summed all ``N`` node demands after
every shed.  The library now touches only what moved: the support of
``G``, the ``Q`` cells of the routed entries and admissions, the
out-links of the nodes that hold data, and the two endpoints of a shed
entry.  This module keeps the dense versions as independent oracles;
``tests/test_sparse_support.py`` checks the library against them, bit
for bit.  The same holds for two per-node draw loops the library now
makes in blocks: the spectrum access table and each slot's renewable
harvest.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.control.decisions import ScheduleDecision
from repro.core.arraystate import seq_sum
from repro.energy.consumption import all_node_demands_array
from repro.energy.renewable import (
    DiurnalSolarProcess,
    MarkovWindProcess,
    UniformRenewableProcess,
)
from repro.exceptions import QueueError
from repro.sim.rng import spawn_child
from repro.types import QueueSemantics, RenewableKind

#: The S1 backlog floor (``repro.control.scheduler._H_EPS``).
H_EPS = 1e-12
#: The curtailment supply slack (``repro.control.controller._ENERGY_TOL``).
ENERGY_TOL = 1e-6


def advance_g(g, link_tx, link_rx, link_pos, pkts, service_pos, service_pkts):
    """Eq. 28 over the whole link index; returns the new ``(L,)`` ``G``.

    ``G(t+1) = max(G(t) - service, 0) + arrivals`` with arrivals summed
    per link in entry order and service scattered into an ``(L,)``
    vector.  Raises the library's ``QueueError`` at the first offending
    position.
    """
    arrivals = np.zeros(g.shape)
    np.add.at(arrivals, link_pos, pkts)
    service = np.zeros(g.shape)
    service[service_pos] = service_pkts
    bad = (arrivals < 0.0) | (service < 0.0)
    if bad.any():
        pos = int(np.argmax(bad))
        link = (int(link_tx[pos]), int(link_rx[pos]))
        if arrivals[pos] < 0:
            raise QueueError(f"negative arrivals {arrivals[pos]} at G{link}")
        raise QueueError(f"negative service {service[pos]} at G{link}")
    return np.maximum(g - service, 0.0) + arrivals


def advance_q(arrays, link_pos, session_col, pkts, arrival_rows, arrival_cols, arrival_pkts):
    """Eq. 15 over every ``(N, S)`` cell; returns ``(new Q, transfer)``.

    Reads ``arrays`` (its ``Q``, masks, link index, sessions and queue
    semantics) and writes nothing.  Service and arrivals are scattered
    into two ``(N, S)`` matrices in entry order, and
    ``max(Q - service, 0) + arrivals`` is applied to every cell before
    the destination cells are pinned to 0.0.  Raises the library's
    ``QueueError`` at the first offending cell in row-major order.
    """
    q = arrays.q.copy()
    tx = arrays.link_tx[link_pos]
    if arrays.queue_semantics is QueueSemantics.PAPER:
        transfer = pkts
    else:
        outgoing = np.zeros(q.shape)
        np.add.at(outgoing, (tx, session_col), pkts)
        total = outgoing[tx, session_col]
        positive = total > 0
        scale = np.minimum(1.0, q[tx, session_col] / np.where(positive, total, 1.0))
        transfer = np.where(positive, pkts * scale, 0.0)
    if np.any(arrival_pkts < 0):
        k = int(np.argmax(arrival_pkts < 0))
        raise QueueError(
            f"negative admission {arrival_pkts[k]} for session "
            f"{arrays.sessions[arrival_cols[k]]} at node {arrival_rows[k]}"
        )
    service = np.zeros(q.shape)
    arrivals = np.zeros(q.shape)
    np.add.at(service, (tx, session_col), transfer)
    np.add.at(arrivals, (arrays.link_rx[link_pos], session_col), transfer)
    np.add.at(arrivals, (arrival_rows, arrival_cols), arrival_pkts)
    negative = ((service < 0.0) | (arrivals < 0.0)) & arrays.q_valid
    if np.any(negative):
        row, col = (int(i) for i in np.argwhere(negative)[0])
        where = f"Q[{row}][{arrays.sessions[col]}]"
        if service[row, col] < 0:
            raise QueueError(f"negative service {service[row, col]} at {where}")
        raise QueueError(f"negative arrivals {arrivals[row, col]} at {where}")
    q = np.maximum(q - service, 0.0) + arrivals
    q[arrays.q_invalid] = 0.0
    return q, transfer


def virtual_total(g):
    """The backlog snapshot's virtual total over every link."""
    return seq_sum(g)


def s1_active(h, allowed_mask=None):
    """S1's active links: every position above the backlog floor."""
    floor = h > H_EPS
    if allowed_mask is not None:
        floor &= allowed_mask
    return np.flatnonzero(floor)


def s3_candidates(q, link_tx, beta, h):
    """S3's backpressure support by a scan of every link."""
    beta_h = beta * h
    cand = np.flatnonzero(q.max(axis=1)[link_tx] > beta_h)
    return cand, beta_h[cand]


def curtail(controller, schedule, supply, h_arr, band_pkts):
    """Curtailment with one full rescan and ``(N,)`` re-sum per shed.

    The loop ``DriftPlusPenaltyController._curtail`` ran before it
    worked in place: after every shed it recomputed every node's demand
    and the whole overloaded list.  Returns ``(survivors, demands,
    deficit)`` and clamps ``supply`` in place, as the library does.
    """
    model = controller._model
    dt = model.params.slot_seconds
    fixed = controller._fixed_energy_arr
    recv = controller._recv_power_arr
    tx = model.topology.link_tx[schedule.link_pos]
    rx = model.topology.link_rx[schedule.link_pos]
    power = schedule.power_w
    h = h_arr[schedule.link_pos]
    alive = np.ones(tx.size, dtype=bool)
    shed: List[int] = []
    load = np.zeros(supply.size, dtype=np.intp)
    np.add.at(load, tx, 1)
    np.add.at(load, rx, 1)
    deficit = np.zeros(supply.size)
    demands = all_node_demands_array(fixed, recv, tx, rx, power, dt)
    while True:
        overloaded = np.flatnonzero(demands > supply + ENERGY_TOL)
        loaded = load[overloaded] > 0
        stop = int(loaded.argmax()) if loaded.any() else overloaded.size
        clamp = overloaded[:stop]
        deficit[clamp] = demands[clamp] - supply[clamp]
        supply[clamp] = demands[clamp]
        if stop == overloaded.size:
            break
        node = overloaded[stop]
        involved = np.flatnonzero(alive & ((tx == node) | (rx == node)))
        victim = involved[np.argmin(h[involved])]
        alive[victim] = False
        shed.append(int(victim))
        load[tx[victim]] -= 1
        load[rx[victim]] -= 1
        demands = all_node_demands_array(
            fixed, recv, tx[alive], rx[alive], power[alive], dt
        )
    if not shed:
        return schedule, demands, deficit
    curtailed = tuple(
        zip(tx[shed].tolist(), rx[shed].tolist(), schedule.band[shed].tolist())
    )
    survivors = ScheduleDecision.from_entries(
        link_pos=schedule.link_pos[alive],
        band=schedule.band[alive],
        power_w=power[alive],
        band_pkts=band_pkts,
        dropped=schedule.dropped + curtailed,
        link_tx=schedule.link_tx,
        link_rx=schedule.link_rx,
    )
    return survivors, demands, deficit


def access_table(params, rng):
    """The spectrum access table by one scalar draw per (user, band).

    The loop ``build_spectrum_model`` ran before it drew one ``(U,
    M-1)`` block: base stations get every band, users band 0 plus a
    Bernoulli draw per random band, user by user, band by band.
    """
    num_bands = params.spectrum.num_bands
    access = np.zeros((params.num_nodes, num_bands), dtype=bool)
    for bs in params.base_station_ids():
        access[bs] = True
    for user in params.user_ids():
        access[user, 0] = True
        for band in range(1, num_bands):
            if rng.random() < params.spectrum.user_band_access_prob:
                access[user, band] = True
    return access


def renewable_draws(model, rng, slots):
    """Each observed slot's ``(N,)`` renewable vector, node by node.

    The loop ``NetworkState.observe`` ran before it drew in blocks: one
    process per drawing node on child ``1 + node`` of the environment
    stream ``rng`` (a twin of the one the state was built with), one
    ``sample(slot)`` call per node per observed slot, in node order.
    """
    params = model.params
    kinds = {
        RenewableKind.UNIFORM: UniformRenewableProcess,
        RenewableKind.SOLAR: DiurnalSolarProcess,
        RenewableKind.WIND: MarkovWindProcess,
    }
    processes = []
    if params.renewables_enabled:
        classes = (
            (params.bs_renewable_kind, params.bs_energy, model.bs_ids),
            (params.user_renewable_kind, params.user_energy, model.user_ids),
        )
        for kind, energy, nodes in classes:
            if kind is RenewableKind.ZERO or energy.renewable_max_w <= 0:
                continue
            processes.extend(
                (
                    node,
                    kinds[kind](
                        energy.renewable_max_w,
                        params.slot_seconds,
                        spawn_child(rng, 1 + node),
                    ),
                )
                for node in nodes
            )
    draws = []
    for slot in slots:
        renewable = np.zeros(model.num_nodes)
        for node, process in processes:
            renewable[node] = process.sample(slot)
        draws.append(renewable)
    return draws
