"""Per-node energy consumption model (Eqs. 2 and 23).

A node's slot demand is

    E_i(t) = E_const + E_idle + E_TX(t),

where ``E_TX`` sums transmit energy over its scheduled outgoing
transmissions and constant receive energy over its incoming ones.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.axes import AnyArray, NodeIds, NodeJoules, NodeVec
from repro.constants import watts_over_slot_to_joules
from repro.units import Seconds


def transmission_energy_j(
    recv_power_w: NodeVec,
    tx: NodeIds,
    rx: NodeIds,
    power_w: AnyArray,
    slot_seconds: Seconds,
) -> Tuple[NodeIds, AnyArray]:
    """The Eq. (23) ``E_TX`` terms of a schedule, interleaved.

    Transmission ``k`` runs ``tx[k] -> rx[k]`` at ``power_w[k]`` watts.
    Returns ``(nodes, joules)`` over ``[tx0, rx0, tx1, rx1, ...]``:
    transmit energy at the transmitter, receive energy at the receiver,
    in schedule order.
    """
    if slot_seconds <= 0:
        raise ValueError(f"slot length must be positive, got {slot_seconds}")
    nodes = np.empty(2 * tx.size, dtype=np.intp)
    nodes[0::2] = tx
    nodes[1::2] = rx
    joules = np.empty(2 * tx.size)
    joules[0::2] = watts_over_slot_to_joules(power_w, slot_seconds)
    joules[1::2] = watts_over_slot_to_joules(recv_power_w[rx], slot_seconds)
    return nodes, joules


def all_node_demands_array(
    fixed_energy_j: NodeJoules,
    recv_power_w: NodeVec,
    tx: NodeIds,
    rx: NodeIds,
    power_w: AnyArray,
    slot_seconds: Seconds,
) -> NodeJoules:
    """``E_i(t)`` of Eq. (2) for every node as an ``(N,)`` array.

    ``fixed_energy_j`` and ``recv_power_w`` are per-node constants
    (``NodeParameters.fixed_energy_j`` / ``recv_power_w`` in node-id
    order).  One ``np.add.at`` over the interleaved
    :func:`transmission_energy_j` terms accumulates them in schedule
    order, one at a time, so every node's sum is the running sum of a
    pass over the schedule.
    """
    nodes, joules = transmission_energy_j(recv_power_w, tx, rx, power_w, slot_seconds)
    demands = fixed_energy_j.copy()
    np.add.at(demands, nodes, joules)
    return demands
