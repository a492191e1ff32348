"""Per-node energy consumption model (Eqs. 2 and 23).

A node's slot demand is

    E_i(t) = E_const + E_idle + E_TX(t),

where ``E_TX`` sums transmit energy over its scheduled outgoing
transmissions and constant receive energy over its incoming ones.
"""

from __future__ import annotations

from typing import Iterable

from repro.axes import NodeJoules, NodeVec
from repro.config.parameters import NodeParameters
from repro.constants import watts_over_slot_to_joules
from repro.types import NodeId, Transmission
from repro.units import Joules, Seconds, Watts


def transmission_energy_j(
    node: NodeId,
    transmissions: Iterable[Transmission],
    recv_power_w: Watts,
    slot_seconds: Seconds,
) -> Joules:
    """``E_TX_i(t)`` of Eq. (23) for node ``node``.

    Args:
        node: the node whose traffic-serving energy is wanted.
        transmissions: the slot's full transmission schedule.
        recv_power_w: the node's constant receive power ``P_recv``.
        slot_seconds: slot duration ``delta_t``.

    Returns:
        Transmit energy (actual scheduled powers) plus receive energy.
    """
    if slot_seconds <= 0:
        raise ValueError(f"slot length must be positive, got {slot_seconds}")
    energy = 0.0
    for t in transmissions:
        if t.tx == node:
            energy += watts_over_slot_to_joules(t.power_w, slot_seconds)
        elif t.rx == node:
            energy += watts_over_slot_to_joules(recv_power_w, slot_seconds)
    return energy


def node_energy_demand_j(
    node: NodeId,
    node_params: NodeParameters,
    transmissions: Iterable[Transmission],
    slot_seconds: Seconds,
) -> Joules:
    """Total slot demand ``E_i(t)`` of Eq. (2)."""
    return node_params.fixed_energy_j(slot_seconds) + transmission_energy_j(
        node, transmissions, node_params.recv_power_w, slot_seconds
    )


def all_node_demands_array(
    fixed_energy_j: NodeJoules,
    recv_power_w: NodeVec,
    transmissions: Iterable[Transmission],
    slot_seconds: Seconds,
) -> NodeJoules:
    """``E_i(t)`` for every node as an ``(N,)`` array.

    ``fixed_energy_j`` and ``recv_power_w`` are precomputed per-node
    constants (``NodeParameters.fixed_energy_j`` / ``recv_power_w`` in
    node-id order).  Transmission terms accumulate in schedule order,
    transmit energy at the transmitter and receive energy at the
    receiver, in one pass over the schedule.
    """
    demands = fixed_energy_j.copy()
    for t in transmissions:
        demands[t.tx] += watts_over_slot_to_joules(float(t.power_w), slot_seconds)
        demands[t.rx] += watts_over_slot_to_joules(
            float(recv_power_w[t.rx]), slot_seconds
        )
    return demands
