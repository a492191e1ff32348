"""Lyapunov constants (Section IV): ``beta``, ``gamma_max``, ``B``.

These constants tie the whole analysis together:

* ``beta = max_ij c_max_ij * delta_t / delta`` scales the link virtual
  queues ``H_ij = beta * G_ij`` (Eq. 30);
* ``gamma_max`` is the largest marginal generation cost, which shifts
  the battery queues ``z_i = x_i - V gamma_max - d_max_i``;
* ``B`` is the drift bound constant of Eq. (34) appearing in the lower
  bound ``psi*_P3bar - B/V`` (Theorem 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping

import numpy as np

from repro.model import NetworkModel
from repro.phy.capacity import max_link_capacity_bps
from repro.types import Link, NodeId


@dataclass(frozen=True)
class LyapunovConstants:
    """Derived constants for one scenario.

    Attributes:
        beta: virtual-queue scaling (packets).
        gamma_max: max marginal cost ``f'`` over feasible ``P`` (per J).
        drift_b: the Eq. (34) constant ``B``.
        link_capacity_pkts: per-candidate-link worst-case service
            ``c_max_ij * delta_t / delta`` (packets per slot).
    """

    beta: float
    gamma_max: float
    drift_b: float
    link_capacity_pkts: Mapping[Link, float]

    def max_service_pkts(self, node: NodeId, links: Iterable[Link]) -> float:
        """Largest single-slot service of any one of ``node``'s links."""
        caps = [
            self.link_capacity_pkts[link] for link in links if link[0] == node
        ]
        return max(caps, default=0.0)


def _per_link_max_packets(model: NetworkModel) -> Dict[Link, float]:
    """``c_max_ij * delta_t / delta`` per candidate link (packets).

    The model's shared ``(L, M)`` common-band mask replaces a per-link
    Python scan over common bands; the best common-band capacity is an exact
    max over non-negative per-band capacities (0.0 where the band is
    not shared), so the result is bit-identical to the scalar loop at
    O(N + L M) instead of O(L M) Python-interpreted work.
    """
    params = model.params
    spectrum = model.spectrum
    links = model.topology.candidate_links
    if not links:
        return {}
    delta_bits = params.sessions.packet_size_bits
    band_caps = np.fromiter(
        (
            max_link_capacity_bps(band.max_bandwidth_hz, params.sinr_threshold)
            for band in spectrum.bands
        ),
        dtype=float,
        count=spectrum.num_bands,
    )
    member = model.link_band_member
    best_bps = np.where(member, band_caps[np.newaxis, :], 0.0).max(axis=1)
    pkts = best_bps * params.slot_seconds / delta_bits
    return dict(zip(links, pkts.tolist()))


def compute_constants(model: NetworkModel) -> LyapunovConstants:
    """Compute ``beta``, ``gamma_max`` and the Eq. (34) ``B``.

    The ``B`` expression follows Eq. (34) term by term:

    * data queues: per node/session, squared worst-case service
      (largest outgoing link) plus squared worst-case arrivals
      (largest incoming link, plus ``K_max`` at base stations, which
      are the only possible session sources);
    * virtual queues: ``(beta * c_max_ij delta_t / delta)^2`` per link
      — both the arrival and service of ``H_ij`` are bounded by this;
    * energy queues: ``max(c_max_i, d_max_i)^2 / 2`` per node.
    """
    params = model.params
    link_caps = _per_link_max_packets(model)
    beta = max(link_caps.values(), default=0.0)
    if beta <= 0:
        beta = 1.0  # degenerate no-capacity network; keep H well-defined

    gamma_max = model.max_marginal_cost()

    k_max = params.sessions.k_max(params.slot_seconds)
    bs_set = set(model.bs_ids)

    # Per-node worst-case outgoing/incoming link service in one O(L)
    # pass (running max is exact, so this matches the old per-node
    # scans bit for bit at O(N + L) instead of O(N * L)).
    out_cap = [0.0] * model.num_nodes
    in_cap = [0.0] * model.num_nodes
    for (tx, rx), cap in link_caps.items():
        if cap > out_cap[tx]:
            out_cap[tx] = cap
        if cap > in_cap[rx]:
            in_cap[rx] = cap

    data_term = 0.0
    for node in range(model.num_nodes):
        # With R radios a node can serve/receive up to R links at once.
        radios = model.nodes[node].radio.num_radios
        max_out = radios * out_cap[node]
        max_in = radios * in_cap[node]
        admission = float(k_max) if node in bs_set else 0.0
        for _session in model.sessions:
            data_term += 0.5 * (max_out**2 + (max_in + admission) ** 2)

    virtual_term = sum((beta * cap) ** 2 for cap in link_caps.values())

    energy_term = 0.0
    for node in model.nodes:
        energy_term += 0.5 * max(
            node.energy.charge_cap_j, node.energy.discharge_cap_j
        ) ** 2

    return LyapunovConstants(
        beta=beta,
        gamma_max=gamma_max,
        drift_b=data_term + virtual_term + energy_term,
        link_capacity_pkts=link_caps,
    )


def lyapunov_value(
    data_backlogs: Iterable[float],
    h_backlogs: Iterable[float],
    z_values: Iterable[float],
) -> float:
    """The Lyapunov function ``L(Theta) = (1/2) (sum Q^2 + H^2 + z^2)``."""
    total = 0.0
    for q in data_backlogs:
        total += q * q
    for h in h_backlogs:
        total += h * h
    for z in z_values:
        total += z * z
    return 0.5 * total
