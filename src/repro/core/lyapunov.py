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
from typing import Iterable, Tuple

import numpy as np

from repro.axes import AnyArray, LinkPackets, LinkToNode, NodeIds
from repro.core.arraystate import seq_sum
from repro.model import NetworkModel
from repro.phy.capacity import max_link_capacity_bps
from repro.types import NodeId


@dataclass(frozen=True)
class LyapunovConstants:
    """Derived constants for one scenario.

    Attributes:
        beta: virtual-queue scaling (packets).
        gamma_max: max marginal cost ``f'`` over feasible ``P`` (per J).
        drift_b: the Eq. (34) constant ``B``.
        link_capacity_pkts: ``(L,)`` per-candidate-link best single-band
            service ``c_max_ij * delta_t / delta`` (packets per slot),
            over the frozen link index.
        link_service_bound_pkts: ``(L,)`` largest realised service of a
            link in one slot: the sum of its ``min(R_i, R_j)`` largest
            common-band capacities (packets per slot).  Equal to
            ``link_capacity_pkts`` when either endpoint has one radio.
    """

    beta: float
    gamma_max: float
    drift_b: float
    link_capacity_pkts: LinkPackets
    link_service_bound_pkts: LinkPackets

    def max_service_pkts(self, node: NodeId, link_tx: LinkToNode) -> float:
        """Largest single-band service of any one of ``node``'s out-links.

        ``link_tx`` is the ``(L,)`` transmitter vector of the frozen
        link index.
        """
        return float(self.link_capacity_pkts[link_tx == node].max(initial=0.0))


def _per_link_max_packets(
    model: NetworkModel, radios: NodeIds
) -> Tuple[LinkPackets, LinkPackets]:
    """Per-candidate-link single-band cap and multi-radio service bound.

    Returns ``(cap, bound)``, both ``(L,)`` packets per slot over the
    frozen link index.  ``cap`` is ``c_max_ij * delta_t / delta`` on the
    best common band: scaling a band's capacity to packets is monotone,
    so the max over the per-band packet capacities equals the scaled max
    over bits per second bit for bit.  ``bound`` adds the common bands
    in descending capacity order until ``min(R_i, R_j)`` radios are
    used (constraint 22: a link takes one radio per band at each end);
    with one radio it is the first, largest term, i.e. ``cap``.
    """
    params = model.params
    spectrum = model.spectrum
    delta_bits = params.sessions.packet_size_bits
    band_pkts = np.fromiter(
        (
            max_link_capacity_bps(band.max_bandwidth_hz, params.sinr_threshold)
            * params.slot_seconds
            / delta_bits
            for band in spectrum.bands
        ),
        dtype=float,
        count=spectrum.num_bands,
    )
    member = model.link_band_member
    # The largest member band's packets (0.0 with none), one column at a
    # time: a max is exact in any order, and numpy reduces a 5-wide
    # inner axis slowly.
    cap = np.zeros(member.shape[0])
    for band in range(member.shape[1]):
        np.maximum(cap, band_pkts[band], out=cap, where=member[:, band])
    link_tx, link_rx = model.topology.link_tx, model.topology.link_rx
    budget = np.minimum(radios[link_tx], radios[link_rx])
    bound = np.zeros(len(link_tx))
    used = np.zeros(len(link_tx), dtype=np.intp)
    for band in np.argsort(-band_pkts, kind="stable"):
        shared = member[:, band]
        bound += np.where(shared & (used < budget), band_pkts[band], 0.0)
        used += shared
    return cap, bound


def _squares(values: AnyArray) -> AnyArray:
    """Elementwise ``v ** 2`` as Python's float ``**`` computes it (libm
    ``pow``); ``v * v``, which ``np.square`` and ``v ** 2`` compute,
    differs from it in the last bit for about 0.1% of values."""
    return np.float_power(values, 2.0)


def compute_constants(model: NetworkModel) -> LyapunovConstants:
    """Compute ``beta``, ``gamma_max`` and the Eq. (34) ``B``.

    The ``B`` expression follows Eq. (34) term by term:

    * data queues: per node/session, squared worst-case service
      (largest outgoing link) plus squared worst-case arrivals
      (largest incoming link, plus ``K_max`` at base stations, which
      are the only possible session sources);
    * virtual queues: ``(beta * s_ij)^2`` per link, with ``s_ij`` the
      link's multi-radio service bound — both the arrival (at most the
      potential or scheduled capacity) and the service of ``H_ij`` are
      bounded by it;
    * energy queues: ``max(c_max_i, d_max_i)^2 / 2`` per node.

    The data and virtual terms are summed sequentially in node-major,
    then link order.
    """
    params = model.params
    radios = model.node_vector(
        params.bs_node.num_radios, params.user_node.num_radios, np.intp
    )
    link_caps, link_bound = _per_link_max_packets(model, radios)
    beta = float(link_caps.max(initial=0.0))
    if beta <= 0:
        beta = 1.0  # degenerate no-capacity network; keep H well-defined

    gamma_max = model.max_marginal_cost()

    k_max = params.sessions.k_max(params.slot_seconds)

    # Per-node worst-case outgoing/incoming link service in one O(L)
    # pass (running max is exact).
    link_tx, link_rx = model.topology.link_tx, model.topology.link_rx
    out_cap = np.zeros(model.num_nodes)
    in_cap = np.zeros(model.num_nodes)
    np.maximum.at(out_cap, link_tx, link_caps)
    np.maximum.at(in_cap, link_rx, link_caps)

    admission = np.zeros(model.num_nodes)
    admission[list(model.bs_ids)] = float(k_max)
    # With R radios a node can serve/receive up to R links at once.
    per_session = 0.5 * (
        _squares(radios * out_cap) + _squares(radios * in_cap + admission)
    )
    data_term = seq_sum(np.repeat(per_session, len(model.sessions)))

    virtual_term = seq_sum(_squares(beta * link_bound))

    # Summed row by row from 0.0, not N_class * term.
    bs, user = params.bs_energy, params.user_energy
    energy_term = seq_sum(
        0.5
        * _squares(
            model.node_vector(
                max(bs.charge_cap_j, bs.discharge_cap_j),
                max(user.charge_cap_j, user.discharge_cap_j),
            )
        )
    )

    return LyapunovConstants(
        beta=beta,
        gamma_max=gamma_max,
        drift_b=data_term + virtual_term + energy_term,
        link_capacity_pkts=link_caps,
        link_service_bound_pkts=link_bound,
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
