"""Decision and observation dataclasses exchanged by the control plane.

One slot of the online algorithm (Section IV-C) is: observe the random
state (:class:`SlotObservation` — the realised ``W_m(t)``, ``R_i(t)``
and ``omega_i(t)``), solve S1-S4, and emit a :class:`SlotDecision` that
the simulator applies to the queues and batteries.  The fields mirror
the paper's decision variables: ``a_ij^m`` / ``p_ij^m`` (Eqs. 20-24),
``k_s`` admission splits (Eq. 19), ``l_ij^s`` routing rates (Eq. 25),
and the per-node energy allocation of Eqs. 2-3 and 9-14.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, List, Mapping, Optional, Tuple

import numpy as np

from repro.axes import (
    AnyArray,
    BandVec,
    LinkBandMat,
    LinkIds,
    LinkToNode,
    NodeBandMat,
    NodeIds,
    NodeJoules,
    NodeVec,
    SessionToNode,
)
from repro.network.spectrum import BandState
from repro.phy.capacity import max_link_capacity_bps
from repro.phy.propagation import PairGains
from repro.types import Link, LinkBand, NodeId, SessionId, Transmission

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.model import NetworkModel


@dataclass(frozen=True)
class SlotObservation:
    """The realised random state at the start of a slot.

    Attributes:
        slot: slot index ``t``.
        bands: realised bandwidths ``W_m(t)``.
        renewable_j: ``(N,)`` harvested energy ``R_i(t)`` per node (J).
        grid_connected: ``(N,)`` bool realised ``omega_i(t)`` per node.
        gains: the slot's pair-gain view when mobility is enabled — a
            :class:`~repro.phy.propagation.ComputedPairGains` over the
            slot's positions, read through ``[tx, rx]``, ``pairs``,
            ``submatrix`` and ``column`` like the topology's
            ``pair_gains``; None means the static topology gains
            apply (:meth:`pair_gains` picks between them).
        band_access: ``(N, M)`` bool table of the bands each node may
            use this slot when dynamic availability is enabled, built
            once per slot; None means the static ``M_i`` sets apply.
    """

    slot: int
    bands: BandState
    renewable_j: NodeJoules
    grid_connected: NodeVec
    gains: Optional[PairGains] = None
    band_access: Optional[NodeBandMat] = None

    def pair_gains(self, model: "NetworkModel") -> PairGains:
        """The slot's gains: the mobile view, else the topology's."""
        if self.gains is not None:
            return self.gains
        return model.topology.pair_gains

    def common_bands(
        self, model: "NetworkModel", tx: NodeId, rx: NodeId
    ) -> frozenset:
        """``M_i(t) ∩ M_j(t)``: usable bands on link ``(tx, rx)`` now."""
        if self.band_access is not None:
            both = self.band_access[tx] & self.band_access[rx]
            return frozenset(np.flatnonzero(both).tolist())
        return model.spectrum.common_bands(tx, rx)

    def band_service_pkts(self, model: "NetworkModel") -> BandVec:
        """``(M,)`` packets a successful transmission on each band carries.

        ``W_m(t) log2(1 + Gamma)`` over the slot, in packets (Eq. 1).
        """
        params = model.params
        num_bands = model.spectrum.num_bands
        bps = np.fromiter(
            (
                max_link_capacity_bps(
                    self.bands.bandwidth(band), params.sinr_threshold
                )
                for band in range(num_bands)
            ),
            dtype=float,
            count=num_bands,
        )
        return bps * params.slot_seconds / params.sessions.packet_size_bits

    def band_noise_w(self, model: "NetworkModel") -> BandVec:
        """``(M,)`` thermal-noise powers ``eta W_m(t)`` of the slot's bands."""
        num_bands = model.spectrum.num_bands
        return np.fromiter(
            (
                model.noise_power_w(self.bands.bandwidth(band))
                for band in range(num_bands)
            ),
            dtype=float,
            count=num_bands,
        )

    def link_band_member(
        self, model: "NetworkModel", rows: Optional[LinkIds] = None
    ) -> LinkBandMat:
        """``M_i(t) ∩ M_j(t)`` as an ``(L, M)`` mask over the link index.

        ``rows`` restricts it to those link positions.  Static spectrum
        reads the model's frozen mask; dynamic availability indexes the
        slot's :attr:`band_access` table with the link endpoints.
        """
        if self.band_access is None:
            member = model.link_band_member
            return member if rows is None else member[rows]
        link_tx, link_rx = model.topology.link_tx, model.topology.link_rx
        if rows is not None:
            link_tx, link_rx = link_tx[rows], link_rx[rows]
        return self.band_access[link_tx] & self.band_access[link_rx]


def _no_entries(dtype: type) -> AnyArray:
    return np.zeros(0, dtype=dtype)


def appearance_groups(values: AnyArray) -> Tuple[AnyArray, AnyArray, AnyArray]:
    """Group ``values`` in order of first appearance.

    Returns each element's group index, the group values and the group
    sizes, groups numbered by where their value first occurs.  A stable
    sort plus a neighbour compare: each run of equal sorted values is a
    group whose first element is its first appearance (the
    ``return_index`` of ``np.unique``).
    """
    perm = np.argsort(values, kind="stable")
    ordered = values[perm]
    head = np.empty(ordered.size, dtype=bool)
    head[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    order = np.argsort(perm[starts])
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    group = np.empty_like(perm)
    group[perm] = rank[np.cumsum(head) - 1]
    counts = np.diff(starts, append=ordered.size)
    return group, ordered[starts][order], counts[order]


@dataclass(frozen=True)
class ScheduleDecision:
    """S1 output: activated link-bands, powers, and realised service.

    Entry ``k`` activates band ``band[k]`` on link ``link_pos[k]``
    (from ``link_tx[link_pos[k]]`` to ``link_rx[link_pos[k]]``) at
    ``power_w[k]`` watts (``a_ij^m = 1`` with
    power ``p_ij^m``, Eqs. 20-24); entries come in schedule order.  The
    realised per-link service ``(1/delta) sum_m c_ij^m a_ij^m delta_t``
    that serves ``G_ij`` in Eq. 28 is the pair ``service_pos`` /
    ``service_pkts``: one entry per served link, in the order of the
    link's first entry.  The relaxed-LP bound fills only that pair
    (fractional service, no transmissions).

    Attributes:
        link_pos: ``(K,)`` positions in the frozen link index.
        band: ``(K,)`` band ids.
        power_w: ``(K,)`` transmit powers (W).
        service_pos: ``(J,)`` served link positions, no repeats.
        service_pkts: ``(J,)`` realised service (packets).
        dropped: link-bands selected by the scheduler but dropped by
            power control (no feasible SINR) or energy curtailment.
        link_tx / link_rx: ``(L,)`` endpoint arrays of the frozen link
            index the positions point into (shared, not copied).
    """

    link_pos: LinkIds = field(default_factory=lambda: _no_entries(np.intp))
    band: AnyArray = field(default_factory=lambda: _no_entries(np.intp))
    power_w: AnyArray = field(default_factory=lambda: _no_entries(np.float64))
    service_pos: LinkIds = field(default_factory=lambda: _no_entries(np.intp))
    service_pkts: AnyArray = field(default_factory=lambda: _no_entries(np.float64))
    dropped: Tuple[LinkBand, ...] = ()
    link_tx: LinkToNode = field(default_factory=lambda: _no_entries(np.intp))
    link_rx: LinkToNode = field(default_factory=lambda: _no_entries(np.intp))

    @classmethod
    def from_entries(
        cls,
        link_pos: LinkIds,
        band: AnyArray,
        power_w: AnyArray,
        band_pkts: BandVec,
        dropped: Tuple[LinkBand, ...],
        link_tx: LinkToNode,
        link_rx: LinkToNode,
    ) -> "ScheduleDecision":
        """A schedule whose service is what its entries realise.

        ``band_pkts[m]`` is the packets one transmission on band ``m``
        carries this slot.  Each link's service sums its entries' band
        packets from 0.0 in entry order (``np.add.at`` is sequential),
        so a multi-band link gets the same float as a running sum.
        """
        group, served, _ = appearance_groups(link_pos)
        service_pkts = np.zeros(served.size)
        np.add.at(service_pkts, group, band_pkts[band])
        return cls(
            link_pos,
            band,
            power_w,
            served,
            service_pkts,
            dropped,
            link_tx,
            link_rx,
        )

    def service_at(self, positions: LinkIds) -> AnyArray:
        """The realised service of each link in ``positions`` (0.0 where unserved)."""
        order = np.argsort(self.service_pos)
        at = np.searchsorted(self.service_pos, positions, sorter=order)
        hit = at < order.size
        hit[hit] = self.service_pos[order[at[hit]]] == positions[hit]
        out = np.zeros(positions.shape[0])
        out[hit] = self.service_pkts[order[at[hit]]]
        return out

    @property
    def transmissions(self) -> Tuple[Transmission, ...]:
        """The entries as :class:`~repro.types.Transmission` records.

        Built on demand, in schedule order, for export, contracts and
        fingerprints; fields are Python ints and floats.
        """
        return tuple(
            Transmission(tx=tx, rx=rx, band=band, power_w=power)
            for tx, rx, band, power in zip(
                self.link_tx[self.link_pos].tolist(),
                self.link_rx[self.link_pos].tolist(),
                self.band.tolist(),
                self.power_w.tolist(),
            )
        )

    @property
    def link_service_pkts(self) -> Mapping[Link, float]:
        """Read-only ``{link: packets}`` view of the realised service.

        Built on demand for export, drift diagnostics, contracts and
        fingerprints, in ``service_pos`` order; values are Python floats.
        """
        pos = self.service_pos
        return MappingProxyType(
            dict(
                zip(
                    zip(self.link_tx[pos].tolist(), self.link_rx[pos].tolist()),
                    self.service_pkts.tolist(),
                )
            )
        )


@dataclass(frozen=True)
class AdmissionDecision:
    """S2 output: per-session source base station and admitted packets.

    The integral algorithm admits at a single source (constraint 19);
    the relaxed LP bound may split admission across base stations, so
    ``split`` optionally carries per-source fractional amounts.
    ``source_rows`` is ``sources`` as an ``(S,)`` vector in ``Q``
    column order, the form S3 reads.
    """

    sources: Mapping[SessionId, NodeId]
    admitted: Mapping[SessionId, float]
    source_rows: SessionToNode
    split: Mapping[SessionId, Tuple[Tuple[NodeId, float], ...]] = field(
        default_factory=dict
    )

    def queue_arrivals(
        self, session_col: Mapping[SessionId, int]
    ) -> Tuple[NodeIds, AnyArray, AnyArray]:
        """Eq. 15 admission arrivals as ``(rows, cols, pkts)`` vectors.

        One entry per session at its source, or one per split pair
        (possibly none) when the relaxed LP split the admission; in
        ``sources`` order, with ``session_col`` mapping a session id to
        its ``Q`` column.
        """
        entries = [
            (node, session_col[s], float(k))
            for s, source in self.sources.items()
            for node, k in self.split.get(s, ((source, self.admitted[s]),))
        ]
        rows, cols, pkts = zip(*entries) if entries else ((), (), ())
        return (
            np.array(rows, dtype=np.intp),
            np.array(cols, dtype=np.intp),
            np.array(pkts, dtype=np.float64),
        )

    def total_admitted(self) -> float:
        """Network-wide admitted packets ``sum_s k_s`` this slot."""
        return float(sum(self.admitted.values()))


@dataclass(frozen=True)
class RoutingDecision:
    """S3 output: per-link per-session packet rates ``l_ij^s(t)``.

    Entry ``k`` routes ``pkts[k]`` packets of session
    ``sessions[session_col[k]]`` over link ``link_pos[k]``.
    Entries come in emission order and no ``(link, session)`` pair
    repeats.

    Attributes:
        link_pos: ``(K,)`` positions in the frozen link index.
        session_col: ``(K,)`` session columns of ``Q``.
        pkts: ``(K,)`` routed packets.
        link_tx / link_rx: ``(L,)`` endpoint arrays of the frozen link
            index ``link_pos`` points into (shared, not copied).
        sessions: session ids in column order.
    """

    link_pos: LinkIds
    session_col: AnyArray
    pkts: AnyArray
    link_tx: LinkToNode
    link_rx: LinkToNode
    sessions: Tuple[SessionId, ...]

    @property
    def rates(self) -> Mapping[Tuple[NodeId, NodeId, SessionId], float]:
        """Read-only ``{(tx, rx, session): pkts}`` view, in emission order.

        Built on demand for export, drift diagnostics, contracts and
        fingerprints; keys are Python ints and values Python floats.
        """
        sessions = self.sessions
        return MappingProxyType(
            {
                (tx, rx, sessions[col]): pkts
                for tx, rx, col, pkts in zip(
                    self.link_tx[self.link_pos].tolist(),
                    self.link_rx[self.link_pos].tolist(),
                    self.session_col.tolist(),
                    self.pkts.tolist(),
                )
            }
        )


@dataclass
class BatchAllocation:
    """S4 energy split as struct-of-arrays, one row per node (joules).

    Row ``i`` of every vector belongs to the node in row ``i`` of the
    :class:`~repro.control.energy_manager.NodeEnergyBatch` that produced
    it; the controller's batch lists nodes ``0..N-1``, so there the row
    *is* the node id.

    Attributes:
        renewable_serve_j: ``r_i`` — renewable energy serving demand.
        renewable_charge_j: ``c^r_i`` — renewable energy charging.
        grid_serve_j: ``g_i`` — grid energy serving demand.
        grid_charge_j: ``c^g_i`` — grid energy charging.
        discharge_j: ``d_i`` — battery discharge serving demand.
        spill_j: harvested renewable energy left unused (our curtailment
            extension of Eq. (3); see DESIGN.md).
    """

    renewable_serve_j: NodeJoules
    renewable_charge_j: NodeJoules
    grid_serve_j: NodeJoules
    grid_charge_j: NodeJoules
    discharge_j: NodeJoules
    spill_j: NodeJoules

    def __len__(self) -> int:
        return int(self.discharge_j.shape[0])

    @property
    def charge_j(self) -> NodeJoules:
        """Total charging ``c_i = c^r_i + c^g_i`` per row."""
        return self.renewable_charge_j + self.grid_charge_j

    @property
    def grid_draw_j(self) -> NodeJoules:
        """Total grid draw ``g_i + c^g_i`` per row (constraint 14)."""
        return self.grid_serve_j + self.grid_charge_j

    @property
    def demand_served_j(self) -> NodeJoules:
        """Energy delivered to each row's demand this slot."""
        return self.renewable_serve_j + self.grid_serve_j + self.discharge_j


@dataclass(frozen=True)
class EnergyManagementDecision:
    """S4 output: the per-node allocation plus the provider-level totals.

    Attributes:
        allocation: per-node energy splits, row = node.
        bs_grid_draw_j: ``P(t)`` — total base-station grid draw (J).
        cost: the slot's generation cost ``f(P(t))``.
    """

    allocation: BatchAllocation
    bs_grid_draw_j: float
    cost: float


@dataclass
class SlotDecision:
    """Everything the controller decided for one slot."""

    schedule: ScheduleDecision
    admission: AdmissionDecision
    routing: RoutingDecision
    energy: EnergyManagementDecision
    #: Link-bands removed by the energy-feasibility curtailment pass.
    curtailed: List[LinkBand] = field(default_factory=list)
