"""Mutable per-run network state: queues, batteries, and random processes.

``NetworkState`` owns every stateful part of one simulation run: the
:class:`~repro.core.arraystate.ArrayState` of queues and batteries, and
the random processes the slot's observation samples — bands, renewable
output and the grid connection ``omega_i(t)`` (Eqs. 5-6).  It provides
the read accessors the controller needs plus the apply/advance methods
the simulator calls at the end of each slot.

The state is *array-backed*: every hot per-slot quantity lives in the
``ArrayState`` (``Q`` as an ``(N, S)`` array, ``G`` as ``(L,)``, battery
levels, caps, grid caps and connection probabilities as ``(N,)``) and
the per-slot updates run as its vectorized kernels (Eqs. 4, 15 and 28).
There is no per-node object: a node's renewable process and grid stream
exist only if they draw.  The read accessors (``h_backlogs``,
``z_values``, ``battery_levels``) return ``(L,)``/``(N,)`` arrays over
the frozen link and node indices (``H`` as a read-only view of the
buffer the ``G`` writes keep, the others fresh), and each observation
carries its renewable harvest and grid connection as ``(N,)`` arrays.
Behaviour is pinned by the committed trajectory fingerprints in
``tests/golden/trajectories.json``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.axes import AnyArray, LinkPackets, NodeJoules, NodeVec
from repro.control.decisions import SlotDecision, SlotObservation
from repro.core.arraystate import ArrayState
from repro.core.lyapunov import LyapunovConstants
from repro.energy.renewable import (
    DiurnalSolarProcess,
    MarkovWindProcess,
    RenewableProcess,
    UniformRenewableProcess,
)
from repro.exceptions import EnergyError
from repro.model import NetworkModel
from repro.network.mobility import RandomWaypointMobility
from repro.phy.propagation import ComputedPairGains
from repro.queueing.backlog import BacklogSnapshot, make_snapshot_from_arrays
from repro.sim.rng import spawn_child
from repro.types import MobilityKind, NodeId, Point, RenewableKind, SessionId

#: Doubles in one block of renewable draws: at most 1 MiB, whatever N.
_BLOCK_DOUBLES = 2**17

#: The renewable process of each drawing kind (``ZERO`` draws nothing).
_RENEWABLE_PROCESSES = {
    RenewableKind.UNIFORM: UniformRenewableProcess,
    RenewableKind.SOLAR: DiurnalSolarProcess,
    RenewableKind.WIND: MarkovWindProcess,
}


class NetworkState:
    """All mutable state of one simulation run (array-backed)."""

    def __init__(
        self,
        model: NetworkModel,
        constants: LyapunovConstants,
        rng: np.random.Generator,
    ) -> None:
        """Build the arrays and the RNG streams of the components that draw.

        Cold path: runs once per simulation run.
        """
        self.model = model
        self.constants = constants
        params = model.params
        num_nodes = model.num_nodes

        # The environment stream's spawn family, in a fixed order: child
        # 0 for the bands, 1 + i for node i's renewable output, 1 + N + i
        # for its grid connection, then availability and mobility.  Only
        # components that draw get their child (see spawn_child), but
        # every index is reserved, so disabling one component never
        # shifts the sample path of any other and architecture
        # comparisons stay paired.
        model.spectrum.reseed(spawn_child(rng, 0))
        next_child = 1 + 2 * num_nodes

        # Dynamic spectrum availability (extension): a stream only when
        # enabled so static scenarios keep their sample paths.
        self.availability = None
        if params.spectrum.dynamic_availability:
            from repro.network.spectrum import MarkovBandAvailability

            self.availability = MarkovBandAvailability(
                users=model.user_ids,
                random_bands=range(1, model.spectrum.num_bands),
                rng=spawn_child(rng, next_child),
                on_prob=params.spectrum.availability_on_prob,
                persistence=params.spectrum.availability_persistence,
            )
            next_child += 1

        # Mobility (extension): None for static users; a stream only
        # when enabled so static scenarios keep their historical sample
        # paths.
        self.mobility: Optional[RandomWaypointMobility] = None
        if params.mobility is MobilityKind.RANDOM_WAYPOINT:
            self.mobility = RandomWaypointMobility(
                initial=[Point(x, y) for x, y in model.positions.tolist()],
                mobile=list(model.user_ids),
                area_side_m=params.area_side_m,
                speed_range_mps=params.user_speed_range_mps,
                slot_seconds=params.slot_seconds,
                rng=spawn_child(rng, next_child),
            )

        self.arrays = ArrayState(model, constants)
        #: Effective ``(K,)`` per-entry transfer of the last applied
        #: routing decision (Eq. 15), for delivery accounting.
        self.last_transfer_pkts: AnyArray = np.zeros(0)

        # omega_i(t) (Eqs. 5-6): always 1 at p = 1, always 0 at p = 0;
        # only a node strictly between draws, from its own stream.
        connect_prob = self.arrays.connect_prob
        self._grid_static: NodeVec = connect_prob >= 1.0
        intermittent = np.flatnonzero((connect_prob > 0.0) & (connect_prob < 1.0))
        self._grid_draws: List[Tuple[NodeId, np.random.Generator]] = [
            (node, spawn_child(rng, 1 + num_nodes + node))
            for node in intermittent.tolist()
        ]
        # One process per drawing node, on child 1 + node, in ascending
        # node order: the stations' rows, then the users'.  A class
        # draws for all of its nodes or none, so the drawing nodes are
        # one contiguous range starting at ``_renewable_first``.
        self._renewables: List[RenewableProcess] = []
        self._renewable_first = 0
        #: ``(first, stop, process)`` node range of each class whose
        #: draws take a slot factor, with one of its processes.
        self._scaled_classes: List[Tuple[NodeId, NodeId, RenewableProcess]] = []
        if params.renewables_enabled:
            classes = (
                (params.bs_renewable_kind, params.bs_energy, model.bs_ids),
                (params.user_renewable_kind, params.user_energy, model.user_ids),
            )
            for kind, energy, nodes in classes:
                max_w = energy.renewable_max_w
                if kind is RenewableKind.ZERO or max_w <= 0 or not nodes:
                    continue
                if not self._renewables:
                    self._renewable_first = nodes[0]
                processes = [
                    _RENEWABLE_PROCESSES[kind](
                        max_w, params.slot_seconds, spawn_child(rng, 1 + node)
                    )
                    for node in nodes
                ]
                if processes[0].slot_scale(0) is not None:
                    self._scaled_classes.append((nodes[0], nodes[-1] + 1, processes[0]))
                self._renewables.extend(processes)
        # The draws of the next ``_block_width`` observed slots, one row
        # per drawing node; filled on first use, then again once every
        # column has been read (see observe).
        self._block_width = max(
            1, min(params.num_slots, _BLOCK_DOUBLES // max(1, len(self._renewables)))
        )
        self._block: AnyArray = np.zeros((len(self._renewables), 0))
        self._block_col = 0
        #: Scripted grid outages: ``(start, end, (N,) mask)`` windows.
        self._outages: List[Tuple[int, int, NodeVec]] = []
        self._gains_cache_slot = -1
        self._gains_cache: Optional[ComputedPairGains] = None

    # ------------------------------------------------------------------
    # Observation sampling
    # ------------------------------------------------------------------

    def schedule_grid_outage(
        self, nodes: Iterable[NodeId], start: int, end: int
    ) -> None:
        """Disconnect ``nodes`` from the grid for slots ``[start, end)``.

        Failure injection: inside the window ``omega_i(t) = 0`` whatever
        the node's connection probability, and the node's grid stream
        does not draw, so its draws after the window are the ones it
        would have made at the window's start.  Windows accumulate.

        Raises:
            EnergyError: on an empty window (``start >= end``).
        """
        if start >= end:
            raise EnergyError(f"empty outage window [{start}, {end}); use start < end")
        mask = np.zeros(self.model.num_nodes, dtype=bool)
        mask[list(nodes)] = True
        self._outages.append((start, end, mask))

    def _current_gains(self, slot: int) -> Optional[ComputedPairGains]:
        """The slot's pair-gain view under mobility; None when static.

        The view holds only the slot's ``(N, 2)`` positions and computes
        each queried gain on demand, bit-identical to the all-pairs
        matrix entry, so no per-slot work is quadratic in ``N``.
        """
        if self.mobility is None:
            return None
        if slot != self._gains_cache_slot:
            params = self.model.params
            positions = self.mobility.positions_at(slot)
            self._gains_cache = ComputedPairGains(
                np.array([(p.x, p.y) for p in positions], dtype=float),
                params.propagation_constant,
                params.path_loss_exponent,
            )
            self._gains_cache_slot = slot
        return self._gains_cache

    def observe(self, slot: int) -> SlotObservation:
        """Sample the slot's random state (bands, renewables, grid).

        Sampling is idempotent per slot only for mobility (positions
        are cached); band/renewable/grid draws advance their streams,
        so the engine observes each slot exactly once.  The draws land
        in dense per-node arrays; only the components that draw are
        visited, each on its own stream, in node order.  Renewable
        draws come from a block drawn ahead for the next observed slots
        (one column per call; see :meth:`_next_renewable_column`), so
        the values are those of one ``sample`` call per node per slot.
        """
        band_access = None
        if self.availability is not None:
            self.availability.advance_to(slot)
            band_access = self.availability.mask(self.model.band_access)
        bands = self.model.spectrum.sample(slot)
        renewable = np.zeros(self.model.num_nodes)
        if self._renewables:
            column = self._next_renewable_column()
            first = self._renewable_first
            renewable[first : first + column.shape[0]] = column
            for start, stop, process in self._scaled_classes:
                renewable[start:stop] = (
                    process.slot_scale(slot) * column[start - first : stop - first]
                )
        outage = self._outage_mask(slot)
        connected = self._grid_static.copy()
        connect_prob = self.arrays.connect_prob
        for node, stream in self._grid_draws:
            if outage is None or not outage[node]:
                connected[node] = stream.random() < connect_prob[node]
        if outage is not None:
            connected &= ~outage
        return SlotObservation(
            slot=slot,
            bands=bands,
            renewable_j=renewable,
            grid_connected=connected,
            gains=self._current_gains(slot),
            band_access=band_access,
        )

    def _next_renewable_column(self) -> AnyArray:
        """The drawing nodes' next renewable draws, one per node.

        Reads one column of the block, refilling it from every node's
        stream once its columns are used up: a node's row is its next
        ``_block_width`` draws, the ones its per-slot samples would make.
        """
        if self._block_col == self._block.shape[1]:
            block = np.empty((len(self._renewables), self._block_width))
            for row, process in enumerate(self._renewables):
                block[row] = process.block(self._block_width)
            self._block = block
            self._block_col = 0
        column = self._block[:, self._block_col]
        self._block_col += 1
        return column

    def _outage_mask(self, slot: int) -> Optional[NodeVec]:
        """``(N,)`` mask of the nodes in a scripted outage; None if none."""
        mask = None
        for start, end, nodes in self._outages:
            if start <= slot < end:
                mask = nodes if mask is None else mask | nodes
        return mask

    # ------------------------------------------------------------------
    # Read accessors for the controller
    # ------------------------------------------------------------------

    def backlog(self, node: NodeId, session: SessionId) -> float:
        """``Q_i^s(t)``; a session's destination reads a permanent 0."""
        arrays = self.arrays
        return float(arrays.q[node, arrays.session_col[session]])

    def h_backlogs(self) -> LinkPackets:
        """``(L,)`` ``H_ij(t) = beta * G_ij(t)`` (Eq. 30) by link position.

        A read-only view of :attr:`ArrayState.h`, which the ``G``
        writes keep equal to ``beta * G``: it is not frozen, so the
        next :meth:`apply` moves it.  Copy it to keep the slot's values.
        """
        return self.arrays.h_view

    def z_values(self) -> NodeJoules:
        """``(N,)`` ``z_i(t)`` by node id (frozen at read time)."""
        return self.arrays.z_values_array()

    def battery_levels(self) -> NodeJoules:
        """``(N,)`` ``x_i(t)`` by node id (frozen at read time)."""
        return self.arrays.battery_level.copy()

    # ------------------------------------------------------------------
    # Slot advance
    # ------------------------------------------------------------------

    def apply(
        self,
        decision: SlotDecision,
        slot: int,
        enforce_complementarity: bool = True,
    ) -> BacklogSnapshot:
        """Apply one slot's decision to every queue and battery.

        Args:
            decision: the controller's output for this slot.
            slot: slot index (stamped on the snapshot).
            enforce_complementarity: when False — used by the relaxed
                LP bound, which drops constraint (9) — simultaneous
                charge and discharge are netted before hitting the
                battery, leaving the level trajectory identical.

        Returns:
            The post-update backlog snapshot for the metrics collector.
        """
        arrays = self.arrays
        routing = decision.routing

        # Data queues (Eq. 15).
        self.last_transfer_pkts = arrays.advance_q(
            routing.link_pos,
            routing.session_col,
            routing.pkts,
            *decision.admission.queue_arrivals(arrays.session_col),
        )

        # Virtual queues (Eqs. 28/30): arrivals are routed packets,
        # service is the realised scheduled capacity.
        schedule = decision.schedule
        arrays.advance_g(
            routing.link_pos, routing.pkts, schedule.service_pos, schedule.service_pkts
        )

        # Batteries and shifted energy queues (Eqs. 4 and 31).  The
        # allocation's discharge is *delivered* energy; the battery
        # drains 1/eta_d of it.
        allocation = decision.energy.allocation
        charge_j = allocation.charge_j
        drain_j = allocation.discharge_j / arrays.discharge_efficiency
        if not enforce_complementarity:
            net = charge_j - drain_j
            charge_j = np.maximum(net, 0.0)
            drain_j = np.maximum(-net, 0.0)
        arrays.apply_battery_actions(charge_j, drain_j)
        return make_snapshot_from_arrays(
            slot=slot, arrays=arrays, num_bs=self.model.params.num_base_stations
        )
