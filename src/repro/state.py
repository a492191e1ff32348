"""Mutable per-run network state: all queues, batteries, and processes.

``NetworkState`` owns every stateful object of one simulation run —
the queue and battery arrays, batteries with their shifted energy
queues, grid connections and renewable processes — and provides the
read accessors the controller needs plus the apply/advance methods the
simulator calls at the end of each slot.

The state is *array-backed*: every hot per-slot quantity lives in an
:class:`~repro.core.arraystate.ArrayState` (``Q`` as an ``(N, S)``
array, ``G`` as ``(L,)``, battery levels as ``(N,)``) and the per-slot
updates run as its vectorized kernels (Eqs. 4, 15 and 28).  The
dict-shaped read accessors (``h_backlogs``, ``z_values``,
``battery_levels``) return thin mapping adapters over the arrays, so
external callers — the relaxed-LP controller, drift diagnostics,
contract checker — read them like dicts.
Behaviour is pinned by the committed trajectory fingerprints in
``tests/golden/trajectories.json``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.axes import AnyArray
from repro.control.decisions import SlotDecision, SlotObservation
from repro.core.arraystate import ArrayState, LinkArrayMapping, NodeArrayMapping
from repro.core.lyapunov import LyapunovConstants
from repro.energy.battery import Battery
from repro.energy.grid import GridConnection
from repro.energy.renewable import (
    DiurnalSolarProcess,
    MarkovWindProcess,
    RenewableProcess,
    UniformRenewableProcess,
    ZeroRenewableProcess,
)
from repro.model import NetworkModel
from repro.network.mobility import (
    MobilityModel,
    RandomWaypointMobility,
    StaticMobility,
)
from repro.phy.propagation import ComputedPairGains
from repro.queueing.backlog import BacklogSnapshot, make_snapshot_from_arrays
from repro.queueing.energy_queue import ShiftedEnergyQueue
from repro.types import MobilityKind, NodeId, RenewableKind, SessionId


def _build_renewable(
    kind: RenewableKind,
    max_power_w: float,
    slot_seconds: float,
    rng: np.random.Generator,
) -> RenewableProcess:
    """Instantiate the configured renewable process for one node."""
    if kind is RenewableKind.ZERO or max_power_w <= 0:
        return ZeroRenewableProcess()
    if kind is RenewableKind.UNIFORM:
        return UniformRenewableProcess(max_power_w, slot_seconds, rng)
    if kind is RenewableKind.SOLAR:
        return DiurnalSolarProcess(max_power_w, slot_seconds, rng)
    if kind is RenewableKind.WIND:
        return MarkovWindProcess(max_power_w, slot_seconds, rng)
    raise ValueError(f"unknown renewable kind {kind!r}")


class NetworkState:
    """All mutable state of one simulation run (array-backed)."""

    def __init__(
        self,
        model: NetworkModel,
        constants: LyapunovConstants,
        rng: np.random.Generator,
    ) -> None:
        """Spawn component RNG streams and build all stateful objects.

        Cold path: runs once per simulation run.
        """
        self.model = model
        self.constants = constants
        params = model.params

        # One independent child generator per stochastic component
        # (bands, then per-node renewable and grid), in a fixed order.
        # Components that happen to draw nothing (e.g. the zero
        # renewable process of the no-renewable baselines) still own a
        # stream, so disabling one component never shifts the sample
        # path of any other — architecture comparisons stay paired.
        children = rng.spawn(1 + 2 * model.num_nodes)
        band_rng = children[0]
        renewable_rngs = children[1 : 1 + model.num_nodes]
        grid_rngs = children[1 + model.num_nodes :]
        model.spectrum.reseed(band_rng)

        # Dynamic spectrum availability (extension): spawned only when
        # enabled so static scenarios keep their sample paths.
        self.availability = None
        if params.spectrum.dynamic_availability:
            from repro.network.spectrum import MarkovBandAvailability

            self.availability = MarkovBandAvailability(
                users=model.user_ids,
                random_bands=range(1, model.spectrum.num_bands),
                rng=rng.spawn(1)[0],
                on_prob=params.spectrum.availability_on_prob,
                persistence=params.spectrum.availability_persistence,
            )

        # Mobility (extension): spawned only when enabled so static
        # scenarios keep their historical sample paths.
        initial_positions = [n.position for n in model.nodes]
        if params.mobility is MobilityKind.RANDOM_WAYPOINT:
            self.mobility: MobilityModel = RandomWaypointMobility(
                initial=initial_positions,
                mobile=list(model.user_ids),
                area_side_m=params.area_side_m,
                speed_range_mps=params.user_speed_range_mps,
                slot_seconds=params.slot_seconds,
                rng=rng.spawn(1)[0],
            )
        else:
            self.mobility = StaticMobility(initial_positions)

        self.arrays = ArrayState(model, constants)
        #: Effective ``(K,)`` per-entry transfer of the last applied
        #: routing decision (Eq. 15), for delivery accounting.
        self.last_transfer_pkts: AnyArray = np.zeros(0)

        self.batteries: Dict[NodeId, Battery] = {}
        self.energy_queues: Dict[NodeId, ShiftedEnergyQueue] = {}
        self.grids: Dict[NodeId, GridConnection] = {}
        self.renewables: Dict[NodeId, RenewableProcess] = {}
        for node in model.nodes:
            energy = node.energy
            self.batteries[node.node_id] = Battery(
                capacity_j=energy.battery_capacity_j,
                charge_cap_j=energy.charge_cap_j,
                discharge_cap_j=energy.discharge_cap_j,
                charge_efficiency=energy.charge_efficiency,
                discharge_efficiency=energy.discharge_efficiency,
            )
            self.energy_queues[node.node_id] = ShiftedEnergyQueue(
                node=node.node_id,
                control_v=params.control_v,
                gamma_max=constants.gamma_max,
                discharge_cap_j=energy.discharge_cap_j,
            )
            self.grids[node.node_id] = GridConnection(
                draw_cap_j=energy.grid_cap_j,
                connect_prob=energy.grid_connect_prob,
                rng=grid_rngs[node.node_id],
            )
            if params.renewables_enabled:
                kind = (
                    params.bs_renewable_kind
                    if node.is_base_station
                    else params.user_renewable_kind
                )
            else:
                kind = RenewableKind.ZERO
            self.renewables[node.node_id] = _build_renewable(
                kind,
                energy.renewable_max_w,
                params.slot_seconds,
                renewable_rngs[node.node_id],
            )
        # Battery and shifted queue share one level slot per node (the
        # engine always mirrors the battery level into the queue), so
        # the vectorized apply updates both at once.
        for node_id in range(model.num_nodes):
            self.batteries[node_id].bind_storage(self.arrays.battery_level, node_id)
            self.energy_queues[node_id].bind_storage(
                self.arrays.battery_level, node_id
            )
        self.reset_caches()

    # ------------------------------------------------------------------
    # Observation sampling
    # ------------------------------------------------------------------

    def reset_caches(self) -> None:
        """Invalidate every derived per-slot cache and rebuild the sampling plan.

        Call after rebinding ``mobility``, ``grids`` or ``renewables``
        on a live state (e.g. scripted-outage experiments): the
        sampling plan is built here only, so a swapped component is
        not sampled until this runs, and a stale gain view or sampling
        plan can never leak across reconfigured runs.  Idempotent; O(N).
        """
        self._gains_cache_slot = -1
        self._gains_cache: Optional[ComputedPairGains] = None
        self._refresh_sampling_plan()

    def _current_gains(self, slot: int) -> Optional[ComputedPairGains]:
        """The slot's pair-gain view under mobility; None when static.

        The view holds only the slot's ``(N, 2)`` positions and computes
        each queried gain on demand, bit-identical to the all-pairs
        matrix entry, so no per-slot work is quadratic in ``N``.
        """
        if isinstance(self.mobility, StaticMobility):
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

    def _refresh_sampling_plan(self) -> None:
        """Classify renewable/grid components for batched sampling.

        Cold path: runs from :meth:`reset_caches` only, so it sees the
        component bindings of construction time or of the last
        ``reset_caches()`` call; a component swapped in later (e.g. a
        ``ScriptedGridConnection``) is ignored until that call.
        Components that never draw — zero renewables, grids pinned
        connected or disconnected — are precomputed as constants;
        everything else keeps its own per-slot ``sample`` call in node
        order.
        """
        renewable_draws: List[Tuple[NodeId, RenewableProcess]] = []
        for node, process in self.renewables.items():
            if type(process) is not ZeroRenewableProcess:
                renewable_draws.append((node, process))
        grid_static = np.zeros(self.model.num_nodes, dtype=bool)
        grid_draws: List[Tuple[NodeId, GridConnection]] = []
        for node, grid in self.grids.items():
            if type(grid) is GridConnection and grid.always_connected:
                grid_static[node] = True
            elif type(grid) is GridConnection and grid.connect_prob <= 0.0:
                grid_static[node] = False
            else:
                grid_draws.append((node, grid))
        self._renewable_draws = renewable_draws
        self._grid_draws = grid_draws
        self._grid_static = grid_static
        self._grid_caps = np.fromiter(
            (grid.draw_cap_j for grid in self.grids.values()),
            dtype=float,
            count=self.model.num_nodes,
        )

    def observe(self, slot: int) -> SlotObservation:
        """Sample the slot's random state (bands, renewables, grid).

        Sampling is idempotent per slot only for mobility (positions
        are cached); band/renewable/grid draws advance their streams,
        so the engine observes each slot exactly once.  The draws land
        in dense per-node arrays, skipping components that provably
        consume no randomness; the surviving ``sample`` calls hit their
        per-component streams in node order.
        """
        band_access = None
        if self.availability is not None:
            self.availability.advance_to(slot)
            band_access = self.availability.mask(self.model.band_access)
        bands = self.model.spectrum.sample(slot)
        renewable = np.zeros(self.model.num_nodes)
        for node, process in self._renewable_draws:
            renewable[node] = process.sample(slot)
        connected = self._grid_static.copy()
        for node, grid in self._grid_draws:
            connected[node] = grid.sample_connected(slot)
        return SlotObservation(
            slot=slot,
            bands=bands,
            renewable_j=NodeArrayMapping(renewable),
            grid_connected=NodeArrayMapping(connected),
            gains=self._current_gains(slot),
            band_access=band_access,
        )

    # ------------------------------------------------------------------
    # Read accessors for the controller
    # ------------------------------------------------------------------

    def backlog(self, node: NodeId, session: SessionId) -> float:
        """``Q_i^s(t)``; a session's destination reads a permanent 0."""
        arrays = self.arrays
        return float(arrays.q[node, arrays.session_col[session]])

    def h_backlogs(self) -> LinkArrayMapping:
        """``H_ij(t) = beta * G_ij(t)`` (Eq. 30) per candidate link.

        Frozen at read time: a fresh array, so later ``G`` updates do
        not move it.
        """
        arrays = self.arrays
        return LinkArrayMapping(
            self.constants.beta * arrays.g, arrays.links, arrays.link_pos
        )

    def grid_caps_array(self) -> np.ndarray:
        """``(N,)`` grid draw caps, rebuilt by :meth:`reset_caches`.

        Values are the same floats the per-node
        ``grids[node].draw_cap_j`` reads returned when the plan was
        built; the batched controller uses this to assemble S4 inputs
        without a per-node loop.
        """
        return self._grid_caps

    def z_values(self) -> Mapping[NodeId, float]:
        """``z_i(t)`` for every node (frozen at read time)."""
        return NodeArrayMapping(self.arrays.z_values_array())

    def battery_levels(self) -> Mapping[NodeId, float]:
        """``x_i(t)`` for every node (frozen at read time)."""
        return NodeArrayMapping(self.arrays.battery_level.copy())

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
        service = decision.schedule.service_vector(len(arrays.links))
        arrays.advance_g(routing.link_pos, routing.pkts, service)

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
        return make_snapshot_from_arrays(slot=slot, arrays=arrays)
