"""The drift-plus-penalty controller orchestrating S1-S4 per slot.

Order of operations within a slot (Section IV-C):

1. **S1** link scheduling from the current ``H_ij(t)``;
2. **energy-feasibility curtailment** (our documented extension): a
   node whose slot demand would exceed its maximum supply — renewable
   plus grid (if connected) plus battery discharge headroom — sheds
   its scheduled transmissions in increasing ``H`` order; base demand
   that still cannot be met is recorded as a deficit and shed;
3. **S2** source selection and admission control;
4. **S3** backpressure routing;
5. **S4** energy management over the realised demands.

The controller is pure decision logic: it reads the
:class:`~repro.state.NetworkState` but never mutates it — the
simulator applies the returned :class:`SlotDecision`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.axes import AnyArray, BandVec, LinkVec, NodeJoules, NodeVec
from repro.contracts import ContractChecker
from repro.control.admission import ResourceAllocator
from repro.control.decisions import (
    ScheduleDecision,
    SlotDecision,
    SlotObservation,
)
from repro.control.energy_manager import EnergyManager, NodeEnergyBatch
from repro.control.router import BackpressureRouter, RouterMode
from repro.control.scheduler import LinkScheduler
from repro.core.lyapunov import LyapunovConstants
from repro.energy.consumption import all_node_demands_array, transmission_energy_j
from repro.model import NetworkModel
from repro.types import EnergySolverKind, SchedulerKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (see state.py)
    from repro.state import NetworkState

#: Numerical slack for supply/demand comparisons (J).
_ENERGY_TOL = 1e-6


class DriftPlusPenaltyController:
    """Online finite-queue-aware energy cost minimisation (P3)."""

    def __init__(
        self,
        model: NetworkModel,
        constants: LyapunovConstants,
        rng: np.random.Generator,
        scheduler_kind: SchedulerKind = SchedulerKind.SEQUENTIAL_FIX,
        energy_solver: EnergySolverKind = EnergySolverKind.PRICE_DECOMPOSITION,
        router_mode: RouterMode = RouterMode.POTENTIAL_CAPACITY,
        checker: Optional[ContractChecker] = None,
    ) -> None:
        self._model = model
        self._constants = constants
        self.scheduler = LinkScheduler(model, constants, kind=scheduler_kind)
        self.allocator = ResourceAllocator(model, rng)
        self.router = BackpressureRouter(
            model, constants, rng, mode=router_mode
        )
        self.energy_manager = EnergyManager(model, kind=energy_solver)
        self._checker: Optional[ContractChecker] = None
        if checker is not None:
            self.attach_contracts(checker)
        # Static per-node constants for the batched control path: fixed
        # slot energy, receive power, BS membership, and node ids in
        # node-id order.  None of these change mid-run.
        params = model.params
        bs, user = params.bs_node, params.user_node
        self._fixed_energy_arr = model.node_vector(
            bs.fixed_energy_j(params.slot_seconds),
            user.fixed_energy_j(params.slot_seconds),
        )
        self._recv_power_arr = model.node_vector(bs.recv_power_w, user.recv_power_w)
        self._bs_mask = model.node_vector(True, False, bool)
        self._node_ids = np.arange(model.num_nodes, dtype=np.intp)
        self._link_tx = model.topology.link_tx
        self._link_rx = model.topology.link_rx
        self._allowed_mask = self._compute_allowed_mask()
        #: ``(N,)`` energy demand the last slot shed because no supply
        #: could cover it (J), for the metrics collector.
        self.last_deficit_j: NodeJoules = np.zeros(model.num_nodes)
        #: Previous slot's total grid draw, seeding the marginal energy
        #: price used by energy-aware scheduling.
        self._last_grid_draw_j: float = 0.0

    def attach_contracts(self, checker: ContractChecker) -> None:
        """Enable per-slot invariant checks in S1-S4 and the assembly.

        The checker also propagates to the four subproblem modules so
        each validates its own raw output (see ``docs/contracts.md``).
        """
        self._checker = checker
        self.scheduler.attach_contracts(checker)
        self.allocator.attach_contracts(checker)
        self.router.attach_contracts(checker)
        self.energy_manager.attach_contracts(checker)

    def _energy_prices(self, slot: int) -> Optional[NodeVec]:
        """Per-node marginal energy prices for the S1 weights, ``(N,)``.

        Base-station energy is priced at ``V * f'(P)`` under the
        current slot's tariff, evaluated at the previous slot's draw
        (a one-slot-lagged estimate of the S4 marginal price); user
        energy is renewable-funded and free from the provider's
        perspective, which is precisely the asymmetry that makes
        relaying through users worthwhile.
        """
        if not self._model.params.energy_aware_scheduling:
            return None
        marginal = self._model.cost_at(slot).derivative(self._last_grid_draw_j)
        price = self._model.params.control_v * marginal
        return np.where(self._bs_mask, price, 0.0)

    def _compute_allowed_mask(self) -> Optional[LinkVec]:
        """Link filter implementing the one-hop architectures.

        Multi-hop: None (all candidate links).  One-hop: an ``(L,)``
        mask over the frozen link index that keeps only direct base
        station -> user links (users never relay).
        """
        if self._model.params.multi_hop_enabled:
            return None
        return self._bs_mask[self._link_tx] & ~self._bs_mask[self._link_rx]

    # ------------------------------------------------------------------
    # Energy-feasibility curtailment
    # ------------------------------------------------------------------

    def _curtail(
        self,
        schedule: ScheduleDecision,
        supply: NodeJoules,
        h_arr: LinkVec,
        band_pkts: BandVec,
    ) -> Tuple[ScheduleDecision, NodeJoules, NodeJoules]:
        """Shed transmissions until every node's demand is supplied.

        ``supply`` is each node's renewable harvest plus the grid cap
        (if connected) plus its battery discharge headroom; it is
        clamped in place.  While some node's demand exceeds its supply,
        the lowest node id among the overloaded ones sheds its involved
        entry with the smallest ``H`` (the first such entry in schedule
        order); a node with no entry left has its unservable *base*
        demand (constant + idle energy) clamped off and recorded in the
        ``(N,)`` deficit, which also becomes ``last_deficit_j``.

        Supply only rises (a clamp lifts it to the node's demand) and
        demands only fall as entries are shed, so a node overloaded in
        one pass was overloaded in every earlier pass; each pass clamps
        the overloaded nodes below the first one with an entry left, so
        every clamped node is above all earlier ones.
        Clamps thus happen in ascending node order, once per node, and
        every other deficit entry is exactly 0.0: the strict
        left-to-right :func:`~repro.core.arraystate.seq_sum` of the
        array equals the clamp-order sum of the clamped deficits bit
        for bit.

        The work is done in place.  The demands and the ascending
        overloaded list are computed once; a cursor walks the list, so
        each pass starts where the last one stopped.  A shed changes
        only its two endpoints' demands, which are re-summed from the
        fixed energy over their alive entries in schedule order (the
        add sequence of the ``np.add.at`` in
        :func:`~repro.energy.consumption.all_node_demands_array`), and
        only they can leave the overloaded set.

        Returns the surviving schedule, whose service is rebuilt from
        the surviving entries with ``band_pkts`` (so a link shed on one
        band keeps only its other bands' packets) and whose ``dropped``
        gains the shed link-bands in shedding order, plus the ``(N,)``
        per-node demands and deficits after curtailment.
        """
        dt = self._model.params.slot_seconds
        tx = self._link_tx[schedule.link_pos]
        rx = self._link_rx[schedule.link_pos]
        power = schedule.power_w
        h = h_arr[schedule.link_pos]
        fixed = self._fixed_energy_arr
        demands = all_node_demands_array(fixed, self._recv_power_arr, tx, rx, power, dt)
        deficit = np.zeros(supply.size)
        self.last_deficit_j = deficit
        overloaded = demands > supply + _ENERGY_TOL
        over = np.flatnonzero(overloaded)
        if over.size == 0:
            return schedule, demands, deficit

        # Each node's E_TX terms in schedule order: a stable sort of the
        # interleaved [tx0, rx0, tx1, rx1, ...] terms groups them by
        # node and keeps the entry order inside a group.
        nodes, joules = transmission_energy_j(self._recv_power_arr, tx, rx, power, dt)
        by_node = np.argsort(nodes, kind="stable")
        node_sorted = nodes[by_node]
        entry_sorted = by_node >> 1
        joules_sorted = joules[by_node]
        # Alive entries per node: a node with none can only be clamped.
        load = np.bincount(nodes, minlength=supply.size)
        alive = np.ones(tx.size, dtype=bool)
        shed: List[int] = []

        def alive_terms(node: int) -> Tuple[AnyArray, AnyArray]:
            """``node``'s alive entries and their joules, in schedule order."""
            lo = int(np.searchsorted(node_sorted, node))
            hi = int(np.searchsorted(node_sorted, node, side="right"))
            live = alive[entry_sorted[lo:hi]]
            return entry_sorted[lo:hi][live], joules_sorted[lo:hi][live]

        # The overloaded nodes that hold an entry, in ascending order: a
        # node leaves the overloaded set or loses its last entry for
        # good, so ``next_loaded`` only moves forward.
        loaded_over = over[load[over] > 0].tolist()
        next_loaded = 0
        cursor = 0
        while True:
            while next_loaded < len(loaded_over) and not (
                overloaded[loaded_over[next_loaded]] and load[loaded_over[next_loaded]]
            ):
                next_loaded += 1
            done = next_loaded == len(loaded_over)
            stop = over.size if done else int(np.searchsorted(over, loaded_over[next_loaded]))
            # Every node still overloaded below the first loaded one is
            # clamped; none of them holds an entry.
            passed = over[cursor:stop]
            clamp = passed[overloaded[passed]]
            deficit[clamp] = demands[clamp] - supply[clamp]
            supply[clamp] = demands[clamp]
            overloaded[clamp] = False
            cursor = stop
            if done:
                break
            involved, _ = alive_terms(loaded_over[next_loaded])
            victim = int(involved[np.argmin(h[involved])])
            alive[victim] = False
            shed.append(victim)
            for end in (int(tx[victim]), int(rx[victim])):
                load[end] -= 1
                demand = float(fixed[end])
                for term in alive_terms(end)[1].tolist():
                    demand += term
                demands[end] = demand
                overloaded[end] &= demand > supply[end] + _ENERGY_TOL
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

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------

    def decide(
        self, observation: SlotObservation, state: NetworkState
    ) -> SlotDecision:
        """Solve one slot of the online problem P3."""
        h_backlogs = state.h_backlogs()
        arrays = state.arrays

        # S1: link activation, band assignment, and power control.
        schedule = self.scheduler.schedule(
            observation,
            h_backlogs,
            arrays.g_support,
            allowed_mask=self._allowed_mask,
            energy_prices=self._energy_prices(observation.slot),
        )
        selected_dropped = len(schedule.dropped)
        deliverable = arrays.max_deliverable_j_array()
        supply = (
            observation.renewable_j
            + np.where(observation.grid_connected, arrays.grid_cap_j, 0.0)
            + deliverable
        )
        schedule, demands, deficit_arr = self._curtail(
            schedule,
            supply,
            h_backlogs,
            observation.band_service_pkts(self._model),
        )
        curtailed = schedule.dropped[selected_dropped:]

        admission = self.allocator.allocate(arrays, slot=observation.slot)
        # S3: backpressure routing over the scheduled capacities.
        routing = self.router.route(
            observation,
            schedule,
            admission,
            h_backlogs,
            arrays,
            allowed_mask=self._allowed_mask,
        )

        batch = NodeEnergyBatch(
            nodes=self._node_ids,
            is_base_station=self._bs_mask,
            demand_j=np.maximum(0.0, demands - deficit_arr),
            renewable_j=observation.renewable_j,
            grid_connected=observation.grid_connected,
            grid_cap_j=arrays.grid_cap_j,
            charge_cap_j=arrays.max_charge_j_array(),
            discharge_cap_j=deliverable,
            z=arrays.z_values_array(),
            charge_efficiency=arrays.charge_efficiency,
            discharge_efficiency=arrays.discharge_efficiency,
        )
        energy = self.energy_manager.manage(
            batch, cost=self._model.cost_at(observation.slot)
        )
        self._last_grid_draw_j = energy.bs_grid_draw_j

        if self._checker is not None and self._checker.enabled:
            # Re-validate the *post-curtailment* schedule (the S1 hook
            # saw the raw activation set) and the Eq. 2 coverage of the
            # realised demands, deficit included.
            self._checker.check_schedule(
                self._model, observation, schedule, observation.slot
            )
            self._checker.check_demand_coverage(
                demands,
                deficit_arr,
                energy,
                observation.slot,
            )

        return SlotDecision(
            schedule=schedule,
            admission=admission,
            routing=routing,
            energy=energy,
            curtailed=list(curtailed),
        )
