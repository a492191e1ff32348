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

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.axes import LinkVec, NodeJoules, NodeVec
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
from repro.core.arraystate import LinkArrayMapping
from repro.core.lyapunov import LyapunovConstants
from repro.energy.consumption import all_node_demands_array
from repro.model import NetworkModel
from repro.types import EnergySolverKind, NodeId, SchedulerKind, Transmission

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
        self._fixed_energy_arr = np.fromiter(
            (n.radio.fixed_energy_j(params.slot_seconds) for n in model.nodes),
            dtype=float,
            count=model.num_nodes,
        )
        self._recv_power_arr = np.fromiter(
            (n.radio.recv_power_w for n in model.nodes),
            dtype=float,
            count=model.num_nodes,
        )
        self._bs_mask = np.zeros(model.num_nodes, dtype=bool)
        self._bs_mask[list(model.bs_ids)] = True
        self._node_ids = np.arange(model.num_nodes, dtype=np.intp)
        self._allowed_mask = self._compute_allowed_mask()
        #: Energy demand shed because no supply could cover it (J),
        #: accumulated across slots for the metrics collector.
        self.last_deficit_j: Dict[NodeId, float] = {}
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
        link_tx, link_rx = self._model.topology.link_arrays()
        return self._bs_mask[link_tx] & ~self._bs_mask[link_rx]

    # ------------------------------------------------------------------
    # Energy-feasibility curtailment
    # ------------------------------------------------------------------

    def _curtail(
        self,
        schedule: ScheduleDecision,
        observation: SlotObservation,
        state: NetworkState,
        h_backlogs: LinkArrayMapping,
    ) -> NodeJoules:
        """Shed transmissions until every node's demand is supplied.

        A node's supply is its renewable harvest plus the grid cap (if
        connected) plus its battery discharge headroom.  While some
        node's demand exceeds its supply, the lowest node id among the
        overloaded ones sheds its involved transmission with the
        smallest ``H``; a node with no transmission left has its
        unservable *base* demand (constant + idle energy) clamped off
        and recorded in ``last_deficit_j``.

        Mutates ``schedule`` in place (removing transmissions, reducing
        link service, recording the drops) and returns the ``(N,)``
        per-node demands after curtailment.
        """
        params = self._model.params
        arrays = state.arrays
        supply = (
            observation.renewable_j.values_array
            + np.where(
                observation.grid_connected.values_array,
                state.grid_caps_array(),
                0.0,
            )
            + arrays.max_deliverable_j_array()
        )
        self.last_deficit_j = {}

        # Rescanning all N nodes after every clamp would be O(N^2) when
        # many nodes run an energy deficit (e.g. renewables off).
        # Clamping a node's supply never changes any demand and never
        # overloads another node, so all deficit-only nodes of one scan
        # are clamped in a single ascending pass — exactly the order a
        # rescan would visit them — and demands are rebuilt only when a
        # transmission is actually removed.
        demands = all_node_demands_array(
            self._fixed_energy_arr,
            self._recv_power_arr,
            schedule.transmissions,
            params.slot_seconds,
        )
        while True:
            overloaded = np.flatnonzero(demands > supply + _ENERGY_TOL)
            if overloaded.size == 0:
                return demands

            involved_by_node: Dict[NodeId, List[Transmission]] = {}
            for t in schedule.transmissions:
                involved_by_node.setdefault(t.tx, []).append(t)
                involved_by_node.setdefault(t.rx, []).append(t)

            removed = False
            for node in map(int, overloaded):
                involved = involved_by_node.get(node, [])
                if involved:
                    victim = min(
                        involved, key=lambda t: h_backlogs.get(t.link, 0.0)
                    )
                    self._remove_transmission(schedule, victim)
                    demands = all_node_demands_array(
                        self._fixed_energy_arr,
                        self._recv_power_arr,
                        schedule.transmissions,
                        params.slot_seconds,
                    )
                    removed = True
                    break
                deficit = float(demands[node] - supply[node])
                self.last_deficit_j[node] = (
                    self.last_deficit_j.get(node, 0.0) + deficit
                )
                supply[node] = demands[node]
            if not removed:
                return demands

    @staticmethod
    def _remove_transmission(
        schedule: ScheduleDecision, victim: Transmission
    ) -> None:
        """Drop one transmission from the schedule, fixing service."""
        schedule.transmissions.remove(victim)
        schedule.dropped.append(victim.link_band)
        remaining = sum(
            1 for t in schedule.transmissions if t.link == victim.link
        )
        if remaining == 0:
            schedule.link_service_pkts.pop(victim.link, None)

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
            allowed_mask=self._allowed_mask,
            energy_prices=self._energy_prices(observation.slot),
        )
        curtailed_before = len(schedule.dropped)
        demands = self._curtail(schedule, observation, state, h_backlogs)
        curtailed = schedule.dropped[curtailed_before:]

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

        deficit_arr = np.zeros(self._model.num_nodes)
        for node, value in self.last_deficit_j.items():
            deficit_arr[node] = value
        batch = NodeEnergyBatch(
            nodes=self._node_ids,
            is_base_station=self._bs_mask,
            demand_j=np.maximum(0.0, demands - deficit_arr),
            renewable_j=observation.renewable_j.values_array,
            grid_connected=observation.grid_connected.values_array,
            grid_cap_j=state.grid_caps_array(),
            charge_cap_j=arrays.max_charge_j_array(),
            discharge_cap_j=arrays.max_deliverable_j_array(),
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
