"""The slot-based simulation engine.

``SlotSimulator`` wires a scenario into a model, Lyapunov constants,
network state and a controller, then advances the slotted loop:

    observe -> decide (S1-S4 or relaxed LP) -> apply -> record.

Construct with :meth:`SlotSimulator.integral` (the paper's
decomposition algorithm), :meth:`SlotSimulator.relaxed` (the exact
per-slot LP of the lower bound), or pass any object with a
``decide(observation, state)`` method.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, Type, Union

import numpy as np

from repro.axes import NodeJoules
from repro.config.parameters import ScenarioParameters
from repro.contracts import ContractChecker, Strictness
from repro.control.controller import DriftPlusPenaltyController
from repro.control.decisions import SlotDecision, SlotObservation
from repro.control.router import RouterMode
from repro.core.arraystate import seq_sum
from repro.core.bounds import RelaxedLpController
from repro.core.lyapunov import LyapunovConstants, compute_constants
from repro.model import NetworkModel, build_network_model
from repro.sim.metrics import MetricsCollector
from repro.sim.results import SimulationResult
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceRecorder
from repro.state import NetworkState
from repro.types import EnergySolverKind, SchedulerKind


class Controller(Protocol):
    """Anything the engine can drive (duck-typed controller).

    ``last_deficit_j`` is the ``(N,)`` demand the last decision shed (J).
    """

    last_deficit_j: NodeJoules

    def decide(
        self, observation: SlotObservation, state: "NetworkState"
    ) -> SlotDecision:  # pragma: no cover - protocol
        ...


#: Factory building a controller for an assembled model.
ControllerFactory = Callable[
    [NetworkModel, LyapunovConstants, RngStreams], Controller
]

#: Anything :class:`SlotSimulator` accepts as its contracts argument.
ContractsArg = Union[ContractChecker, Strictness, str, None]


def _coerce_contracts(contracts: ContractsArg) -> ContractChecker:
    """Build the checker from a checker, a strictness, or its name."""
    if isinstance(contracts, ContractChecker):
        return contracts
    return ContractChecker(strictness=contracts)


class SlotSimulator:
    """One scenario wired up and ready to run."""

    def __init__(
        self,
        params: ScenarioParameters,
        controller_factory: ControllerFactory,
        enforce_complementarity: bool = True,
        contracts: ContractsArg = None,
        state_cls: Type[NetworkState] = NetworkState,
    ) -> None:
        self.params = params
        self.rng = RngStreams(params.seed, params.seed_spawn_key)
        self.model = build_network_model(params, self.rng.topology)
        self.constants = compute_constants(self.model)
        self.state = state_cls(self.model, self.constants, self.rng.environment)
        self.controller = controller_factory(self.model, self.constants, self.rng)
        self._enforce_complementarity = enforce_complementarity
        self.contracts = _coerce_contracts(contracts)
        attach = getattr(self.controller, "attach_contracts", None)
        if attach is not None and self.contracts.enabled:
            attach(self.contracts)
        self.metrics = MetricsCollector(
            params.admission_lambda, num_bs=params.num_base_stations
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def integral(
        cls,
        params: ScenarioParameters,
        scheduler_kind: SchedulerKind = SchedulerKind.SEQUENTIAL_FIX,
        energy_solver: EnergySolverKind = EnergySolverKind.PRICE_DECOMPOSITION,
        router_mode: RouterMode = RouterMode.POTENTIAL_CAPACITY,
        contracts: ContractsArg = None,
        state_cls: Type[NetworkState] = NetworkState,
    ) -> "SlotSimulator":
        """The paper's decomposition controller (Section IV-C)."""

        def factory(
            model: NetworkModel, constants: LyapunovConstants, rng: RngStreams
        ) -> Controller:
            return DriftPlusPenaltyController(
                model,
                constants,
                rng.controller,
                scheduler_kind=scheduler_kind,
                energy_solver=energy_solver,
                router_mode=router_mode,
            )

        return cls(params, factory, contracts=contracts, state_cls=state_cls)

    @classmethod
    def relaxed(
        cls,
        params: ScenarioParameters,
        num_cost_segments: int = 24,
        contracts: ContractsArg = None,
        state_cls: Type[NetworkState] = NetworkState,
    ) -> "SlotSimulator":
        """The exact relaxed-LP controller of the Theorem-5 bound."""

        def factory(
            model: NetworkModel, constants: LyapunovConstants, rng: RngStreams
        ) -> Controller:
            del rng  # the LP is deterministic
            return RelaxedLpController(
                model, constants, num_cost_segments=num_cost_segments
            )

        return cls(
            params,
            factory,
            enforce_complementarity=False,
            contracts=contracts,
            state_cls=state_cls,
        )

    # -- running -------------------------------------------------------------

    def _delivered_per_session(self, decision: SlotDecision) -> dict:
        """Per-session packets arriving at destinations this slot.

        Sums the *effective* transfer the last ``apply`` moved (Eq. 15)
        over entries whose receiver is the session's destination: in
        the paper's null-packet mode these are the scheduled rates; in
        packet-accurate mode phantom deliveries (rates exceeding the
        transmitter's real backlog) are excluded.
        """
        routing = decision.routing
        arrays = self.state.arrays
        cols = routing.session_col
        hit = arrays.link_rx[routing.link_pos] == self.model.destination_rows[cols]
        delivered = np.zeros(len(arrays.sessions))
        np.add.at(delivered, cols[hit], self.state.last_transfer_pkts[hit])
        return dict(zip(arrays.sessions, delivered.tolist()))

    def step(self, slot: int, trace: Optional[TraceRecorder] = None) -> SlotDecision:
        """Advance the simulation by one slot."""
        observation = self.state.observe(slot)
        decision = self.controller.decide(observation, self.state)
        pre = self.contracts.capture(self.state)
        snapshot = self.state.apply(
            decision,
            slot,
            enforce_complementarity=self._enforce_complementarity,
        )
        if pre is not None:
            self.contracts.check_transition(
                self.model,
                self.state,
                decision,
                pre,
                slot,
                enforce_complementarity=self._enforce_complementarity,
            )
        shed = self.controller.last_deficit_j
        # A slot that shed nothing records the int 0 (an empty sum), as
        # the committed trajectory fingerprints hash it.
        deficit = seq_sum(shed) if shed.any() else 0
        per_session = self._delivered_per_session(decision)
        metrics = self.metrics.record(
            slot=slot,
            decision=decision,
            snapshot=snapshot,
            deficit_j=deficit,
            delivered_pkts=sum(per_session.values()),
            session_delivered=per_session,
        )
        if trace is not None:
            trace.record_slot(
                observation, decision, metrics, self.params.num_base_stations
            )
        return decision

    def run(
        self,
        num_slots: Optional[int] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> SimulationResult:
        """Run the full horizon and return the result."""
        horizon = num_slots if num_slots is not None else self.params.num_slots
        for slot in range(horizon):
            self.step(slot, trace=trace)
        return SimulationResult(
            control_v=self.params.control_v,
            num_slots=horizon,
            metrics=self.metrics,
            constants=self.constants,
        )


def run_simulation(
    params: ScenarioParameters,
    scheduler_kind: SchedulerKind = SchedulerKind.SEQUENTIAL_FIX,
    energy_solver: EnergySolverKind = EnergySolverKind.PRICE_DECOMPOSITION,
    router_mode: RouterMode = RouterMode.POTENTIAL_CAPACITY,
    contracts: ContractsArg = None,
) -> SimulationResult:
    """One-call convenience: build the integral simulator and run it."""
    simulator = SlotSimulator.integral(
        params,
        scheduler_kind=scheduler_kind,
        energy_solver=energy_solver,
        router_mode=router_mode,
        contracts=contracts,
    )
    return simulator.run()
