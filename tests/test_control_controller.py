"""Unit tests for the drift-plus-penalty controller orchestration."""

import dataclasses

import numpy as np
import pytest

from repro.config import tiny_scenario
from repro.control import DriftPlusPenaltyController
from repro.core import compute_constants
from repro.model import build_network_model
from repro.state import NetworkState
from repro.types import EnergySolverKind, SchedulerKind


@pytest.fixture
def controller(tiny_model, tiny_constants):
    return DriftPlusPenaltyController(
        tiny_model, tiny_constants, np.random.default_rng(1)
    )


class TestDecide:
    def test_decision_is_complete(self, controller, tiny_state):
        observation = tiny_state.observe(0)
        decision = controller.decide(observation, tiny_state)
        assert decision.admission.sources
        assert len(decision.energy.allocation) == tiny_state.arrays.num_nodes
        assert decision.energy.cost >= 0

    def test_energy_demand_always_supplied(self, controller, tiny_state, tiny_model):
        for slot in range(8):
            observation = tiny_state.observe(slot)
            decision = controller.decide(observation, tiny_state)
            for node_obj in tiny_model.nodes:
                node = node_obj.node_id
                supply = decision.energy.allocation.demand_served_j[node]
                # Demand after curtailment/deficit must be exactly met.
                assert supply >= -1e-6
            tiny_state.apply(decision, slot)

    def test_grid_draw_respects_connectivity(self, controller, tiny_state):
        for slot in range(8):
            observation = tiny_state.observe(slot)
            decision = controller.decide(observation, tiny_state)
            draw = decision.energy.allocation.grid_draw_j
            for node in range(draw.size):
                if not observation.grid_connected[node]:
                    assert draw[node] == 0.0
            tiny_state.apply(decision, slot)

    def test_controller_does_not_mutate_state(self, controller, tiny_state):
        observation = tiny_state.observe(0)
        before_q = dict(tiny_state.arrays.q_mapping())
        before_x = tiny_state.battery_levels()
        controller.decide(observation, tiny_state)
        assert dict(tiny_state.arrays.q_mapping()) == before_q
        assert tiny_state.battery_levels() == before_x


class TestCurtailment:
    def test_tiny_batteries_force_curtailment(self, tiny_model, tiny_constants):
        # Starve the users: no grid, no battery level, and demand from
        # relaying would exceed the renewable draw on unlucky slots.
        params = tiny_scenario()
        starved_user = dataclasses.replace(
            params.user_energy,
            renewable_max_w=0.001,
            grid_connect_prob=0.0,
        )
        params = dataclasses.replace(params, user_energy=starved_user)
        rng = np.random.default_rng(0)
        model = build_network_model(params, rng)
        constants = compute_constants(model)
        state = NetworkState(model, constants, np.random.default_rng(1))
        controller = DriftPlusPenaltyController(
            model, constants, np.random.default_rng(2)
        )
        deficits = 0.0
        curtailed = 0
        for slot in range(10):
            observation = state.observe(slot)
            decision = controller.decide(observation, state)
            deficits += sum(controller.last_deficit_j.values())
            curtailed += len(decision.curtailed)
            # The surviving schedule must be affordable everywhere.
            for node_obj in model.nodes:
                node = node_obj.node_id
                draw = decision.energy.allocation.grid_draw_j[node]
                assert draw <= state.grids[node].draw_cap_j + 1e-6
            state.apply(decision, slot)
        # Starved users have fixed demand 3 J vs ~0.03 J renewable:
        # deficits are inevitable.
        assert deficits > 0

    def test_one_hop_mode_restricts_transmitters(self):
        params = dataclasses.replace(tiny_scenario(), multi_hop_enabled=False)
        rng = np.random.default_rng(0)
        model = build_network_model(params, rng)
        constants = compute_constants(model)
        state = NetworkState(model, constants, np.random.default_rng(1))
        controller = DriftPlusPenaltyController(
            model, constants, np.random.default_rng(2)
        )
        bs_set = set(model.bs_ids)
        for slot in range(6):
            observation = state.observe(slot)
            decision = controller.decide(observation, state)
            for t in decision.schedule.transmissions:
                assert t.tx in bs_set
            for (tx, _, _), rate in decision.routing.rates.items():
                if rate > 0:
                    assert tx in bs_set
            state.apply(decision, slot)


class TestConfigurations:
    @pytest.mark.parametrize("kind", list(SchedulerKind))
    def test_all_scheduler_kinds_run(self, tiny_model, tiny_constants, kind):
        state = NetworkState(tiny_model, tiny_constants, np.random.default_rng(3))
        controller = DriftPlusPenaltyController(
            tiny_model,
            tiny_constants,
            np.random.default_rng(4),
            scheduler_kind=kind,
        )
        for slot in range(3):
            decision = controller.decide(state.observe(slot), state)
            state.apply(decision, slot)

    @pytest.mark.parametrize(
        "solver", [EnergySolverKind.PRICE_DECOMPOSITION, EnergySolverKind.GRID_ONLY]
    )
    def test_energy_solvers_run(self, tiny_model, tiny_constants, solver):
        state = NetworkState(tiny_model, tiny_constants, np.random.default_rng(3))
        controller = DriftPlusPenaltyController(
            tiny_model,
            tiny_constants,
            np.random.default_rng(4),
            energy_solver=solver,
        )
        for slot in range(3):
            decision = controller.decide(state.observe(slot), state)
            state.apply(decision, slot)

    def test_energy_prices_disabled_when_configured(self, tiny_constants):
        params = dataclasses.replace(
            tiny_scenario(), energy_aware_scheduling=False
        )
        model = build_network_model(params, np.random.default_rng(0))
        constants = compute_constants(model)
        controller = DriftPlusPenaltyController(
            model, constants, np.random.default_rng(1)
        )
        assert controller._energy_prices(0) is None

    def test_energy_prices_positive_for_bs(self, controller, tiny_model):
        prices = controller._energy_prices(0)
        assert prices is not None
        for bs in tiny_model.bs_ids:
            assert prices[bs] > 0
        for user in tiny_model.user_ids:
            assert prices[user] == 0.0
