"""Unit tests for the drift-plus-penalty controller orchestration."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import tiny_scenario
from repro.control import DriftPlusPenaltyController
from repro.control.decisions import ScheduleDecision
from repro.core import compute_constants
from repro.core.arraystate import seq_sum
from repro.model import build_network_model
from repro.state import NetworkState
from repro.types import EnergySolverKind, SchedulerKind
from tests.helpers import link_tuples


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
            for node in range(tiny_model.num_nodes):
                supply = decision.energy.allocation.demand_served_j[node]
                # Demand after curtailment/deficit must be exactly met.
                assert supply >= -1e-6
            tiny_state.apply(decision)

    def test_grid_draw_respects_connectivity(self, controller, tiny_state):
        for slot in range(8):
            observation = tiny_state.observe(slot)
            decision = controller.decide(observation, tiny_state)
            draw = decision.energy.allocation.grid_draw_j
            for node in range(draw.size):
                if not observation.grid_connected[node]:
                    assert draw[node] == 0.0
            tiny_state.apply(decision)

    def test_controller_does_not_mutate_state(self, controller, tiny_state):
        observation = tiny_state.observe(0)
        before_q = tiny_state.arrays.q.copy()
        before_x = tiny_state.arrays.battery_level.copy()
        controller.decide(observation, tiny_state)
        assert tiny_state.arrays.q.tobytes() == before_q.tobytes()
        assert tiny_state.arrays.battery_level.tobytes() == before_x.tobytes()


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
            deficits += seq_sum(controller.last_deficit_j)
            curtailed += len(decision.curtailed)
            # The surviving schedule must be affordable everywhere.
            for node in range(model.num_nodes):
                draw = decision.energy.allocation.grid_draw_j[node]
                assert draw <= state.arrays.grid_cap_j[node] + 1e-6
            state.apply(decision)
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
            state.apply(decision)


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
            state.apply(decision)

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
            state.apply(decision)

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


def _curtail_oracle(controller, schedule, supply, h_arr, band_pkts):
    """The Python curtailment loop over ``Transmission`` records.

    One rescan of the overloaded nodes after every drop; demands are
    re-summed transmission by transmission, and the surviving service
    is re-summed per link in schedule order.  Returns ``(transmissions,
    service, dropped, clamps, demands)``, where ``clamps`` lists each
    ``(node, deficit)`` clamp in the order the loop made it.
    """
    dt = controller._model.params.slot_seconds
    fixed = controller._fixed_energy_arr
    recv = controller._recv_power_arr
    position = {
        link: p
        for p, link in enumerate(zip(schedule.link_tx.tolist(), schedule.link_rx.tolist()))
    }
    transmissions = list(schedule.transmissions)
    supply = supply.copy()
    dropped = list(schedule.dropped)
    clamps = []

    def demands_of(scheduled):
        demands = fixed.copy()
        for t in scheduled:
            demands[t.tx] += float(t.power_w) * dt
            demands[t.rx] += float(recv[t.rx]) * dt
        return demands

    demands = demands_of(transmissions)
    while True:
        overloaded = np.flatnonzero(demands > supply + 1e-6)
        if overloaded.size == 0:
            break
        involved_by_node = {}
        for t in transmissions:
            involved_by_node.setdefault(t.tx, []).append(t)
            involved_by_node.setdefault(t.rx, []).append(t)
        removed = False
        for node in map(int, overloaded):
            involved = involved_by_node.get(node, [])
            if involved:
                victim = min(involved, key=lambda t: h_arr[position[t.link]])
                transmissions.remove(victim)
                dropped.append(victim.link_band)
                demands = demands_of(transmissions)
                removed = True
                break
            clamps.append((node, float(demands[node] - supply[node])))
            supply[node] = demands[node]
        if not removed:
            break
    service = {}
    for t in transmissions:
        service[t.link] = service.get(t.link, 0.0) + float(band_pkts[t.band])
    return transmissions, service, dropped, clamps, demands


@functools.lru_cache(maxsize=None)
def _curtail_case():
    params = tiny_scenario(num_users=6)
    model = build_network_model(params, np.random.default_rng(params.seed))
    return DriftPlusPenaltyController(
        model, compute_constants(model), np.random.default_rng(0)
    )


@st.composite
def _curtail_inputs(draw):
    """A random schedule with its supplies, ``H`` and band service.

    Links repeat on several bands; ``H`` takes few values, so victims
    tie; supplies of 0 or half the fixed energy make deficit-only
    nodes, which the schedule may or may not touch.
    """
    controller = _curtail_case()
    model = controller._model
    num_links = model.topology.link_tx.shape[0]
    num_bands = model.spectrum.num_bands
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_links - 1), st.integers(0, num_bands - 1)
            ),
            max_size=14,
            unique=True,
        )
    )
    powers = draw(
        st.lists(
            st.sampled_from([0.01, 0.1, 0.37, 1.0]),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    fixed = controller._fixed_energy_arr
    kinds = draw(
        st.lists(st.integers(0, 4), min_size=model.num_nodes, max_size=model.num_nodes)
    )
    supply = np.array(
        [
            (0.0, 0.5 * f, f + 7.3, f + 41.9, 1e9)[kind]
            for f, kind in zip(fixed.tolist(), kinds)
        ]
    )
    h_arr = np.array(
        draw(
            st.lists(
                st.sampled_from([0.0, 1.0, 2.5]),
                min_size=num_links,
                max_size=num_links,
            )
        )
    )
    band_pkts = np.array(
        draw(
            st.lists(
                st.floats(0.1, 500.0, allow_nan=False),
                min_size=num_bands,
                max_size=num_bands,
            )
        )
    )
    topology = model.topology
    schedule = ScheduleDecision.from_entries(
        link_pos=np.array([pos for pos, _ in pairs], dtype=np.intp),
        band=np.array([band for _, band in pairs], dtype=np.intp),
        power_w=np.array(powers, dtype=float),
        band_pkts=band_pkts,
        dropped=((*link_tuples(topology)[0], 0),),
        link_tx=topology.link_tx,
        link_rx=topology.link_rx,
    )
    return schedule, supply, h_arr, band_pkts


class TestArrayCurtailment:
    """The vector curtailment sheds exactly what the Python loop sheds."""

    @settings(max_examples=150, deadline=None)
    @given(inputs=_curtail_inputs())
    def test_matches_python_loop(self, inputs):
        schedule, supply, h_arr, band_pkts = inputs
        controller = _curtail_case()
        transmissions, service, dropped, clamps, demands = _curtail_oracle(
            controller, schedule, supply, h_arr, band_pkts
        )
        survivors, got_demands, deficit = controller._curtail(
            schedule, supply.copy(), h_arr, band_pkts
        )
        assert got_demands.tobytes() == demands.tobytes()
        assert list(survivors.transmissions) == transmissions
        assert list(survivors.dropped) == dropped
        assert list(survivors.link_service_pkts.items()) == list(service.items())
        # Each node is clamped at most once, in ascending node order.
        nodes = [node for node, _ in clamps]
        assert nodes == sorted(set(nodes))
        expected_deficit = np.zeros_like(deficit)
        expected_deficit[nodes] = [value for _, value in clamps]
        assert deficit.tobytes() == expected_deficit.tobytes()
        assert controller.last_deficit_j.tobytes() == expected_deficit.tobytes()
        # So the array's strict left-to-right total is the clamp-order sum.
        assert seq_sum(controller.last_deficit_j) == sum(v for _, v in clamps)

    def test_tied_two_band_link_keeps_its_other_band(self):
        # A link served on two bands, tied H, and a deficit-only node:
        # node 0 (the BS) cannot afford both bands of its busiest link.
        controller = _curtail_case()
        model = controller._model
        topology = model.topology
        links = link_tuples(topology)
        bs_link = next(p for p, (tx, _) in enumerate(links) if tx == 0)
        band_pkts = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        schedule = ScheduleDecision.from_entries(
            link_pos=np.array([bs_link, bs_link], dtype=np.intp),
            band=np.array([1, 2], dtype=np.intp),
            power_w=np.array([1.0, 1.0]),
            band_pkts=band_pkts,
            dropped=(),
            link_tx=topology.link_tx,
            link_rx=topology.link_rx,
        )
        assert schedule.link_service_pkts[links[bs_link]] == 0.0 + 0.2 + 0.3
        fixed = controller._fixed_energy_arr
        supply = fixed + 1e9
        supply[0] = fixed[0] + 61.0  # one 1 W band for 60 s fits, two do not
        idle = next(n for n in range(model.num_nodes) if n not in links[bs_link])
        supply[idle] = 0.0
        h_arr = np.ones(len(links))
        survivors, _, deficit = controller._curtail(
            schedule, supply, h_arr, band_pkts
        )
        # Tied H: the first entry goes, the other band keeps serving.
        assert survivors.dropped == ((*links[bs_link], 1),)
        assert dict(survivors.link_service_pkts) == {links[bs_link]: 0.3}
        assert np.flatnonzero(controller.last_deficit_j).tolist() == [idle]
        assert deficit[idle] == fixed[idle]
