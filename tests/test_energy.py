"""Unit tests for the energy substrate: batteries, renewables, grid,
cost functions, consumption model.

Batteries and grid connections are ``(N,)`` vectors: the battery tests
drive the :class:`~repro.core.arraystate.ArrayState` kernels on one
node (``tests.helpers.one_battery``), and the grid tests observe a live
:class:`~repro.state.NetworkState` or check a draw with the contract
checker's Eq. 14 rule.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import tiny_scenario
from repro.config.parameters import NodeParameters
from repro.contracts import ContractChecker, ContractViolation
from repro.control.decisions import BatchAllocation, EnergyManagementDecision
from repro.control.energy_manager import NodeEnergyBatch, NodeEnergyInputs
from repro.energy import (
    DiurnalSolarProcess,
    MarkovWindProcess,
    QuadraticCost,
    TimeOfUseCost,
    UniformRenewableProcess,
    all_node_demands_array,
)
from repro.exceptions import EnergyError
from repro.sim import SlotSimulator
from repro.types import Transmission
from tests.helpers import battery_step, one_battery


class TestBatteryAction:
    def test_complementarity_enforced(self):
        arrays = one_battery(100.0, 20.0, 20.0, level_j=10.0)
        with pytest.raises(EnergyError, match="constraint \\(9\\)"):
            battery_step(arrays, charge_j=1.0, discharge_j=1.0)

    def test_pure_charge_and_discharge_allowed(self):
        arrays = one_battery(100.0, 20.0, 20.0)
        assert battery_step(arrays, charge_j=5.0) == 5.0
        assert battery_step(arrays, discharge_j=3.0) == 2.0

    def test_negative_values_rejected(self):
        arrays = one_battery(100.0, 20.0, 20.0, level_j=10.0)
        with pytest.raises(EnergyError, match="negative charge"):
            battery_step(arrays, charge_j=-1.0)
        with pytest.raises(EnergyError, match="negative discharge"):
            battery_step(arrays, discharge_j=-1.0)


class TestBattery:
    def test_constraint_13_enforced(self):
        with pytest.raises(ValueError, match="constraint \\(13\\)"):
            one_battery(capacity_j=10.0, charge_cap_j=6.0, discharge_cap_j=6.0)

    def test_level_tracks_queue_law(self):
        arrays = one_battery(100.0, 20.0, 20.0)
        assert battery_step(arrays, charge_j=15.0) == pytest.approx(15.0)
        assert battery_step(arrays, discharge_j=10.0) == pytest.approx(5.0)

    def test_constraint_11_headroom(self):
        arrays = one_battery(100.0, 40.0, 40.0, level_j=90.0)
        assert arrays.max_charge_j_array()[0] == pytest.approx(10.0)
        with pytest.raises(EnergyError, match="constraint \\(11\\)"):
            battery_step(arrays, charge_j=20.0)

    def test_constraint_12_level(self):
        arrays = one_battery(100.0, 40.0, 40.0, level_j=5.0)
        assert arrays.max_deliverable_j_array()[0] == pytest.approx(5.0)
        with pytest.raises(EnergyError, match="constraint \\(12\\)"):
            battery_step(arrays, discharge_j=10.0)

    def test_charge_cap_binds_before_headroom(self):
        arrays = one_battery(100.0, 20.0, 20.0)
        assert arrays.max_charge_j_array()[0] == pytest.approx(20.0)

    def test_initial_level_out_of_bounds(self):
        # Every battery of a run starts empty, inside [0, x_max].
        state = SlotSimulator.integral(tiny_scenario()).state
        arrays = state.arrays
        assert not arrays.battery_level.any()
        assert (arrays.battery_level <= arrays.capacity_j).all()

    def test_level_never_negative_or_overfull(self):
        arrays = one_battery(100.0, 50.0, 50.0, level_j=50.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            if rng.random() < 0.5:
                amount = rng.uniform(0, arrays.max_charge_j_array()[0])
                level = battery_step(arrays, charge_j=amount)
            else:
                amount = rng.uniform(0, arrays.max_deliverable_j_array()[0])
                level = battery_step(arrays, discharge_j=amount)
            assert 0.0 <= level <= arrays.capacity_j[0]


class TestRenewableProcesses:
    def test_uniform_bounded(self, rng):
        process = UniformRenewableProcess(5.0, 60.0, rng)
        samples = [process.sample(t) for t in range(500)]
        assert all(0.0 <= s <= process.max_output_j for s in samples)
        assert process.max_output_j == pytest.approx(300.0)

    def test_uniform_mean_near_half_max(self, rng):
        process = UniformRenewableProcess(2.0, 60.0, rng)
        samples = [process.sample(t) for t in range(4000)]
        assert np.mean(samples) == pytest.approx(process.max_output_j / 2, rel=0.1)

    def test_zero_process(self):
        # Renewables off: every node reads 0 J every slot.
        state = SlotSimulator.integral(tiny_scenario(renewables_enabled=False)).state
        for slot in range(5):
            assert not state.observe(slot).renewable_j.any()

    def test_solar_zero_at_night(self, rng):
        process = DiurnalSolarProcess(10.0, 60.0, rng, slots_per_day=100)
        # Second half of the "day" is night (sine below zero, clipped).
        assert all(process.sample(t) == 0.0 for t in range(60, 99))

    def test_solar_peaks_at_midday(self, rng):
        process = DiurnalSolarProcess(10.0, 60.0, rng, slots_per_day=100, noise=0.0)
        assert process.sample(25) == pytest.approx(process.max_output_j)

    def test_solar_bounded(self, rng):
        process = DiurnalSolarProcess(10.0, 60.0, rng, slots_per_day=48)
        assert all(
            0.0 <= process.sample(t) <= process.max_output_j for t in range(200)
        )

    def test_wind_bounded(self, rng):
        process = MarkovWindProcess(8.0, 60.0, rng)
        assert all(
            0.0 <= process.sample(t) <= process.max_output_j for t in range(500)
        )

    def test_wind_is_temporally_correlated(self, rng):
        process = MarkovWindProcess(8.0, 60.0, rng, persistence=0.95)
        samples = np.array([process.sample(t) for t in range(2000)])
        lag1 = np.corrcoef(samples[:-1], samples[1:])[0, 1]
        assert lag1 > 0.5

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: UniformRenewableProcess(5.0, 60.0, rng),
            lambda rng: DiurnalSolarProcess(10.0, 60.0, rng, slots_per_day=12),
            lambda rng: MarkovWindProcess(8.0, 60.0, rng, persistence=0.6),
        ],
        ids=["uniform", "solar", "wind"],
    )
    def test_blocks_match_successive_samples(self, make):
        # Three blocks of 7 (a fill and two refills) read over a
        # 17-slot horizon that 7 does not divide, against one sample
        # call per slot on a twin stream, bit for bit.
        scalar = make(np.random.default_rng(41))
        blocked = make(np.random.default_rng(41))
        width, horizon = 7, 17
        got, want = [], []
        for slot in range(horizon):
            if slot % width == 0:
                block = blocked.block(width)
                assert block.shape == (width,)
            scale = blocked.slot_scale(slot)
            draw = block[slot % width]
            got.append(draw if scale is None else scale * draw)
            want.append(scalar.sample(slot))
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_invalid_parameters(self, rng):
        with pytest.raises(ValueError):
            UniformRenewableProcess(-1.0, 60.0, rng)
        with pytest.raises(ValueError):
            DiurnalSolarProcess(1.0, 60.0, rng, noise=2.0)
        with pytest.raises(ValueError):
            MarkovWindProcess(1.0, 60.0, rng, levels=())


def _grid_state(user_connect_prob):
    """A tiny run's state with users on the grid at ``user_connect_prob``.

    Node 0 is the base station, always connected (p = 1).
    """
    params = tiny_scenario()
    user_energy = dataclasses.replace(
        params.user_energy, grid_connect_prob=user_connect_prob
    )
    params = dataclasses.replace(params, user_energy=user_energy)
    return SlotSimulator.integral(params).state


def _check_grid_draw(serve_j, charge_j, connected):
    """Eq. 14 check of one user drawing ``serve_j + charge_j`` of 100 J."""
    zero = np.zeros(1)
    batch = NodeEnergyBatch.from_inputs(
        [
            NodeEnergyInputs(
                node=0,
                is_base_station=False,
                demand_j=serve_j,
                renewable_j=0.0,
                grid_connected=connected,
                grid_cap_j=100.0,
                charge_cap_j=50.0,
                discharge_cap_j=0.0,
                z=-1.0,
            )
        ]
    )
    allocation = BatchAllocation(
        renewable_serve_j=zero,
        renewable_charge_j=zero,
        grid_serve_j=np.array([serve_j]),
        grid_charge_j=np.array([charge_j]),
        discharge_j=zero,
        spill_j=zero,
    )
    decision = EnergyManagementDecision(
        allocation=allocation, bs_grid_draw_j=0.0, cost=0.0
    )
    ContractChecker("strict").check_energy(batch, decision, slot=0)


def _connected(state, node, slots):
    return [bool(state.observe(t).grid_connected[node]) for t in range(slots)]


class TestGridConnection:
    def test_always_connected(self):
        assert all(_connected(_grid_state(0.5), 0, 100))

    def test_never_connected(self):
        state = _grid_state(0.0)
        for slot in range(100):
            connected = state.observe(slot).grid_connected
            assert not connected[1:].any()

    def test_bernoulli_rate(self):
        state = _grid_state(0.3)
        draws = [state.observe(t).grid_connected[1:] for t in range(1500)]
        assert np.mean(draws) == pytest.approx(0.3, abs=0.03)

    def test_validate_draw_cap(self):
        _check_grid_draw(60.0, 40.0, connected=True)  # exactly at cap
        with pytest.raises(ContractViolation) as excinfo:
            _check_grid_draw(80.0, 40.0, connected=True)
        assert excinfo.value.equation == "Eq. 14"

    def test_validate_draw_disconnected(self):
        with pytest.raises(ContractViolation, match="usable cap 0.0 J") as excinfo:
            _check_grid_draw(1.0, 0.0, connected=False)
        assert excinfo.value.equation == "Eq. 14"

    def test_scripted_outage_window(self):
        state = _grid_state(0.5)
        state.schedule_grid_outage([0], 3, 6)
        connectivity = _connected(state, 0, 8)
        assert connectivity == [True, True, True, False, False, False, True, True]

    def test_scripted_empty_window_rejected(self):
        with pytest.raises(EnergyError, match="empty outage window"):
            _grid_state(0.5).schedule_grid_outage([0], 5, 5)


class TestCostFunctions:
    def test_quadratic_value_and_derivative(self):
        cost = QuadraticCost(a=2.0, b=3.0, c=1.0)
        assert cost.value(2.0) == pytest.approx(2 * 4 + 3 * 2 + 1)
        assert cost.derivative(2.0) == pytest.approx(2 * 2 * 2 + 3)

    def test_quadratic_unit_conversion(self):
        cost = QuadraticCost.from_unit_coefficients(0.8, 0.2, 0.0, unit_j=1000.0)
        # f(1000 J) should equal 0.8 * 1^2 + 0.2 * 1.
        assert cost.value(1000.0) == pytest.approx(1.0)

    def test_quadratic_kwh_constructor(self):
        cost = QuadraticCost.from_kwh_coefficients(0.8, 0.2)
        assert cost.value(3.6e6) == pytest.approx(1.0)

    def test_max_derivative_at_cap(self):
        cost = QuadraticCost(a=1.0, b=0.5)
        assert cost.max_derivative(10.0) == pytest.approx(cost.derivative(10.0))

    def test_inverse_derivative(self):
        cost = QuadraticCost(a=1.0, b=0.5)
        price = cost.derivative(7.0)
        assert cost.inverse_derivative(price) == pytest.approx(7.0)
        assert cost.inverse_derivative(0.1) == 0.0  # below b

    def test_time_of_use_schedule(self):
        base = QuadraticCost(a=1.0, b=1.0)
        tou = TimeOfUseCost(base, multipliers=[1.0, 2.0])
        assert tou.at_slot(0).value(3.0) == pytest.approx(base.value(3.0))
        assert tou.at_slot(1).value(3.0) == pytest.approx(2 * base.value(3.0))
        assert tou.at_slot(2).value(3.0) == pytest.approx(base.value(3.0))

    def test_time_of_use_max_derivative(self):
        base = QuadraticCost(a=1.0, b=1.0)
        tou = TimeOfUseCost(base, multipliers=[1.0, 3.0])
        assert tou.max_derivative(5.0) == pytest.approx(3 * base.derivative(5.0))

    def test_negative_energy_rejected(self):
        cost = QuadraticCost(a=1.0, b=1.0)
        with pytest.raises(ValueError):
            cost.value(-1.0)
        with pytest.raises(ValueError):
            cost.derivative(-1.0)

    def test_convexity_sampled(self):
        cost = QuadraticCost(a=0.5, b=0.1)
        xs = np.linspace(0, 100, 21)
        values = [cost.value(x) for x in xs]
        # Midpoint convexity on consecutive triples.
        for i in range(1, len(xs) - 1):
            assert values[i] <= (values[i - 1] + values[i + 1]) / 2 + 1e-9


def _demands(schedule, fixed_j, recv_power_w, slot_seconds, num_nodes=9):
    """Eq. 2 demands of ``num_nodes`` identical nodes under ``schedule``."""
    return all_node_demands_array(
        np.full(num_nodes, fixed_j),
        np.full(num_nodes, recv_power_w),
        np.array([t.tx for t in schedule], dtype=np.intp),
        np.array([t.rx for t in schedule], dtype=np.intp),
        np.array([t.power_w for t in schedule], dtype=float),
        slot_seconds,
    )


class TestConsumption:
    @pytest.fixture
    def node_params(self):
        return NodeParameters(
            max_tx_power_w=1.0,
            recv_power_w=0.1,
            const_power_w=0.02,
            idle_power_w=0.03,
        )

    def test_fixed_energy(self, node_params):
        assert node_params.fixed_energy_j(60.0) == pytest.approx(3.0)

    def test_transmission_energy_tx_and_rx(self, node_params):
        schedule = [
            Transmission(tx=0, rx=1, band=0, power_w=0.5),
            Transmission(tx=2, rx=0, band=1, power_w=0.2),
        ]
        # With no fixed energy, node 0's demand is its Eq. 23 E_TX alone.
        energy = _demands(schedule, 0.0, node_params.recv_power_w, 60.0)[0]
        # Node 0 transmits at 0.5 W and receives at 0.1 W for 60 s.
        assert energy == pytest.approx(0.5 * 60 + 0.1 * 60)

    def test_idle_node_has_fixed_demand_only(self, node_params):
        demand = _demands(
            [], node_params.fixed_energy_j(60.0), node_params.recv_power_w, 60.0
        )[5]
        assert demand == pytest.approx(node_params.fixed_energy_j(60.0))

    def test_demand_is_eq2_sum(self, node_params):
        schedule = [Transmission(tx=7, rx=8, band=0, power_w=1.0)]
        demand = _demands(
            schedule, node_params.fixed_energy_j(60.0), node_params.recv_power_w, 60.0
        )[7]
        assert demand == pytest.approx(3.0 + 60.0)

    def test_invalid_slot_length(self, node_params):
        with pytest.raises(ValueError):
            _demands([], 0.0, 0.1, 0.0)
