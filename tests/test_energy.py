"""Unit tests for the energy substrate: batteries, renewables, grid,
cost functions, consumption model."""

import numpy as np
import pytest

from repro.config.parameters import NodeParameters
from repro.energy import (
    Battery,
    BatteryAction,
    DiurnalSolarProcess,
    GridConnection,
    LinearCost,
    MarkovWindProcess,
    PiecewiseLinearCost,
    QuadraticCost,
    ScriptedGridConnection,
    TimeOfUseCost,
    UniformRenewableProcess,
    ZeroRenewableProcess,
    all_node_demands_array,
)
from repro.exceptions import EnergyError
from repro.types import Transmission


class TestBatteryAction:
    def test_complementarity_enforced(self):
        with pytest.raises(EnergyError, match="constraint \\(9\\)"):
            BatteryAction(charge_j=1.0, discharge_j=1.0)

    def test_pure_charge_and_discharge_allowed(self):
        assert BatteryAction(charge_j=5.0).net_j == 5.0
        assert BatteryAction(discharge_j=3.0).net_j == -3.0

    def test_negative_values_rejected(self):
        with pytest.raises(EnergyError):
            BatteryAction(charge_j=-1.0)
        with pytest.raises(EnergyError):
            BatteryAction(discharge_j=-1.0)


class TestBattery:
    def test_constraint_13_enforced(self):
        with pytest.raises(EnergyError, match="constraint \\(13\\)"):
            Battery(capacity_j=10.0, charge_cap_j=6.0, discharge_cap_j=6.0)

    def test_level_tracks_queue_law(self):
        battery = Battery(100.0, 20.0, 20.0)
        battery.apply(BatteryAction(charge_j=15.0))
        assert battery.level_j == pytest.approx(15.0)
        battery.apply(BatteryAction(discharge_j=10.0))
        assert battery.level_j == pytest.approx(5.0)

    def test_constraint_11_headroom(self):
        battery = Battery(100.0, 40.0, 40.0, initial_level_j=90.0)
        assert battery.max_charge_j() == pytest.approx(10.0)
        with pytest.raises(EnergyError, match="constraint \\(11\\)"):
            battery.apply(BatteryAction(charge_j=20.0))

    def test_constraint_12_level(self):
        battery = Battery(100.0, 40.0, 40.0, initial_level_j=5.0)
        assert battery.max_discharge_j() == pytest.approx(5.0)
        with pytest.raises(EnergyError, match="constraint \\(12\\)"):
            battery.apply(BatteryAction(discharge_j=10.0))

    def test_charge_cap_binds_before_headroom(self):
        battery = Battery(100.0, 20.0, 20.0, initial_level_j=0.0)
        assert battery.max_charge_j() == pytest.approx(20.0)

    def test_initial_level_out_of_bounds(self):
        with pytest.raises(EnergyError):
            Battery(100.0, 10.0, 10.0, initial_level_j=200.0)

    def test_level_never_negative_or_overfull(self):
        battery = Battery(100.0, 50.0, 50.0, initial_level_j=50.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            if rng.random() < 0.5:
                amount = rng.uniform(0, battery.max_charge_j())
                battery.apply(BatteryAction(charge_j=amount))
            else:
                amount = rng.uniform(0, battery.max_discharge_j())
                battery.apply(BatteryAction(discharge_j=amount))
            assert 0.0 <= battery.level_j <= battery.capacity_j


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
        process = ZeroRenewableProcess()
        assert process.sample(0) == 0.0
        assert process.max_output_j == 0.0

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

    def test_invalid_parameters(self, rng):
        with pytest.raises(ValueError):
            UniformRenewableProcess(-1.0, 60.0, rng)
        with pytest.raises(ValueError):
            DiurnalSolarProcess(1.0, 60.0, rng, noise=2.0)
        with pytest.raises(ValueError):
            MarkovWindProcess(1.0, 60.0, rng, levels=())


class TestGridConnection:
    def test_always_connected(self, rng):
        grid = GridConnection(100.0, 1.0, rng)
        assert all(grid.sample_connected(t) for t in range(100))

    def test_never_connected(self, rng):
        grid = GridConnection(100.0, 0.0, rng)
        assert not any(grid.sample_connected(t) for t in range(100))

    def test_bernoulli_rate(self, rng):
        grid = GridConnection(100.0, 0.3, rng)
        rate = np.mean([grid.sample_connected(t) for t in range(5000)])
        assert rate == pytest.approx(0.3, abs=0.03)

    def test_validate_draw_cap(self, rng):
        grid = GridConnection(100.0, 1.0, rng)
        grid.validate_draw(60.0, 40.0, connected=True)  # exactly at cap
        with pytest.raises(EnergyError, match="constraint \\(14\\)"):
            grid.validate_draw(80.0, 40.0, connected=True)

    def test_validate_draw_disconnected(self, rng):
        grid = GridConnection(100.0, 0.5, rng)
        with pytest.raises(EnergyError, match="disconnected"):
            grid.validate_draw(1.0, 0.0, connected=False)

    def test_scripted_outage_window(self, rng):
        grid = ScriptedGridConnection(100.0, 1.0, rng, outages=[(3, 6)])
        connectivity = [grid.sample_connected(t) for t in range(8)]
        assert connectivity == [True, True, True, False, False, False, True, True]

    def test_scripted_empty_window_rejected(self, rng):
        with pytest.raises(EnergyError):
            ScriptedGridConnection(100.0, 1.0, rng, outages=[(5, 5)])


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

    def test_linear_cost(self):
        cost = LinearCost.from_kwh_rate(0.36)
        assert cost.value(3.6e6) == pytest.approx(0.36)
        assert cost.derivative(123.0) == cost.derivative(0.0)

    def test_piecewise_linear_continuity(self):
        cost = PiecewiseLinearCost([10.0, 20.0], [1.0, 2.0, 4.0])
        eps = 1e-9
        assert cost.value(10.0) == pytest.approx(cost.value(10.0 - eps), abs=1e-6)
        assert cost.value(20.0) == pytest.approx(cost.value(20.0 + eps), abs=1e-6)

    def test_piecewise_linear_block_accumulation(self):
        cost = PiecewiseLinearCost([10.0], [1.0, 3.0])
        assert cost.value(15.0) == pytest.approx(10.0 * 1.0 + 5.0 * 3.0)
        assert cost.derivative(5.0) == 1.0
        assert cost.derivative(15.0) == 3.0

    def test_piecewise_requires_convexity(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            PiecewiseLinearCost([10.0], [3.0, 1.0])

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
