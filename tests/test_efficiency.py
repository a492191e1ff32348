"""Tests for battery charge/discharge efficiency (extension).

The paper's Eq. (4) is a lossless store; the extension models
round-trip losses: input charge ``c`` stores ``eta_c * c``, drained
energy ``d`` delivers ``eta_d * d``.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import tiny_scenario
from repro.control.energy_manager import (
    EnergyManager,
    NodeEnergyBatch,
    NodeEnergyInputs,
)
from repro.sim import SlotSimulator
from repro.types import EnergySolverKind
from tests.helpers import battery_step, one_battery
from tests.pricing_reference import batched_charge_mode, batched_serve_mode
from tests.slsqp_reference import solve_slsqp


class TestLossyBattery:
    def test_charge_loss(self):
        arrays = one_battery(1000.0, 300.0, 300.0, charge_efficiency=0.8)
        assert battery_step(arrays, charge_j=100.0) == pytest.approx(80.0)

    def test_discharge_drains_full_amount(self):
        arrays = one_battery(
            1000.0, 300.0, 300.0, level_j=200.0, discharge_efficiency=0.9
        )
        assert battery_step(arrays, discharge_j=100.0) == pytest.approx(100.0)
        assert arrays.max_deliverable_j_array()[0] == pytest.approx(0.9 * 100.0)

    def test_headroom_accounts_for_charge_loss(self):
        arrays = one_battery(100.0, 30.0, 30.0, level_j=90.0, charge_efficiency=0.5)
        # 10 J of headroom admits 20 J of input at eta_c = 0.5.
        assert arrays.max_charge_j_array()[0] == pytest.approx(20.0)

    def test_lossless_defaults_match_paper(self):
        arrays = one_battery(100.0, 30.0, 30.0)
        assert battery_step(arrays, charge_j=10.0) == pytest.approx(10.0)

    def test_invalid_efficiency_rejected(self):
        with pytest.raises(ValueError, match="charge_efficiency"):
            one_battery(100.0, 30.0, 30.0, charge_efficiency=0.0)
        with pytest.raises(ValueError, match="discharge_efficiency"):
            one_battery(100.0, 30.0, 30.0, discharge_efficiency=1.5)

    def test_round_trip_loses_energy(self):
        arrays = one_battery(
            1000.0,
            300.0,
            300.0,
            charge_efficiency=0.9,
            discharge_efficiency=0.9,
        )
        stored = battery_step(arrays, charge_j=100.0)
        delivered = arrays.discharge_efficiency[0] * stored
        assert delivered == pytest.approx(81.0)  # 100 * 0.9 * 0.9


class TestLossyNodeResponse:
    def _inputs(self, **kwargs):
        defaults = dict(
            node=0,
            is_base_station=True,
            demand_j=100.0,
            renewable_j=50.0,
            grid_connected=True,
            grid_cap_j=1000.0,
            charge_cap_j=200.0,
            discharge_cap_j=200.0,
            z=-500.0,
            charge_efficiency=0.8,
            discharge_efficiency=0.8,
        )
        defaults.update(kwargs)
        return NodeEnergyBatch.from_inputs([NodeEnergyInputs(**defaults)])

    def test_quadratic_charge_stationary_scales_with_eta(self):
        # Stored optimum is -z; input optimum is -z / eta_c.
        batch = self._inputs(demand_j=0.0, renewable_j=0.0, z=-50.0,
                             charge_cap_j=1000.0)
        alloc, _, feasible = batched_charge_mode(batch, np.zeros(1))
        assert feasible[0]
        assert alloc.grid_charge_j[0] == pytest.approx(50.0 / 0.8, rel=1e-6)

    def test_quadratic_serve_balances_drain_cost(self):
        # Positive z: discharge pays; the delivered stationary point is
        # eta_d * z (+ eta_d^2 * price while grid funds demand).
        batch = self._inputs(
            demand_j=500.0, renewable_j=0.0, z=100.0, discharge_cap_j=1000.0
        )
        alloc, _ = batched_serve_mode(batch, np.zeros(1))
        assert alloc.discharge_j[0] == pytest.approx(0.8 * 100.0, rel=1e-6)

    def test_demand_balance_uses_delivered_energy(self):
        batch = self._inputs(demand_j=120.0, renewable_j=0.0, grid_cap_j=0.0,
                             grid_connected=False, z=10.0)
        alloc, _ = batched_serve_mode(batch, np.zeros(1))
        assert alloc.demand_served_j[0] == pytest.approx(120.0)

    def test_price_decomposition_matches_slsqp_with_losses(self, tiny_model):
        rng = np.random.default_rng(17)
        exact = EnergyManager(tiny_model, EnergySolverKind.PRICE_DECOMPOSITION)
        v = tiny_model.params.control_v
        for _ in range(5):
            inputs = []
            for node in range(5):
                demand = float(rng.uniform(0, 400))
                inputs.append(
                    NodeEnergyInputs(
                        node=node,
                        is_base_station=node < 1,
                        demand_j=demand,
                        renewable_j=float(rng.uniform(0, 300)),
                        grid_connected=True,
                        grid_cap_j=2000.0,
                        charge_cap_j=float(rng.uniform(50, 300)),
                        discharge_cap_j=float(rng.uniform(50, 300)),
                        z=float(rng.uniform(-3000, 50)),
                        charge_efficiency=float(rng.uniform(0.7, 1.0)),
                        discharge_efficiency=float(rng.uniform(0.7, 1.0)),
                    )
                )
            batch = NodeEnergyBatch.from_inputs(inputs)
            fast = exact.manage(batch).allocation
            slow = solve_slsqp(batch, tiny_model.cost, v)

            def objective(alloc):
                draw = float(np.sum(alloc.grid_draw_j[batch.is_base_station]))
                net = (
                    batch.charge_efficiency * alloc.charge_j
                    - alloc.discharge_j / batch.discharge_efficiency
                )
                return (
                    v * tiny_model.cost.value(draw)
                    + float(np.dot(batch.z, net))
                    + 0.5 * float(np.dot(net, net))
                )

            fast_obj, slow_obj = objective(fast), objective(slow)
            scale = max(abs(fast_obj), abs(slow_obj), 1.0)
            assert fast_obj <= slow_obj + 1e-4 * scale


class TestLossySimulation:
    def test_run_with_losses_conserves_invariants(self):
        params = tiny_scenario(num_slots=30)
        lossy = dataclasses.replace(
            params,
            bs_energy=dataclasses.replace(
                params.bs_energy,
                charge_efficiency=0.85,
                discharge_efficiency=0.85,
            ),
            user_energy=dataclasses.replace(
                params.user_energy,
                charge_efficiency=0.85,
                discharge_efficiency=0.85,
            ),
        )
        simulator = SlotSimulator.integral(lossy)
        result = simulator.run()
        capacities = simulator.model.node_vector(
            lossy.bs_energy.battery_capacity_j, lossy.user_energy.battery_capacity_j
        )
        for node in range(simulator.model.num_nodes):
            level = simulator.state.arrays.battery_level[node]
            assert 0 <= level <= capacities[node]
        assert result.metrics.totals()["deficit_j"] >= 0

    def test_losses_raise_cost(self):
        params = tiny_scenario(num_slots=60, control_v=1e4)
        lossy = dataclasses.replace(
            params,
            bs_energy=dataclasses.replace(
                params.bs_energy,
                charge_efficiency=0.6,
                discharge_efficiency=0.6,
            ),
        )
        clean = SlotSimulator.integral(params).run()
        dirty = SlotSimulator.integral(lossy).run()
        # Filling the same threshold through a lossy charger costs more
        # grid energy overall.
        assert dirty.average_cost >= clean.average_cost * 0.95
