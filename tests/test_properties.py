"""Property-based tests (hypothesis) on the core data structures and
invariants: queueing laws, battery bounds, cost convexity, solver
correctness, and the S4 allocation feasibility."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.control.energy_manager import (
    NodeEnergyBatch,
    NodeEnergyInputs,
    _batched_node_response,
)
from repro.energy.cost import QuadraticCost
from repro.phy.capacity import link_capacity_bps
from repro.phy.power_control import minimal_power_assignment
from repro.phy.propagation import propagation_gain
from repro.config import tiny_scenario
from repro.core import compute_constants
from repro.model import build_network_model
from repro.state import NetworkState
from repro.solvers.bisection import bisect_root
from tests.pricing_reference import batched_node_response
from tests.helpers import battery_step, link_position, one_battery, queue_step, virtual_step

finite = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


@functools.lru_cache(maxsize=None)
def _tiny_state():
    """One tiny-scenario state shared by the queue-law examples (each
    example resets the cells it uses)."""
    params = tiny_scenario()
    model = build_network_model(params, np.random.default_rng(params.seed))
    return NetworkState(model, compute_constants(model), np.random.default_rng(0))


class TestQueueLawProperties:
    """Eqs. 15, 28 and 30 on the ``ArrayState`` kernels, one cell each."""

    @given(
        backlog=finite,
        service=finite,
        arrivals=finite,
    )
    def test_data_queue_never_negative(self, backlog, service, arrivals):
        arrays = _tiny_state().arrays
        arrays.q[...] = 0.0
        arrays.q[0, 0] = backlog
        queue_step(arrays, {(0, 2, 0): service}, [(0, 0, arrivals)])
        assert arrays.q[0, 0] >= 0.0

    @given(backlog=finite, service=finite, arrivals=finite)
    def test_data_queue_lindley_bound(self, backlog, service, arrivals):
        """Eq. (15) never exceeds backlog - service + arrivals + service."""
        arrays = _tiny_state().arrays
        arrays.q[...] = 0.0
        arrays.q[0, 0] = backlog
        queue_step(arrays, {(0, 2, 0): service}, [(0, 0, arrivals)])
        new = arrays.q[0, 0]
        assert new <= backlog + arrivals + 1e-9
        assert new >= backlog - service + arrivals - 1e-6

    @given(steps=st.lists(st.tuples(finite, finite), min_size=1, max_size=30))
    def test_h_equals_beta_g_invariant(self, steps):
        state = _tiny_state()
        arrays = state.arrays
        arrays.assign_g(0.0)
        beta = state.constants.beta
        pos = link_position(arrays, 0, 2)
        for arrivals, service in steps:
            virtual_step(arrays, {(0, 2): arrivals}, {(0, 2): service})
            assert state.h_backlogs()[pos] == pytest.approx(beta * arrays.g[pos])
            assert arrays.g[pos] >= 0.0


class TestBatteryProperties:
    @given(
        capacity=st.floats(min_value=10.0, max_value=1e6),
        fractions=st.lists(
            st.tuples(st.booleans(), st.floats(min_value=0.0, max_value=1.0)),
            min_size=1,
            max_size=50,
        ),
    )
    def test_level_always_in_bounds(self, capacity, fractions):
        arrays = one_battery(capacity, capacity / 3, capacity / 3)
        for is_charge, fraction in fractions:
            if is_charge:
                amount = fraction * arrays.max_charge_j_array()[0]
                level = battery_step(arrays, charge_j=amount)
            else:
                amount = fraction * _max_drain(arrays)
                level = battery_step(arrays, discharge_j=amount)
            assert 0.0 <= level <= capacity

    @given(
        capacity=st.floats(min_value=10.0, max_value=1e6),
        charge=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_overcharge_always_rejected(self, capacity, charge):
        arrays = one_battery(capacity, capacity / 3, capacity / 3)
        assume(charge > arrays.max_charge_j_array()[0] * (1 + 1e-6) + 1e-6)
        from repro.exceptions import EnergyError

        with pytest.raises(EnergyError):
            battery_step(arrays, charge_j=charge)


class TestCostProperties:
    quadratic = st.tuples(
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=10.0),
    ).filter(lambda abc: abc[0] + abc[1] > 0)

    @given(abc=quadratic, x=finite, y=finite)
    def test_quadratic_midpoint_convexity(self, abc, x, y):
        cost = QuadraticCost(*abc)
        mid = cost.value((x + y) / 2)
        assert mid <= (cost.value(x) + cost.value(y)) / 2 + 1e-6 * (
            1 + cost.value(x) + cost.value(y)
        )

    @given(abc=quadratic, x=finite, y=finite)
    def test_quadratic_derivative_monotone(self, abc, x, y):
        cost = QuadraticCost(*abc)
        lo, hi = min(x, y), max(x, y)
        assert cost.derivative(lo) <= cost.derivative(hi) + 1e-12


class TestPhyProperties:
    @given(
        d1=st.floats(min_value=1.0, max_value=1e5),
        d2=st.floats(min_value=1.0, max_value=1e5),
        gamma=st.floats(min_value=2.0, max_value=6.0),
    )
    def test_gain_monotone_in_distance(self, d1, d2, gamma):
        lo, hi = min(d1, d2), max(d1, d2)
        assert propagation_gain(lo, 62.5, gamma) >= propagation_gain(hi, 62.5, gamma)

    @given(
        bandwidth=st.floats(min_value=0.0, max_value=1e8),
        sinr=st.floats(min_value=0.0, max_value=1e4),
        threshold=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_capacity_binary_structure(self, bandwidth, sinr, threshold):
        capacity = link_capacity_bps(bandwidth, sinr, threshold)
        if sinr >= threshold:
            assert capacity == pytest.approx(
                bandwidth * math.log2(1 + threshold)
            )
        else:
            assert capacity == 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        positions=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=2000.0),
                st.floats(min_value=0.0, max_value=2000.0),
            ),
            min_size=4,
            max_size=8,
        ),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_power_control_output_always_feasible(self, positions, seed):
        """Whatever survives power control truly meets the SINR."""
        rng = np.random.default_rng(seed)
        pts = np.asarray(positions)
        d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
        from repro.phy.propagation import DensePairGains, gain_matrix

        gains = gain_matrix(d, 62.5, 4.0)
        n = len(positions)
        pairs = [(i, (i + 1) % n) for i in range(0, n - 1, 2)]
        result = minimal_power_assignment(
            pairs, DensePairGains(gains), 1e-10, 1.0, {i: 1.0 for i in range(n)}
        )
        for (tx, rx), power in result.powers.items():
            assert 0 < power <= 1.0 + 1e-9
            interference = sum(
                gains[otx, rx] * p
                for (otx, _), p in result.powers.items()
                if (otx, _) != (tx, rx)
            )
            sinr_val = gains[tx, rx] * power / (1e-10 + interference)
            assert sinr_val >= 1.0 - 1e-6


class TestSolverProperties:
    @given(
        root=st.floats(min_value=-100.0, max_value=100.0),
        slope=st.floats(min_value=0.01, max_value=100.0),
    )
    def test_bisect_finds_linear_root(self, root, slope):
        found = bisect_root(lambda x: slope * (x - root), -200.0, 200.0)
        assert found == pytest.approx(root, abs=1e-5)


class TestEnergyAllocationProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        demand=st.floats(min_value=0.0, max_value=1000.0),
        renewable=st.floats(min_value=0.0, max_value=500.0),
        charge_cap=st.floats(min_value=0.0, max_value=400.0),
        discharge_cap=st.floats(min_value=0.0, max_value=400.0),
        z=st.floats(min_value=-1e4, max_value=1e3),
        mu=st.floats(min_value=0.0, max_value=1.0),
        is_bs=st.booleans(),
        connected=st.booleans(),
    )
    def test_node_response_always_feasible(
        self, demand, renewable, charge_cap, discharge_cap, z, mu, is_bs, connected
    ):
        grid_cap = 2000.0
        inputs = NodeEnergyInputs(
            node=0,
            is_base_station=is_bs,
            demand_j=demand,
            renewable_j=renewable,
            grid_connected=connected or is_bs,
            grid_cap_j=grid_cap,
            charge_cap_j=charge_cap,
            discharge_cap_j=discharge_cap,
            z=z,
        )
        assume(inputs.demand_j <= inputs.max_supply_j)
        batch = NodeEnergyBatch.from_inputs([inputs])
        alloc = _batched_node_response(batch, mu, control_v=1e4)
        expected, objective = batched_node_response(batch, mu, control_v=1e4)
        for field in dataclasses.fields(alloc):
            assert getattr(alloc, field.name).tobytes() == getattr(expected, field.name).tobytes()
        assert alloc.demand_served_j[0] == pytest.approx(demand, abs=1e-6)
        assert alloc.charge_j[0] <= charge_cap + 1e-6
        assert alloc.discharge_j[0] <= discharge_cap + 1e-6
        assert alloc.grid_draw_j[0] <= inputs.usable_grid_j + 1e-6
        assert (
            alloc.renewable_serve_j[0] + alloc.renewable_charge_j[0]
            <= renewable + 1e-6
        )
        assert min(alloc.charge_j[0], alloc.discharge_j[0]) <= 1e-6
        assert np.isfinite(objective[0])


def _max_drain(arrays):
    """Constraint (12) for a :func:`one_battery`: ``min(d_max, x)``."""
    return float(min(arrays.discharge_cap_j[0], arrays.battery_level[0]))


class BatteryMachine(RuleBasedStateMachine):
    """Stateful battery test: no action sequence can break (10)-(13)."""

    def __init__(self):
        super().__init__()
        self.arrays = one_battery(
            capacity_j=1000.0,
            charge_cap_j=300.0,
            discharge_cap_j=300.0,
            charge_efficiency=0.9,
            discharge_efficiency=0.9,
        )
        self.shadow_level = 0.0

    @rule(fraction=st.floats(min_value=0.0, max_value=1.0))
    def charge(self, fraction):
        amount = fraction * self.arrays.max_charge_j_array()[0]
        battery_step(self.arrays, charge_j=amount)
        self.shadow_level += self.arrays.charge_efficiency[0] * amount

    @rule(fraction=st.floats(min_value=0.0, max_value=1.0))
    def discharge(self, fraction):
        amount = fraction * _max_drain(self.arrays)
        battery_step(self.arrays, discharge_j=amount)
        self.shadow_level -= amount

    @invariant()
    def level_in_bounds(self):
        assert 0.0 <= self.arrays.battery_level[0] <= self.arrays.capacity_j[0]

    @invariant()
    def level_matches_shadow(self):
        assert self.arrays.battery_level[0] == pytest.approx(
            min(max(self.shadow_level, 0.0), self.arrays.capacity_j[0]),
            abs=1e-6,
        )

    @invariant()
    def caps_consistent(self):
        assert self.arrays.max_charge_j_array()[0] >= 0.0
        assert _max_drain(self.arrays) >= 0.0
        assert self.arrays.max_deliverable_j_array()[0] <= _max_drain(self.arrays) + 1e-12


TestBatteryStateMachine = BatteryMachine.TestCase
