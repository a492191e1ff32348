"""Unit tests for S4 energy management: the closed-form kernels, the
price decomposition and its agreement with the SLSQP reference."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import energy_manager
from repro.control.decisions import BatchAllocation
from repro.control.energy_manager import (
    EnergyManager,
    NodeEnergyBatch,
    NodeEnergyInputs,
    _allocation_given_grid,
    _batched_node_response,
    _InPlayResidual,
    _quadratic_grid_draw_j,
    _StationPricer,
)
from repro.core.arraystate import seq_sum
from repro.energy.cost import QuadraticCost
from repro.exceptions import InfeasibleError
from repro.types import EnergySolverKind
from tests.pricing_reference import (
    batched_charge_mode,
    batched_node_response,
    batched_serve_mode,
    full_fleet_price,
    full_grid_draw_j,
    reference_manage,
)
from tests.slsqp_reference import assert_matches_slsqp, solve_slsqp


def _inputs(
    node=0,
    is_bs=True,
    demand=100.0,
    renewable=50.0,
    connected=True,
    grid_cap=1000.0,
    charge_cap=200.0,
    discharge_cap=200.0,
    z=-500.0,
):
    return NodeEnergyInputs(
        node=node,
        is_base_station=is_bs,
        demand_j=demand,
        renewable_j=renewable,
        grid_connected=connected,
        grid_cap_j=grid_cap,
        charge_cap_j=charge_cap,
        discharge_cap_j=discharge_cap,
        z=z,
    )


def _batch(*inputs):
    return NodeEnergyBatch.from_inputs(list(inputs))


def _price(value):
    return np.array([value])


def _check_allocation(batch, alloc):
    """Every S4 node constraint on every row of one allocation."""
    for name in (
        "renewable_serve_j",
        "renewable_charge_j",
        "grid_serve_j",
        "grid_charge_j",
        "discharge_j",
    ):
        assert np.all(getattr(alloc, name) >= -1e-9), name
    # Demand balance.
    np.testing.assert_allclose(
        alloc.demand_served_j, batch.demand_j, rtol=0.0, atol=1e-6
    )
    # Renewable budget (Eq. 3 with spill).
    assert np.all(
        alloc.renewable_serve_j + alloc.renewable_charge_j
        <= batch.renewable_j + 1e-6
    )
    # Caps (11), (12), (14).
    assert np.all(alloc.charge_j <= batch.charge_cap_j + 1e-6)
    assert np.all(alloc.discharge_j <= batch.discharge_cap_j + 1e-6)
    assert np.all(alloc.grid_draw_j <= batch.usable_grid_j + 1e-6)
    # Complementarity (9).
    assert np.all(np.minimum(alloc.charge_j, alloc.discharge_j) <= 1e-6)


class TestServeMode:
    def test_renewable_first_when_z_negative(self):
        batch = _batch(_inputs(demand=40.0, renewable=100.0, z=-10.0))
        alloc, objective = batched_serve_mode(batch, _price(5.0))
        assert alloc.renewable_serve_j[0] == pytest.approx(40.0)
        assert objective[0] == 0.0
        _check_allocation(batch, alloc)

    def test_discharge_before_grid_when_cheaper(self):
        # The battery serves until its marginal drain cost -z + d
        # reaches the grid price: d = z + price = 3.
        batch = _batch(
            _inputs(demand=100.0, renewable=0.0, z=-2.0, discharge_cap=60.0)
        )
        alloc, _ = batched_serve_mode(batch, _price(5.0))
        assert alloc.discharge_j[0] == pytest.approx(3.0)
        assert alloc.grid_serve_j[0] == pytest.approx(97.0)
        _check_allocation(batch, alloc)

    def test_grid_before_discharge_when_cheaper(self):
        batch = _batch(_inputs(demand=100.0, renewable=0.0, z=-50.0))
        alloc, _ = batched_serve_mode(batch, _price(5.0))
        assert alloc.grid_serve_j[0] == pytest.approx(100.0)
        assert alloc.discharge_j[0] == 0.0

    def test_positive_z_prefers_discharge(self):
        batch = _batch(
            _inputs(demand=100.0, renewable=0.0, z=10.0, discharge_cap=80.0)
        )
        alloc, objective = batched_serve_mode(batch, _price(0.1))
        assert alloc.discharge_j[0] == pytest.approx(10.1)
        assert objective[0] < 0  # discharging pays when z > 0

    def test_infeasible_demand_raises(self):
        batch = _batch(
            _inputs(demand=1e9, renewable=1.0, grid_cap=1.0, discharge_cap=1.0)
        )
        with pytest.raises(InfeasibleError):
            batched_serve_mode(batch, _price(1.0))

    def test_spill_accounted(self):
        batch = _batch(_inputs(demand=10.0, renewable=100.0))
        alloc, _ = batched_serve_mode(batch, _price(1.0))
        assert alloc.spill_j[0] == pytest.approx(90.0)


class TestChargeMode:
    def test_charges_renewable_surplus(self):
        # Charging stops at a stored amount of -z = 50, below the cap.
        batch = _batch(
            _inputs(demand=10.0, renewable=100.0, z=-50.0, charge_cap=70.0)
        )
        alloc, _, feasible = batched_charge_mode(batch, _price(1.0))
        assert feasible[0]
        assert alloc.renewable_charge_j[0] == pytest.approx(50.0)
        _check_allocation(batch, alloc)

    def test_grid_charges_when_profitable(self):
        # -z - price > 0: grid charging pays up to the cap.
        batch = _batch(
            _inputs(demand=0.0, renewable=0.0, z=-100.0, charge_cap=50.0)
        )
        alloc, objective, feasible = batched_charge_mode(batch, _price(10.0))
        assert feasible[0]
        assert alloc.grid_charge_j[0] == pytest.approx(50.0)
        assert objective[0] == pytest.approx(
            -100.0 * 50.0 + 0.5 * 50.0 * 50.0 + 10.0 * 50.0
        )

    def test_no_grid_charge_when_unprofitable(self):
        batch = _batch(_inputs(demand=0.0, renewable=0.0, z=-5.0, charge_cap=50.0))
        alloc, _, feasible = batched_charge_mode(batch, _price(10.0))
        assert feasible[0]
        assert alloc.grid_charge_j[0] == 0.0

    def test_renewable_arbitrage(self):
        # Storing pays -z - stored per joule; grid energy costs 10/J:
        # the battery charges to -z - price = 90 J on top of demand.
        batch = _batch(
            _inputs(demand=50.0, renewable=50.0, z=-100.0, charge_cap=200.0)
        )
        alloc, _, feasible = batched_charge_mode(batch, _price(10.0))
        assert feasible[0]
        assert alloc.charge_j[0] == pytest.approx(90.0)
        assert alloc.grid_draw_j[0] == pytest.approx(90.0)
        assert alloc.renewable_serve_j[0] == pytest.approx(50.0)

    def test_none_when_demand_needs_discharge(self):
        batch = _batch(_inputs(demand=100.0, renewable=10.0, connected=False))
        _, _, feasible = batched_charge_mode(batch, _price(1.0))
        assert not feasible[0]

    def test_positive_z_never_charges(self):
        batch = _batch(_inputs(demand=10.0, renewable=100.0, z=5.0))
        alloc, _, feasible = batched_charge_mode(batch, _price(1.0))
        assert feasible[0]
        assert alloc.charge_j[0] == 0.0


class TestNodeResponse:
    def test_complementarity_always_holds(self):
        rng = np.random.default_rng(3)
        batch = NodeEnergyBatch.from_inputs(
            [
                _inputs(
                    node=node,
                    demand=float(rng.uniform(0, 500)),
                    renewable=float(rng.uniform(0, 300)),
                    z=float(rng.uniform(-1000, 200)),
                    charge_cap=float(rng.uniform(0, 300)),
                    discharge_cap=float(rng.uniform(0, 300)),
                    grid_cap=600.0,
                )
                for node in range(100)
            ]
        )
        alloc = _batched_node_response(batch, mu=0.01, control_v=1000.0)
        _check_allocation(batch, alloc)

    def test_infeasible_demand_raises(self):
        batch = _batch(
            _inputs(demand=1e9, renewable=1.0, grid_cap=1.0, discharge_cap=1.0)
        )
        with pytest.raises(InfeasibleError, match="curtailment missing upstream"):
            _batched_node_response(batch, mu=0.01, control_v=1000.0)

    def test_user_ignores_price(self):
        batch = _batch(_inputs(is_bs=False, z=-50.0))
        cheap = _batched_node_response(batch, mu=0.0, control_v=1000.0)
        pricey = _batched_node_response(batch, mu=1e9, control_v=1000.0)
        for field in dataclasses.fields(BatchAllocation):
            assert np.array_equal(
                getattr(cheap, field.name), getattr(pricey, field.name)
            )


def _pinned(inputs, grid_draw_j):
    """Row 0 of ``inputs`` repaired to the grid budget ``grid_draw_j``."""
    batch = _batch(inputs)
    out = BatchAllocation(*(np.zeros(1) for _ in range(6)))
    _allocation_given_grid(batch, 0, grid_draw_j, out)
    return batch, out


class TestAllocationGivenGrid:
    def test_meets_demand_and_charges_leftover(self):
        inputs = _inputs(demand=100.0, renewable=30.0, z=-500.0, charge_cap=500.0)
        batch, alloc = _pinned(inputs, grid_draw_j=150.0)
        _check_allocation(batch, alloc)
        assert alloc.grid_draw_j[0] == pytest.approx(150.0)
        assert alloc.grid_charge_j[0] == pytest.approx(80.0)

    def test_discharges_to_fill_gap(self):
        inputs = _inputs(demand=100.0, renewable=10.0, z=-10.0)
        batch, alloc = _pinned(inputs, grid_draw_j=50.0)
        assert alloc.discharge_j[0] == pytest.approx(40.0)
        _check_allocation(batch, alloc)

    def test_infeasible_budget_raises(self):
        inputs = _inputs(demand=1000.0, renewable=0.0, discharge_cap=10.0)
        with pytest.raises(InfeasibleError):
            _pinned(inputs, grid_draw_j=0.0)


def _objective(model, batch, allocation, cost_value):
    """The exact-drift S4 objective ``V f(P) + sum z net + net^2 / 2``."""
    net = (
        batch.charge_efficiency * allocation.charge_j
        - allocation.discharge_j / batch.discharge_efficiency
    )
    return (
        model.params.control_v * cost_value
        + float(np.dot(batch.z, net))
        + 0.5 * float(np.dot(net, net))
    )


def _reference_objective(model, batch, reference):
    draw = float(np.sum(reference.grid_draw_j[batch.is_base_station]))
    return _objective(model, batch, reference, model.cost.value(draw))


class TestEnergyManagerEndToEnd:
    def _random_instance(self, rng, num_bs=2, num_users=4):
        inputs = []
        for node in range(num_bs + num_users):
            is_bs = node < num_bs
            inputs.append(
                NodeEnergyInputs(
                    node=node,
                    is_base_station=is_bs,
                    demand_j=float(rng.uniform(0, 800)),
                    renewable_j=float(rng.uniform(0, 400)),
                    grid_connected=is_bs or bool(rng.random() < 0.5),
                    grid_cap_j=2000.0,
                    charge_cap_j=float(rng.uniform(0, 500)),
                    discharge_cap_j=float(rng.uniform(0, 500)),
                    z=float(rng.uniform(-5000, 100)),
                )
            )
        # Keep demand coverable without a battery so every instance is
        # feasible irrespective of the drawn caps.
        return NodeEnergyBatch.from_inputs(
            [
                i
                if i.demand_j <= i.max_supply_j
                else dataclasses.replace(i, demand_j=i.max_supply_j)
                for i in inputs
            ]
        )

    def test_price_decomposition_matches_slsqp(self, tiny_model):
        rng = np.random.default_rng(21)
        exact = EnergyManager(tiny_model, EnergySolverKind.PRICE_DECOMPOSITION)
        v = tiny_model.params.control_v
        for trial in range(8):
            batch = self._random_instance(rng)
            fast = exact.manage(batch)
            slow = solve_slsqp(batch, tiny_model.cost, v)
            fast_obj = _objective(tiny_model, batch, fast.allocation, fast.cost)
            slow_obj = _reference_objective(tiny_model, batch, slow)
            scale = max(abs(fast_obj), abs(slow_obj), 1.0)
            # The exact solver must never be worse than SLSQP beyond
            # numerical slack (SLSQP may itself be slightly suboptimal).
            assert fast_obj <= slow_obj + 1e-4 * scale, (
                f"trial {trial}: price decomposition {fast_obj} worse than "
                f"SLSQP {slow_obj}"
            )

    def test_price_decomposition_never_loses_to_grid_only(self, tiny_model):
        # Grid-only (no charge, no discharge) is a feasible point of the
        # drift objective the decomposition minimises, on every instance.
        rng = np.random.default_rng(0)
        exact = EnergyManager(tiny_model, EnergySolverKind.PRICE_DECOMPOSITION)
        naive = EnergyManager(tiny_model, EnergySolverKind.GRID_ONLY)
        for trial in range(20):
            batch = self._random_instance(rng, num_users=10)
            ours, grid = exact.manage(batch), naive.manage(batch)
            ours_obj = _objective(tiny_model, batch, ours.allocation, ours.cost)
            grid_obj = _objective(tiny_model, batch, grid.allocation, grid.cost)
            scale = max(abs(ours_obj), abs(grid_obj), 1.0)
            assert ours_obj <= grid_obj + 1e-9 * scale, (
                f"trial {trial}: price decomposition {ours_obj} worse than "
                f"grid-only {grid_obj}"
            )

    def test_all_constraints_hold(self, tiny_model):
        rng = np.random.default_rng(5)
        manager = EnergyManager(tiny_model)
        for _ in range(10):
            batch = self._random_instance(rng)
            decision = manager.manage(batch)
            _check_allocation(batch, decision.allocation)
            bs_draw = float(
                np.sum(decision.allocation.grid_draw_j[batch.is_base_station])
            )
            assert decision.bs_grid_draw_j == pytest.approx(bs_draw)
            assert decision.cost == pytest.approx(
                tiny_model.cost.value(bs_draw)
            )

    def test_partial_charge_near_threshold(self, tiny_model):
        # Regression: a barely-negative z must trigger a *partial*
        # charge sized by V f'(P) = -z, not a full-cap burst.
        v = tiny_model.params.control_v
        batch = _batch(
            NodeEnergyInputs(
                node=0,
                is_base_station=True,
                demand_j=900.0,
                renewable_j=100.0,
                grid_connected=True,
                grid_cap_j=7.2e5,
                charge_cap_j=7.2e4,
                discharge_cap_j=7.2e4,
                z=-263.0,
            )
        )
        decision = EnergyManager(tiny_model).manage(batch)
        target = tiny_model.cost.inverse_derivative(263.0 / v)
        assert decision.bs_grid_draw_j <= target + 1.0
        assert decision.bs_grid_draw_j < 7.2e4  # far below the cap

    def test_grid_only_never_uses_battery(self, tiny_model):
        rng = np.random.default_rng(9)
        manager = EnergyManager(tiny_model, EnergySolverKind.GRID_ONLY)
        batch = self._random_instance(rng)
        decision = manager.manage(batch)
        assert np.all(decision.allocation.charge_j == 0.0)
        _check_allocation(batch, decision.allocation)

    def test_infeasible_demand_rejected(self, tiny_model):
        manager = EnergyManager(tiny_model)
        bad = _batch(_inputs(demand=1e12))
        with pytest.raises(InfeasibleError, match="curtailment"):
            manager.manage(bad)


def _random_batch_inputs(
    rng, count, bs_fraction=0.5, z_range=(-800.0, 200.0), bs_grid_only=False
):
    """Random feasible node states (demand within max supply).

    ``bs_grid_only`` restricts grid connectivity to base stations (the
    paper's model); grid-connected users make ``grid_draw_j``
    objective-neutral (their grid is free), which breaks comparisons
    against solvers that pick an arbitrary point of the optimal face.
    """
    rows = []
    for node in range(count):
        is_bs = bool(rng.random() < bs_fraction)
        connected = bool(rng.random() < 0.8) and (is_bs or not bs_grid_only)
        grid_cap = float(rng.uniform(0.0, 400.0))
        discharge_cap = float(rng.uniform(0.0, 150.0))
        eta_d = float(rng.uniform(0.7, 1.0))
        renewable = float(rng.uniform(0.0, 200.0))
        supply = renewable + (grid_cap if connected else 0.0) + eta_d * discharge_cap
        rows.append(
            NodeEnergyInputs(
                node=node,
                is_base_station=is_bs,
                demand_j=float(rng.uniform(0.0, supply * 0.95)),
                renewable_j=renewable,
                grid_connected=connected,
                grid_cap_j=grid_cap,
                charge_cap_j=float(rng.uniform(0.0, 150.0)),
                discharge_cap_j=discharge_cap,
                z=float(rng.uniform(*z_range)),
                charge_efficiency=float(rng.uniform(0.7, 1.0)),
                discharge_efficiency=eta_d,
            )
        )
    return rows


class TestBatchedKernel:
    """The closed-form vectorized S4 kernel (tentpole of PR 8)."""

    def test_batched_matches_scalar_bitwise(self, tiny_model, monkeypatch):
        """The scalar and vectorized bisection residuals agree bit for bit.

        ``manage`` picks the residual by station count; forcing either
        one on fleets of 1 to 12 stations must return identical
        vectors, ``P(t)`` and cost.
        """
        rng = np.random.default_rng(42)
        manager = EnergyManager(tiny_model, EnergySolverKind.PRICE_DECOMPOSITION)
        calls = {"scalar": 0, "row": 0}
        scalar_row = energy_manager._quadratic_grid_draw_j

        def counting_row(*args, **kwargs):
            calls["row"] += 1
            return scalar_row(*args, **kwargs)

        monkeypatch.setattr(energy_manager, "_quadratic_grid_draw_j", counting_row)
        for num_bs in range(1, 13):
            rows = _random_batch_inputs(rng, num_bs + int(rng.integers(0, 6)), 0.0)
            rows = [
                dataclasses.replace(row, is_base_station=i < num_bs)
                for i, row in enumerate(rows)
            ]
            batch = NodeEnergyBatch.from_inputs(rows)
            decisions = []
            for limit in (0, 10**6):
                monkeypatch.setattr(energy_manager, "_SCALAR_PRICING_MAX", limit)
                before = calls["row"]
                decisions.append(manager.manage(batch))
                # Only the scalar residual prices rows as Python floats.
                assert (calls["row"] > before) == bool(limit)
                calls["scalar"] += calls["row"] > before
            vector, scalar = decisions
            for field in dataclasses.fields(BatchAllocation):
                assert np.array_equal(
                    getattr(vector.allocation, field.name),
                    getattr(scalar.allocation, field.name),
                ), field.name
            assert vector.bs_grid_draw_j == scalar.bs_grid_draw_j
            assert vector.cost == scalar.cost
        assert calls["scalar"] == 12

    def test_property_sweep_slsqp_cross_check(self, tiny_model):
        """Random states: batched kernel agrees with SLSQP to 1e-8.

        ``assert_matches_slsqp`` re-solves every batch with the SLSQP
        reference warm-started at the kernel's allocation and fails
        beyond 1e-8 relative to the node's supply scale.  ``z`` stays
        strictly negative — the paper's operating regime (batteries
        below the perturbation target) — and only base stations are
        grid-connected (also the paper's model): outside that regime
        the program develops objective-neutral faces (spill vs. serve,
        free non-BS grid) and SLSQP may return a different vertex of
        the same optimal face.
        """
        rng = np.random.default_rng(7)
        manager = EnergyManager(tiny_model, EnergySolverKind.PRICE_DECOMPOSITION)
        for _ in range(10):
            inputs = _random_batch_inputs(
                rng,
                int(rng.integers(2, 10)),
                z_range=(-800.0, -5.0),
                bs_grid_only=True,
            )
            batch = NodeEnergyBatch.from_inputs(inputs)
            decision = manager.manage(batch)
            assert_matches_slsqp(
                batch,
                decision.allocation,
                tiny_model.cost,
                tiny_model.params.control_v,
            )
            _check_allocation(batch, decision.allocation)

    def test_kkt_residuals_vanish(self):
        """Per-row KKT conditions of the closed-form kernel hold exactly.

        For the strictly convex quadratic modes the box-projected
        stationarity residual must be identically zero: an interior
        optimum sits exactly on the stationary point, and a boundary
        optimum has the gradient pointing out of the box.
        """
        rng = np.random.default_rng(3)
        for _ in range(50):
            inputs = _random_batch_inputs(rng, int(rng.integers(1, 12)))
            batch = NodeEnergyBatch.from_inputs(inputs)
            mu = float(rng.uniform(0.0, 2.0))
            control_v = float(rng.uniform(0.5, 50.0))
            alloc = _batched_node_response(batch, mu, control_v)
            price = np.where(batch.is_base_station, control_v * mu, 0.0)
            eta_d = batch.discharge_efficiency
            r_serve = np.minimum(batch.renewable_j, batch.demand_j)
            residual = batch.demand_j - r_serve
            d_min = np.maximum(0.0, residual - batch.usable_grid_j)
            d_max = np.maximum(
                d_min, np.minimum(batch.discharge_cap_j, residual)
            )
            stationary = eta_d * batch.z + eta_d * eta_d * price
            serve_rows = alloc.discharge_j > 0.0
            d = alloc.discharge_j
            pinned = d_min == d_max  # degenerate vertex: any gradient is KKT
            interior = serve_rows & (d > d_min) & (d < d_max)
            assert np.array_equal(d[interior], stationary[interior])
            at_min = serve_rows & (d == d_min) & ~pinned
            assert np.all(stationary[at_min] <= d_min[at_min])
            at_max = serve_rows & (d == d_max) & ~pinned
            assert np.all(stationary[at_max] >= d_max[at_max])
            assert np.all(d[pinned & serve_rows] == d_min[pinned & serve_rows])
            # Complementarity: the modes never both move energy.
            assert np.all((alloc.discharge_j == 0.0) | (alloc.grid_charge_j == 0.0))
            assert np.all(
                (alloc.discharge_j == 0.0) | (alloc.renewable_charge_j == 0.0)
            )

    def test_degenerate_vertex_exact(self, tiny_model):
        """Degenerate vertex (d_min == d_max, zero charge headroom).

        Demand pinned exactly at renewable + grid + deliverable forces
        every serve-mode box to a single point and the charge mode
        infeasible — the constraint surface SLSQP historically stalled
        on.  The closed-form kernel must return the exact vertex.
        """
        inputs = [
            NodeEnergyInputs(
                node=0,
                is_base_station=True,
                demand_j=150.0,  # == renewable + grid + deliverable cap
                renewable_j=40.0,
                grid_connected=True,
                grid_cap_j=60.0,
                charge_cap_j=30.0,
                discharge_cap_j=50.0,
                z=-500.0,
                discharge_efficiency=0.9,
            ),
            _inputs(node=1, is_bs=False, demand=0.0, renewable=10.0, z=-50.0),
        ]
        manager = EnergyManager(tiny_model, EnergySolverKind.PRICE_DECOMPOSITION)
        vertex = manager.manage(NodeEnergyBatch.from_inputs(inputs)).allocation
        assert vertex.renewable_serve_j[0] == 40.0
        assert vertex.grid_serve_j[0] == 60.0
        assert vertex.discharge_j[0] == 50.0
        assert vertex.charge_j[0] == 0.0

    def test_slim_residual_matches_full_response(self):
        """The bisection residual kernel equals the full KKT pass.

        The station pricer prices every row at ``V * mu``, so the users
        (whose grid price is zero) are priced at ``mu = 0``.
        """
        rng = np.random.default_rng(5)
        for _ in range(50):
            inputs = _random_batch_inputs(rng, int(rng.integers(1, 10)))
            batch = NodeEnergyBatch.from_inputs(inputs)
            mu = float(rng.uniform(0.0, 3.0))
            control_v = float(rng.uniform(0.5, 20.0))
            alloc = _batched_node_response(batch, mu, control_v)
            slim = np.empty(len(batch))
            for is_bs, price_mu in ((True, mu), (False, 0.0)):
                rows = np.flatnonzero(batch.is_base_station == is_bs)
                pricer = _StationPricer(batch.take(rows), control_v)
                slim[rows] = pricer.draw(price_mu)[0]
            assert np.array_equal(alloc.grid_draw_j, slim)
            for row, node_inputs in enumerate(inputs):
                price = control_v * mu if node_inputs.is_base_station else 0.0
                assert slim[row] == _quadratic_grid_draw_j(
                    node_inputs.demand_j,
                    node_inputs.renewable_j,
                    node_inputs.usable_grid_j,
                    node_inputs.charge_cap_j,
                    node_inputs.discharge_cap_j,
                    node_inputs.z,
                    node_inputs.charge_efficiency,
                    node_inputs.discharge_efficiency,
                    price,
                )


# Hypothesis draws the bounds (0 J caps, z = 0) often on its own.
_ENERGY = st.floats(0.0, 400.0)
_Z = st.floats(-800.0, 800.0)
_EFFICIENCY = st.sampled_from((1.0, 0.9, 0.75))


@st.composite
def _node_inputs(draw, is_bs):
    """One node: zero caps, disconnected grids and tight demand are common."""
    connected = draw(st.booleans())
    renewable, grid_cap, charge_cap, discharge_cap = (draw(_ENERGY) for _ in range(4))
    supply = renewable + (grid_cap if connected else 0.0) + discharge_cap
    demand = draw(
        st.one_of(st.sampled_from((0.0, renewable, supply)), st.floats(0.0, supply))
    )
    return NodeEnergyInputs(
        node=0,
        is_base_station=is_bs,
        demand_j=min(demand, supply),
        renewable_j=renewable,
        grid_connected=connected,
        grid_cap_j=grid_cap,
        charge_cap_j=charge_cap,
        discharge_cap_j=discharge_cap,
        z=draw(_Z),
        charge_efficiency=draw(_EFFICIENCY),
        discharge_efficiency=draw(_EFFICIENCY),
    )


@st.composite
def _fleet_cases(draw):
    """A batch of 9-200 stations (rows repeat, so draws tie) plus a few users.

    The cost and ``V`` put the station price ``V f'(P)`` on the scale
    of ``z``, so stations switch modes inside the bisection bracket.
    """
    # One station whose demand is its whole supply, with no battery to
    # discharge, draws its full grid cap at every price: P(mu) > 0, so
    # the bisection leaves the lower end.
    bound = draw(_node_inputs(True))
    bound = dataclasses.replace(
        bound,
        grid_connected=True,
        grid_cap_j=max(bound.grid_cap_j, 1.0),
        discharge_cap_j=0.0,
        demand_j=bound.renewable_j + max(bound.grid_cap_j, 1.0),
    )
    distinct = [bound] + draw(st.lists(_node_inputs(True), max_size=30))
    count = draw(st.integers(9, 200))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=count, max_size=count))
    users = draw(st.lists(_node_inputs(False), max_size=4))
    rows = [distinct[i] for i in picks] + users
    rows = [dataclasses.replace(row, node=i) for i, row in enumerate(rows)]
    order = draw(st.permutations(range(len(rows))))
    batch = NodeEnergyBatch.from_inputs([rows[i] for i in order])
    a = draw(st.floats(-6.0, -1.0).map(lambda e: 10.0**e))
    cost = QuadraticCost(a=a, b=draw(st.floats(0.0, 5.0)))
    return batch, cost, draw(st.floats(0.5, 50.0))


def _assert_matches_full_fleet(batch, cost, control_v):
    """``manage`` equals the full-fleet reference, evaluation by evaluation.

    Every draw vector the in-play residual assembles, and its ``P``,
    must equal the full kernel's at the same ``mu``, bit for bit; then
    ``mu*`` and the whole decision must equal the reference's.
    """
    model = SimpleNamespace(params=SimpleNamespace(control_v=control_v), cost=cost)
    manager = EnergyManager(model)
    stations = batch.take(np.flatnonzero(batch.is_base_station))
    prices = []
    real_call, real_bisect = _InPlayResidual.__call__, energy_manager.bisect_root

    def checked_call(self, mu):
        value = real_call(self, mu)
        end = self.ends[0 if value < 0.0 else 1]
        full = full_grid_draw_j(stations, mu, control_v)
        assert end.mu == mu
        assert end.draw.tobytes() == full.tobytes(), mu
        assert end.total == seq_sum(full)
        return value

    def recording_bisect(*args, **kwargs):
        prices.append(real_bisect(*args, **kwargs))
        return prices[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_InPlayResidual, "__call__", checked_call)
        patch.setattr(energy_manager, "bisect_root", recording_bisect)
        decision = manager.manage(batch, cost)
    assert prices == [full_fleet_price(stations, cost, control_v)]
    reference = reference_manage(manager, batch, cost)
    for field in dataclasses.fields(BatchAllocation):
        assert np.array_equal(
            getattr(decision.allocation, field.name),
            getattr(reference.allocation, field.name),
        ), field.name
    assert decision.bs_grid_draw_j == reference.bs_grid_draw_j
    assert decision.cost == reference.cost


@st.composite
def _mixed_batches(draw):
    """1-20 stations (small fleets price as floats) plus 0-30 users, shuffled."""
    stations = draw(st.lists(_node_inputs(True), min_size=1, max_size=20))
    users = draw(st.lists(_node_inputs(False), max_size=30))
    rows = [dataclasses.replace(row, node=i) for i, row in enumerate(stations + users)]
    order = draw(st.permutations(range(len(rows))))
    batch = NodeEnergyBatch.from_inputs([rows[i] for i in order])
    a = draw(st.floats(-6.0, -1.0).map(lambda e: 10.0**e))
    cost = QuadraticCost(a=a, b=draw(st.floats(0.0, 5.0)))
    return batch, cost, draw(st.floats(0.5, 50.0))


class TestSharedTermKernel:
    """The one-pass S4 kernel against the two-mode oracle it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(case=_mixed_batches(), mu=st.floats(0.0, 3.0))
    def test_node_response_matches_the_two_mode_kernel(self, case, mu):
        batch, _, control_v = case
        alloc = _batched_node_response(batch, mu, control_v)
        expected, _ = batched_node_response(batch, mu, control_v)
        for field in dataclasses.fields(BatchAllocation):
            assert getattr(alloc, field.name).tobytes() == getattr(
                expected, field.name
            ).tobytes(), field.name

    @settings(max_examples=150, deadline=None)
    @given(case=st.one_of(_mixed_batches(), _fleet_cases()))
    def test_manage_matches_the_reference(self, case):
        """Stations and users, fleets of at most and of more than 8 stations."""
        batch, cost, control_v = case
        model = SimpleNamespace(params=SimpleNamespace(control_v=control_v), cost=cost)
        decision = EnergyManager(model).manage(batch, cost)
        reference = reference_manage(EnergyManager(model), batch, cost)
        for field in dataclasses.fields(BatchAllocation):
            assert getattr(decision.allocation, field.name).tobytes() == getattr(
                reference.allocation, field.name
            ).tobytes(), field.name
        assert decision.bs_grid_draw_j == reference.bs_grid_draw_j
        assert decision.cost == reference.cost


class TestInPlayPricing:
    """Fleets above ``_SCALAR_PRICING_MAX`` re-price only stations in play.

    ``tests/pricing_reference.py`` keeps the full-fleet residual, which
    prices every station at every evaluation, as the oracle.
    """

    @settings(max_examples=80, deadline=None)
    @given(case=_fleet_cases())
    def test_in_play_residual_matches_full_fleet(self, case):
        """Every assembled draw vector, its sum, ``mu*`` and the allocation match."""
        _assert_matches_full_fleet(*case)

    def test_near_tie_stations_stay_in_play(self):
        """Stations whose two modes draw within an ulp are priced every time.

        With demand equal to renewable + grid and no battery, the serve
        and charge draws differ by rounding only, so rounding alone picks
        the mode and it flips back and forth across the price axis.
        Equal draws and the same mode at both bracket ends do not fix
        the draw in between here; a draw-equality freeze fails this test.
        """
        rng = np.random.default_rng(1)
        for _ in range(150):
            renewable = float(rng.uniform(0.0, 400.0))
            grid = float(rng.uniform(1.0, 400.0))
            row = _inputs(
                demand=renewable + grid,
                renewable=renewable,
                grid_cap=grid,
                charge_cap=0.0,
                discharge_cap=0.0,
                z=-40.0,
            )
            batch = _batch(*[dataclasses.replace(row, node=i) for i in range(9)])
            cost = QuadraticCost(a=10.0 ** rng.uniform(-6.0, -1.0), b=rng.uniform(0.0, 5.0))
            _assert_matches_full_fleet(batch, cost, float(rng.uniform(0.5, 50.0)))

    def test_midpoints_price_only_stations_in_play(self, monkeypatch):
        """After the two bracket ends, most stations are never priced again."""
        rng = np.random.default_rng(11)
        inputs = _random_batch_inputs(rng, 200, bs_fraction=1.0, z_range=(-800.0, -5.0))
        batch = NodeEnergyBatch.from_inputs(inputs)
        cost = QuadraticCost(a=1e-3, b=0.5)
        model = SimpleNamespace(params=SimpleNamespace(control_v=5.0), cost=cost)
        calls, priced = [], []
        real_call, real_draw = _InPlayResidual.__call__, _StationPricer.draw

        def counting_call(self, mu):
            calls.append(mu)
            return real_call(self, mu)

        def counting_draw(self, mu, rows=None):
            priced.append(len(batch) if rows is None else len(rows))
            return real_draw(self, mu, rows)

        monkeypatch.setattr(_InPlayResidual, "__call__", counting_call)
        monkeypatch.setattr(_StationPricer, "draw", counting_draw)
        decision = EnergyManager(model).manage(batch, cost)
        reference = reference_manage(EnergyManager(model), batch, cost)
        assert decision.bs_grid_draw_j == reference.bs_grid_draw_j
        # Both ends price the fleet; then the bracket only shrinks, and
        # so does the set of stations in play.  The last draw is the
        # -epsilon probe, which prices the fleet once more.
        bisection, probe = priced[:-1], priced[-1]
        assert probe == len(batch)
        assert bisection[:2] == [len(batch), len(batch)]
        assert len(calls) > 10
        assert bisection[2:] == sorted(bisection[2:], reverse=True)
        assert sum(bisection) < len(calls) * len(batch) // 4
