"""Tests for traffic patterns, destination strategies, and time-of-use
tariffs."""

import dataclasses

import numpy as np
import pytest

from repro.config import (
    cell_edge_scenario,
    paper_scenario,
    tiny_scenario,
    validate_parameters,
)
from repro.exceptions import ConfigurationError
from repro.model import build_network_model
from repro.network import grid_placement, node_positions
from repro.network.session import Session, _cell_edge_destinations, build_sessions
from repro.sim import SlotSimulator
from repro.types import DestinationStrategy, EnergySolverKind, Point, TrafficPattern


class TestTrafficPatterns:
    def _session(self, pattern, demand=100, period=20):
        return Session(
            session_id=0,
            destination=5,
            demand_packets=demand,
            k_max=200,
            pattern=pattern,
            period_slots=period,
        )

    def test_constant_is_flat(self):
        session = self._session(TrafficPattern.CONSTANT)
        assert {session.demand(t) for t in range(50)} == {100}

    def test_on_off_doubles_then_silences(self):
        session = self._session(TrafficPattern.ON_OFF, period=10)
        assert session.demand(0) == 200
        assert session.demand(4) == 200
        assert session.demand(5) == 0
        assert session.demand(9) == 0
        assert session.demand(10) == 200  # period repeats

    def test_on_off_preserves_mean(self):
        session = self._session(TrafficPattern.ON_OFF, period=10)
        total = sum(session.demand(t) for t in range(10))
        assert total == 10 * 100

    def test_diurnal_preserves_mean_approximately(self):
        session = self._session(TrafficPattern.DIURNAL, period=24)
        mean = np.mean([session.demand(t) for t in range(24)])
        assert mean == pytest.approx(100, rel=0.02)

    def test_diurnal_in_range(self):
        session = self._session(TrafficPattern.DIURNAL, period=24)
        demands = [session.demand(t) for t in range(48)]
        assert min(demands) >= 0
        assert max(demands) <= 200

    def test_max_demand(self):
        assert self._session(TrafficPattern.CONSTANT).max_demand() == 100
        assert self._session(TrafficPattern.ON_OFF).max_demand() == 200
        assert self._session(TrafficPattern.DIURNAL).max_demand() == 200

    def test_bursty_simulation_runs_and_delivers(self):
        sessions = dataclasses.replace(
            tiny_scenario().sessions,
            traffic_pattern=TrafficPattern.ON_OFF,
            pattern_period_slots=6,
        )
        params = dataclasses.replace(
            tiny_scenario(num_slots=24), sessions=sessions
        )
        simulator = SlotSimulator.integral(params)
        result = simulator.run()
        demand_series = np.array(
            [
                sum(s.demand(t) for s in simulator.model.sessions)
                for t in range(24)
            ]
        )
        delivered = result.metrics.series("delivered_pkts")
        assert np.allclose(delivered, demand_series)

    def test_period_validation(self):
        sessions = dataclasses.replace(
            tiny_scenario().sessions, pattern_period_slots=1
        )
        params = dataclasses.replace(tiny_scenario(), sessions=sessions)
        with pytest.raises(ConfigurationError, match="period"):
            validate_parameters(params)


def _cell_edge_oracle(params, positions, count):
    """The ``Point``-based cell-edge pick: users sorted by the negated
    distance to their nearest base station, so ties keep user-id order."""
    points = [Point(x, y) for x, y in positions.tolist()]
    bs_positions = points[: params.num_base_stations]  # stations hold the low ids
    users = sorted(
        range(params.num_base_stations, params.num_nodes),
        key=lambda u: -min(points[u].distance_to(p) for p in bs_positions),
    )
    return list(users[:count])


class TestDestinationStrategies:
    def test_cell_edge_picks_farthest_users(self):
        params = cell_edge_scenario()
        model = build_network_model(params, np.random.default_rng(0))
        points = [Point(x, y) for x, y in model.positions.tolist()]
        bs_positions = [points[b] for b in model.bs_ids]

        def distance_to_bs(user):
            return min(points[user].distance_to(p) for p in bs_positions)

        chosen = {s.destination for s in model.sessions}
        others = set(model.user_ids) - chosen
        worst_chosen = min(distance_to_bs(u) for u in chosen)
        best_other = max(distance_to_bs(u) for u in others)
        assert worst_chosen >= best_other

    def test_cell_edge_without_nodes_raises(self):
        params = cell_edge_scenario()
        with pytest.raises(ConfigurationError, match="node positions"):
            build_sessions(params, np.random.default_rng(0), positions=None)

    def test_random_strategy_uses_rng(self):
        params = paper_scenario()
        a = build_sessions(params, np.random.default_rng(1))
        b = build_sessions(params, np.random.default_rng(2))
        assert {s.destination for s in a} != {s.destination for s in b}

    @pytest.mark.parametrize("seed", [0, 1, 7, 2014])
    def test_cell_edge_matches_point_oracle(self, seed):
        params = cell_edge_scenario(seed=seed)
        model = build_network_model(params, np.random.default_rng(seed))
        expected = _cell_edge_oracle(
            params, model.positions, params.sessions.num_sessions
        )
        assert [s.destination for s in model.sessions] == expected

    def test_cell_edge_ties_keep_user_order(self):
        base = cell_edge_scenario()
        params = dataclasses.replace(
            base, user_positions=tuple(grid_placement(base.num_users, base.area_side_m))
        )
        positions = node_positions(params, np.random.default_rng(0))
        points = [Point(x, y) for x, y in positions.tolist()]
        nearest = [
            min(points[u].distance_to(p) for p in points[: params.num_base_stations])
            for u in range(params.num_base_stations, params.num_nodes)
        ]
        assert len(set(nearest)) < len(nearest)  # the layout really ties
        for count in (params.sessions.num_sessions, params.num_users):
            assert _cell_edge_destinations(
                params, positions, count
            ) == _cell_edge_oracle(params, positions, count)

    def test_cell_edge_is_deterministic(self):
        params = cell_edge_scenario()
        one = build_network_model(params, np.random.default_rng(0))
        two = build_network_model(params, np.random.default_rng(0))
        assert [s.destination for s in one.sessions] == [
            s.destination for s in two.sessions
        ]


class TestTimeOfUse:
    def _tou_params(self, **kwargs):
        params = tiny_scenario(**kwargs)
        return dataclasses.replace(
            params, tou_multipliers=(0.5, 0.5, 2.0, 2.0)
        )

    def test_model_builds_schedule(self):
        model = build_network_model(self._tou_params(), np.random.default_rng(0))
        assert model.cost_schedule is not None
        cheap = model.cost_at(0).value(1000.0)
        dear = model.cost_at(2).value(1000.0)
        assert dear == pytest.approx(4 * cheap)

    def test_gamma_max_uses_worst_tariff(self):
        flat = build_network_model(tiny_scenario(), np.random.default_rng(0))
        tou = build_network_model(self._tou_params(), np.random.default_rng(0))
        assert tou.max_marginal_cost() == pytest.approx(
            2.0 * flat.max_marginal_cost()
        )

    def test_slot_cost_applied_to_decisions(self):
        params = self._tou_params(num_slots=8)
        simulator = SlotSimulator.integral(params)
        for slot in range(8):
            decision = simulator.step(slot)
            draw = decision.energy.bs_grid_draw_j
            expected = simulator.model.cost_at(slot).value(draw)
            assert decision.energy.cost == pytest.approx(expected)

    def test_flat_tariff_has_no_schedule(self):
        model = build_network_model(tiny_scenario(), np.random.default_rng(0))
        assert model.cost_schedule is None
        assert model.cost_at(0) is model.cost

    def test_arbitrage_beats_grid_only_in_steady_state(self):
        params = dataclasses.replace(
            tiny_scenario(num_slots=90, control_v=1e5),
            tou_multipliers=(0.2, 0.2, 0.2, 5.0, 5.0, 5.0),
        )
        smart = SlotSimulator.integral(params).run()
        naive = SlotSimulator.integral(
            params, energy_solver=EnergySolverKind.GRID_ONLY
        ).run()
        assert smart.steady_state_cost < naive.steady_state_cost

    def test_invalid_multipliers_rejected(self):
        params = dataclasses.replace(tiny_scenario(), tou_multipliers=(1.0, -2.0))
        with pytest.raises(ConfigurationError, match="tou"):
            validate_parameters(params)

    def test_relaxed_lp_respects_tariff(self):
        params = self._tou_params(num_slots=6)
        simulator = SlotSimulator.relaxed(params)
        for slot in range(6):
            decision = simulator.step(slot)
            draw = decision.energy.bs_grid_draw_j
            expected = simulator.model.cost_at(slot).value(draw)
            assert decision.energy.cost == pytest.approx(expected)
