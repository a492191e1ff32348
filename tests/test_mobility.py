"""Tests for the mobility extension."""

import dataclasses

import numpy as np
import pytest

from repro.config import paper_scenario, tiny_scenario, validate_parameters
from repro.exceptions import ConfigurationError
from repro.network.mobility import RandomWaypointMobility
from repro.sim import SlotSimulator
from repro.types import MobilityKind, Point
from tests.helpers import dense_gain_oracle


class TestRandomWaypoint:
    def _model(self, seed=0, speed=(10.0, 10.0), area=1000.0):
        initial = [Point(500.0, 500.0), Point(100.0, 100.0), Point(900.0, 900.0)]
        return RandomWaypointMobility(
            initial=initial,
            mobile=[1, 2],
            area_side_m=area,
            speed_range_mps=speed,
            slot_seconds=60.0,
            rng=np.random.default_rng(seed),
        )

    def test_fixed_nodes_stay(self):
        model = self._model()
        for slot in range(10):
            assert model.positions_at(slot)[0] == Point(500.0, 500.0)

    def test_mobile_nodes_move(self):
        model = self._model()
        start = model.positions_at(0)
        later = model.positions_at(5)
        assert later[1] != start[1]
        assert later[2] != start[2]

    def test_step_length_bounded_by_speed(self):
        model = self._model(speed=(5.0, 5.0))
        previous = model.positions_at(0)
        for slot in range(1, 20):
            current = model.positions_at(slot)
            for node in (1, 2):
                step = previous[node].distance_to(current[node])
                assert step <= 5.0 * 60.0 + 1e-6
            previous = current

    def test_positions_stay_in_area(self):
        model = self._model(speed=(50.0, 100.0))
        for slot in range(50):
            for p in model.positions_at(slot):
                assert 0.0 <= p.x <= 1000.0
                assert 0.0 <= p.y <= 1000.0

    def test_same_slot_idempotent(self):
        model = self._model()
        model.positions_at(7)
        assert model.positions_at(7) == model.positions_at(7)

    def test_rewind_rejected(self):
        model = self._model()
        model.positions_at(5)
        with pytest.raises(ValueError, match="rewind"):
            model.positions_at(3)

    def test_bad_speed_range_rejected(self):
        with pytest.raises(ValueError):
            self._model(speed=(5.0, 1.0))


class TestMobileGainView:
    """The slot's pair-gain view equals the dense all-pairs gains exactly."""

    @pytest.fixture(scope="class")
    def moved(self):
        params = paper_scenario(
            num_slots=6, mobility=MobilityKind.RANDOM_WAYPOINT
        )
        state = SlotSimulator.integral(params).state
        initial = state.mobility.positions_at(0)
        view = state.observe(5).gains
        positions = state.mobility.positions_at(5)
        assert positions != initial  # the users really moved
        dense = dense_gain_oracle(
            positions, params.propagation_constant, params.path_loss_exponent
        )
        return view, dense

    def test_pairs(self, moved):
        view, dense = moved
        n = dense.shape[0]
        tx, rx = np.divmod(np.arange(n * n), n)
        assert np.array_equal(view.pairs(tx, rx), dense[tx, rx])

    def test_submatrix(self, moved):
        view, dense = moved
        nodes = np.arange(dense.shape[0])
        assert np.array_equal(view.submatrix(nodes, nodes), dense)
        tx, rx = nodes[::3], nodes[1::2]
        assert np.array_equal(
            view.submatrix(tx, rx), dense[tx[:, None], rx[None, :]]
        )

    def test_column(self, moved):
        view, dense = moved
        for rx in range(dense.shape[0]):
            assert np.array_equal(view.column(rx), dense[:, rx])

    def test_scalar_indexing(self, moved):
        view, dense = moved
        n = dense.shape[0]
        assert all(
            view[tx, rx] == dense[tx, rx] for tx in range(n) for rx in range(n)
        )


class TestMobileSimulation:
    @pytest.fixture
    def mobile_params(self):
        return dataclasses.replace(
            tiny_scenario(num_slots=25),
            mobility=MobilityKind.RANDOM_WAYPOINT,
            user_speed_range_mps=(5.0, 20.0),
        )

    def test_run_completes_and_delivers(self, mobile_params):
        simulator = SlotSimulator.integral(mobile_params)
        result = simulator.run()
        demand = sum(s.demand_packets for s in simulator.model.sessions)
        assert np.all(result.metrics.series("delivered_pkts") == demand)

    def test_observation_carries_gains(self, mobile_params):
        simulator = SlotSimulator.integral(mobile_params)
        observation = simulator.state.observe(0)
        assert observation.gains is not None
        assert observation.gains.num_nodes == simulator.model.num_nodes
        # Slot 0 is the placement: the model's position rows.
        start = simulator.state.mobility.positions_at(0)
        assert start == [Point(x, y) for x, y in simulator.model.positions.tolist()]

    def test_static_observation_has_no_gains(self):
        simulator = SlotSimulator.integral(tiny_scenario(num_slots=3))
        assert simulator.state.mobility is None
        assert simulator.state.observe(0).gains is None

    def test_static_sample_path_unchanged_by_mobility_feature(self):
        """Static scenarios must keep their historical randomness."""
        a = SlotSimulator.integral(tiny_scenario(num_slots=6)).run()
        b = SlotSimulator.integral(tiny_scenario(num_slots=6)).run()
        assert a.average_cost == pytest.approx(b.average_cost)

    def test_scheduled_powers_track_motion(self, mobile_params):
        simulator = SlotSimulator.integral(mobile_params)
        for slot in range(10):
            observation = simulator.state.observe(slot)
            decision = simulator.controller.decide(observation, simulator.state)
            gains = observation.gains
            params = simulator.model.params
            for t in decision.schedule.transmissions:
                noise = simulator.model.noise_power_w(
                    observation.bands.bandwidth(t.band)
                )
                interference = sum(
                    gains[o.tx, t.rx] * o.power_w
                    for o in decision.schedule.transmissions
                    if o.band == t.band and o.link != t.link
                )
                sinr = gains[t.tx, t.rx] * t.power_w / (noise + interference)
                assert sinr >= params.sinr_threshold * (1 - 1e-9)
            simulator.state.apply(decision)

    def test_speed_validation(self):
        params = dataclasses.replace(
            tiny_scenario(), user_speed_range_mps=(5.0, 1.0)
        )
        with pytest.raises(ConfigurationError, match="speed"):
            validate_parameters(params)
