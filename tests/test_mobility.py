"""Tests for the mobility extension."""

import dataclasses

import numpy as np
import pytest

from repro.config import paper_scenario, tiny_scenario, validate_parameters
from repro.exceptions import ConfigurationError
from repro.network import grid_placement
from repro.network.mobility import RandomWaypointMobility
from repro.sim import SlotSimulator
from repro.types import MobilityKind
from tests import slot_reference
from tests.topology_reference import all_pairs_gains


class TestRandomWaypoint:
    def _model(self, seed=0, speed=(10.0, 10.0), area=1000.0):
        initial = np.array([[500.0, 500.0], [100.0, 100.0], [900.0, 900.0]])
        return RandomWaypointMobility(
            initial=initial,
            num_fixed=1,
            area_side_m=area,
            speed_range_mps=speed,
            slot_seconds=60.0,
            rng=np.random.default_rng(seed),
        )

    def test_fixed_nodes_stay(self):
        model = self._model()
        for slot in range(10):
            assert model.positions_at(slot)[0].tolist() == [500.0, 500.0]

    def test_mobile_nodes_move(self):
        model = self._model()
        start = model.positions_at(0)
        later = model.positions_at(5)
        assert later[1].tolist() != start[1].tolist()
        assert later[2].tolist() != start[2].tolist()

    def test_step_length_bounded_by_speed(self):
        model = self._model(speed=(5.0, 5.0))
        previous = model.positions_at(0)
        for slot in range(1, 20):
            current = model.positions_at(slot)
            step = np.hypot(*(current[1:] - previous[1:]).T)
            assert (step <= 5.0 * 60.0 + 1e-6).all()
            previous = current

    def test_positions_stay_in_area(self):
        model = self._model(speed=(50.0, 100.0))
        for slot in range(50):
            positions = model.positions_at(slot)
            assert ((0.0 <= positions) & (positions <= 1000.0)).all()

    def test_same_slot_idempotent(self):
        model = self._model()
        model.positions_at(7)
        assert model.positions_at(7) is model.positions_at(7)

    def test_each_slot_is_a_new_read_only_array(self):
        # A gains view holds its slot's array: later steps must not move it.
        model = self._model()
        first = model.positions_at(3)
        kept = first.copy()
        model.positions_at(9)
        assert first.tolist() == kept.tolist()
        assert not first.flags.writeable

    def test_rewind_rejected(self):
        model = self._model()
        model.positions_at(5)
        with pytest.raises(ValueError, match="rewind"):
            model.positions_at(3)

    def test_bad_speed_range_rejected(self):
        with pytest.raises(ValueError):
            self._model(speed=(5.0, 1.0))


def _walk_both(initial, num_fixed, area, speeds, slots, seed):
    """Step the row model and the per-node oracle side by side.

    Asserts equal positions, bit for bit, at every slot and equal
    generator states at the end; returns the arrivals per slot.
    """
    rows_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    model = RandomWaypointMobility(initial, num_fixed, area, speeds, 60.0, rows_rng)
    oracle = slot_reference.WaypointWalk(
        initial.tolist(), range(num_fixed, initial.shape[0]), area, speeds, 60.0, oracle_rng
    )
    arrivals = []
    for slot in range(slots):
        if slot:
            oracle.step()
        before = rows_rng.bit_generator.state["state"]["state"]
        positions = model.positions_at(slot)
        arrivals.append(before != rows_rng.bit_generator.state["state"]["state"])
        assert positions.tobytes() == oracle.array().tobytes(), slot
    assert rows_rng.bit_generator.state == oracle_rng.bit_generator.state
    assert rows_rng.random() == oracle_rng.random()
    return arrivals


class TestWaypointOracle:
    """The row model walks the per-node ``Point`` walk bit for bit."""

    def test_thousand_users_over_400_slots(self):
        side = 2000.0 * np.sqrt(1000 / 20.0)
        stations = np.array([(p.x, p.y) for p in grid_placement(166, side)])
        users = np.random.default_rng(5).uniform(0.0, side, size=(1000, 2))
        initial = np.concatenate((stations, users))
        arrivals = _walk_both(initial, 166, side, (0.5, 2.0), 400, seed=2014)
        assert sum(arrivals) > 10  # some users reached a waypoint

    def test_small_area_high_speed_arrives_every_slot(self):
        initial = np.random.default_rng(1).uniform(0.0, 50.0, size=(40, 2))
        arrivals = _walk_both(initial, 4, 50.0, (20.0, 40.0), 60, seed=7)
        assert all(arrivals[1:])

    def test_user_starting_on_its_waypoint(self):
        # Users 1 and 2 start on (and 1e-10 m off) the first waypoint
        # each will draw; speed 0 leaves only the tolerance to arrive.
        twin = np.random.default_rng(3)
        legs = twin.uniform([0.0, 0.0, 0.0], [800.0, 800.0, 0.0], size=(3, 3))
        initial = np.array(
            [[400.0, 400.0], [10.0, 20.0], legs[1, :2], legs[2, :2] + [1e-10, 0.0]]
        )
        model = RandomWaypointMobility(
            initial, 1, 800.0, (0.0, 0.0), 60.0, np.random.default_rng(3)
        )
        moved = model.positions_at(1)
        assert moved[1].tolist() == [10.0, 20.0]  # far away, speed 0
        assert moved[2].tolist() == legs[1, :2].tolist()
        assert moved[3].tolist() == legs[2, :2].tolist()
        _walk_both(initial, 1, 800.0, (0.0, 0.0), 5, seed=3)


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
        assert positions.tolist() != initial.tolist()  # the users really moved
        dense = all_pairs_gains(
            positions, params.propagation_constant, params.path_loss_exponent
        )[1]
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
        assert start.tolist() == simulator.model.positions.tolist()

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
