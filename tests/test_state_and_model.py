"""Unit tests for the assembled model and the mutable network state."""

import dataclasses

import numpy as np
import pytest

from repro.config import paper_scenario, tiny_scenario
from repro.config.parameters import EnergyParameters, NodeParameters
from repro.core import RelaxedLpController, compute_constants
from repro.exceptions import ConfigurationError
from repro.model import build_network_model
from repro.network import grid_placement
from repro.sim import SlotSimulator
from repro.state import NetworkState
from repro.types import Point


class TestNetworkModel:
    def test_build_validates(self):
        import dataclasses

        bad = dataclasses.replace(tiny_scenario(), control_v=-1.0)
        with pytest.raises(ConfigurationError):
            build_network_model(bad, np.random.default_rng(0))

    def test_model_shape(self, tiny_model, tiny_params):
        assert tiny_model.num_nodes == tiny_params.num_nodes
        assert len(tiny_model.sessions) == tiny_params.sessions.num_sessions
        assert len(tiny_model.bs_ids) == tiny_params.num_base_stations
        assert len(tiny_model.user_ids) == tiny_params.num_users

    def test_total_grid_cap(self, tiny_model):
        expected = sum(
            tiny_model.params.energy_params(b).grid_cap_j for b in tiny_model.bs_ids
        )
        assert tiny_model.total_grid_cap_j() == pytest.approx(expected)

    def test_session_destinations_mapping(self, tiny_model):
        mapping = tiny_model.session_destinations()
        assert mapping == {
            s.session_id: s.destination for s in tiny_model.sessions
        }

    def test_noise_power(self, tiny_model):
        params = tiny_model.params
        assert tiny_model.noise_power_w(1e6) == pytest.approx(
            params.noise_density_w_per_hz * 1e6
        )

    def test_cost_uses_configured_unit(self, tiny_model):
        params = tiny_model.params
        assert tiny_model.cost.value(params.cost_energy_unit_j) == pytest.approx(
            params.cost_a + params.cost_b + params.cost_c
        )


def _two_class_scenario():
    """The paper scenario with base-station and user classes that differ
    in every field a per-node vector is built from, and pinned users."""
    base = paper_scenario(num_slots=1)
    return dataclasses.replace(
        base,
        bs_node=NodeParameters(
            max_tx_power_w=20.0,
            recv_power_w=0.2,
            const_power_w=10.0,
            idle_power_w=5.0,
            num_radios=3,
        ),
        user_node=NodeParameters(
            max_tx_power_w=1.0,
            recv_power_w=0.1,
            const_power_w=0.02,
            idle_power_w=0.03,
            num_radios=1,
        ),
        bs_energy=EnergyParameters(
            renewable_max_w=15.0,
            battery_capacity_j=1.08e7,
            charge_cap_j=72000.0,
            discharge_cap_j=60000.0,
            grid_cap_j=720000.0,
            grid_connect_prob=1.0,
            charge_efficiency=0.95,
            discharge_efficiency=0.9,
        ),
        user_energy=EnergyParameters(
            renewable_max_w=1.0,
            battery_capacity_j=72000.0,
            charge_cap_j=18000.0,
            discharge_cap_j=12000.0,
            grid_cap_j=36000.0,
            grid_connect_prob=0.5,
            charge_efficiency=0.85,
            discharge_efficiency=0.8,
        ),
        user_positions=tuple(grid_placement(base.num_users, base.area_side_m)),
    )


class TestPerNodeVectors:
    """Every ``(N,)`` constant holds the station value on rows ``0..B-1``
    and the user value on the rest."""

    @pytest.fixture(scope="class")
    def simulator(self):
        return SlotSimulator.integral(_two_class_scenario())

    @staticmethod
    def _assert_rows(vector, bs_value, user_value, num_bs):
        assert vector.shape == (len(vector),)
        assert vector[:num_bs].tolist() == [bs_value] * num_bs
        assert vector[num_bs:].tolist() == [user_value] * (len(vector) - num_bs)

    def test_classes_differ_everywhere(self):
        params = _two_class_scenario()
        for bs, user in (
            (params.bs_node, params.user_node),
            (params.bs_energy, params.user_energy),
        ):
            for field in dataclasses.fields(bs):
                if field.name != "renewable_max_w" or bs is params.bs_energy:
                    assert getattr(bs, field.name) != getattr(user, field.name)

    def test_positions_are_the_topology_rows(self, simulator):
        model, params = simulator.model, simulator.params
        assert model.positions is model.topology.positions
        num_bs = params.num_base_stations
        rows = [Point(x, y) for x, y in model.positions.tolist()]
        assert rows[:num_bs] == list(params.base_station_positions)
        assert rows[num_bs:] == list(params.user_positions)

    def test_model_and_arraystate_vectors(self, simulator):
        model, params = simulator.model, simulator.params
        num_bs = params.num_base_stations
        self._assert_rows(
            model.max_power_w,
            params.bs_node.max_tx_power_w,
            params.user_node.max_tx_power_w,
            num_bs,
        )
        arrays = simulator.state.arrays
        for attr, field in (
            ("capacity_j", "battery_capacity_j"),
            ("charge_cap_j", "charge_cap_j"),
            ("discharge_cap_j", "discharge_cap_j"),
            ("charge_efficiency", "charge_efficiency"),
            ("discharge_efficiency", "discharge_efficiency"),
            ("grid_cap_j", "grid_cap_j"),
            ("connect_prob", "grid_connect_prob"),
        ):
            self._assert_rows(
                getattr(arrays, attr),
                getattr(params.bs_energy, field),
                getattr(params.user_energy, field),
                num_bs,
            )

    def test_controller_and_bound_vectors(self, simulator):
        model, params = simulator.model, simulator.params
        num_bs = params.num_base_stations
        bs, user = params.bs_node, params.user_node
        dt = params.slot_seconds
        controller = simulator.controller
        relaxed = RelaxedLpController(model, simulator.constants)
        for vector in (controller._fixed_energy_arr, relaxed._fixed_energy_j):
            self._assert_rows(
                vector, bs.fixed_energy_j(dt), user.fixed_energy_j(dt), num_bs
            )
        for vector in (controller._recv_power_arr, relaxed._recv_power):
            self._assert_rows(vector, bs.recv_power_w, user.recv_power_w, num_bs)
        self._assert_rows(controller._bs_mask, True, False, num_bs)
        scheduler = controller.scheduler
        for vector in (scheduler._radios_arr, relaxed._radios):
            self._assert_rows(vector, bs.num_radios, user.num_radios, num_bs)
        assert relaxed._max_power is model.max_power_w
        link_tx, link_rx = model.topology.link_tx, model.topology.link_rx
        assert np.array_equal(
            scheduler._static.max_power_tx, model.max_power_w[link_tx]
        )
        assert np.array_equal(
            scheduler._static.recv_power_rx,
            np.where(link_rx < num_bs, bs.recv_power_w, user.recv_power_w),
        )

    def test_total_grid_cap_sums_the_station_rows(self, simulator):
        model = simulator.model
        caps = [model.params.energy_params(b).grid_cap_j for b in model.bs_ids]
        assert model.total_grid_cap_j() == sum(caps)


class TestNetworkState:
    def test_initial_queues_empty(self, tiny_state, tiny_model):
        assert not tiny_state.arrays.q.any()
        assert not tiny_state.arrays.g.any()
        assert not tiny_state.battery_levels().any()

    def test_initial_z_is_negative_shift(self, tiny_state, tiny_model, tiny_constants):
        params = tiny_model.params
        for node in range(tiny_model.num_nodes):
            expected = -(
                params.control_v * tiny_constants.gamma_max
                + params.energy_params(node).discharge_cap_j
            )
            assert tiny_state.z_values()[node] == pytest.approx(expected)

    def test_observation_shape(self, tiny_state, tiny_model):
        observation = tiny_state.observe(0)
        assert observation.renewable_j.shape == (tiny_model.num_nodes,)
        assert observation.grid_connected.shape == (tiny_model.num_nodes,)
        assert observation.grid_connected.dtype == bool
        assert len(observation.bands.bandwidths_hz) == tiny_model.spectrum.num_bands

    def test_renewables_bounded(self, tiny_state, tiny_model):
        params = tiny_model.params
        for slot in range(30):
            observation = tiny_state.observe(slot)
            for node in range(tiny_model.num_nodes):
                cap = params.energy_params(node).renewable_max_w * params.slot_seconds
                assert 0 <= observation.renewable_j[node] <= cap

    def test_base_stations_always_connected(self, tiny_state, tiny_model):
        for slot in range(20):
            observation = tiny_state.observe(slot)
            for bs in tiny_model.bs_ids:
                assert observation.grid_connected[bs]

    def test_h_backlogs_cover_candidate_links(self, tiny_state, tiny_model):
        h = tiny_state.h_backlogs()
        assert h.shape == (len(tiny_model.topology.candidate_links),)
        assert h.shape == tiny_model.topology.link_tx.shape

    def test_environment_paired_across_architectures(self):
        """Disabling renewables must not shift any other sample path."""
        import dataclasses

        params = paper_scenario(num_slots=5)
        variant = dataclasses.replace(params, renewables_enabled=False)

        def observe_all(p):
            model = build_network_model(p, np.random.default_rng(p.seed))
            constants = compute_constants(model)
            state = NetworkState(model, constants, np.random.default_rng(42))
            return [state.observe(t) for t in range(5)]

        base_obs = observe_all(params)
        variant_obs = observe_all(variant)
        for a, b in zip(base_obs, variant_obs):
            assert a.bands.bandwidths_hz == b.bands.bandwidths_hz
            assert a.grid_connected.tolist() == b.grid_connected.tolist()
            assert not b.renewable_j.any()

    def test_apply_advances_batteries(self, tiny_state, tiny_model, tiny_constants):
        from repro.control import DriftPlusPenaltyController

        controller = DriftPlusPenaltyController(
            tiny_model, tiny_constants, np.random.default_rng(0)
        )
        for slot in range(5):
            decision = controller.decide(tiny_state.observe(slot), tiny_state)
            snapshot = tiny_state.apply(decision, slot)
            assert snapshot.slot == slot
            arrays = tiny_state.arrays
            for node in range(tiny_model.num_nodes):
                level = arrays.battery_level[node]
                capacity = tiny_model.params.energy_params(node).battery_capacity_j
                assert 0 <= level <= capacity
                # The shifted energy queue reads the same level (Eq. 31).
                assert tiny_state.z_values()[node] == level - arrays.z_shift[node]

    def test_grid_outage_takes_effect_on_a_live_state(self, tiny_state, tiny_model):
        # An outage scheduled after the run started applies from its
        # first slot; the grid caps stay the model's.
        bs = tiny_model.bs_ids[0]
        connected = [tiny_state.observe(slot).grid_connected[bs] for slot in range(2)]
        tiny_state.schedule_grid_outage([bs], 3, 6)
        for slot in range(2, 8):
            connected.append(tiny_state.observe(slot).grid_connected[bs])
        assert connected == [not 3 <= slot < 6 for slot in range(8)]
        params = tiny_model.params
        caps = [params.energy_params(n).grid_cap_j for n in range(params.num_nodes)]
        assert list(tiny_state.arrays.grid_cap_j) == caps


def _spawned_children(monkeypatch, params):
    """Spawn-child indices a ``NetworkState`` builds for ``params``."""
    import repro.state

    built = []
    real_spawn_child = repro.state.spawn_child

    def spawn_child(parent, index):
        built.append(index)
        return real_spawn_child(parent, index)

    monkeypatch.setattr(repro.state, "spawn_child", spawn_child)
    model = build_network_model(params, np.random.default_rng(params.seed))
    NetworkState(model, compute_constants(model), np.random.default_rng(1))
    return built, model


class TestLazyStreams:
    def test_no_stream_for_components_that_never_draw(self, monkeypatch):
        # Renewables off, base stations at p = 1, users at p = 0: only
        # the band stream (child 0) is built.
        params = tiny_scenario(renewables_enabled=False)
        assert params.user_energy.grid_connect_prob == 0.0
        built, _ = _spawned_children(monkeypatch, params)
        assert built == [0]

    def test_streams_for_drawing_components_only(self, monkeypatch):
        import dataclasses

        params = tiny_scenario()
        user_energy = dataclasses.replace(params.user_energy, grid_connect_prob=0.5)
        params = dataclasses.replace(params, user_energy=user_energy)
        built, model = _spawned_children(monkeypatch, params)
        n = model.num_nodes
        renewables = [1 + node for node in range(n)]
        grids = [1 + n + user for user in model.user_ids]
        assert built == [0, *grids, *renewables]
