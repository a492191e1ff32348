"""Unit tests for the assembled model and the mutable network state."""

import numpy as np
import pytest

from repro.config import paper_scenario, tiny_scenario
from repro.core import compute_constants
from repro.exceptions import ConfigurationError
from repro.model import build_network_model
from repro.state import NetworkState


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
            tiny_model.nodes[b].energy.grid_cap_j for b in tiny_model.bs_ids
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


class TestNetworkState:
    def test_initial_queues_empty(self, tiny_state, tiny_model):
        assert not tiny_state.arrays.q.any()
        assert not tiny_state.arrays.g.any()
        assert not tiny_state.battery_levels().any()

    def test_initial_z_is_negative_shift(self, tiny_state, tiny_model, tiny_constants):
        params = tiny_model.params
        for node_obj in tiny_model.nodes:
            node = node_obj.node_id
            expected = -(
                params.control_v * tiny_constants.gamma_max
                + node_obj.energy.discharge_cap_j
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
            for node_obj in tiny_model.nodes:
                cap = node_obj.energy.renewable_max_w * params.slot_seconds
                assert 0 <= observation.renewable_j[node_obj.node_id] <= cap

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
            for node_obj in tiny_model.nodes:
                node = node_obj.node_id
                level = arrays.battery_level[node]
                assert 0 <= level <= node_obj.energy.battery_capacity_j
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
        caps = [node.energy.grid_cap_j for node in tiny_model.nodes]
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
