"""Unit tests for scenario parameters, factories, and validation."""

import dataclasses

import numpy as np
import pytest

from repro.config import (
    EnergyParameters,
    ScenarioParameters,
    SessionParameters,
    paper_scenario,
    small_scenario,
    tiny_scenario,
    validate_parameters,
)
from repro.exceptions import ConfigurationError
from repro.network.geometry import node_positions
from repro.types import NodeKind, Point


class TestNodeClassification:
    def test_base_stations_take_low_ids(self):
        params = paper_scenario()
        for bs in params.base_station_ids():
            assert params.node_kind(bs) is NodeKind.BASE_STATION

    def test_users_take_high_ids(self):
        params = paper_scenario()
        for user in params.user_ids():
            assert params.node_kind(user) is NodeKind.MOBILE_USER

    def test_out_of_range_node_raises(self):
        params = paper_scenario()
        with pytest.raises(ValueError):
            params.node_kind(params.num_nodes)

    def test_num_nodes(self):
        params = paper_scenario()
        assert params.num_nodes == params.num_users + params.num_base_stations

    def test_node_params_dispatch(self):
        params = paper_scenario()
        assert params.node_params(0) is params.bs_node
        assert params.node_params(params.num_base_stations) is params.user_node

    def test_energy_params_dispatch(self):
        params = paper_scenario()
        assert params.energy_params(0) is params.bs_energy
        assert params.energy_params(params.num_nodes - 1) is params.user_energy


class TestSessionParameters:
    def test_demand_packets_per_slot(self):
        sessions = SessionParameters(demand_kbps=100.0, packet_size_bits=64000.0)
        # 100 kbps * 60 s / 64000 bits = 93.75 -> rounds to 94.
        assert sessions.demand_packets_per_slot(60.0) == 94

    def test_demand_is_at_least_one_packet(self):
        sessions = SessionParameters(demand_kbps=0.001, packet_size_bits=64000.0)
        assert sessions.demand_packets_per_slot(60.0) == 1

    def test_default_k_max_is_twice_demand(self):
        sessions = SessionParameters()
        assert sessions.k_max(60.0) == 2 * sessions.demand_packets_per_slot(60.0)

    def test_explicit_k_max_wins(self):
        sessions = SessionParameters(admission_max_packets=17)
        assert sessions.k_max(60.0) == 17


class TestEnergyParameters:
    def test_constraint_13_enforced_at_construction(self):
        with pytest.raises(ValueError, match="constraint \\(13\\)"):
            EnergyParameters(
                renewable_max_w=1.0,
                battery_capacity_j=10.0,
                charge_cap_j=6.0,
                discharge_cap_j=6.0,
                grid_cap_j=1.0,
                grid_connect_prob=1.0,
            )


class TestFactories:
    def test_paper_scenario_matches_section_vi(self):
        params = paper_scenario()
        assert params.area_side_m == 2000.0
        assert params.num_users == 20
        assert params.base_station_positions == (
            Point(500.0, 500.0),
            Point(1500.0, 500.0),
        )
        assert params.spectrum.num_bands == 5
        assert params.slot_seconds == 60.0
        assert params.num_slots == 100

    def test_paper_scenario_overrides(self):
        params = paper_scenario(control_v=7e5, num_users=10)
        assert params.control_v == 7e5
        assert params.num_users == 10

    def test_small_scenario_is_smaller(self):
        small = small_scenario()
        assert small.num_users < paper_scenario().num_users
        assert small.num_slots < paper_scenario().num_slots

    def test_tiny_scenario_single_bs(self):
        tiny = tiny_scenario()
        assert tiny.num_base_stations == 1

    def test_all_factories_validate(self):
        for params in (paper_scenario(), small_scenario(), tiny_scenario()):
            validate_parameters(params)  # must not raise


class TestValidation:
    def test_bs_outside_area_rejected(self):
        params = dataclasses.replace(
            paper_scenario(), base_station_positions=(Point(9999.0, 0.0),)
        )
        with pytest.raises(ConfigurationError, match="outside"):
            validate_parameters(params)

    def test_negative_v_rejected(self):
        params = dataclasses.replace(paper_scenario(), control_v=-1.0)
        with pytest.raises(ConfigurationError, match="control_v"):
            validate_parameters(params)

    def test_zero_slot_rejected(self):
        params = dataclasses.replace(paper_scenario(), slot_seconds=0.0)
        with pytest.raises(ConfigurationError, match="slot_seconds"):
            validate_parameters(params)

    def test_constant_cost_function_rejected(self):
        params = dataclasses.replace(paper_scenario(), cost_a=0.0, cost_b=0.0)
        with pytest.raises(ConfigurationError, match="constant"):
            validate_parameters(params)

    def test_more_sessions_than_users_rejected(self):
        params = dataclasses.replace(
            tiny_scenario(), sessions=SessionParameters(num_sessions=50)
        )
        with pytest.raises(ConfigurationError, match="destination"):
            validate_parameters(params)

    def test_bs_must_be_grid_connected(self):
        bad_energy = dataclasses.replace(
            paper_scenario().bs_energy, grid_connect_prob=0.5
        )
        params = dataclasses.replace(paper_scenario(), bs_energy=bad_energy)
        with pytest.raises(ConfigurationError, match="grid"):
            validate_parameters(params)

    def test_all_errors_reported_together(self):
        params = dataclasses.replace(
            paper_scenario(), control_v=-1.0, slot_seconds=-5.0
        )
        with pytest.raises(ConfigurationError) as excinfo:
            validate_parameters(params)
        message = str(excinfo.value)
        assert "control_v" in message and "slot_seconds" in message

    def test_neighbor_limit_zero_rejected(self):
        params = dataclasses.replace(paper_scenario(), neighbor_limit=0)
        with pytest.raises(ConfigurationError, match="neighbor_limit"):
            validate_parameters(params)

    def test_dense_topology_mode_rejected(self):
        params = dataclasses.replace(paper_scenario(), topology_mode="dense")
        with pytest.raises(ConfigurationError, match="topology_reference"):
            validate_parameters(params)

    def test_bad_bandwidth_range_rejected(self):
        spectrum = dataclasses.replace(
            paper_scenario().spectrum, random_bandwidth_range_hz=(2e6, 1e6)
        )
        params = dataclasses.replace(paper_scenario(), spectrum=spectrum)
        with pytest.raises(ConfigurationError, match="bandwidth"):
            validate_parameters(params)


class TestUserPositions:
    """Pinned user placement (the benchmark workloads' fixed layouts)."""

    PINNED = (
        Point(100.0, 200.0),
        Point(900.0, 50.0),
        Point(0.0, 1000.0),
        Point(500.0, 500.0),
    )

    def _pinned(self, positions=PINNED):
        return dataclasses.replace(tiny_scenario(), user_positions=positions)

    def test_users_placed_exactly_at_pinned_points(self):
        params = self._pinned()
        validate_parameters(params)
        for seed in (1, 2):  # the placement rng is never consulted
            positions = node_positions(params, np.random.default_rng(seed))
            # User rows follow the base stations, in pinned order.
            assert positions.shape == (params.num_nodes, 2)
            users = positions[params.num_base_stations :]
            assert [Point(x, y) for x, y in users.tolist()] == list(self.PINNED)

    def test_count_must_match_num_users(self):
        params = self._pinned(self.PINNED[:3])
        with pytest.raises(ConfigurationError, match="num_users"):
            validate_parameters(params)

    def test_point_outside_area_rejected(self):
        params = self._pinned(self.PINNED[:3] + (Point(500.0, 1000.5),))
        with pytest.raises(ConfigurationError, match=r"user_positions\[3\]"):
            validate_parameters(params)
