"""Unit tests for the network model: node placement, geometry,
topology, spectrum, sessions."""

import dataclasses

import networkx as nx
import numpy as np
import pytest

from repro.config import paper_scenario, tiny_scenario
from repro.exceptions import SpectrumError
from repro.network import (
    build_sessions,
    build_spectrum_model,
    build_topology,
    clustered_placement,
    grid_placement,
    node_positions,
    uniform_random_placement,
)
from repro.types import Point
from tests.helpers import link_tuples, out_neighbors
from tests.topology_reference import build_topology_dense


def _link_graph(topology):
    """The candidate-link set as a networkx digraph over every node."""
    graph = nx.DiGraph()
    graph.add_nodes_from(range(topology.num_nodes))
    graph.add_edges_from(link_tuples(topology))
    return graph


class TestGeometry:
    def test_uniform_points_inside_area(self, rng):
        points = uniform_random_placement(200, 500.0, rng)
        assert len(points) == 200
        assert all(0 <= p.x <= 500 and 0 <= p.y <= 500 for p in points)

    def test_uniform_zero_count(self, rng):
        assert uniform_random_placement(0, 100.0, rng) == []

    def test_uniform_negative_count_raises(self, rng):
        with pytest.raises(ValueError):
            uniform_random_placement(-1, 100.0, rng)

    def test_grid_is_deterministic(self):
        assert grid_placement(9, 300.0) == grid_placement(9, 300.0)

    def test_grid_point_count_and_bounds(self):
        points = grid_placement(7, 100.0)
        assert len(points) == 7
        assert all(0 < p.x < 100 and 0 < p.y < 100 for p in points)

    def test_grid_perfect_square_spacing(self):
        points = grid_placement(4, 100.0)
        # 2x2 grid with half-cell margins: centres at 25 and 75.
        xs = sorted({p.x for p in points})
        assert xs == [25.0, 75.0]

    def test_clustered_points_inside_area(self, rng):
        points = clustered_placement(100, 400.0, rng, num_clusters=2)
        assert len(points) == 100
        assert all(0 <= p.x <= 400 and 0 <= p.y <= 400 for p in points)

    def test_clustered_invalid_clusters(self, rng):
        with pytest.raises(ValueError):
            clustered_placement(10, 100.0, rng, num_clusters=0)


class TestNodes:
    """Nodes are the rows of the ``(N, 2)`` placement, stations first."""

    def test_node_count_and_order(self, rng):
        params = paper_scenario()
        positions = node_positions(params, rng)
        assert positions.shape == (params.num_nodes, 2)
        assert positions.dtype == np.float64

    def test_base_stations_at_configured_positions(self, rng):
        params = paper_scenario()
        positions = node_positions(params, rng)
        stations = positions[: params.num_base_stations].tolist()
        assert [Point(x, y) for x, y in stations] == list(
            params.base_station_positions
        )

    def test_users_inside_area(self):
        params = paper_scenario()
        users = node_positions(params, np.random.default_rng(7))
        users = users[params.num_base_stations :]
        # The users are the uniform draw of the same generator state.
        expected = uniform_random_placement(
            params.num_users, params.area_side_m, np.random.default_rng(7)
        )
        assert [Point(x, y) for x, y in users.tolist()] == expected
        assert ((users >= 0) & (users <= params.area_side_m)).all()

    def test_placement_depends_on_rng(self):
        params = paper_scenario()
        a = node_positions(params, np.random.default_rng(1))
        b = node_positions(params, np.random.default_rng(2))
        bs = params.num_base_stations
        assert np.array_equal(a[:bs], b[:bs])
        assert not np.array_equal(a[bs:], b[bs:])


class TestTopology:
    @pytest.fixture(scope="class")
    def topo(self):
        params = paper_scenario()
        positions = node_positions(params, np.random.default_rng(params.seed))
        return params, build_topology(params, positions)

    def test_no_self_links(self, topo):
        _, topology = topo
        assert (topology.link_tx != topology.link_rx).all()

    def test_neighbor_maps_consistent_with_links(self, topo):
        _, topology = topo
        links = set(link_tuples(topology))
        assert len(links) == topology.link_tx.size  # no duplicates
        # Transmitter-major; each receiver's in_links slice names it.
        assert (np.diff(topology.link_tx) >= 0).all()
        for node in range(topology.num_nodes):
            incoming = topology.in_links[
                topology.in_start[node] : topology.in_start[node + 1]
            ]
            assert (topology.link_rx[incoming] == node).all()
        assert sorted(topology.in_links.tolist()) == list(range(len(links)))

    def test_bs_links_to_every_user(self, topo):
        params, topology = topo
        # Base stations are exempt from the neighbour cap so the
        # one-hop baselines can always reach their users directly.
        links = set(link_tuples(topology))
        for bs in params.base_station_ids():
            for user in params.user_ids():
                assert (bs, user) in links

    def test_user_out_degree_capped(self, topo):
        params, topology = topo
        assert params.neighbor_limit is not None
        for user in params.user_ids():
            assert len(out_neighbors(topology, user)) <= params.neighbor_limit

    def test_gains_decrease_with_distance(self, topo):
        _, topology = topo
        tx = 0
        distances = np.linalg.norm(topology.positions - topology.positions[tx], axis=1)
        ordered = sorted(range(1, topology.num_nodes), key=lambda rx: distances[rx])
        gains = [topology.pair_gains[tx, rx] for rx in ordered]
        assert gains == sorted(gains, reverse=True)

    def test_every_user_reachable_from_a_bs(self, topo):
        params, topology = topo
        graph = _link_graph(topology)
        reached = set().union(
            *(nx.descendants(graph, bs) for bs in params.base_station_ids())
        )
        assert set(params.user_ids()) <= reached

    def test_graph_has_all_nodes(self, topo):
        # Every node is an endpoint of some candidate link (the builder
        # rejects isolated nodes), and the links are the all-pairs
        # oracle's, in its order.
        params, topology = topo
        endpoints = set(topology.candidate_links.ravel().tolist())
        assert endpoints == set(range(topology.num_nodes))
        reference = build_topology_dense(params, topology.positions)
        assert link_tuples(topology) == list(reference.candidate_links)


class TestSpectrum:
    @pytest.fixture(scope="class")
    def spectrum(self):
        params = paper_scenario()
        return params, build_spectrum_model(
            params, np.random.default_rng(params.seed)
        )

    def test_band_population(self, spectrum):
        params, model = spectrum
        assert model.num_bands == params.spectrum.num_bands
        assert not model.bands[0].is_random
        assert all(b.is_random for b in model.bands[1:])

    def test_base_stations_access_all_bands(self, spectrum):
        params, model = spectrum
        for bs in params.base_station_ids():
            assert model.accessible_bands(bs) == frozenset(range(model.num_bands))

    def test_every_user_has_cellular_band(self, spectrum):
        params, model = spectrum
        for user in params.user_ids():
            assert 0 in model.accessible_bands(user)

    def test_common_bands_is_intersection(self, spectrum):
        params, model = spectrum
        u1, u2 = list(params.user_ids())[:2]
        common = model.common_bands(u1, u2)
        assert common == model.accessible_bands(u1) & model.accessible_bands(u2)

    def test_sampled_bandwidths_in_range(self, spectrum):
        params, model = spectrum
        low, high = params.spectrum.random_bandwidth_range_hz
        for slot in range(50):
            state = model.sample(slot)
            assert state.bandwidth(0) == params.spectrum.cellular_bandwidth_hz
            for band in range(1, model.num_bands):
                assert low <= state.bandwidth(band) <= high

    def test_unknown_band_raises(self, spectrum):
        _, model = spectrum
        state = model.sample(0)
        with pytest.raises(SpectrumError):
            state.bandwidth(99)

    def test_unknown_node_raises(self, spectrum):
        _, model = spectrum
        with pytest.raises(SpectrumError):
            model.accessible_bands(123456)

    def test_max_bandwidth(self, spectrum):
        params, model = spectrum
        assert model.max_bandwidth_hz() == params.spectrum.random_bandwidth_range_hz[1]


class TestSessions:
    def test_distinct_user_destinations(self, rng):
        params = paper_scenario()
        sessions = build_sessions(params, rng)
        destinations = [s.destination for s in sessions]
        assert len(set(destinations)) == len(destinations)
        users = set(params.user_ids())
        assert all(d in users for d in destinations)

    def test_demand_matches_parameters(self, rng):
        params = paper_scenario()
        sessions = build_sessions(params, rng)
        expected = params.sessions.demand_packets_per_slot(params.slot_seconds)
        assert all(s.demand(t) == expected for s in sessions for t in (0, 5, 99))

    def test_too_many_sessions_raises(self, rng):
        params = dataclasses.replace(
            tiny_scenario(),
            sessions=dataclasses.replace(
                tiny_scenario().sessions, num_sessions=100
            ),
        )
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            build_sessions(params, rng)
