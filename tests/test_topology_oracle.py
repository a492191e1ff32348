"""The grid topology builder against the all-pairs oracle.

:func:`repro.network.topology.build_topology` claims the candidate
links, their order, the neighbour lists (read through the
transmitter-major ``link_tx`` runs and the by-receiver ``in_links``
slices) and the per-link gains of the
all-pairs construction in ``tests/topology_reference.py``, bit for bit,
and a pair-gain view whose every entry equals the oracle's gain matrix.
Placements here sit on a coarse lattice, so nodes coincide, receivers
tie at equal distance under ``neighbor_limit``, and pairs straddle the
feasibility radius.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import tiny_scenario, validate_parameters
from repro.exceptions import TopologyError
from repro.network import topology
from repro.network.geometry import node_positions
from repro.network.topology import build_topology, max_feasible_range_m
from repro.phy.propagation import ComputedPairGains, DensePairGains
from repro.types import Point
from tests.topology_reference import assert_link_index_matches, build_topology_dense

#: Lattice cells per side; positions are ``step * (i, j)``.
_CELLS = 6
#: One BS at the corner; user (2, 2) has a coincident twin and four
#: lattice neighbours tied at one distance, under a cap of 2.
_TIES = (((0, 0),), ((2, 2), (2, 2), (1, 2), (3, 2), (2, 1), (2, 3)), 300.0, 2, 1.0, 20.0)


def _scenario(bs_cells, user_cells, step, limit, user_power, bs_power):
    side = step * _CELLS

    def points(cells):
        return tuple(Point(step * i, step * j) for i, j in cells)

    params = tiny_scenario(
        num_users=len(user_cells),
        num_sessions=1,
        area_side_m=side,
        neighbor_limit=limit,
    )
    params = dataclasses.replace(
        params,
        base_station_positions=points(bs_cells),
        user_positions=points(user_cells),
        user_node=dataclasses.replace(params.user_node, max_tx_power_w=user_power),
        bs_node=dataclasses.replace(params.bs_node, max_tx_power_w=bs_power),
    )
    validate_parameters(params)
    return params


def _build_all(params, positions):
    """``(oracle, cached, computed)`` topologies, or the shared error."""
    try:
        oracle = build_topology_dense(params, positions)
    except TopologyError as exc:
        with pytest.raises(TopologyError) as grid_exc:
            build_topology(params, positions)
        assert str(grid_exc.value) == str(exc)
        return None
    cached = build_topology(params, positions)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(topology, "DENSE_MATERIALIZE_MAX", 0)
        computed = build_topology(params, positions)
    return oracle, cached, computed


def _assert_matches_oracle(params):
    positions = node_positions(params, np.random.default_rng(0))
    built = _build_all(params, positions)
    if built is None:
        return None
    oracle, cached, computed = built
    everyone = np.arange(len(positions))
    for topo in (cached, computed):
        assert_link_index_matches(topo, oracle)
        np.testing.assert_array_equal(topo.link_tx, oracle.link_tx)
        np.testing.assert_array_equal(topo.link_rx, oracle.link_rx)
        assert topo.link_gains.tobytes() == oracle.link_gains.tobytes()
        matrix = topo.pair_gains.submatrix(everyone, everyone)
        assert matrix.tobytes() == oracle.gains.tobytes()
    assert isinstance(cached.pair_gains, DensePairGains)
    assert isinstance(computed.pair_gains, ComputedPairGains)
    return oracle


_cell = st.tuples(st.integers(0, _CELLS), st.integers(0, _CELLS))
#: ``_scenario`` arguments: BS cells, user cells, lattice step (m),
#: neighbour cap, user and BS transmit power (W).
_CASES = st.tuples(
    st.lists(_cell, min_size=1, max_size=3),
    st.lists(_cell, min_size=1, max_size=18),
    st.sampled_from([150.0, 300.0, 444.0, 890.0]),
    st.sampled_from([None, 1, 2, 3, 6]),
    st.sampled_from([0.5, 1.0, 3.0]),
    st.sampled_from([1.0, 20.0]),
)


class TestGridMatchesOracle:
    @given(case=_CASES)
    @example(case=_TIES)
    # No cap at all, and equal BS and user power.
    @example(case=(((3, 3),), ((0, 0), (3, 4), (4, 4), (6, 6)), 444.0, None, 1.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_builder_matches_oracle(self, case):
        _assert_matches_oracle(_scenario(*case))

    def test_examples_hit_ties_and_coincident_nodes(self):
        oracle = _assert_matches_oracle(_scenario(*_TIES))
        # The cap keeps user 1's coincident twin and the lowest-id
        # tied neighbour, as the stable sort does.
        assert oracle.out_neighbors[1] == (2, 3)


class TestFeasibilityRadius:
    """Pairs at, just inside and just outside the feasibility radius."""

    @staticmethod
    def _exact_radius(params, power):
        noise = params.noise_density_w_per_hz * params.spectrum.cellular_bandwidth_hz
        threshold = params.sinr_threshold * noise
        return (params.propagation_constant * power / threshold) ** (
            1.0 / params.path_loss_exponent
        )

    @pytest.mark.parametrize(
        "scale", [1.0 - 1e-9, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 1.0 + 1e-9]
    )
    def test_pair_on_the_radius(self, scale):
        base = tiny_scenario(num_users=2, num_sessions=1, area_side_m=4000.0)
        radius = self._exact_radius(base, base.user_node.max_tx_power_w)
        assert radius < max_feasible_range_m(base, base.user_node.max_tx_power_w)
        # The BS sits far from both users; the two users are ``radius``
        # apart along an axis, straddling a grid-cell border.
        params = dataclasses.replace(
            base,
            base_station_positions=(Point(2000.0, 100.0),),
            user_positions=(
                Point(1000.0, 1500.0),
                Point(1000.0 + radius * scale, 1500.0),
            ),
        )
        oracle = _assert_matches_oracle(params)
        feasible = (1, 2) in oracle.candidate_links
        # Within a few ulps of the radius either answer is right, as
        # long as the grid builder gives the oracle's.
        if scale < 1.0 - 1e-12:
            assert feasible
        elif scale > 1.0 + 1e-12:
            assert not feasible

    def test_radius_is_conservative(self):
        params = tiny_scenario()
        for power in (params.user_node.max_tx_power_w, params.bs_node.max_tx_power_w):
            exact = self._exact_radius(params, power)
            slack = max_feasible_range_m(params, power)
            assert exact < slack <= exact * (1.0 + 2e-9)

