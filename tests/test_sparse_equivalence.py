"""Cached-vs-computed gain views, and the grid builder at scale.

The topology answers ``g(tx, rx)`` reads from a cached ``(N, N)`` gain
matrix up to ``DENSE_MATERIALIZE_MAX`` nodes and computes them from
positions above it.  Both views claim *bit-identical* gains, so a run
must not depend on which one it reads.  This suite enforces that at two
levels:

* topology level: at a few hundred nodes the grid builder matches the
  all-pairs oracle of ``tests/topology_reference.py`` (same candidate
  links, same order, bitwise-equal per-link gains), and both views
  reproduce the oracle's gain matrix exactly;
* run level: full simulations with the cache and without it (the cutoff
  patched to 0) produce identical per-slot decisions (transmissions,
  powers, routing rates, admission), identical traces, and identical
  final queue/battery state, across the scheduler / queue-semantics /
  mobility / dynamic-spectrum variants.

Every comparison is exact (``==`` on floats): both views apply the same
elementwise IEEE-754 operations in the same order, so any drift is a
bug, not round-off.  ``tests/test_topology_oracle.py`` holds the
property-based builder-vs-oracle check.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.config import paper_scenario, tiny_scenario
from repro.network import topology
from repro.network.geometry import grid_placement
from repro.network.geometry import node_positions
from repro.network.topology import build_topology
from repro.phy.propagation import ComputedPairGains, DensePairGains
from repro.sim import SlotSimulator
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceRecorder
from repro.types import MobilityKind, Point, QueueSemantics, SchedulerKind
from tests.helpers import decision_fingerprint
from tests.topology_reference import assert_link_index_matches, build_topology_dense


def _run_capture(params, scheduler_kind, cached=True):
    """Run a scenario and capture decisions, trace, and final state.

    ``cached=False`` patches the cache cutoff to 0 so the topology
    computes every gain from positions.
    """
    with pytest.MonkeyPatch.context() as patch:
        if not cached:
            patch.setattr(topology, "DENSE_MATERIALIZE_MAX", 0)
        sim = SlotSimulator.integral(params, scheduler_kind=scheduler_kind)
    view = sim.model.topology.pair_gains
    assert isinstance(view, DensePairGains if cached else ComputedPairGains)
    trace = TraceRecorder()
    decisions = [
        decision_fingerprint(sim.step(slot, trace=trace))
        for slot in range(params.num_slots)
    ]
    arrays = sim.state.arrays
    final = {
        "q": arrays.q.copy(),
        "g": arrays.g.copy(),
        "battery": arrays.battery_level.copy(),
    }
    return decisions, trace.rows, final


def _assert_identical_runs(params, scheduler_kind):
    cached = _run_capture(params, scheduler_kind)
    computed = _run_capture(params, scheduler_kind, cached=False)
    for slot, (c_fp, p_fp) in enumerate(zip(cached[0], computed[0])):
        assert c_fp == p_fp, f"decision diverged at slot {slot}"
    assert cached[1] == computed[1], "trace rows diverged"
    for key in cached[2]:
        np.testing.assert_array_equal(
            cached[2][key], computed[2][key], err_msg=f"final {key} diverged"
        )


class TestTopologyEquivalence:
    """Builder-level identity with the oracle at a few hundred nodes."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return tiny_scenario(
            num_users=200,
            num_sessions=4,
            area_side_m=2500.0,
            neighbor_limit=4,
        )

    @pytest.fixture(scope="class")
    def built(self, scenario):
        """``(oracle, cached, computed)`` over one seeded placement."""
        positions = node_positions(
            scenario, RngStreams(scenario.seed, scenario.seed_spawn_key).topology
        )
        oracle = build_topology_dense(scenario, positions)
        cached = build_topology(scenario, positions)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(topology, "DENSE_MATERIALIZE_MAX", 0)
            computed = build_topology(scenario, positions)
        return oracle, cached, computed

    def test_modes(self, built):
        # The node count alone picks the view.
        _, cached, computed = built
        assert isinstance(cached.pair_gains, DensePairGains)
        assert isinstance(computed.pair_gains, ComputedPairGains)

    def test_candidate_links_identical(self, built):
        oracle, cached, computed = built
        for topo in (cached, computed):
            assert_link_index_matches(topo, oracle)

    def test_link_arrays_identical(self, built):
        oracle, cached, computed = built
        for topo in (cached, computed):
            np.testing.assert_array_equal(topo.link_tx, oracle.link_tx)
            np.testing.assert_array_equal(topo.link_rx, oracle.link_rx)
            np.testing.assert_array_equal(topo.link_gains, oracle.link_gains)

    def test_pair_view_matches_dense_matrix(self, built):
        oracle, _, computed = built
        rng = np.random.default_rng(0)
        n = oracle.gains.shape[0]
        tx = rng.integers(0, n, size=300)
        rx = rng.integers(0, n, size=300)
        view = computed.pair_gains
        np.testing.assert_array_equal(
            view.pairs(tx, rx), oracle.gains[tx, rx]
        )
        np.testing.assert_array_equal(
            view.submatrix(tx[:20], rx[:20]),
            oracle.gains[tx[:20, None], rx[None, :20]],
        )
        np.testing.assert_array_equal(
            view.column(int(rx[0])), oracle.gains[:, int(rx[0])]
        )
        for t, r in zip(tx[:25].tolist(), rx[:25].tolist()):
            assert view[t, r] == oracle.gains[t, r]

    def test_auto_mode_matches_both(self, built):
        # The default topology caches the gain matrix, bitwise equal to
        # the oracle's, with no distance matrix kept beside it.
        oracle, cached, _ = built
        everyone = np.arange(oracle.gains.shape[0])
        np.testing.assert_array_equal(
            cached.pair_gains.submatrix(everyone, everyone), oracle.gains
        )


class TestRunEquivalence:
    """Full-run bit-identity, cached vs computed gains, across variants."""

    def test_greedy(self):
        params = tiny_scenario(
            num_users=40,
            num_sessions=3,
            num_slots=8,
            area_side_m=1500.0,
        )
        _assert_identical_runs(params, SchedulerKind.GREEDY)

    def test_sequential_fix(self):
        _assert_identical_runs(
            tiny_scenario(num_slots=8), SchedulerKind.SEQUENTIAL_FIX
        )

    def test_packet_accurate_semantics(self):
        params = tiny_scenario(
            num_users=25,
            num_sessions=2,
            num_slots=8,
            area_side_m=1200.0,
            queue_semantics=QueueSemantics.PACKET_ACCURATE,
        )
        _assert_identical_runs(params, SchedulerKind.GREEDY)

    def test_mobility(self):
        params = tiny_scenario(
            num_users=20,
            num_sessions=2,
            num_slots=8,
            area_side_m=1200.0,
            mobility=MobilityKind.RANDOM_WAYPOINT,
        )
        _assert_identical_runs(params, SchedulerKind.GREEDY)

    def test_dynamic_spectrum(self):
        base = tiny_scenario(
            num_users=20, num_sessions=2, num_slots=8, area_side_m=1200.0
        )
        params = dataclasses.replace(
            base,
            spectrum=dataclasses.replace(
                base.spectrum, dynamic_availability=True
            ),
        )
        _assert_identical_runs(params, SchedulerKind.GREEDY)

    def test_sparse_matches_auto(self):
        # Both accepted topology_mode values select the one builder; a
        # "sparse" run without the cache matches the default run.
        params = tiny_scenario(
            num_users=30, num_sessions=2, num_slots=8, area_side_m=1300.0
        )
        auto = _run_capture(params, SchedulerKind.GREEDY)
        sparse = _run_capture(
            dataclasses.replace(params, topology_mode="sparse"),
            SchedulerKind.GREEDY,
            cached=False,
        )
        assert auto[0] == sparse[0]
        assert auto[1] == sparse[1]
        for key in auto[2]:
            np.testing.assert_array_equal(auto[2][key], sparse[2][key])

    def test_constant_density_u200(self):
        # The Section-VI scenario grown to U=200 at constant density
        # (one BS per six users on a grid), as the scale benchmark runs.
        users = 200
        side = 2000.0 * math.sqrt(users / 20.0)
        stations = tuple(
            Point(p.x, p.y) for p in grid_placement(users // 6, side)
        )
        params = paper_scenario(
            num_slots=4,
            seed=2014,
            num_users=users,
            area_side_m=side,
            base_station_positions=stations,
            renewables_enabled=False,
        )
        _assert_identical_runs(params, SchedulerKind.GREEDY)
