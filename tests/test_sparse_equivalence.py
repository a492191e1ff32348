"""Dense-vs-sparse bit-identity harness.

The grid (sparse) topology builder claims *bit-identical* behaviour to
the dense all-pairs reference — not approximately equal.  This suite
enforces that claim at two levels:

* topology level: same candidate links, same order, bitwise-equal
  per-link gains, and pair-gain views that reproduce the dense matrix
  entries exactly, at a few hundred nodes;
* run level: full simulations in ``dense`` and ``sparse`` modes produce
  identical per-slot decisions (transmissions, powers, routing rates,
  admission), identical traces, and identical final queue/battery
  state, across the scheduler / queue-semantics / mobility / dynamic-
  spectrum variants.

Every comparison is exact (``==`` on floats): the sparse path applies
the same elementwise IEEE-754 operations in the same order, so any
drift is a bug, not round-off.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import tiny_scenario
from repro.network.node import build_nodes
from repro.network.topology import build_topology
from repro.sim import SlotSimulator
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceRecorder
from repro.types import MobilityKind, QueueSemantics, SchedulerKind
from tests.helpers import decision_fingerprint


def _with_mode(params, mode):
    return dataclasses.replace(params, topology_mode=mode)


def _run_capture(params, scheduler_kind):
    """Run a scenario and capture decisions, trace, and final state."""
    sim = SlotSimulator.integral(params, scheduler_kind=scheduler_kind)
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
    dense = _run_capture(_with_mode(params, "dense"), scheduler_kind)
    sparse = _run_capture(_with_mode(params, "sparse"), scheduler_kind)
    for slot, (d_fp, s_fp) in enumerate(zip(dense[0], sparse[0])):
        assert d_fp == s_fp, f"decision diverged at slot {slot}"
    assert dense[1] == sparse[1], "trace rows diverged"
    for key in dense[2]:
        np.testing.assert_array_equal(
            dense[2][key], sparse[2][key], err_msg=f"final {key} diverged"
        )


class TestTopologyEquivalence:
    """Builder-level identity at a few hundred nodes."""

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
        nodes = build_nodes(
            scenario, RngStreams(scenario.seed, scenario.seed_spawn_key).topology
        )
        dense = build_topology(_with_mode(scenario, "dense"), nodes)
        sparse = build_topology(_with_mode(scenario, "sparse"), nodes)
        return dense, sparse

    def test_modes(self, built):
        dense, sparse = built
        assert dense.mode == "dense" and sparse.mode == "sparse"
        assert dense.gains is not None and sparse.gains is None

    def test_candidate_links_identical(self, built):
        dense, sparse = built
        assert dense.candidate_links == sparse.candidate_links
        assert dense.out_neighbors == sparse.out_neighbors
        assert dense.in_neighbors == sparse.in_neighbors

    def test_link_arrays_identical(self, built):
        dense, sparse = built
        np.testing.assert_array_equal(dense.link_tx, sparse.link_tx)
        np.testing.assert_array_equal(dense.link_rx, sparse.link_rx)
        np.testing.assert_array_equal(dense.link_gains, sparse.link_gains)

    def test_pair_view_matches_dense_matrix(self, built):
        dense, sparse = built
        rng = np.random.default_rng(0)
        n = dense.num_nodes
        tx = rng.integers(0, n, size=300)
        rx = rng.integers(0, n, size=300)
        view = sparse.gains_lookup()
        np.testing.assert_array_equal(
            view.pairs(tx, rx), dense.gains[tx, rx]
        )
        np.testing.assert_array_equal(
            view.submatrix(tx[:20], rx[:20]),
            dense.gains[tx[:20, None], rx[None, :20]],
        )
        np.testing.assert_array_equal(
            view.column(int(rx[0])), dense.gains[:, int(rx[0])]
        )
        for t, r in zip(tx[:25].tolist(), rx[:25].tolist()):
            assert view[t, r] == dense.gains[t, r]

    def test_auto_mode_matches_both(self, scenario, built):
        dense, _ = built
        nodes = build_nodes(
            scenario, RngStreams(scenario.seed, scenario.seed_spawn_key).topology
        )
        auto = build_topology(_with_mode(scenario, "auto"), nodes)
        assert auto.candidate_links == dense.candidate_links
        # Below the materialisation cutoff auto also carries the dense
        # matrices, bitwise equal to the reference builder's.
        np.testing.assert_array_equal(auto.gains, dense.gains)
        np.testing.assert_array_equal(auto.distances, dense.distances)


class TestRunEquivalence:
    """Full-run bit-identity, dense vs sparse, across variants."""

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
        # "auto" (grid + materialised matrices) is the default mode the
        # goldens run under; sparse must match it as well as dense.
        params = tiny_scenario(
            num_users=30, num_sessions=2, num_slots=8, area_side_m=1300.0
        )
        auto = _run_capture(_with_mode(params, "auto"), SchedulerKind.GREEDY)
        sparse = _run_capture(_with_mode(params, "sparse"), SchedulerKind.GREEDY)
        assert auto[0] == sparse[0]
        assert auto[1] == sparse[1]
        for key in auto[2]:
            np.testing.assert_array_equal(auto[2][key], sparse[2][key])
