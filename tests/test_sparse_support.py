"""The slot loop's sparse passes match their dense oracles bit for bit.

``ArrayState`` keeps the support of ``G`` (the positions where
``G != 0``); the Eq. 28 kernel visits only routed and served links,
the Eq. 15 kernel only the ``Q`` cells of routed entries and
admissions, S1's backlog floor and the metrics' backlog totals read
the support, S3 gathers the out-links of the nodes that hold data, and
curtailment re-sums only the two endpoints of a shed entry.  Each is checked here
against the dense kernel it replaced (``tests/slot_reference.py``).
The spectrum access table, now one ``(U, M-1)`` draw, is checked
against the scalar draw loop.
"""

import dataclasses
import functools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import small_scenario, tiny_scenario
from repro.control import BackpressureRouter, LinkScheduler
from repro.control.controller import DriftPlusPenaltyController
from repro.control.decisions import ScheduleDecision
from repro.core import compute_constants
from repro.core.arraystate import ArrayState, seq_sum
from repro.exceptions import QueueError
from repro.model import build_network_model
from repro.network.spectrum import build_spectrum_model
from repro.sim import SlotSimulator
from repro.sim.metrics import backlog_totals
from repro.state import NetworkState
from repro.types import QueueSemantics, RenewableKind, SchedulerKind
from tests import slot_reference
from tests.test_golden import GREEDY_SCENARIOS


@functools.lru_cache(maxsize=None)
def _model(name):
    params = {"tiny": tiny_scenario(), "small": small_scenario()}[name]
    model = build_network_model(params, np.random.default_rng(params.seed))
    return model, compute_constants(model)


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


# -- the support of G -----------------------------------------------------------

#: G values: both zeros, tiny and huge magnitudes, so sums lose bits.
_G_VALUES = st.sampled_from([0.0, -0.0, 1e-300, 0.5, 3.0, 1e16, 7.25])
#: Packets and service: both zeros, and magnitudes that clamp G to 0.
_PKTS = st.sampled_from([0.0, -0.0, 0.25, 1.0, 3.0, 1e16])


@st.composite
def _g_trajectory(draw):
    """An initial ``G`` and a few Eq. 28 steps over the tiny link index."""
    model, _ = _model("tiny")
    num_links = model.topology.link_tx.shape[0]
    initial = draw(st.lists(_G_VALUES, min_size=num_links, max_size=num_links))
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        routed = draw(
            st.lists(st.tuples(st.integers(0, num_links - 1), _PKTS), max_size=10)
        )
        served = draw(
            st.lists(
                st.tuples(st.integers(0, num_links - 1), _PKTS),
                max_size=10,
                unique_by=lambda entry: entry[0],
            )
        )
        steps.append((routed, served))
    return np.array(initial), steps


def _step_arrays(entries, dtype_pos=np.intp):
    pos = np.array([p for p, _ in entries], dtype=dtype_pos)
    pkts = np.array([v for _, v in entries], dtype=float)
    return pos, pkts


class TestVirtualQueueSupport:
    @settings(max_examples=200, deadline=None)
    @given(trajectory=_g_trajectory())
    def test_steps_match_the_dense_kernel(self, trajectory):
        initial, steps = trajectory
        model, constants = _model("tiny")
        arrays = ArrayState(model, constants)
        arrays.assign_g(initial)
        # The assignment stores -0.0 as +0.0 and keeps every other bit.
        assert _bits(arrays.g) == _bits(initial + 0.0)
        dense = arrays.g.copy()
        for routed, served in steps:
            link_pos, pkts = _step_arrays(routed)
            service_pos, service_pkts = _step_arrays(served)
            dense = slot_reference.advance_g(
                dense,
                arrays.link_tx,
                arrays.link_rx,
                link_pos,
                pkts,
                service_pos,
                service_pkts,
            )
            arrays.advance_g(link_pos, pkts, service_pos, service_pkts)
            assert _bits(arrays.g) == _bits(dense)
            assert arrays.g_support.tolist() == np.flatnonzero(arrays.g).tolist()
            *_, virtual = backlog_totals(arrays, 1)
            assert float(virtual).hex() == float(
                slot_reference.virtual_total(dense)
            ).hex()

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(_G_VALUES, min_size=1, max_size=40))
    def test_snapshot_sums_mixed_zeros_like_the_dense_sum(self, values):
        model, constants = _model("tiny")
        arrays = ArrayState(model, constants)
        g = np.resize(np.array(values), arrays.g.shape[0])
        arrays.assign_g(g)
        *_, virtual = backlog_totals(arrays, 1)
        assert float(virtual).hex() == float(
            slot_reference.virtual_total(arrays.g)
        ).hex()

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 0.1, 2.5]),
            min_size=1,
            max_size=40,
        )
    )
    def test_zeros_never_move_a_sum_with_a_nonzero_term(self, values):
        # The backlog totals' argument, on any signs: once a nonzero term is
        # in, a zero of either sign leaves the running sum unchanged.
        x = np.array(values)
        if not x.any():
            return
        assert float(seq_sum(x[x.astype(bool)])).hex() == float(seq_sum(x)).hex()

    def test_all_negative_zero_assignment_sums_to_positive_zero(self):
        model, constants = _model("tiny")
        arrays = ArrayState(model, constants)
        arrays.assign_g(-0.0)
        assert arrays.g_support.size == 0
        assert not np.signbit(arrays.g).any()
        *_, virtual = backlog_totals(arrays, 1)
        assert float(virtual).hex() == float(seq_sum(arrays.g)).hex()
        assert not np.signbit(virtual)

    def test_negative_assignment_rejected_unchanged(self):
        model, constants = _model("tiny")
        arrays = ArrayState(model, constants)
        arrays.assign_g(2.0)
        values = np.full(arrays.g.shape[0], 1.0)
        values[3] = -4.0
        tx, rx = int(arrays.link_tx[3]), int(arrays.link_rx[3])
        with pytest.raises(QueueError, match=rf"negative virtual backlog -4.0 at G\({tx}, {rx}\)"):
            arrays.assign_g(values)
        assert (arrays.g == 2.0).all()
        assert arrays.g_support.tolist() == list(range(arrays.g.shape[0]))

    @pytest.mark.parametrize("bad", ["arrivals", "service"])
    def test_error_names_the_first_bad_position_like_the_dense_kernel(self, bad):
        model, constants = _model("tiny")
        arrays = ArrayState(model, constants)
        arrays.assign_g(1.0)
        before = arrays.g.copy()
        # Two bad positions, listed high first: both name the lower one.
        routed = [(5, 1.0), (4, -1.0 if bad == "arrivals" else 1.0), (2, 0.5)]
        served = [(6, 1.0), (4, -2.0 if bad == "service" else 0.0)]
        routed.append((7, -3.0) if bad == "arrivals" else (7, 1.0))
        served.append((7, -3.0) if bad == "service" else (8, 1.0))
        args = (*_step_arrays(routed), *_step_arrays(served))
        with pytest.raises(QueueError) as dense:
            slot_reference.advance_g(before, arrays.link_tx, arrays.link_rx, *args)
        with pytest.raises(QueueError) as sparse:
            arrays.advance_g(*args)
        assert str(sparse.value) == str(dense.value)
        assert _bits(arrays.g) == _bits(before)


# -- the touched cells of Q ---------------------------------------------------

#: Q values: tiny and huge magnitudes, so per-cell sums lose bits.
_Q_VALUES = st.sampled_from([0.0, 1e-300, 0.5, 3.0, 1e16, 7.25])
#: Routed and admitted packets: both zeros, magnitudes far above any
#: backlog, and decimals whose sums depend on the addition order.
_Q_PKTS = st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 3.0, 1e16])


@st.composite
def _q_step(draw, name):
    """An initial ``Q`` and one Eq. 15 step with repeated cells.

    Link positions come from a pool of at most six, half of them
    into session destinations, so cells repeat and destination rows
    receive; admissions land mostly on the pool's receivers, so they
    share cells with routed arrivals, and may land on destination
    rows too.  With ``bad`` set, one routed or admitted amount is
    negative.
    """
    model, constants = _model(name)
    arrays = ArrayState(model, constants)
    num_links, (num_nodes, width) = arrays.g.shape[0], arrays.q.shape
    into_dest = np.flatnonzero(np.isin(arrays.link_rx, model.destination_rows))
    pool = draw(
        st.lists(
            st.one_of(st.sampled_from(into_dest.tolist()), st.integers(0, num_links - 1)),
            min_size=1,
            max_size=6,
        )
    )
    initial = draw(st.lists(_Q_VALUES, min_size=num_nodes * width, max_size=num_nodes * width))
    routed = draw(
        st.lists(
            st.tuples(st.sampled_from(pool), st.integers(0, width - 1), _Q_PKTS), max_size=12
        )
    )
    receivers = arrays.link_rx[pool].tolist()
    admitted = draw(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from(receivers), st.integers(0, num_nodes - 1)),
                st.integers(0, width - 1),
                _Q_PKTS,
            ),
            max_size=4,
        )
    )
    bad = draw(st.sampled_from([None, "routed", "admitted"]))
    if bad == "routed" and routed:
        k = draw(st.integers(0, len(routed) - 1))
        routed[k] = (routed[k][0], routed[k][1], -2.5)
    if bad == "admitted" and admitted:
        k = draw(st.integers(0, len(admitted) - 1))
        admitted[k] = (admitted[k][0], admitted[k][1], -2.5)
    semantics = draw(st.sampled_from(list(QueueSemantics)))
    return np.reshape(initial, (num_nodes, width)), routed, admitted, semantics


def _q_step_arrays(routed, admitted):
    return (
        np.array([p for p, _, _ in routed], dtype=np.intp),
        np.array([c for _, c, _ in routed], dtype=np.intp),
        np.array([v for _, _, v in routed], dtype=float),
        np.array([n for n, _, _ in admitted], dtype=np.intp),
        np.array([c for _, c, _ in admitted], dtype=np.intp),
        np.array([v for _, _, v in admitted], dtype=float),
    )


class TestDataQueueCells:
    @pytest.mark.parametrize("name", ["tiny", "small"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_step_matches_the_dense_kernel(self, name, data):
        initial, routed, admitted, semantics = data.draw(_q_step(name))
        model, constants = _model(name)
        arrays = ArrayState(model, constants)
        arrays.queue_semantics = semantics
        arrays.q[...] = initial
        arrays.q[arrays.q_invalid] = 0.0
        before = arrays.q.copy()
        args = _q_step_arrays(routed, admitted)
        try:
            expected_q, expected_transfer = slot_reference.advance_q(arrays, *args)
        except QueueError as dense:
            with pytest.raises(QueueError) as sparse:
                arrays.advance_q(*args)
            assert str(sparse.value) == str(dense)
            assert _bits(arrays.q) == _bits(before)
            return
        transfer = arrays.advance_q(*args)
        assert _bits(transfer) == _bits(expected_transfer)
        assert _bits(arrays.q) == _bits(expected_q)
        assert not np.signbit(arrays.q).any()

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(st.sampled_from([0.0, 0.0, 0.0, 1e-300, 0.1, 0.7, 3.0, 1e16]), min_size=1),
        num_bs=st.integers(1, 3),
    )
    def test_snapshot_sums_the_nonzero_cells_like_the_dense_sum(self, values, num_bs):
        model, constants = _model("small")
        arrays = ArrayState(model, constants)
        arrays.q[...] = np.resize(np.array(values), arrays.q.shape)
        arrays.q[arrays.q_invalid] = 0.0
        bs_data, user_data, *_ = backlog_totals(arrays, num_bs)
        assert float(bs_data).hex() == float(seq_sum(arrays.q[:num_bs])).hex()
        assert float(user_data).hex() == float(seq_sum(arrays.q[num_bs:])).hex()

    def test_transfer_above_the_backlog_clamps_and_pins_the_destination(self):
        model, constants = _model("tiny")
        arrays = ArrayState(model, constants)
        col, dest = 0, int(model.destination_rows[0])
        into = int(np.flatnonzero(arrays.link_rx == dest)[0])
        tx = int(arrays.link_tx[into])
        arrays.q[tx, col] = 2.0
        for semantics in QueueSemantics:
            arrays.queue_semantics = semantics
            q = arrays.q.copy()
            args = _q_step_arrays([(into, col, 5.0), (into, col, 1e16)], [(dest, col, 3.0)])
            expected_q, expected_transfer = slot_reference.advance_q(arrays, *args)
            transfer = arrays.advance_q(*args)
            assert _bits(transfer) == _bits(expected_transfer)
            assert _bits(arrays.q) == _bits(expected_q)
            assert arrays.q[dest, col] == 0.0 and arrays.q[tx, col] == 0.0
            arrays.q[...] = q

    @pytest.mark.parametrize("bad", ["service", "arrivals", "admission"])
    def test_error_names_the_first_bad_cell_like_the_dense_kernel(self, bad):
        model, constants = _model("small")
        arrays = ArrayState(model, constants)
        arrays.q[arrays.q_valid] = 1.0
        before = arrays.q.copy()
        valid_rows = np.flatnonzero(arrays.q_valid[:, 0])
        # Two bad entries, the later one on the lower cell.
        high, low = (
            int(np.flatnonzero(arrays.link_tx == valid_rows[k])[0]) for k in (-1, 0)
        )
        if bad == "arrivals":
            high, low = (
                int(np.flatnonzero(arrays.link_rx == valid_rows[k])[0]) for k in (-1, 0)
            )
        routed = [(high, 0, 1.0), (high, 0, -4.0), (low, 0, -3.0)]
        admitted = [(int(valid_rows[0]), 0, 1.0)]
        if bad == "admission":
            routed = routed[:1]
            admitted += [(int(valid_rows[-1]), 0, -2.0), (int(valid_rows[0]), 0, -1.0)]
        args = _q_step_arrays(routed, admitted)
        with pytest.raises(QueueError) as dense:
            slot_reference.advance_q(arrays, *args)
        with pytest.raises(QueueError) as sparse:
            arrays.advance_q(*args)
        assert str(sparse.value) == str(dense.value)
        assert _bits(arrays.q) == _bits(before)

    def test_a_step_allocates_far_less_than_one_queue_matrix(self):
        """A few hundred entries on N = 50,000, S = 5 stay off any (N, S) scratch."""
        num_nodes, width, num_links = 50_000, 5, 200_000
        draw = np.random.default_rng(3)
        link_tx = np.sort(draw.integers(0, num_nodes, num_links))
        link_rx = (link_tx + draw.integers(1, num_nodes, num_links)) % num_nodes
        model = SimpleNamespace(
            params=SimpleNamespace(
                queue_semantics=QueueSemantics.PACKET_ACCURATE,
                control_v=1.0,
                num_base_stations=1,
                bs_energy=tiny_scenario().bs_energy,
                user_energy=tiny_scenario().user_energy,
            ),
            num_nodes=num_nodes,
            destination_rows=10 * np.arange(width),
            topology=SimpleNamespace(link_tx=link_tx, link_rx=link_rx),
            node_vector=lambda bs, user, dtype=float: np.full(num_nodes, user, dtype=dtype),
        )
        arrays = ArrayState(model, SimpleNamespace(gamma_max=0.0, beta=1.0))
        arrays.q[arrays.q_valid] = 1.0
        count = 300
        args = (
            draw.integers(0, num_links, count),
            draw.integers(0, width, count),
            draw.random(count) * 3.0,
            draw.integers(0, num_nodes, width),
            np.arange(width),
            np.full(width, 2.0),
        )
        matrix_bytes = arrays.q.nbytes
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            arrays.advance_q(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert matrix_bytes == num_nodes * width * 8
        assert peak < matrix_bytes // 20, peak


# -- S1 and S3 readers --------------------------------------------------------


class TestReaders:
    @settings(max_examples=100, deadline=None)
    @given(
        g=st.lists(
            st.sampled_from([0.0, 1e-20, 1e-13, 1e-12, 2e-12, 1.0, 40.0]),
            min_size=1,
            max_size=400,
        ),
        masked=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_s1_active_set_matches_the_dense_floor(self, g, masked, seed):
        model, constants = _model("small")
        state = NetworkState(model, constants, np.random.default_rng(0))
        num_links = model.topology.link_tx.shape[0]
        state.arrays.assign_g(np.resize(np.array(g), num_links))
        h = state.h_backlogs().copy()
        assert _bits(h) == _bits(constants.beta * state.arrays.g)
        # Every third supported link sits exactly on the floor.
        support = state.arrays.g_support
        h[support[::3]] = slot_reference.H_EPS
        allowed = (
            np.random.default_rng(seed).random(num_links) < 0.6 if masked else None
        )
        scheduler = LinkScheduler(model, constants, kind=SchedulerKind.GREEDY)
        grid = scheduler._candidate_grid(state.observe(0), h, support, None, allowed)
        expected = slot_reference.s1_active(h, allowed)
        active = np.zeros(0, dtype=np.intp) if grid is None else grid[0]
        assert active.tolist() == expected.tolist()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), density=st.sampled_from([0.0, 0.05, 0.5]))
    def test_s3_candidates_match_the_dense_scan(self, seed, density):
        model, constants = _model("small")
        draw = np.random.default_rng(seed)
        arrays = ArrayState(model, constants)
        beta = constants.beta
        # Integer multiples of beta^2 against beta * small integers: the
        # strict comparison meets equality on many links.
        rows = draw.random(arrays.q.shape[0]) < density
        arrays.q[rows] = beta * beta * draw.integers(0, 4, size=arrays.q[rows].shape)
        arrays.q[arrays.q_invalid] = 0.0
        h = beta * draw.integers(0, 4, size=arrays.g.shape[0]).astype(float)
        router = BackpressureRouter(model, constants, np.random.default_rng(0))
        cand, beta_h = router._backpressure_links(arrays.q, h)
        expected, expected_beta_h = slot_reference.s3_candidates(
            arrays.q, arrays.link_tx, beta, h
        )
        assert cand.tolist() == expected.tolist()
        assert _bits(beta_h) == _bits(expected_beta_h)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_s3_candidates_with_rows_tied_across_sessions(self, seed):
        """Rows whose every session holds the same backlog, zero or not."""
        model, constants = _model("small")
        draw = np.random.default_rng(seed)
        arrays = ArrayState(model, constants)
        beta = constants.beta
        level = beta * beta * draw.integers(0, 3, size=arrays.q.shape[0])
        arrays.q[...] = level[:, None]
        arrays.q[arrays.q_invalid] = 0.0
        h = beta * draw.integers(0, 3, size=arrays.g.shape[0]).astype(float)
        router = BackpressureRouter(model, constants, np.random.default_rng(0))
        cand, beta_h = router._backpressure_links(arrays.q, h)
        expected, expected_beta_h = slot_reference.s3_candidates(
            arrays.q, arrays.link_tx, beta, h
        )
        assert cand.tolist() == expected.tolist()
        assert _bits(beta_h) == _bits(expected_beta_h)


# -- curtailment ----------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _controller():
    model, constants = _model("small")
    return DriftPlusPenaltyController(model, constants, np.random.default_rng(0))


@st.composite
def _curtail_inputs(draw):
    """A random schedule that clamps many nodes and sheds repeatedly.

    Entries crowd a few hub nodes (the base stations transmit on every
    band of several links), so a hub sheds entry after entry; most
    supplies sit at or below the fixed energy, so most nodes clamp.
    """
    controller = _controller()
    model = controller._model
    topology = model.topology
    num_links = topology.link_tx.shape[0]
    num_bands = model.spectrum.num_bands
    hubs = np.flatnonzero(topology.link_tx < model.params.num_base_stations)
    link = st.one_of(st.sampled_from(hubs.tolist()), st.integers(0, num_links - 1))
    pairs = draw(
        st.lists(
            st.tuples(link, st.integers(0, num_bands - 1)),
            min_size=1,
            max_size=40,
            unique=True,
        )
    )
    # Powers far apart in magnitude, so re-summing a node's terms in
    # another order would change the last bits of its demand.
    powers = draw(
        st.lists(
            st.sampled_from([0.01, 0.1, 0.37, 1.0, 2.0, 3.3e-7, 0.123456789]),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    fixed = controller._fixed_energy_arr
    kinds = draw(
        st.lists(
            st.sampled_from([0, 0, 1, 1, 2, 3, 4]),
            min_size=model.num_nodes,
            max_size=model.num_nodes,
        )
    )
    supply = np.array(
        [
            (0.0, 0.5 * f, f + 7.3, f + 41.9, 1e9)[kind]
            for f, kind in zip(fixed.tolist(), kinds)
        ]
    )
    h_arr = np.array(
        draw(
            st.lists(
                st.sampled_from([0.0, 1.0, 2.5]),
                min_size=num_links,
                max_size=num_links,
            )
        )
    )
    band_pkts = np.linspace(0.5, 2.5, num_bands)
    schedule = ScheduleDecision.from_entries(
        link_pos=np.array([pos for pos, _ in pairs], dtype=np.intp),
        band=np.array([band for _, band in pairs], dtype=np.intp),
        power_w=np.array(powers, dtype=float),
        band_pkts=band_pkts,
        dropped=((int(topology.link_tx[0]), int(topology.link_rx[0]), 0),),
        link_tx=topology.link_tx,
        link_rx=topology.link_rx,
    )
    return schedule, supply, h_arr, band_pkts


def _assert_same_curtailment(got, expected, got_supply, expected_supply):
    (survivors, demands, deficit), (ref_survivors, ref_demands, ref_deficit) = got, expected
    for name in ("link_pos", "band", "service_pos"):
        assert getattr(survivors, name).tolist() == getattr(ref_survivors, name).tolist()
    for name in ("power_w", "service_pkts"):
        assert _bits(getattr(survivors, name)) == _bits(getattr(ref_survivors, name))
    assert survivors.dropped == ref_survivors.dropped
    assert _bits(demands) == _bits(ref_demands)
    assert _bits(deficit) == _bits(ref_deficit)
    assert _bits(got_supply) == _bits(expected_supply)


class TestInPlaceCurtailment:
    @settings(max_examples=200, deadline=None)
    @given(inputs=_curtail_inputs())
    def test_matches_the_rescanning_loop(self, inputs):
        schedule, supply, h_arr, band_pkts = inputs
        controller = _controller()
        ref_supply = supply.copy()
        expected = slot_reference.curtail(
            controller, schedule, ref_supply, h_arr, band_pkts
        )
        got = controller._curtail(schedule, supply, h_arr, band_pkts)
        _assert_same_curtailment(got, expected, supply, ref_supply)
        assert controller.last_deficit_j is got[2]

    @pytest.mark.parametrize("hub_supply", ["none", "one_link"])
    def test_hub_sheds_repeatedly(self, hub_supply):
        # A base station transmitting on every band of three links sheds
        # entry after entry, lowest H first (ties in schedule order).
        # With no supply it sheds all of them and is clamped; with room
        # for one link's entries it keeps exactly those, and its demand
        # is their re-sum in schedule order, which the powers make
        # order-sensitive (reversed, the last bit differs).
        controller = _controller()
        topology = controller._model.topology
        links = np.flatnonzero(topology.link_tx == 0)[:3]
        num_bands = controller._model.spectrum.num_bands
        powers = np.resize([0.3333333, 0.01, 0.05, 1.7e-6, 2.0], links.size * num_bands)
        schedule = ScheduleDecision.from_entries(
            link_pos=np.repeat(links, num_bands),
            band=np.tile(np.arange(num_bands), links.size),
            power_w=powers,
            band_pkts=np.ones(num_bands),
            dropped=(),
            link_tx=topology.link_tx,
            link_rx=topology.link_rx,
        )
        fixed = controller._fixed_energy_arr
        supply = np.full(controller._model.num_nodes, 1e9)
        supply[0] = 0.0 if hub_supply == "none" else fixed[0] + 150.0
        h_arr = np.zeros(topology.link_tx.shape[0])
        h_arr[links] = [3.0, 1.0, 2.0]
        ref_supply = supply.copy()
        expected = slot_reference.curtail(
            controller, schedule, ref_supply, h_arr, np.ones(num_bands)
        )
        got = controller._curtail(schedule, supply, h_arr, np.ones(num_bands))
        _assert_same_curtailment(got, expected, supply, ref_supply)
        survivors, demands, deficit = got
        if hub_supply == "none":
            assert survivors.link_pos.size == 0
            assert len(survivors.dropped) == links.size * num_bands
            assert deficit[0] == fixed[0]
        else:
            assert survivors.link_pos.tolist() == [links[0]] * num_bands
            assert len(survivors.dropped) == 2 * num_bands
            assert not deficit.any()
            forward = reverse = float(fixed[0])
            terms = (powers[:num_bands] * controller._model.params.slot_seconds).tolist()
            for term in terms:
                forward += term
            for term in reversed(terms):
                reverse += term
            assert demands[0] == forward != reverse

    def test_dark_fleet_slots_match_the_rescanning_loop(self, monkeypatch):
        # The pinned renewables-off fleet sheds 5-33 entries per slot
        # and clamps every user: check each slot's curtailment.
        simulator = SlotSimulator.integral(
            GREEDY_SCENARIOS["dark_fleet"](), scheduler_kind=SchedulerKind.GREEDY
        )
        controller = simulator.controller
        library = controller._curtail
        shed = []

        def checked(schedule, supply, h_arr, band_pkts):
            ref_supply = supply.copy()
            expected = slot_reference.curtail(
                controller, schedule, ref_supply, h_arr, band_pkts
            )
            got = library(schedule, supply, h_arr, band_pkts)
            _assert_same_curtailment(got, expected, supply, ref_supply)
            shed.append(len(got[0].dropped) - len(schedule.dropped))
            return got

        monkeypatch.setattr(controller, "_curtail", checked)
        simulator.run(6)
        assert len(shed) == 6 and sum(shed) > 20


# -- spectrum access table ------------------------------------------------------


class TestBatchedAccessDraw:
    @pytest.mark.parametrize("seed", [0, 7, 2014])
    @pytest.mark.parametrize("num_bands", [1, 2, 5])
    @pytest.mark.parametrize("prob", [0.0, 0.6, 1.0])
    def test_matches_the_scalar_draw_loop(self, seed, num_bands, prob):
        params = tiny_scenario(num_users=9)
        spectrum = dataclasses.replace(
            params.spectrum,
            num_random_bands=num_bands - 1,
            user_band_access_prob=prob,
        )
        params = dataclasses.replace(params, spectrum=spectrum)
        batched_rng = np.random.default_rng(seed)
        scalar_rng = np.random.default_rng(seed)
        model = build_spectrum_model(params, batched_rng)
        expected = slot_reference.access_table(params, scalar_rng)
        assert model.band_access.tolist() == expected.tolist()
        assert batched_rng.bit_generator.state == scalar_rng.bit_generator.state


# -- renewable draws in blocks --------------------------------------------------


class TestBlockRenewableDraws:
    @pytest.mark.parametrize("seed", [0, 2014])
    def test_observe_matches_the_per_node_loop(self, seed):
        # Solar stations and wind users; num_slots=4 makes the block 4
        # slots wide, so 10 observed slots read 2.5 blocks.  The slots
        # jump across day and night: the solar factor is the read slot's.
        params = tiny_scenario(
            num_slots=4,
            bs_renewable_kind=RenewableKind.SOLAR,
            user_renewable_kind=RenewableKind.WIND,
        )
        model = build_network_model(params, np.random.default_rng(params.seed))
        constants = compute_constants(model)
        state = NetworkState(model, constants, np.random.default_rng(seed))
        slots = [0, 1, 2, 5, 360, 361, 700, 1000, 1439, 1440]
        expected = slot_reference.renewable_draws(
            model, np.random.default_rng(seed), slots
        )
        for slot, want in zip(slots, expected):
            got = state.observe(slot).renewable_j
            assert got.tobytes() == want.tobytes()
        # Stations harvest at the morning peak (slot 360) and not at
        # night (slot 1000); users draw wind either way.
        num_bs = params.num_base_stations
        assert expected[4][:num_bs].all() and not expected[7][:num_bs].any()
        assert expected[7][num_bs:].all()
