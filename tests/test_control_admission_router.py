"""Unit tests for S2 resource allocation and S3 routing."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import small_scenario
from repro.control import BackpressureRouter, LinkScheduler, ResourceAllocator
from repro.control.decisions import AdmissionDecision, ScheduleDecision
from repro.control.router import RouterMode
from repro.core import compute_constants
from repro.core.arraystate import ArrayState
from repro.model import build_network_model
from repro.network.geometry import Point
from repro.phy.capacity import max_link_capacity_bps
from tests.helpers import in_neighbors, link_position, link_view, out_neighbors


@pytest.fixture
def observation(tiny_state):
    return tiny_state.observe(0)


def _backlogs(model, values):
    """An ``ArrayState`` for ``model`` with ``Q`` set from a
    ``{(node, session): backlog}`` dict (other cells read 0)."""
    arrays = ArrayState(model, compute_constants(model))
    for (node, session), value in values.items():
        arrays.q[node, arrays.session_col[session]] = value
    return arrays


def _route(
    router, state, observation, schedule, admission, backlogs=None, h=None, **kwargs
):
    """``router.route`` on ``state``'s arrays with Q and H set from dicts.

    Backlogs at a session's own destination are skipped: those cells
    are pinned at zero (the destination absorbs its packets).
    """
    arrays = state.arrays
    for (node, session), value in (backlogs or {}).items():
        col = arrays.session_col[session]
        if arrays.q_valid[node, col]:
            arrays.q[node, col] = value
    h_backlogs = link_view(state.model, h or {})
    return router.route(
        observation, schedule, admission, h_backlogs, arrays, **kwargs
    )


def _potential_capacity_pkts(model, observation, link):
    """Eq. (25) potential cap: the best common band's capacity."""
    params = model.params
    best_bps = max(
        (
            max_link_capacity_bps(
                observation.bands.bandwidth(m), params.sinr_threshold
            )
            for m in observation.common_bands(model, *link)
        ),
        default=0.0,
    )
    return best_bps * params.slot_seconds / params.sessions.packet_size_bits


class TestResourceAllocator:
    def test_single_bs_is_always_source(self, tiny_model, rng):
        allocator = ResourceAllocator(tiny_model, rng)
        decision = allocator.allocate(_backlogs(tiny_model, {}))
        assert set(decision.sources.values()) == set(tiny_model.bs_ids)

    def test_admits_below_threshold(self, tiny_model, rng):
        allocator = ResourceAllocator(tiny_model, rng)
        decision = allocator.allocate(_backlogs(tiny_model, {}))
        for session in tiny_model.sessions:
            assert decision.admitted[session.session_id] == session.k_max

    def test_rejects_at_threshold(self, tiny_model, rng):
        allocator = ResourceAllocator(tiny_model, rng)
        threshold = allocator.admission_threshold
        values = {
            (bs, s.session_id): threshold
            for bs in tiny_model.bs_ids
            for s in tiny_model.sessions
        }
        decision = allocator.allocate(_backlogs(tiny_model, values))
        assert all(k == 0 for k in decision.admitted.values())

    def test_threshold_is_lambda_v(self, tiny_model, rng):
        allocator = ResourceAllocator(tiny_model, rng)
        params = tiny_model.params
        assert allocator.admission_threshold == pytest.approx(
            params.admission_lambda * params.control_v
        )

    def test_picks_smallest_backlog_bs(self, rng):
        # Needs >= 2 base stations: use the paper model.
        from repro.config import paper_scenario
        from repro.model import build_network_model

        model = build_network_model(paper_scenario(), np.random.default_rng(0))
        allocator = ResourceAllocator(model, rng)
        session = model.sessions[0].session_id
        values = {(0, session): 50.0, (1, session): 10.0}
        decision = allocator.allocate(_backlogs(model, values))
        assert decision.sources[session] == 1

    def test_total_admitted(self, tiny_model, rng):
        allocator = ResourceAllocator(tiny_model, rng)
        decision = allocator.allocate(_backlogs(tiny_model, {}))
        assert decision.total_admitted() == sum(
            s.k_max for s in tiny_model.sessions
        )


@functools.lru_cache(maxsize=None)
def _four_bs_model():
    """Four base stations, session 0 destined to BS 2 (a destination
    cell inside the BS rows S2 reads)."""
    params = small_scenario(
        base_station_positions=tuple(
            Point(x, y) for x, y in ((500, 500), (1500, 500), (500, 1500), (1500, 1500))
        )
    )
    model = build_network_model(params, np.random.default_rng(3))
    first = dataclasses.replace(model.sessions[0], destination=2)
    return dataclasses.replace(model, sessions=(first, *model.sessions[1:]))


def _scalar_allocate(model, rng, threshold, backlog):
    """Reference S2: the scalar per-base-station loop ``allocate`` ran
    before it read ``Q`` by column."""
    sources, admitted = {}, {}
    for session in model.sessions:
        backlogs = {bs: backlog(bs, session.session_id) for bs in model.bs_ids}
        smallest = min(backlogs.values())
        tied = [bs for bs, value in backlogs.items() if value == smallest]
        source = tied[0] if len(tied) == 1 else int(rng.choice(tied))
        sources[session.session_id] = source
        if backlogs[source] - threshold < 0:
            admitted[session.session_id] = session.k_max
        else:
            admitted[session.session_id] = 0
    return sources, admitted


class TestColumnReadEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        levels=st.lists(
            st.sampled_from([0.0, 1.5, 1e3, 2e3, 3e7]), min_size=12, max_size=12
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scalar_loop(self, levels, seed):
        model = _four_bs_model()
        arrays = ArrayState(model, compute_constants(model))
        # Few distinct levels force cross-BS ties; 1e3 = lambda V sits
        # exactly on the admission threshold.
        arrays.q[: model.params.num_base_stations] = np.reshape(levels, (4, 3))
        arrays.q[arrays.q_invalid] = 0.0
        destinations = model.session_destinations()

        def backlog(node, session):
            if destinations[session] == node:
                return 0.0
            return float(arrays.q[node, arrays.session_col[session]])

        column_rng = np.random.default_rng(seed)
        scalar_rng = np.random.default_rng(seed)
        allocator = ResourceAllocator(model, column_rng)
        assert allocator.admission_threshold == 1e3
        decision = allocator.allocate(arrays)
        sources, admitted = _scalar_allocate(
            model, scalar_rng, allocator.admission_threshold, backlog
        )
        assert decision.sources == sources
        assert decision.admitted == admitted
        assert [type(k) for k in decision.admitted.values()] == [int] * 3
        assert [type(b) for b in decision.sources.values()] == [int] * 3
        assert column_rng.bit_generator.state == scalar_rng.bit_generator.state


class TestRouterDestinationForcing:
    def test_demand_forced_into_destination(
        self, tiny_model, tiny_constants, observation, rng, tiny_state
    ):
        router = BackpressureRouter(tiny_model, tiny_constants, rng)
        allocator = ResourceAllocator(tiny_model, rng)
        admission = allocator.allocate(_backlogs(tiny_model, {}))
        routing = _route(
            router, tiny_state, observation, ScheduleDecision(), admission
        )
        for session in tiny_model.sessions:
            delivered = sum(
                rate
                for (tx, rx, sid), rate in routing.rates.items()
                if rx == session.destination and sid == session.session_id
            )
            assert delivered == pytest.approx(session.demand(0))

    def test_forced_link_prefers_backlogged_upstream(
        self, tiny_model, tiny_constants, observation, rng, tiny_state
    ):
        router = BackpressureRouter(tiny_model, tiny_constants, rng)
        session = tiny_model.sessions[0]
        dest = session.destination
        upstream = in_neighbors(tiny_model.topology, dest)
        assert len(upstream) >= 2
        favoured = upstream[0]
        backlogs = {(favoured, session.session_id): 1000.0}
        admission = AdmissionDecision(
            sources={s.session_id: tiny_model.bs_ids[0] for s in tiny_model.sessions},
            admitted={s.session_id: 0 for s in tiny_model.sessions},
            source_rows=np.full(len(tiny_model.sessions), tiny_model.bs_ids[0]),
        )
        routing = _route(
            router, tiny_state, observation, ScheduleDecision(), admission, backlogs
        )
        # Coefficient -Q_i is most negative at the favoured neighbour.
        assert (favoured, dest, session.session_id) in routing.rates


class TestRouterConstraints:
    @pytest.fixture
    def admission(self, tiny_model, rng):
        return ResourceAllocator(tiny_model, rng).allocate(_backlogs(tiny_model, {}))

    def test_no_outgoing_from_destination(
        self, tiny_model, tiny_constants, observation, rng, tiny_state, admission
    ):
        router = BackpressureRouter(tiny_model, tiny_constants, rng)
        backlogs = {
            (node, s.session_id): 100.0
            for node in range(tiny_model.num_nodes)
            for s in tiny_model.sessions
        }
        routing = _route(
            router, tiny_state, observation, ScheduleDecision(), admission, backlogs
        )
        destinations = tiny_model.session_destinations()
        for (tx, _rx, sid), rate in routing.rates.items():
            if rate > 0:
                assert tx != destinations[sid], "constraint (17) violated"

    def test_no_incoming_to_source(
        self, tiny_model, tiny_constants, observation, rng, tiny_state, admission
    ):
        router = BackpressureRouter(tiny_model, tiny_constants, rng)
        backlogs = {
            (node, s.session_id): 100.0
            for node in range(tiny_model.num_nodes)
            for s in tiny_model.sessions
        }
        routing = _route(
            router, tiny_state, observation, ScheduleDecision(), admission, backlogs
        )
        destinations = tiny_model.session_destinations()
        for (tx, rx, sid), rate in routing.rates.items():
            if rate > 0 and rx != destinations[sid]:
                assert rx != admission.sources[sid], "constraint (16) violated"

    def test_non_negative_coefficients_route_nothing(
        self, tiny_model, tiny_constants, observation, rng, tiny_state, admission
    ):
        # All queues empty and H = 0: every non-forced coefficient is 0.
        router = BackpressureRouter(tiny_model, tiny_constants, rng)
        routing = _route(
            router, tiny_state, observation, ScheduleDecision(), admission
        )
        destinations = tiny_model.session_destinations()
        for (tx, rx, sid), rate in routing.rates.items():
            assert rx == destinations[sid], "only forced deliveries expected"

    def test_backlogged_source_routes_capacity(
        self, tiny_model, tiny_constants, observation, rng, tiny_state, admission
    ):
        router = BackpressureRouter(tiny_model, tiny_constants, rng)
        bs = tiny_model.bs_ids[0]
        session = tiny_model.sessions[0].session_id
        backlogs = {(bs, session): 1e6}
        routing = _route(
            router, tiny_state, observation, ScheduleDecision(), admission, backlogs
        )
        outgoing = sum(
            rate for (tx, _, sid), rate in routing.rates.items()
            if tx == bs and sid == session
        )
        assert outgoing > 0

    def test_virtual_backlog_discourages_link(
        self, tiny_model, tiny_constants, observation, rng, tiny_state, admission
    ):
        router = BackpressureRouter(tiny_model, tiny_constants, rng)
        bs = tiny_model.bs_ids[0]
        session = tiny_model.sessions[0].session_id
        backlogs = {(bs, session): 100.0}
        # Huge H on every BS out-link: coefficients all positive.
        h = {
            (bs, rx): 1e9
            for rx in out_neighbors(tiny_model.topology, bs)
        }
        routing = _route(
            router,
            tiny_state,
            observation,
            ScheduleDecision(),
            admission,
            backlogs,
            h,
        )
        destinations = tiny_model.session_destinations()
        for (tx, rx, sid), _ in routing.rates.items():
            if tx == bs and rx != destinations[sid]:
                pytest.fail("link with huge H should not be routed over")


class TestRouterCapacityModes:
    def test_scheduled_mode_requires_schedule(
        self, tiny_model, tiny_constants, observation, rng, tiny_state
    ):
        router = BackpressureRouter(
            tiny_model, tiny_constants, rng, mode=RouterMode.SCHEDULED_CAPACITY
        )
        admission = ResourceAllocator(tiny_model, rng).allocate(_backlogs(tiny_model, {}))
        bs = tiny_model.bs_ids[0]
        session = tiny_model.sessions[0].session_id
        backlogs = {(bs, session): 1e6}
        # Empty schedule: nothing beyond forced deliveries can flow.
        routing = _route(
            router, tiny_state, observation, ScheduleDecision(), admission, backlogs
        )
        destinations = tiny_model.session_destinations()
        non_forced = [
            key for key in routing.rates if key[1] != destinations[key[2]]
        ]
        assert not non_forced

    def test_scheduled_mode_uses_scheduled_capacity(
        self, tiny_model, tiny_constants, observation, rng, tiny_state
    ):
        router = BackpressureRouter(
            tiny_model, tiny_constants, rng, mode=RouterMode.SCHEDULED_CAPACITY
        )
        admission = ResourceAllocator(tiny_model, rng).allocate(_backlogs(tiny_model, {}))
        bs = tiny_model.bs_ids[0]
        rx = out_neighbors(tiny_model.topology, bs)[0]
        session = tiny_model.sessions[0].session_id
        topology = tiny_model.topology
        schedule = ScheduleDecision(
            service_pos=np.array([link_position(topology, bs, rx)]),
            service_pkts=np.array([123.0]),
            link_tx=topology.link_tx,
            link_rx=topology.link_rx,
        )
        backlogs = {(bs, session): 1e6}
        routing = _route(
            router, tiny_state, observation, schedule, admission, backlogs
        )
        if rx != tiny_model.sessions[0].destination:
            assert routing.rates.get((bs, rx, session)) == pytest.approx(123.0)

    def test_potential_mode_caps_by_best_band(
        self, tiny_model, tiny_constants, observation, rng, tiny_state
    ):
        router = BackpressureRouter(tiny_model, tiny_constants, rng)
        admission = ResourceAllocator(tiny_model, rng).allocate(_backlogs(tiny_model, {}))
        backlogs = {
            (node, s.session_id): 1e6
            for node in range(tiny_model.num_nodes)
            for s in tiny_model.sessions
        }
        routing = _route(
            router, tiny_state, observation, ScheduleDecision(), admission, backlogs
        )
        params = tiny_model.params
        destinations = tiny_model.session_destinations()
        for (tx, rx, sid), rate in routing.rates.items():
            if rx == destinations[sid]:
                continue  # forced deliveries are demand-sized
            cap = _potential_capacity_pkts(tiny_model, observation, (tx, rx))
            assert rate <= cap + 1e-9

    def test_one_hop_filter(
        self, tiny_model, tiny_constants, observation, rng, tiny_state
    ):
        router = BackpressureRouter(tiny_model, tiny_constants, rng)
        admission = ResourceAllocator(tiny_model, rng).allocate(_backlogs(tiny_model, {}))
        bs_set = set(tiny_model.bs_ids)
        allowed = np.isin(tiny_state.arrays.link_tx, list(bs_set))
        backlogs = {
            (node, s.session_id): 1e6
            for node in range(tiny_model.num_nodes)
            for s in tiny_model.sessions
        }
        routing = _route(
            router,
            tiny_state,
            observation,
            ScheduleDecision(),
            admission,
            backlogs,
            allowed_mask=allowed,
        )
        for (tx, _rx, _sid), rate in routing.rates.items():
            if rate > 0:
                assert tx in bs_set
