"""Unit tests for S2 resource allocation and S3 routing."""

import numpy as np
import pytest

from repro.control import BackpressureRouter, LinkScheduler, ResourceAllocator
from repro.control.decisions import AdmissionDecision, ScheduleDecision
from repro.control.router import RouterMode
from repro.phy.capacity import max_link_capacity_bps
from tests.helpers import link_view


@pytest.fixture
def observation(tiny_state):
    return tiny_state.observe(0)


def _backlog_fn(values):
    """Backlog accessor from a {(node, session): backlog} dict."""

    def backlog(node, session):
        return values.get((node, session), 0.0)

    return backlog


def _route(
    router, state, observation, schedule, admission, backlogs=None, h=None, **kwargs
):
    """``router.route`` on ``state``'s arrays with Q and H set from dicts.

    Backlogs at a session's own destination are skipped: those cells
    are pinned at zero (the destination absorbs its packets).
    """
    arrays = state.arrays
    positions = arrays.queue_positions()
    for key, value in (backlogs or {}).items():
        if key in positions:
            arrays.q[positions[key]] = value
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
        decision = allocator.allocate(_backlog_fn({}))
        assert set(decision.sources.values()) == set(tiny_model.bs_ids)

    def test_admits_below_threshold(self, tiny_model, rng):
        allocator = ResourceAllocator(tiny_model, rng)
        decision = allocator.allocate(_backlog_fn({}))
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
        decision = allocator.allocate(_backlog_fn(values))
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
        decision = allocator.allocate(_backlog_fn(values))
        assert decision.sources[session] == 1

    def test_total_admitted(self, tiny_model, rng):
        allocator = ResourceAllocator(tiny_model, rng)
        decision = allocator.allocate(_backlog_fn({}))
        assert decision.total_admitted() == sum(
            s.k_max for s in tiny_model.sessions
        )


class TestRouterDestinationForcing:
    def test_demand_forced_into_destination(
        self, tiny_model, tiny_constants, observation, rng, tiny_state
    ):
        router = BackpressureRouter(tiny_model, tiny_constants, rng)
        allocator = ResourceAllocator(tiny_model, rng)
        admission = allocator.allocate(_backlog_fn({}))
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
        in_neighbors = tiny_model.topology.in_neighbors[dest]
        assert len(in_neighbors) >= 2
        favoured = in_neighbors[0]
        backlogs = {(favoured, session.session_id): 1000.0}
        admission = AdmissionDecision(
            sources={s.session_id: tiny_model.bs_ids[0] for s in tiny_model.sessions},
            admitted={s.session_id: 0 for s in tiny_model.sessions},
        )
        routing = _route(
            router, tiny_state, observation, ScheduleDecision(), admission, backlogs
        )
        # Coefficient -Q_i is most negative at the favoured neighbour.
        assert (favoured, dest, session.session_id) in routing.rates


class TestRouterConstraints:
    @pytest.fixture
    def admission(self, tiny_model, rng):
        return ResourceAllocator(tiny_model, rng).allocate(_backlog_fn({}))

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
            for rx in tiny_model.topology.out_neighbors[bs]
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
        admission = ResourceAllocator(tiny_model, rng).allocate(_backlog_fn({}))
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
        admission = ResourceAllocator(tiny_model, rng).allocate(_backlog_fn({}))
        bs = tiny_model.bs_ids[0]
        rx = tiny_model.topology.out_neighbors[bs][0]
        session = tiny_model.sessions[0].session_id
        schedule = ScheduleDecision(link_service_pkts={(bs, rx): 123.0})
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
        admission = ResourceAllocator(tiny_model, rng).allocate(_backlog_fn({}))
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
        admission = ResourceAllocator(tiny_model, rng).allocate(_backlog_fn({}))
        bs_set = set(tiny_model.bs_ids)
        allowed = np.array(
            [link[0] in bs_set for link in tiny_state.arrays.links]
        )
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
