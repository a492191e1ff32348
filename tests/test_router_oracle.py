"""S3 on the backpressure support matches the full-matrix router.

``BackpressureRouter.route`` scores only the links whose transmitter
holds more than ``beta H`` of some session; ``tests/router_reference.py``
scores every link against every session.  Both must return the same
``(link_pos, session_col, pkts)`` and leave the generator in the same
state.  Backlogs are integer multiples of ``beta^2`` and ``G`` is a
small integer, so every coefficient is an exact integer: sessions tie
often, and ``Q_tx^s == beta H_ij`` (a zero coefficient, which routes
nothing) occurs on many links.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import small_scenario
from repro.control import BackpressureRouter
from repro.control.decisions import AdmissionDecision, ScheduleDecision
from repro.control.router import RouterMode
from repro.core import compute_constants
from repro.core.arraystate import ArrayState
from repro.model import build_network_model
from repro.state import NetworkState
from tests import router_reference

SLOTS = 4


@functools.lru_cache(maxsize=None)
def _setting(dynamic):
    """(model, constants, per-slot observations) of a 3-session scenario."""
    params = small_scenario(num_slots=SLOTS)
    if dynamic:
        spectrum = dataclasses.replace(params.spectrum, dynamic_availability=True)
        params = dataclasses.replace(params, spectrum=spectrum)
    model = build_network_model(params, np.random.default_rng(0))
    constants = compute_constants(model)
    state = NetworkState(model, constants, np.random.default_rng(1))
    observations = tuple(state.observe(slot) for slot in range(SLOTS))
    if dynamic:
        assert observations[0].band_access is not None
    return model, constants, observations


def _inputs(model, constants, draw, mode, masked):
    """Random ``(arrays, h_backlogs, admission, schedule, allowed_mask)``."""
    arrays = ArrayState(model, constants)
    beta = constants.beta
    arrays.q[:] = beta * beta * draw.integers(0, 4, size=arrays.q.shape)
    arrays.q[arrays.q_invalid] = 0.0
    num_links = arrays.g.shape[0]
    h_backlogs = beta * draw.integers(0, 4, size=num_links).astype(float)
    bs = np.asarray(model.bs_ids, dtype=np.intp)
    rows = draw.choice(bs, size=len(model.sessions))
    admission = AdmissionDecision(
        sources={s.session_id: int(r) for s, r in zip(model.sessions, rows)},
        admitted={s.session_id: 0 for s in model.sessions},
        source_rows=rows,
    )
    schedule = ScheduleDecision()
    if mode is RouterMode.SCHEDULED_CAPACITY:
        served = np.flatnonzero(draw.random(num_links) < 0.6)
        schedule = ScheduleDecision(
            service_pos=served,
            service_pkts=draw.integers(0, 3, size=served.size) * 50.0,
            link_tx=arrays.link_tx,
            link_rx=arrays.link_rx,
        )
    allowed = draw.random(num_links) < 0.7 if masked else None
    return arrays, h_backlogs, admission, schedule, allowed


def _check(dynamic, mode, masked, slot, seed):
    model, constants, observations = _setting(dynamic)
    draw = np.random.default_rng(seed)
    arrays, h_backlogs, admission, schedule, allowed = _inputs(
        model, constants, draw, mode, masked
    )
    router_rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    router = BackpressureRouter(model, constants, router_rng, mode=mode)
    decision = router.route(
        observations[slot], schedule, admission, h_backlogs, arrays, allowed
    )
    link_pos, session_col, pkts = router_reference.route(
        model,
        constants.beta,
        oracle_rng,
        mode,
        observations[slot],
        schedule,
        admission,
        h_backlogs,
        arrays,
        allowed,
    )
    assert decision.link_pos.tobytes() == link_pos.tobytes()
    assert decision.session_col.tobytes() == session_col.tobytes()
    assert decision.pkts.tobytes() == pkts.tobytes()
    assert router_rng.bit_generator.state == oracle_rng.bit_generator.state
    return arrays, h_backlogs, decision


class TestRouterOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        dynamic=st.booleans(),
        mode=st.sampled_from(list(RouterMode)),
        masked=st.booleans(),
        slot=st.integers(0, SLOTS - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_full_matrix_router(self, dynamic, mode, masked, slot, seed):
        _check(dynamic, mode, masked, slot, seed)

    @pytest.mark.parametrize("mode", list(RouterMode))
    def test_inputs_hit_ties_and_the_boundary(self, mode):
        arrays, h_backlogs, decision = _check(False, mode, False, 0, 7)
        _, constants, _ = _setting(False)
        beta_h = constants.beta * h_backlogs
        q_tx = arrays.q[arrays.link_tx]
        # Q_tx^s == beta H with Q > 0: the coefficient's -Q + beta H part
        # cancels exactly, so the prefilter must drop the link.
        assert np.any((q_tx == beta_h[:, None]) & (q_tx > 0.0))
        # Several routed links, some with a tied best session.
        assert decision.link_pos.size > len(arrays.sessions)
        assert np.any(np.sum(q_tx == q_tx.max(axis=1, keepdims=True), axis=1) > 1)
