"""The array-assembled LPs match the keyed oracle bit for bit.

``RelaxedLpController._build_lp`` (the Theorem-5 program P3bar) and the
S1 sequential-fix relaxations assemble their matrices as arrays over
frozen column and row orders.  HiGHS returns the same solution only if
it sees the same problem, so every slot of the pinned scenarios is
checked here: the ``(c, A_ub, b_ub, A_eq, b_eq, bounds)`` that
:meth:`~repro.solvers.linprog.LinearProgram.standard_form` hands to
HiGHS must equal, byte for byte, what the named-variable builders of
``tests/lp_reference.py`` produce for the same slot.
"""

import numpy as np
import pytest
from scipy import sparse

import repro.control.scheduler as scheduler_mod
from repro.sim import SlotSimulator
from repro.types import SchedulerKind
from tests import lp_reference
from tests.test_golden import RELAXED_SCENARIOS, TRAJECTORY_SCENARIOS


def _canonical(block):
    if block is None:
        return None
    if sparse.issparse(block):
        matrix = sparse.csr_matrix(block)
        matrix.sum_duplicates()
        return (matrix.shape, matrix.indptr.tobytes(), matrix.indices.tobytes(),
                matrix.data.tobytes())
    array = np.asarray(block, dtype=np.float64)
    return array.shape, array.tobytes()


def assert_same_form(assembled, oracle):
    names = ("c", "A_ub", "b_ub", "A_eq", "b_eq", "bounds")
    for name, new, old in zip(names, assembled, oracle):
        assert _canonical(new) == _canonical(old), name


@pytest.mark.parametrize("name", RELAXED_SCENARIOS)
def test_relaxed_lp_matches_oracle(name):
    params = TRAJECTORY_SCENARIOS[name]()
    sim = SlotSimulator.relaxed(params)
    controller, state = sim.controller, sim.state
    for slot in range(params.num_slots):
        observation = state.observe(slot)
        lp, _ = controller._build_lp(observation, state)
        oracle = lp_reference.relaxed_lp(controller, observation, state)
        assert_same_form(lp.standard_form(), oracle.standard_form())
        decision = controller.decide(observation, state)
        state.apply(decision, enforce_complementarity=False)


SF_CASES = [
    (name, SchedulerKind.SEQUENTIAL_FIX)
    for name in (
        "tiny_paper",
        "tiny_dynamic_spectrum",
        "tiny_random_waypoint",
        "three_radios",
        "mixed_radios",
        "small_multi_session",
    )
] + [("tiny_paper", SchedulerKind.SEQUENTIAL_FIX_SINR)]


@pytest.mark.parametrize("name, kind", SF_CASES)
def test_sequential_fix_lp_matches_oracle(monkeypatch, name, kind):
    params = TRAJECTORY_SCENARIOS[name]()
    sim = SlotSimulator.integral(params, scheduler_kind=kind)
    scheduler = sim.controller.scheduler
    model = sim.model
    radios = model.node_vector(
        params.bs_node.num_radios, params.user_node.num_radios, dtype=int
    ).tolist()
    seen = {}
    checked = []

    original_grid = scheduler._candidate_grid

    def grid(observation, *args, **kwargs):
        result = original_grid(observation, *args, **kwargs)
        seen["observation"], seen["grid"] = observation, result
        return result

    original_fix = scheduler_mod.sequential_fix

    def fix(lp, *args, **kwargs):
        observation = seen["observation"]
        weights = lp_reference.candidate_weights(
            scheduler, observation, seen["grid"]
        )
        if kind is SchedulerKind.SEQUENTIAL_FIX_SINR:
            gains = observation.pair_gains(model)
            oracle = lp_reference.sequential_fix_sinr_lp(
                weights, radios, model, observation, gains
            )
        else:
            oracle = lp_reference.sequential_fix_lp(weights, radios)
        assert_same_form(lp.standard_form(), oracle.standard_form())
        checked.append(observation.slot)
        return original_fix(lp, *args, **kwargs)

    monkeypatch.setattr(scheduler, "_candidate_grid", grid)
    monkeypatch.setattr(scheduler_mod, "sequential_fix", fix)
    sim.run()
    assert checked  # the scenario exercised the SF at least once
