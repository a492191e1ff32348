"""``LinearProgram.solve`` equals ``scipy.optimize.linprog`` bit for bit.

``LinearProgram`` drives scipy's HiGHS bindings directly.  Every LP a
short ``tiny_paper`` run solves — the S1 sequential-fix relaxations and
their fixes, the speculative trials of the SINR-aware variant (one of
them infeasible), and the relaxed program P3bar — is solved again by
the ``linprog`` reference of ``tests/lp_reference.py`` on the same
``standard_form()``: the solutions and objectives must be equal bit for
bit, and an LP must raise the same error in both paths.  A few
hand-built programs add the unbounded and empty cases.
"""

import numpy as np
import pytest

from repro.config import tiny_scenario
from repro.exceptions import ReproError
from repro.sim import SlotSimulator
from repro.solvers.linprog import LinearProgram
from repro.types import SchedulerKind
from tests.lp_reference import dense_rows, linprog_solve

#: Run label -> scheduler kind; None runs the relaxed-LP controller.
RUNS = {
    "SEQUENTIAL_FIX": SchedulerKind.SEQUENTIAL_FIX,
    "SEQUENTIAL_FIX_SINR": SchedulerKind.SEQUENTIAL_FIX_SINR,
    "RELAXED": None,
}


def _outcome(solve, lp):
    """``(objective, x)`` of a solve, or the error class and message."""
    try:
        solution = solve(lp)
    except ReproError as error:
        return type(error), str(error)
    return solution.objective, solution.x


def _assert_same(lp):
    got = _outcome(LinearProgram.solve, lp)
    want = _outcome(linprog_solve, lp)
    if isinstance(want[0], type):
        assert got == want
        return
    assert isinstance(got[0], float)
    assert got[0] == want[0]
    np.testing.assert_array_equal(got[1], want[1], strict=True)


@pytest.fixture(scope="module")
def captured():
    """Run label -> every ``LinearProgram`` that run solved, in order."""
    programs = {}
    original = LinearProgram.solve
    for label, kind in RUNS.items():
        seen = programs[label] = []

        def recording(self, seen=seen):
            seen.append(self)
            return original(self)

        params = tiny_scenario(num_slots=8)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(LinearProgram, "solve", recording)
            if kind is None:
                simulator = SlotSimulator.relaxed(params)
            else:
                simulator = SlotSimulator.integral(params, scheduler_kind=kind)
            simulator.run()
    return programs


@pytest.mark.parametrize("label", sorted(RUNS))
def test_run_solutions_bitwise_equal_linprog(captured, label):
    programs = captured[label]
    assert programs
    for lp in programs:
        _assert_same(lp)


def test_sinr_trials_include_an_infeasible_fix(captured):
    # The speculative trial that fails is part of the comparison above.
    outcomes = [_outcome(linprog_solve, lp)[0] for lp in captured["SEQUENTIAL_FIX_SINR"]]
    assert any(isinstance(outcome, type) for outcome in outcomes)


@pytest.mark.parametrize(
    "lp",
    [
        LinearProgram([1.0], np.array([[0.0, 1.0]]), dense_rows([[-1.0]]), [-5.0]),
        LinearProgram([-1.0], np.array([[0.0, np.inf]])),
        LinearProgram([], np.zeros((0, 2))),
        LinearProgram(
            [0.0, 1.0],
            np.array([[0.0, 100.0], [0.0, 100.0]]),
            a_eq=dense_rows([[1.0, 1.0]]),
            b_eq=[10.0],
        ),
        LinearProgram([0.0, 0.0], np.array([[0.0, 1.0], [0.0, 1.0]])),
    ],
    ids=["infeasible", "unbounded", "empty", "equality", "zero-cost"],
)
def test_hand_built_programs_match_linprog(lp):
    _assert_same(lp)
