"""Edge-case tests for the solver layer: HiGHS statuses and the IPM
fallback of the LP, the speculative-feasibility sequential fix,
power-control fallbacks, and TOU-aware S4 calls."""

import numpy as np
import pytest

from repro.control.energy_manager import (
    EnergyManager,
    NodeEnergyBatch,
    NodeEnergyInputs,
)
from repro.energy.cost import QuadraticCost
from repro.exceptions import InfeasibleError, SolverError
from repro.phy.power_control import minimal_power_assignment
from repro.phy.propagation import DensePairGains, gain_matrix
from repro.solvers import LinearProgram, linprog, sequential_fix
from tests.lp_reference import dense_rows


def _box_lp():
    """max x0 + x1 subject to x0 + x1 <= 1.5 and x0 == x1 on the unit box.

    Its optimum (0.75, 0.75) has both rows tight and both columns
    interior.
    """
    return LinearProgram(
        [-1.0, -1.0],
        np.tile([0.0, 1.0], (2, 1)),
        dense_rows([[1.0, 1.0]]),
        [1.5],
        a_eq=dense_rows([[1.0, -1.0]]),
        b_eq=[0.0],
    )


def _shift(field, index, delta):
    """An outcome rewrite adding ``delta`` to ``field[index]``."""

    def rewrite(outcome):
        values = getattr(outcome, field).copy()
        values[index] += delta
        return outcome._replace(**{field: values})

    return rewrite


#: Rewrites of an optimal outcome that ``linprog``'s post-solve test
#: (absolute tolerance sqrt(1e-9) * 10 ~ 3.2e-4) rejects.
FAILING = {
    "below-lower": _shift("x", 0, -0.75 - 5e-4),
    "above-upper": _shift("x", 1, 0.25 + 5e-4),
    "ub-row-over": _shift("row_value", 0, 5e-4),
    "eq-row-off": _shift("row_value", 1, -5e-4),
    "nan-x": _shift("x", 0, np.nan),
    "nan-objective": lambda outcome: outcome._replace(objective=np.nan),
}

#: Rewrites within the tolerance, which the test accepts.
PASSING = {
    "below-lower": _shift("x", 0, -0.75 - 2e-4),
    "ub-row-over": _shift("row_value", 0, 2e-4),
    "eq-row-off": _shift("row_value", 1, -2e-4),
}


class TestLinearProgramStatus:
    """HiGHS model statuses, the post-solve test and the IPM fallback.

    The failing passes are driven through the module's one run helper,
    ``linprog._run``; the tolerances stay as they are.
    """

    @staticmethod
    def _patch_run(monkeypatch, first=None, second=None):
        """Route each pass through ``_run``, rewriting its outcome.

        ``first``/``second`` map the simplex/IPM pass's real outcome to
        the one ``solve`` sees; returns the outcome ``solve`` saw from
        each pass, keyed by the pass's solver option, in order.
        """
        real = linprog._run
        passes = []

        def run(lp, options):
            rewrite = (first, second)[len(passes)]
            outcome = real(lp, options)
            if rewrite is not None:
                outcome = rewrite(outcome)
            passes.append((options.solver, outcome))
            return outcome

        monkeypatch.setattr(linprog, "_run", run)
        return passes

    def test_empty_program_skips_highs(self, monkeypatch):
        passes = self._patch_run(monkeypatch)
        solution = LinearProgram([], np.zeros((0, 2))).solve()
        assert solution.objective == 0.0
        assert solution.x.shape == (0,)
        assert passes == []

    def test_feasible_first_pass_is_the_answer(self, monkeypatch):
        passes = self._patch_run(monkeypatch)
        solution = _box_lp().solve()
        assert [solver for solver, _ in passes] == ["choose"]
        np.testing.assert_allclose(solution.x, [0.75, 0.75])
        assert solution.objective == pytest.approx(-1.5)

    @pytest.mark.parametrize(
        "lp, message",
        [
            (
                LinearProgram(
                    [1.0], np.array([[0.0, 1.0]]), dense_rows([[-1.0]]), [-5.0]
                ),
                "infeasible",
            ),
            (LinearProgram([-1.0], np.array([[0.0, np.inf]])), "unbounded"),
        ],
        ids=["infeasible", "unbounded"],
    )
    def test_certificate_raises_without_ipm(self, monkeypatch, lp, message):
        passes = self._patch_run(monkeypatch)
        with pytest.raises(InfeasibleError, match=message):
            lp.solve()
        assert [solver for solver, _ in passes] == ["choose"]

    @pytest.mark.parametrize("rewrite", FAILING.values(), ids=FAILING.keys())
    def test_failing_solution_falls_back_to_ipm(self, monkeypatch, rewrite):
        passes = self._patch_run(monkeypatch, first=rewrite)
        solution = _box_lp().solve()
        assert [solver for solver, _ in passes] == ["choose", "ipm"]
        ipm = passes[1][1]
        np.testing.assert_array_equal(solution.x, ipm.x)
        assert solution.objective == ipm.objective

    @pytest.mark.parametrize("rewrite", PASSING.values(), ids=PASSING.keys())
    def test_solution_within_tolerance_is_kept(self, monkeypatch, rewrite):
        passes = self._patch_run(monkeypatch, first=rewrite)
        solution = _box_lp().solve()
        assert [solver for solver, _ in passes] == ["choose"]
        np.testing.assert_array_equal(solution.x, passes[0][1].x)

    @pytest.mark.parametrize("rewrite", FAILING.values(), ids=FAILING.keys())
    def test_both_passes_failing_the_test_raise(self, monkeypatch, rewrite):
        self._patch_run(monkeypatch, first=rewrite, second=rewrite)
        with pytest.raises(SolverError, match="violates the constraints"):
            _box_lp().solve()

    def test_other_status_falls_back_then_raises(self, monkeypatch):
        def solve_error(outcome):
            return linprog._Outcome(linprog.HighsModelStatus.kSolveError)

        passes = self._patch_run(monkeypatch, first=solve_error, second=solve_error)
        with pytest.raises(SolverError, match="kSolveError"):
            _box_lp().solve()
        assert [solver for solver, _ in passes] == ["choose", "ipm"]


class TestCheckedSequentialFix:
    """SF with coupling constraints beyond the conflict sets."""

    @staticmethod
    def _coupled_instance(check):
        """Variables a and b share a <= 1.5 coupling cap (not a node
        conflict, so the conflict sets are empty): rounding b up after
        fixing a = 1 is infeasible.  A third capped variable c keeps
        the loop alive long enough for the infeasibility to surface in
        unchecked mode."""
        weights = [3.0, 2.0, 0.5]  # a, b, c
        lp = LinearProgram(
            [-w for w in weights],
            np.tile([0.0, 1.0], (3, 1)),
            dense_rows([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            [1.5, 0.4],
        )
        selected = sequential_fix(
            lp,
            np.arange(3),
            lambda col: np.zeros(3, dtype=bool),
            check_feasibility=check,
        ).tolist()
        return {key: int(col in selected) for col, key in enumerate("abc")}

    def test_checked_mode_falls_back_to_zero(self):
        result = self._coupled_instance(check=True)
        assert result["a"] == 1
        assert result["b"] == 0  # rounding b would break the coupling

    def test_unchecked_mode_raises(self):
        with pytest.raises(InfeasibleError):
            self._coupled_instance(check=False)

    def test_infeasible_verdict_after_zero_fixes_keeps_the_accepted_point(self):
        """HiGHS's tolerance can accept fixings that it rejects one
        relaxation later.  The relaxation after a rejected trial only
        zeroes columns, so the loop goes on from the last solution
        HiGHS accepted instead of ending as infeasible."""
        verdicts = []

        class ToleranceVerdicts(LinearProgram):
            # Rejects fixing b to 1, and the relaxation that zeroes b
            # while c is still open; accepts everything else.
            def solve(self):
                b_lower, b_upper = self.bounds[1]
                c_open = tuple(self.bounds[2]) == (0.0, 1.0)
                if b_lower == 1.0 or (b_upper == 0.0 and c_open):
                    verdicts.append(self.bounds.copy())
                    raise InfeasibleError("linear program is infeasible")
                return super().solve()

        lp = ToleranceVerdicts(
            [-3.0, -2.0, -1.0],
            np.tile([0.0, 1.0], (3, 1)),
            dense_rows([[1.0, 1.0, 1.0]]),
            [2.5],
        )
        selected = sequential_fix(
            lp, np.arange(3), lambda col: np.zeros(3, dtype=bool), check_feasibility=True
        )
        # The relaxation puts (a, b, c) at (1, 1, 0.5): a is fixed, b's
        # trial is rejected, and c is fixed from the accepted point.
        assert selected.tolist() == [0, 2]
        assert len(verdicts) == 2  # b's trial, then the relaxation after it


class TestPowerControlFallbacks:
    def test_joint_infeasibility_drops_lowest_priority(self):
        # Four co-located links: every subset of >= 2 is infeasible at
        # Gamma = 5, so the solver must fall back to priority order.
        positions = np.array(
            [[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]]
        )
        d = np.sqrt(((positions[:, None] - positions[None, :]) ** 2).sum(axis=2))
        gains = gain_matrix(d, 62.5, 4.0)
        links = [(0, 1), (2, 3)]
        result = minimal_power_assignment(
            links, DensePairGains(gains), 1e-10, 5.0,
            {i: 1.0 for i in range(4)},
            priority={(0, 1): 1.0, (2, 3): 10.0},
        )
        assert result.dropped == [(0, 1)]
        assert (2, 3) in result.powers


class TestEnergyManagerCostOverride:
    def test_explicit_cost_changes_price(self, tiny_model):
        manager = EnergyManager(tiny_model)
        inputs = [
            NodeEnergyInputs(
                node=0,
                is_base_station=True,
                demand_j=500.0,
                renewable_j=0.0,
                grid_connected=True,
                grid_cap_j=2000.0,
                charge_cap_j=500.0,
                discharge_cap_j=0.0,
                z=-100.0,
            )
        ]
        batch = NodeEnergyBatch.from_inputs(inputs)
        cheap = manager.manage(batch, cost=QuadraticCost(1e-9, 1e-9))
        dear = manager.manage(batch, cost=QuadraticCost(1e-3, 1e-3))
        # The dear tariff prices the same draw far higher.
        assert dear.cost > cheap.cost
        # And discourages charging beyond serving demand.
        assert (
            dear.allocation.grid_charge_j[0]
            <= cheap.allocation.grid_charge_j[0] + 1e-6
        )

    def test_default_cost_is_models(self, tiny_model):
        manager = EnergyManager(tiny_model)
        inputs = [
            NodeEnergyInputs(
                node=0,
                is_base_station=True,
                demand_j=500.0,
                renewable_j=0.0,
                grid_connected=True,
                grid_cap_j=2000.0,
                charge_cap_j=0.0,
                discharge_cap_j=0.0,
                z=0.0,
            )
        ]
        decision = manager.manage(NodeEnergyBatch.from_inputs(inputs))
        assert decision.cost == pytest.approx(tiny_model.cost.value(500.0))


class TestSessionSatisfaction:
    def test_full_satisfaction_at_paper_load(self):
        from repro.config import tiny_scenario
        from repro.sim import SlotSimulator

        simulator = SlotSimulator.integral(tiny_scenario(num_slots=15))
        result = simulator.run()
        demands = {
            s.session_id: float(s.demand_packets)
            for s in simulator.model.sessions
        }
        satisfaction = result.session_satisfaction(demands)
        assert set(satisfaction) == set(demands)
        for ratio in satisfaction.values():
            assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_zero_demand_counts_as_satisfied(self):
        from repro.config import tiny_scenario
        from repro.sim import SlotSimulator

        result = SlotSimulator.integral(tiny_scenario(num_slots=3)).run()
        assert result.session_satisfaction({99: 0.0})[99] == 1.0


class TestRelaxedMultiRadio:
    def test_relaxed_lp_uses_radio_budgets(self):
        import dataclasses

        from repro.config import tiny_scenario
        from repro.sim import SlotSimulator

        params = tiny_scenario(num_slots=4)
        multi = dataclasses.replace(
            params,
            bs_node=dataclasses.replace(params.bs_node, num_radios=3),
        )
        single_run = SlotSimulator.relaxed(params).run()
        multi_run = SlotSimulator.relaxed(multi).run()
        # More radios enlarge the feasible set: the relaxed optimum
        # cannot get worse.
        assert multi_run.average_penalty <= single_run.average_penalty * 1.05 + 1.0
