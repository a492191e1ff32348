"""Unit tests for the solver layer: the matrix-in LP, sequential fix,
bisection."""

import importlib.util
import math
import sys

import numpy as np
import pytest
import scipy

from repro.exceptions import InfeasibleError, SolverError
from repro.solvers import (
    LinearProgram,
    bisect_root,
    bisect_root_vec,
    linprog,
    sequential_fix,
)
from tests.lp_reference import dense_rows, scipy_column_matrix

#: Every member of ``scipy.optimize._highspy._core`` that
#: ``repro.solvers.linprog`` uses, with the attributes it reads or sets.
HIGHS_MEMBERS = (
    "HighsDebugLevel.kHighsDebugLevelNone",
    "HighsLp.num_col_",
    "HighsLp.num_row_",
    "HighsLp.a_matrix_",
    "HighsLp.col_cost_",
    "HighsLp.col_lower_",
    "HighsLp.col_upper_",
    "HighsLp.row_lower_",
    "HighsLp.row_upper_",
    "HighsModelStatus.kOptimal",
    "HighsModelStatus.kInfeasible",
    "HighsModelStatus.kModelError",
    "HighsModelStatus.kUnbounded",
    "HighsOptions.presolve",
    "HighsOptions.output_flag",
    "HighsOptions.log_to_console",
    "HighsOptions.highs_debug_level",
    "HighsOptions.simplex_strategy",
    "HighsOptions.solver",
    "HighsSolution.col_value",
    "HighsSolution.row_value",
    "HighsInfo.objective_function_value",
    "HighsSparseMatrix.format_",
    "HighsSparseMatrix.num_col_",
    "HighsSparseMatrix.num_row_",
    "HighsSparseMatrix.start_",
    "HighsSparseMatrix.index_",
    "HighsSparseMatrix.value_",
    "HighsStatus.kError",
    "MatrixFormat.kColwise",
    "_Highs.passOptions",
    "_Highs.passModel",
    "_Highs.run",
    "_Highs.getModelStatus",
    "_Highs.getSolution",
    "_Highs.getInfo",
    "kHighsInf",
    "simplex_constants.SimplexStrategy.kSimplexStrategyDual",
)

FLOOR = "scipy>=1.17"


class TestHighsBindings:
    def test_every_binding_member_present(self):
        try:
            import scipy.optimize._highspy._core as core
        except ImportError as error:
            pytest.fail(
                f"scipy {scipy.__version__} has no scipy.optimize._highspy._core "
                f"({error}); repro.solvers.linprog needs {FLOOR}"
            )
        missing = []
        for path in HIGHS_MEMBERS:
            owner = core
            for name in path.split("."):
                owner = getattr(owner, name, None)
            if owner is None:
                missing.append(path)
        assert not missing, (
            f"scipy {scipy.__version__}'s HiGHS bindings lack {missing}; "
            f"repro.solvers.linprog needs {FLOOR}"
        )

    def test_highs_infinity_is_ieee_inf(self):
        # Infinite column bounds reach HiGHS unchanged.
        assert linprog.kHighsInf == np.inf

    def test_missing_bindings_name_the_floor(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
        spec = importlib.util.spec_from_file_location("linprog_probe", linprog.__file__)
        probe = importlib.util.module_from_spec(spec)
        with pytest.raises(ImportError, match=FLOOR):
            spec.loader.exec_module(probe)


def _bounds(*pairs):
    return np.array(pairs, dtype=float)


class TestLinearProgram:
    def test_simple_minimization(self):
        lp = LinearProgram([1.0], _bounds((2.0, 10.0)))
        solution = lp.solve()
        assert solution.x[0] == pytest.approx(2.0)
        assert solution.objective == pytest.approx(2.0)

    def test_le_constraint(self):
        lp = LinearProgram([-1.0], _bounds((0.0, 100.0)), dense_rows([[2.0]]), [10.0])
        assert lp.solve().x[0] == pytest.approx(5.0)

    def test_ge_constraint(self):
        # x >= 7 enters negated: -x <= -7.
        lp = LinearProgram([1.0], _bounds((0.0, 100.0)), dense_rows([[-1.0]]), [-7.0])
        assert lp.solve().x[0] == pytest.approx(7.0)

    def test_eq_constraint(self):
        lp = LinearProgram(
            [0.0, 1.0],
            _bounds((0.0, 100.0), (0.0, 100.0)),
            a_eq=dense_rows([[1.0, 1.0]]),
            b_eq=[10.0],
        )
        solution = lp.solve()
        assert solution.x[0] + solution.x[1] == pytest.approx(10.0)
        assert solution.x[1] == pytest.approx(0.0)

    def test_column_indexed_solution(self):
        lp = LinearProgram(
            [-3.0, -1.0],
            _bounds((0.0, 1.0), (0.0, 1.0)),
            dense_rows([[1.0, 1.0]]),
            [1.0],
        )
        solution = lp.solve()
        assert solution.x[0] == pytest.approx(1.0)

    def test_infeasible_raises(self):
        lp = LinearProgram([1.0], _bounds((0.0, 1.0)), dense_rows([[-1.0]]), [-5.0])
        with pytest.raises(InfeasibleError):
            lp.solve()

    def test_unbounded_raises(self):
        lp = LinearProgram([-1.0], _bounds((0.0, np.inf)))
        with pytest.raises(InfeasibleError, match="unbounded"):
            lp.solve()

    def test_bounds_length_mismatch_rejected(self):
        with pytest.raises(SolverError):
            LinearProgram([1.0], _bounds((0.0, 1.0), (0.0, 1.0)))

    def test_unknown_variable_in_constraint_rejected(self):
        # A row over a column the LP does not have.
        with pytest.raises(SolverError):
            LinearProgram(
                [0.0], _bounds((0.0, np.inf)), dense_rows([[0.0, 1.0]]), [1.0]
            )

    def test_fix_variable(self):
        lp = LinearProgram([-1.0], _bounds((0.0, 10.0)))
        assert lp.fixed([0], 3.0).solve().x[0] == pytest.approx(3.0)
        # Fixing is a bound change on a copy; the original is unchanged.
        assert lp.solve().x[0] == pytest.approx(10.0)

    def test_empty_program(self):
        assert LinearProgram([], np.zeros((0, 2))).solve().objective == 0.0

    @pytest.mark.parametrize(
        "args",
        [
            ([np.inf], _bounds((0.0, 1.0))),
            ([1.0], _bounds((0.0, 1.0)), dense_rows([[np.nan]]), [1.0]),
            ([1.0], _bounds((0.0, 1.0)), dense_rows([[1.0]]), [np.inf]),
            ([1.0], _bounds((0.0, 1.0)), None, None, dense_rows([[1.0]]), [np.nan]),
        ],
        ids=["cost", "a_ub", "b_ub", "b_eq"],
    )
    def test_non_finite_input_rejected(self, args):
        # linprog refuses these too; they fail at construction here.
        with pytest.raises(SolverError, match="non-finite"):
            LinearProgram(*args)

    def test_nan_bound_reads_as_no_bound(self):
        # As in linprog: min x0 with x0 free below is unbounded.
        lp = LinearProgram([1.0, 0.0], _bounds((np.nan, 5.0), (0.0, np.nan)))
        np.testing.assert_array_equal(lp.bounds, [[-np.inf, 5.0], [0.0, np.inf]])
        with pytest.raises(InfeasibleError, match="unbounded"):
            lp.solve()

    def test_empty_bound_interval_rejected(self):
        with pytest.raises(SolverError):
            LinearProgram([0.0], _bounds((5.0, 1.0)))

    def test_huge_coefficient_range_survives(self):
        # Regression: beta^2-scaled drift coefficients (1e11+) used to
        # trip HiGHS simplex numerics before objective normalisation.
        lp = LinearProgram(
            [-5e11, -2e-4],
            _bounds((0.0, 1.0), (0.0, 1.0)),
            dense_rows([[1.0, 1.0]]),
            [1.0],
        )
        solution = lp.solve()
        assert solution.x[0] == pytest.approx(1.0)

    def test_rows_equilibrated_and_zeros_dropped(self):
        lp = LinearProgram(
            [2.0, -4.0],
            _bounds((0.0, 1.0), (0.0, 1.0)),
            dense_rows([[0.0, -8.0], [0.0, 0.0]]),
            [4.0, 3.0],
            a_eq=dense_rows([[1e-12, 2e-12]]),
            b_eq=[1e-12],
        )
        c, a_ub, b_ub, a_eq, b_eq, bounds = lp.standard_form()
        np.testing.assert_array_equal(c, [0.5, -1.0])
        assert a_ub.nnz == 1  # the zeros left the structure
        np.testing.assert_array_equal(a_ub.toarray(), [[0.0, -1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(b_ub, [0.5, 3.0])  # empty row: scale 1
        np.testing.assert_array_equal(a_eq.toarray(), [[0.5, 1.0]])
        np.testing.assert_array_equal(b_eq, [0.5])
        np.testing.assert_array_equal(bounds, lp.bounds)


def _highs_input(lp):
    """``(start, index, value, row_lower, row_upper)`` as HiGHS receives them."""
    model = lp._highs_lp()
    matrix = model.a_matrix_
    return (
        matrix.start_,
        matrix.index_,
        np.array(matrix.value_).tobytes(),
        np.array(model.row_lower_).tobytes(),
        np.array(model.row_upper_).tobytes(),
    )


def _scipy_input(num_cols, blocks):
    start, index, value, lower, upper = scipy_column_matrix(num_cols, blocks)
    return start, index, value.tobytes(), lower.tobytes(), upper.tobytes()


def _random_block(rng, num_rows, num_cols):
    """Unsorted COO entries with exact (and negative) zeros, all-zero
    rows and coefficients from 1e-12 to 10, plus their bounds."""
    cells = rng.permutation(num_rows * num_cols)
    cells = cells[: int(rng.integers(0, cells.size + 1))]
    rows, cols = np.divmod(cells, num_cols)
    vals = rng.choice([1e-12, 1e-3, 1.0, 10.0], cells.size) * rng.normal(
        size=cells.size
    )
    vals[rng.random(cells.size) < 0.2] = 0.0
    vals[rng.random(cells.size) < 0.05] = -0.0
    vals[np.isin(rows, rng.integers(0, num_rows, 2))] = 0.0
    return (rows, cols, vals), rng.normal(size=num_rows)


def _assert_same_highs_input(num_cols, ub, eq):
    lp = LinearProgram(np.ones(num_cols), np.tile([0.0, 1.0], (num_cols, 1)), *ub, *eq)
    assert _highs_input(lp) == _scipy_input(num_cols, (ub, eq))


class TestColumnAssembly:
    """The numpy-built HiGHS matrix equals the ``scipy.sparse`` path's."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_blocks_match_scipy(self, seed):
        rng = np.random.default_rng(seed)
        num_cols = int(rng.integers(1, 12))
        ub = _random_block(rng, int(rng.integers(1, 10)), num_cols)
        eq = _random_block(rng, int(rng.integers(1, 10)), num_cols)
        _assert_same_highs_input(num_cols, ub, eq)

    def test_column_major_input(self):
        rng = np.random.default_rng(7)
        (rows, cols, vals), rhs = _random_block(rng, 8, 6)
        order = np.lexsort((rows, cols))
        ub = (rows[order], cols[order], vals[order]), rhs
        _assert_same_highs_input(6, ub, (None, None))

    @pytest.mark.parametrize(
        "ub, eq",
        [
            ((None, None), (None, None)),
            ((dense_rows(np.zeros((0, 3))), []), (None, None)),
            ((dense_rows(np.zeros((2, 3))), [1.0, -2.0]), (None, None)),
            ((([], [], []), [4.0, 5.0]), (dense_rows([[0.0, 2.0, -4.0]]), [8.0])),
            ((None, None), (dense_rows([[0.0, 0.0, 0.0], [1e-12, 0.0, 3.0]]), [1.0, 6.0])),
        ],
        ids=["no-rows", "zero-row-block", "all-zero-rows", "empty-block", "eq-only"],
    )
    def test_edge_blocks_match_scipy(self, ub, eq):
        _assert_same_highs_input(3, ub, eq)

    @pytest.mark.parametrize("block", ["ub", "eq"])
    def test_duplicate_entry_rejected(self, block):
        entries = ([0, 1, 1], [0, 0, 0], [1.0, 2.0, 3.0])
        with pytest.raises(
            SolverError, match=f"A_{block} block has two entries at row 1, column 0"
        ):
            LinearProgram(
                [1.0],
                _bounds((0.0, 1.0)),
                **{f"a_{block}": entries, f"b_{block}": [1.0, 1.0]},
            )

    @pytest.mark.parametrize(
        "rows, cols", [([2], [0]), ([-1], [0]), ([0], [3]), ([0], [-1])],
        ids=["row-past-end", "negative-row", "column-past-end", "negative-column"],
    )
    def test_entry_outside_block_rejected(self, rows, cols):
        with pytest.raises(SolverError, match="A_eq block has an entry outside"):
            LinearProgram(
                [1.0, 1.0, 1.0],
                np.tile([0.0, 1.0], (3, 1)),
                dense_rows([[1.0, 1.0, 1.0]]),
                [1.0],
                (rows, cols, [1.0]),
                [1.0, 1.0],
            )

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_names_the_block(self, value):
        with pytest.raises(SolverError, match="A_ub block has a non-finite"):
            LinearProgram([1.0], _bounds((0.0, 1.0)), ([0], [0], [value]), [1.0])

    def test_fixed_copies_share_the_model_and_keep_their_bounds(self):
        lp = LinearProgram([-1.0, -1.0], np.tile([0.0, 1.0], (2, 1)))
        pinned = lp.fixed([0], 0.0)
        assert pinned._highs_lp() is lp._highs_lp()
        assert pinned.solve().x.tolist() == [0.0, 1.0]
        assert lp.solve().x.tolist() == [1.0, 1.0]


class TestSequentialFix:
    @staticmethod
    def _matching_problem(weights, conflicts_map):
        """Build an SF instance from explicit weights and conflicts.

        The relaxed LP carries pairwise conflict constraints, mirroring
        how the scheduler encodes constraint (22); the result maps each
        key to its 0/1 value.
        """
        keys = sorted(weights)
        column = {key: i for i, key in enumerate(keys)}
        pairs = sorted(
            {
                tuple(sorted((key, other)))
                for key, others in conflicts_map.items()
                for other in others
            }
        )
        a_ub = np.zeros((len(pairs), len(keys)))
        for row, pair in enumerate(pairs):
            a_ub[row, [column[pair[0]], column[pair[1]]]] = 1.0
        lp = LinearProgram(
            [-weights[k] for k in keys],
            np.tile([0.0, 1.0], (len(keys), 1)),
            dense_rows(a_ub) if pairs else None,
            np.ones(len(pairs)) if pairs else None,
        )

        def conflicts(col):
            mask = np.zeros(len(keys), dtype=bool)
            for other in conflicts_map.get(keys[col], []):
                mask[column[other]] = True
            return mask

        selected = sequential_fix(lp, np.arange(len(keys)), conflicts).tolist()
        return {key: int(col in selected) for col, key in enumerate(keys)}

    def test_no_conflicts_selects_everything(self):
        result = self._matching_problem({"a": 1.0, "b": 2.0}, {})
        assert result == {"a": 1, "b": 1}

    def test_conflict_drops_lower_weight(self):
        result = self._matching_problem(
            {"a": 5.0, "b": 1.0}, {"a": ["b"], "b": ["a"]}
        )
        assert result == {"a": 1, "b": 0}

    def test_zero_weights_all_unscheduled(self):
        # Push toward zero so the relaxation leaves them there.
        lp = LinearProgram(
            [0.0, 0.0], np.tile([0.0, 1.0], (2, 1)), dense_rows([[1.0, 1.0]]), [0.0]
        )
        selected = sequential_fix(lp, np.arange(2), lambda col: np.zeros(2, bool))
        assert selected.size == 0  # both fixed to 0

    def test_chain_conflicts(self):
        # a conflicts with b, b with c: optimal is {a, c}.
        result = self._matching_problem(
            {"a": 3.0, "b": 2.0, "c": 3.0},
            {"a": ["b"], "b": ["a", "c"], "c": ["b"]},
        )
        assert result == {"a": 1, "b": 0, "c": 1}

    def test_ties_break_by_rank_and_selection_keeps_fix_order(self):
        # All three sit at 1 in the relaxation; 0 and 1 conflict, so
        # the lower-ranked of the two is fixed first and wins.
        lp = LinearProgram([-1.0, -1.0, -1.0], np.tile([0.0, 1.0], (3, 1)))

        def conflicts(col):
            return np.array([col == 1, col == 0, False])

        assert sequential_fix(lp, np.array([1, 0, 2]), conflicts).tolist() == [1, 2]
        # The selection comes back in fixing order, not column order.
        assert sequential_fix(lp, np.array([2, 1, 0]), conflicts).tolist() == [2, 1]

    def test_iteration_cap(self):
        lp = LinearProgram([-1.0, -1.0], np.tile([0.0, 1.0], (2, 1)))
        # max_iterations=0 forces immediate failure.
        with pytest.raises(SolverError, match="iterations"):
            sequential_fix(
                lp, np.arange(2), lambda col: np.zeros(2, bool), max_iterations=0
            )


class TestBisection:
    def test_root_of_linear(self):
        root = bisect_root(lambda x: x - 3.0, 0.0, 10.0)
        assert root == pytest.approx(3.0, abs=1e-6)

    def test_root_of_monotone_nonlinear(self):
        root = bisect_root(lambda x: math.exp(x) - 5.0, 0.0, 5.0)
        assert root == pytest.approx(math.log(5.0), abs=1e-6)

    def test_no_sign_change_returns_endpoint(self):
        assert bisect_root(lambda x: x + 10.0, 0.0, 1.0) == 0.0
        assert bisect_root(lambda x: x - 10.0, 0.0, 1.0) == 1.0

    def test_empty_interval_raises(self):
        with pytest.raises(SolverError):
            bisect_root(lambda x: x, 1.0, 0.0)


class TestBisectionVec:
    """bisect_root_vec must be a bit-identical batch of bisect_root."""

    def test_matches_scalar_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = int(rng.integers(1, 12))
            slope = rng.uniform(0.1, 5.0, k)
            root = rng.uniform(-20.0, 20.0, k)
            lo = root - rng.uniform(0.0, 30.0, k)
            hi = root + rng.uniform(0.0, 30.0, k)
            vec = bisect_root_vec(
                lambda x: slope * (x - root) ** 3, lo, hi
            )
            for i in range(k):
                s, r = float(slope[i]), float(root[i])
                scalar = bisect_root(
                    lambda x: s * (x - r) ** 3, float(lo[i]), float(hi[i])
                )
                assert vec[i] == scalar

    def test_endpoint_short_circuits(self):
        lo = np.array([0.0, 0.0])
        hi = np.array([1.0, 1.0])
        # Residual positive everywhere -> lo; negative everywhere -> hi.
        out = bisect_root_vec(
            lambda x: np.where(np.arange(2) == 0, x + 10.0, x - 10.0), lo, hi
        )
        assert out[0] == 0.0
        assert out[1] == 1.0

    def test_singleton_batch_is_scalar(self):
        vec = bisect_root_vec(
            lambda x: np.exp(x) - 5.0, np.array([0.0]), np.array([5.0])
        )
        scalar = bisect_root(lambda x: math.exp(x) - 5.0, 0.0, 5.0)
        assert float(vec[0]) == scalar

    def test_inverted_interval_raises(self):
        with pytest.raises(SolverError):
            bisect_root_vec(lambda x: x, np.array([1.0]), np.array([0.0]))
