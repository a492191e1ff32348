"""A linear program over COO row blocks, solved by HiGHS.

The LPs of this package — the S1 sequential-fix relaxation over
constraints (20)-(24) and the per-slot relaxed program P3bar of the
Theorem-5 bound — are assembled by their callers as arrays over frozen
column and row orders: a cost vector, ``(n, 2)`` column bounds, and
``A_ub x <= b_ub`` / ``A_eq x == b_eq`` blocks, each given as COO
triplets ``(rows, cols, vals)`` with its right-hand sides (a ``>=`` row
is passed negated in ``A_ub``).  ``LinearProgram`` builds HiGHS's
column-wise matrix from the triplets with numpy once per matrix: it
drops exact zeros, divides every row and its bound by the row's largest
|coefficient|, sorts the entries column-major and counts the column
starts.  It fixes columns by changing their bounds
and solves through the HiGHS bindings that scipy ships
(``scipy.optimize._highspy._core``).  It sets the options, maps the
model status and tests the solution exactly as
``scipy.optimize.linprog`` with ``method="highs"`` does, so its
solutions equal ``linprog``'s bit for bit, without ``linprog``'s
per-call input cleaning, matrix conversion and dual/basis read-out.
:meth:`LinearProgram.solve` is the package's one call into HiGHS;
``scipy.sparse`` appears only in :meth:`LinearProgram.standard_form`,
the equilibrated problem in ``linprog``'s form for the oracle tests.
Minimisation only, like scipy.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np
import scipy
from scipy import sparse

try:
    from scipy.optimize._highspy._core import (
        HighsDebugLevel,
        HighsLp,
        HighsModelStatus,
        HighsOptions,
        HighsSparseMatrix,
        HighsStatus,
        MatrixFormat,
        _Highs,
        kHighsInf,
        simplex_constants,
    )
except ImportError as error:  # pragma: no cover - depends on the installed scipy
    raise ImportError(
        "repro needs scipy>=1.17, whose scipy.optimize._highspy._core "
        f"HiGHS bindings it calls directly; found scipy {scipy.__version__}"
    ) from error

from repro.axes import AnyArray
from repro.exceptions import InfeasibleError, SolverError

#: One row block as COO entries ``(rows, cols, vals)``: coefficient
#: ``vals[k]`` at row ``rows[k]`` of the block and column ``cols[k]``.
Triplets = Tuple[AnyArray, AnyArray, AnyArray]

#: The equilibrated problem, in ``linprog``'s argument order:
#: ``(c, A_ub, b_ub, A_eq, b_eq, bounds)`` with a ``None`` pair for an
#: empty block.
StandardForm = Tuple[
    AnyArray,
    Optional[sparse.csr_matrix],
    Optional[AnyArray],
    Optional[sparse.csr_matrix],
    Optional[AnyArray],
    AnyArray,
]

#: Absolute tolerance of the post-solve feasibility test, as
#: ``linprog`` derives it from its default ``tol=1e-9``.
FEASIBILITY_TOL = float(np.sqrt(1e-9) * 10)


def _options(solver: Optional[str] = None) -> HighsOptions:
    """The options ``linprog`` passes for ``method="highs"``, plus ``solver``."""
    options = HighsOptions()
    options.presolve = "on"
    options.output_flag = False
    options.log_to_console = False
    options.highs_debug_level = HighsDebugLevel.kHighsDebugLevelNone
    options.simplex_strategy = simplex_constants.SimplexStrategy.kSimplexStrategyDual
    if solver is not None:
        options.solver = solver
    return options


#: HiGHS's default solver first (dual simplex), then its IPM.
_PASSES = (_options(), _options("ipm"))

_INFEASIBLE = (HighsModelStatus.kInfeasible, HighsModelStatus.kModelError)


class _Outcome(NamedTuple):
    """One HiGHS run: its model status and, when optimal, the solution."""

    status: HighsModelStatus
    x: Optional[AnyArray] = None
    row_value: Optional[AnyArray] = None
    objective: float = float("nan")


def _run(lp: HighsLp, options: HighsOptions) -> _Outcome:
    """Solve ``lp`` once with a fresh HiGHS instance.

    Reads the primal column and row values and the objective only when
    the model status is optimal.
    """
    highs = _Highs()
    highs.passOptions(options)
    if highs.passModel(lp) == HighsStatus.kError:
        return _Outcome(HighsModelStatus.kModelError)
    if highs.run() == HighsStatus.kError:
        return _Outcome(highs.getModelStatus())
    status = highs.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        return _Outcome(status)
    solution = highs.getSolution()
    return _Outcome(
        status,
        np.array(solution.col_value),
        np.array(solution.row_value),
        highs.getInfo().objective_function_value,
    )


@dataclass(frozen=True)
class LPSolution:
    """Result of an LP solve.

    Attributes:
        objective: optimal objective value.
        x: ``(n,)`` optimal value per column.
    """

    objective: float
    x: AnyArray


def _rows(
    block: Optional[Triplets], rhs: Optional[AnyArray], num_cols: int, name: str
) -> Tuple[Triplets, AnyArray, AnyArray]:
    """One row block's nonzero entries, its bounds and its row scales.

    The scale of a row is its largest |coefficient|, 1 for an empty
    row.  Physical-model rows mix propagation gains (~1e-12) with big-M
    constants (~10), which makes HiGHS mis-declare feasible systems
    infeasible; dividing a row and its bound by the scale is an exact
    reformulation.
    """
    if block is None:
        empty = np.zeros(0, dtype=np.intp)
        return (empty, empty, np.zeros(0)), np.zeros(0), np.zeros(0)
    rows, cols, vals = block
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    vals = np.asarray(vals, dtype=np.float64)
    bounds = np.asarray(rhs, dtype=np.float64).reshape(-1)
    num_rows = bounds.shape[0]
    if not (rows.shape == cols.shape == vals.shape and vals.ndim == 1):
        raise SolverError(f"{name} block's rows, columns and values differ in shape")
    if not (np.isfinite(vals).all() and np.isfinite(bounds).all()):
        raise SolverError(f"{name} block has a non-finite coefficient or bound")
    if rows.size and (
        min(rows.min(), cols.min()) < 0
        or rows.max() >= num_rows
        or cols.max() >= num_cols
    ):
        raise SolverError(
            f"{name} block has an entry outside its {num_rows} rows "
            f"and {num_cols} columns"
        )
    # Exactly-zero coefficients leave the structure (an empty battery
    # puts a tangent point at 0); near-zero ones must stay.
    nonzero = np.flatnonzero(vals)
    if nonzero.size < vals.size:
        rows, cols, vals = rows[nonzero], cols[nonzero], vals[nonzero]
    scale = np.zeros(num_rows)
    np.maximum.at(scale, rows, np.abs(vals))
    scale[scale <= 0.0] = 1.0
    return (rows, cols, vals), bounds, scale


def _column_matrix(
    rows: AnyArray, cols: AnyArray, vals: AnyArray, num_ub: int, shape: Tuple[int, int]
) -> HighsSparseMatrix:
    """The stacked entries as HiGHS's column-wise matrix.

    One sort of the key ``col * num_rows + row`` orders the entries
    column-major, rows ascending within a column, as ``np.lexsort((rows,
    cols))`` would.

    Raises:
        SolverError: on two entries at one ``(row, column)``, naming
            the block they are in (rows from ``num_ub`` on are
            ``A_eq``'s).
    """
    num_rows, num_cols = shape
    key = cols * num_rows + rows
    order = np.argsort(key, kind="stable")
    key = key[order]
    repeated = np.flatnonzero(key[1:] == key[:-1])
    if repeated.size:
        col, row = divmod(int(key[repeated[0]]), num_rows)
        name, row = ("A_ub", row) if row < num_ub else ("A_eq", row - num_ub)
        raise SolverError(f"{name} block has two entries at row {row}, column {col}")
    starts = np.zeros(num_cols + 1, dtype=np.intp)
    np.cumsum(np.bincount(cols, minlength=num_cols), out=starts[1:])
    matrix = HighsSparseMatrix()
    matrix.format_ = MatrixFormat.kColwise
    matrix.num_row_, matrix.num_col_ = shape
    # The bindings copy an ndarray element by element through numpy
    # scalars; a list converts about twice as fast.
    matrix.start_ = starts.tolist()
    matrix.index_ = rows[order].tolist()
    matrix.value_ = vals[order].tolist()
    return matrix


class LinearProgram:
    """Minimise ``cost @ x`` over column bounds and two row blocks.

    Args:
        cost: ``(n,)`` objective coefficients.
        bounds: ``(n, 2)`` ``[lower, upper]`` per column (``inf`` for
            no upper bound; NaN reads as no bound, as in ``linprog``).
        a_ub, b_ub: ``A_ub x <= b_ub``: the block's COO triplets and its
            ``(m,)`` bounds, which set its row count; None for no rows.
        a_eq, b_eq: ``A_eq x == b_eq`` in the same form; None for no
            rows.

    Attributes:
        a_ub, b_ub, a_eq, b_eq: the row blocks as given, unscaled, with
            their exact zeros dropped (empty triplets for no rows).

    Raises:
        SolverError: on inconsistent shapes, a non-finite cost,
            coefficient or row bound, an entry outside its block, two
            nonzero entries at one ``(row, column)`` of a block, or an
            empty bound interval.
    """

    def __init__(
        self,
        cost: AnyArray,
        bounds: AnyArray,
        a_ub: Optional[Triplets] = None,
        b_ub: Optional[AnyArray] = None,
        a_eq: Optional[Triplets] = None,
        b_eq: Optional[AnyArray] = None,
    ) -> None:
        self.cost = np.asarray(cost, dtype=np.float64).reshape(-1)
        num_cols = self.cost.shape[0]
        if not np.isfinite(self.cost).all():
            raise SolverError("the cost vector has a non-finite coefficient")
        self.bounds = np.array(bounds, dtype=np.float64).reshape(-1, 2)
        if self.bounds.shape[0] != num_cols:
            raise SolverError(
                f"{self.bounds.shape[0]} column bounds for {num_cols} columns"
            )
        self.bounds[np.isnan(self.bounds[:, 0]), 0] = -np.inf
        self.bounds[np.isnan(self.bounds[:, 1]), 1] = np.inf
        empty = np.flatnonzero(self.bounds[:, 1] < self.bounds[:, 0])
        if empty.size:
            lower, upper = self.bounds[empty[0]]
            raise SolverError(
                f"column {empty[0]} has empty bound interval [{lower}, {upper}]"
            )
        self.a_ub, self.b_ub, ub_scale = _rows(a_ub, b_ub, num_cols, "A_ub")
        self.a_eq, self.b_eq, eq_scale = _rows(a_eq, b_eq, num_cols, "A_eq")
        # The scaled rows and objective depend on neither the bounds nor
        # the fixings, so they are computed once per matrix.  HiGHS
        # takes lower <= A x <= upper over the stacked rows: an
        # inequality row has no lower bound, an equality row two equal
        # ones.
        self._num_ub = self.b_ub.shape[0]
        (ub_rows, ub_cols, ub_vals), (eq_rows, eq_cols, eq_vals) = self.a_ub, self.a_eq
        b_eq_s = self.b_eq / eq_scale
        self._row_lower = np.concatenate((np.full(self._num_ub, -kHighsInf), b_eq_s))
        self._row_upper = np.concatenate((self.b_ub / ub_scale, b_eq_s))
        self._entries = (
            np.concatenate((ub_rows, eq_rows + self._num_ub)),
            np.concatenate((ub_cols, eq_cols)),
            np.concatenate((ub_vals / ub_scale[ub_rows], eq_vals / eq_scale[eq_rows])),
        )
        # Normalise the objective: drift coefficients can span 12+
        # orders of magnitude (the beta^2-scaled virtual-queue terms),
        # which trips HiGHS's simplex numerics.  Scaling the objective
        # leaves the argmin unchanged; the true value is restored on
        # solve.
        scale = float(np.abs(self.cost).max()) if num_cols else 1.0
        self._cost_scale = scale if scale > 0.0 else 1.0
        self._lp = HighsLp()
        self._lp.num_col_ = num_cols
        self._lp.num_row_ = self._row_upper.shape[0]
        self._lp.a_matrix_ = _column_matrix(
            *self._entries, self._num_ub, (self._lp.num_row_, num_cols)
        )
        # Lists, not arrays, for the bindings (see _column_matrix).
        self._lp.col_cost_ = (self.cost / self._cost_scale).tolist()
        self._lp.row_lower_ = self._row_lower.tolist()
        self._lp.row_upper_ = self._row_upper.tolist()

    @property
    def num_variables(self) -> int:
        """Number of columns."""
        return self.cost.shape[0]

    def fixed(self, columns: AnyArray, values: AnyArray) -> "LinearProgram":
        """A copy with ``columns`` pinned to ``values`` (bounds only).

        The copy shares the row blocks, their scaling and the HiGHS
        model, so a fix costs one ``(n, 2)`` bounds copy.
        """
        pinned = copy.copy(self)
        pinned.bounds = self.bounds.copy()
        pinned.bounds[np.asarray(columns, dtype=np.intp)] = np.asarray(
            values, dtype=np.float64
        ).reshape(-1, 1)
        return pinned

    def standard_form(self) -> StandardForm:
        """The equilibrated problem exactly as HiGHS receives it.

        The blocks are canonical CSR matrices (sorted, no duplicates),
        each None with its bounds when it has no rows.
        """
        rows, cols, vals = self._entries
        num_rows = self._row_upper.shape[0]
        stacked = sparse.csr_matrix(
            (vals, (rows, cols)), shape=(num_rows, self.num_variables)
        )
        split = self._num_ub
        a_ub, b_ub = stacked[:split], self._row_upper[:split]
        a_eq, b_eq = stacked[split:], self._row_upper[split:]
        return (
            self.cost / self._cost_scale,
            a_ub if split else None,
            b_ub if split else None,
            a_eq if num_rows > split else None,
            b_eq if num_rows > split else None,
            self.bounds,
        )

    def _highs_lp(self) -> HighsLp:
        """The shared ``HighsLp`` under this program's bounds.

        ``kHighsInf`` is IEEE infinity, so infinite column bounds pass
        unchanged.
        """
        self._lp.col_lower_ = self.bounds[:, 0].tolist()
        self._lp.col_upper_ = self.bounds[:, 1].tolist()
        return self._lp

    def _satisfied_by(self, outcome: _Outcome) -> bool:
        """``linprog``'s post-solve test of an optimal solution.

        No NaN; every column within its bounds, every inequality slack
        at least ``-FEASIBILITY_TOL`` and every equality residual within
        ``FEASIBILITY_TOL``.
        """
        x = outcome.x
        if x is None:
            return False
        residual = self._row_upper - outcome.row_value  # b - A x
        if np.isnan(x).any() or np.isnan(outcome.objective) or np.isnan(residual).any():
            return False
        tol = FEASIBILITY_TOL
        return bool(
            np.all(x >= self.bounds[:, 0] - tol)
            and np.all(x <= self.bounds[:, 1] + tol)
            and np.all(residual[: self._num_ub] >= -tol)
            and np.all(np.abs(residual[self._num_ub :]) <= tol)
        )

    def solve(self) -> LPSolution:
        """Solve with HiGHS (HiGHS-IPM as fallback) and return the solution.

        A pass whose optimal solution fails the post-solve test, or that
        ends in any status but optimal, infeasible or unbounded, hands
        over to the IPM pass.

        Raises:
            InfeasibleError: primal infeasible (or unbounded, which for
                our bounded formulations always indicates a modelling
                bug upstream).
            SolverError: any other solver failure.
        """
        if self.num_variables == 0:
            return LPSolution(objective=0.0, x=np.zeros(0))
        lp = self._highs_lp()
        for options in _PASSES:
            outcome = _run(lp, options)
            if self._satisfied_by(outcome):
                assert outcome.x is not None
                return LPSolution(
                    objective=outcome.objective * self._cost_scale, x=outcome.x
                )
            if outcome.status in _INFEASIBLE:
                raise InfeasibleError("linear program is infeasible")
            if outcome.status == HighsModelStatus.kUnbounded:
                raise InfeasibleError("linear program is unbounded")
        if outcome.status == HighsModelStatus.kOptimal:
            raise SolverError(
                "HiGHS solution violates the constraints by more than "
                f"{FEASIBILITY_TOL:.2e}"
            )
        raise SolverError(f"HiGHS failed: model status {outcome.status.name}")
