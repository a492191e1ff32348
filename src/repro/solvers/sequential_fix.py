"""The generic sequential-fix (SF) heuristic for binary programs.

The paper's S1 scheduler fixes binary variables one LP-relaxation at a
time (Section IV-C-1): relax all unfixed binaries to ``[0, 1]``, solve,
fix every variable the LP put at 1 (and the single largest fractional
variable if none hit 1), zero out the variables that conflict with each
newly fixed one, and repeat until everything is fixed.  This module
implements that loop generically over the column indices of one
:class:`~repro.solvers.linprog.LinearProgram`, built once by the
caller: every fix, and every speculative feasibility trial, is a bound
change on that matrix.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.axes import AnyArray
from repro.exceptions import InfeasibleError, SolverError
from repro.solvers.linprog import LinearProgram

#: Callback giving the ``(B,)`` mask of binaries that must be zero once
#: binary ``column`` is fixed to 1 (called once per such fix).
ConflictFn = Callable[[int], AnyArray]


def sequential_fix(
    lp: LinearProgram,
    rank: AnyArray,
    conflicts: ConflictFn,
    eps: float = 1e-6,
    max_iterations: Optional[int] = None,
    check_feasibility: bool = False,
    zero_with: Optional[AnyArray] = None,
) -> AnyArray:
    """Run the SF loop; return the columns fixed to 1, in fixing order.

    Every other binary column ends fixed to 0.

    Args:
        lp: the relaxation; its first ``B = len(rank)`` columns are the
            binaries, bounded in ``[0, 1]``.
        rank: ``(B,)`` distinct tie-break ranks: among equal LP values
            the lower rank is fixed first.
        conflicts: conflict masks enforced when a binary is fixed to 1.
        eps: rounding tolerance for "the LP set it to 1" / "to 0".
        max_iterations: safety cap; defaults to ``B + 1``.
        check_feasibility: speculatively re-solve before committing any
            fix-to-1.  Needed when the LP carries coupling constraints
            beyond the conflict sets (e.g. big-M SINR rows): rounding a
            fractional variable up can then be jointly infeasible with
            earlier fixes, in which case it is fixed to 0 instead (the
            Hou et al. fallback).  Costs one extra LP solve per fix.
        zero_with: optional ``(B,)`` partner column per binary, pinned
            to 0 whenever the binary is fixed to 0 (a power variable
            that may only flow when its link is scheduled).

    A solve that follows only fixes to 0 of an LP HiGHS already solved
    is not allowed to end the loop as infeasible: the earlier solution,
    with those columns zeroed, is a point HiGHS accepted and the loop
    continues from it.  Such a verdict does happen under big-M rows:
    the tolerance that accepted a fix can reject the same fixings one
    relaxation later.

    Raises:
        InfeasibleError: if the first relaxation, or one that follows
            an unchecked fix to 1, is infeasible.
        SolverError: if the loop fails to make progress (a symptom of a
            conflict callback that never zeroes anything).
    """
    num = rank.shape[0]
    remaining = np.ones(num, dtype=bool)
    selected: List[int] = []
    if max_iterations is None:
        max_iterations = num + 1
    # The last solution HiGHS accepted for the current fixings to 1,
    # with every later fix to 0 applied; None once it is unknown.
    accepted: Optional[AnyArray] = None

    def fix_to_zero(mask: AnyArray) -> None:
        nonlocal lp
        columns = np.flatnonzero(mask)
        if zero_with is not None:
            columns = np.concatenate((columns, zero_with[columns]))
        lp = lp.fixed(columns, 0.0)
        remaining[mask] = False
        if accepted is not None:
            accepted[columns] = 0.0

    def fix_to_one(column: int) -> None:
        nonlocal lp, accepted
        trial = lp.fixed([column], 1.0)
        solution = None
        if check_feasibility:
            try:
                solution = trial.solve().x
            except InfeasibleError:
                fix_to_zero(np.arange(num) == column)
                return
        lp = trial
        accepted = solution
        remaining[column] = False
        selected.append(column)
        fix_to_zero(conflicts(column) & remaining)

    iterations = 0
    while remaining.any():
        iterations += 1
        if iterations > max_iterations:
            raise SolverError(
                f"sequential fix exceeded {max_iterations} iterations with "
                f"{int(remaining.sum())} variables unfixed"
            )
        try:
            x = lp.solve().x
        except InfeasibleError:
            if accepted is None:
                raise
            x = accepted
        accepted = x.copy()
        # Candidate order: by LP value (descending), then by rank.
        open_cols = np.flatnonzero(remaining)
        ordered = open_cols[np.lexsort((rank[open_cols], -x[open_cols]))]
        at_one = ordered[x[ordered] >= 1.0 - eps]
        if at_one.size:
            # Fix in decreasing LP-value order so conflict propagation
            # from an earlier fix can veto a later, lower-value one.
            for column in at_one.tolist():
                if remaining[column]:
                    fix_to_one(column)
            continue

        best = int(ordered[0])
        if x[best] <= eps:
            # The relaxation puts every unfixed variable at zero: with
            # all conflicts already resolved, all-zero is optimal.
            remaining[:] = False
            continue

        fix_to_one(best)

    return np.array(selected, dtype=np.intp)
