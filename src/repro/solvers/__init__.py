"""Numerical solvers: the matrix-in LP, sequential fix, bisection."""

from repro.solvers.linprog import LinearProgram, LPSolution
from repro.solvers.sequential_fix import sequential_fix
from repro.solvers.bisection import bisect_root, bisect_root_vec

__all__ = [
    "LinearProgram",
    "LPSolution",
    "sequential_fix",
    "bisect_root",
    "bisect_root_vec",
]
