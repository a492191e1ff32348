"""A fixed reference kernel, timed between slots, that tracks host speed.

The benchmark runs on shared virtual machines whose speed drifts by
tens of percent over seconds to minutes: on the recording machine a
fixed kernel's 20 s mean ranged from 0.63 to 1.0 of its best over seven
minutes.  That drift is larger than any bound a regression gate could
use.  So the runner times this kernel after every slot, and after each
episode's constructions, for a tenth of the time just measured.  It
reports times both as measured and normalized: scaled by
``REF_UNIT_MS`` over the kernel's mean unit time just before and just
after them.  The kernel shares no code with the program, so a change to
the program moves the normalized times as it moves the measured ones,
while a slow phase of the host slows the program and the kernel alike
and cancels.

One unit does the compute-bound work the program's slots do: dict
bookkeeping in the interpreter, small dense LAPACK solves, and a small
sparse LP through ``scipy.optimize.linprog`` (HiGHS).  In slow phases of
the recording machine that work slowed by 20-50% while memory-bound
streaming slowed by 3-6%.  The unit holds no large array, which would
also evict the program's working set between slots.  ``README.md``
gives the measurements behind the choice.
"""

from __future__ import annotations

import time
from typing import List, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

#: Median time of one :meth:`HostReference.unit` on the recording
#: machine (2-vCPU "Intel(R) Xeon(R) Processor" VM, Python 3.11, numpy
#: 2.4, scipy 1.17, one BLAS thread).  It only fixes the scale: a
#: normalized time reads in ms at that machine's median speed.
REF_UNIT_MS = 3.5

#: Kernel time per sample, as a share of the time it normalizes (at
#: least one unit).
REF_SHARE = 0.1


class HostReference:
    """Times whole units of the reference kernel on demand.

    :meth:`add` queues a measured time; the next :meth:`sample` appends
    it, normalized by that sample and the one before, to the list given.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        size = 96
        self._matrix = rng.standard_normal((size, size)) + size * np.eye(size)
        self._rhs = rng.standard_normal(size)
        self._keys = list(range(3000))
        variables, constraints = 40, 30
        self._cost = -rng.uniform(1.0, 2.0, variables)
        self._a_ub = sparse.random(
            constraints, variables, density=0.3, random_state=1, format="csr"
        )
        self._b_ub = 0.3 * np.asarray(self._a_ub.sum(axis=1)).ravel() + 0.1
        self.samples: List[float] = []
        self._pending: List[Tuple[float, float, List[float]]] = []
        self.last_ns = self.sample()

    def unit(self) -> float:
        """One unit of reference work; returns a value so none is elided."""
        table: dict = {}
        for key in self._keys:
            table[key % 61] = table.get(key % 61, 0.0) + key
        for _ in range(4):
            np.linalg.solve(self._matrix, self._rhs)
        result = linprog(
            self._cost, A_ub=self._a_ub, b_ub=self._b_ub, bounds=(0.0, 1.0), method="highs"
        )
        return float(result.fun) + table[0]

    def add(self, elapsed_ns: float, out: List[float]) -> None:
        """Queue ``elapsed_ns``, measured since the last sample, for ``out``."""
        self._pending.append((elapsed_ns, self.last_ns, out))

    def sample(self) -> float:
        """Time the kernel and normalize the queued times.

        Runs whole units, at least one, for ``REF_SHARE`` of the queued
        time.  Each queued time is scaled by ``REF_UNIT_MS`` over the
        mean unit time of the sample before it and this one.  Returns
        this sample's mean ns per unit and keeps it as ``last_ns``.
        """
        budget_ns = REF_SHARE * sum(pending[0] for pending in self._pending)
        units = 0
        start = time.perf_counter_ns()
        elapsed = 0
        while units == 0 or elapsed < budget_ns:
            self.unit()
            units += 1
            elapsed = time.perf_counter_ns() - start
        self.last_ns = elapsed / units
        self.samples.append(self.last_ns)
        for measured, before, out in self._pending:
            out.append(measured * REF_UNIT_MS * 1e6 / (0.5 * (before + self.last_ns)))
        self._pending.clear()
        return self.last_ns
