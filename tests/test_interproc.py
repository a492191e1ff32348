"""Whole-program units propagation across module boundaries.

The per-function units pass checks arguments only against signatures
declared in the same file; :func:`repro.analysis.dataflow.run_units`
resolves calls through the program import map into every module's
annotated signatures.  The suite pins a ``Watts`` argument handed to a
``Joules`` parameter declared in another module, and the clean-tree
invariant.
"""

from __future__ import annotations

import textwrap
from typing import Dict

from repro.analysis.callgraph import Program
from repro.analysis.cli import analyze_sources
from repro.analysis.dataflow import run_units


def _dedent(sources: Dict[str, str]) -> Dict[str, str]:
    return {path: textwrap.dedent(src) for path, src in sources.items()}


class TestUnitsPropagation:
    def test_unit_mismatch_across_modules(self):
        findings = analyze_sources(
            _dedent(
                {
                    "src/repro/solvers/u.py": """
                    from repro.units import Joules

                    def absorb(e: Joules) -> Joules:
                        return e
                    """,
                    "src/repro/control/v.py": """
                    from repro.units import Watts
                    from repro.solvers.u import absorb

                    def run(p: Watts):
                        return absorb(p)
                    """,
                }
            )
        )
        r010 = [f for f in findings if f.rule_id == "R010"]
        assert len(r010) == 1
        assert r010[0].path == "src/repro/control/v.py"


class TestEngineMechanics:
    def test_real_tree_is_clean(self):
        program = Program.load(["src/repro"])
        assert run_units(program) == []
