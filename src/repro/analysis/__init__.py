"""The repo's static analyzers, behind ``python -m repro.analysis``.

The whole-program units dataflow pass (:mod:`repro.analysis.dataflow`
over the call graph of :mod:`repro.analysis.callgraph`), the
determinism rules (:mod:`repro.analysis.determinism`), the hot-path
call-graph rules (:mod:`repro.analysis.hotpath`) and the equation
coverage audit (:mod:`repro.analysis.equations`).  The unified rule
catalogue lives in :mod:`repro.analysis.registry`.  Result
post-processing (tables, averages, replication, reports) lives in
:mod:`repro.reporting`.
"""

from repro.analysis.dataflow import ANALYSIS_RULES, UnitDataflowRule
from repro.analysis.determinism import (
    DETERMINISM_RULES,
    GlobalRngRule,
    SetIterationRule,
    WallclockRule,
)
from repro.analysis.callgraph import Program
from repro.analysis.hotpath import HOTPATH_RULES, check_hot_path
from repro.analysis.registry import ALL_RULE_IDS, RULE_REGISTRY
from repro.analysis.equations import (
    EquationEntry,
    audit_equations,
    load_manifest,
)
from repro.analysis.unitlattice import Elem, join, meet, unit_elem

__all__ = [
    "ANALYSIS_RULES",
    "UnitDataflowRule",
    "DETERMINISM_RULES",
    "GlobalRngRule",
    "SetIterationRule",
    "WallclockRule",
    "Program",
    "HOTPATH_RULES",
    "check_hot_path",
    "ALL_RULE_IDS",
    "RULE_REGISTRY",
    "EquationEntry",
    "audit_equations",
    "load_manifest",
    "Elem",
    "join",
    "meet",
    "unit_elem",
]
