"""The analyzers behind ``python -m repro.lint`` beyond the per-file rules.

The determinism rules (:mod:`repro.analysis.determinism`), the call
graph (:mod:`repro.analysis.callgraph`) that the hot-path rules
(:mod:`repro.analysis.hotpath`) stand on, and the equation coverage
audit (:mod:`repro.analysis.equations`).  The rule catalogue and the
command line live in :mod:`repro.lint.cli`.  Result post-processing
(tables, averages, replication, reports) lives in
:mod:`repro.reporting`.
"""

from repro.analysis.determinism import (
    DETERMINISM_RULE_CLASSES,
    GlobalRngRule,
    SetIterationRule,
    WallclockRule,
)
from repro.analysis.callgraph import Program
from repro.analysis.hotpath import HOTPATH_RULES, check_hot_path
from repro.analysis.equations import (
    EquationEntry,
    audit_equations,
    load_manifest,
)

__all__ = [
    "DETERMINISM_RULE_CLASSES",
    "GlobalRngRule",
    "SetIterationRule",
    "WallclockRule",
    "Program",
    "HOTPATH_RULES",
    "check_hot_path",
    "EquationEntry",
    "audit_equations",
    "load_manifest",
]
