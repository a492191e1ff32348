"""The unified rule registry: every rule id, title and rationale.

One lookup table across all five checker families:

* ``R001``-``R006`` — the AST lint rules (``repro.lint``);
* ``R010``-``R012`` — the units/dimension dataflow analysis;
* ``R030``-``R032`` — the determinism rules;
* ``R040``-``R042`` — the hot-path complexity/allocation rules;
* ``EQ001``-``EQ003`` — the paper-equation coverage audit.

The registry backs ``python -m repro.analysis --explain`` and the
registry test (every id must carry non-empty explain text plus one
positive and one negative fixture), so a new rule cannot land
undocumented.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analysis.dataflow import ANALYSIS_RULES, AnalysisRuleInfo
from repro.analysis.determinism import DETERMINISM_RULES
from repro.analysis.equations import EQUATION_RULES
from repro.analysis.hotpath import HOTPATH_RULES
from repro.lint.rules import ALL_RULES


def _build() -> Dict[str, AnalysisRuleInfo]:
    registry: Dict[str, AnalysisRuleInfo] = {}
    for rule in ALL_RULES:
        registry[rule.rule_id] = AnalysisRuleInfo(
            rule.rule_id, rule.title, rule.explain
        )
    for family in (ANALYSIS_RULES, DETERMINISM_RULES, HOTPATH_RULES):
        registry.update(family)
    for eq_id, (title, explain) in EQUATION_RULES.items():
        registry[eq_id] = AnalysisRuleInfo(eq_id, title, explain)
    return registry


#: Rule id -> catalogue entry, across every checker family.
RULE_REGISTRY: Dict[str, AnalysisRuleInfo] = _build()

#: Every rule id, in catalogue order (R-rules numerically, EQ last).
ALL_RULE_IDS: Tuple[str, ...] = tuple(
    sorted(RULE_REGISTRY, key=lambda rid: (rid.startswith("EQ"), rid))
)

#: The ids emitted by ``python -m repro.analysis`` (no --equations):
#: the whole-program units analysis, the determinism rules and the
#: hot-path call-graph rules.
ANALYZER_RULE_IDS: Tuple[str, ...] = tuple(
    sorted(set(ANALYSIS_RULES) | set(DETERMINISM_RULES) | set(HOTPATH_RULES))
)
