"""The repo's one static checker, ``python -m repro.lint``.

Run as ``python -m repro.lint src tests benchmarks``; see
``python -m repro.lint --explain`` for the rule catalogue and
``docs/analysis.md`` for the rationale.  One pass applies the per-file
rules (R002-R006 here, R030-R032 from ``repro.analysis.determinism``),
the hot-path rules R040-R042 over the library's call graph and the
EQ001-EQ003 equation audit.
"""

from __future__ import annotations

from repro.lint.rules import ALL_RULES, FileContext, Finding, Rule, RuleInfo

__all__ = ["ALL_RULES", "FileContext", "Finding", "Rule", "RuleInfo"]
