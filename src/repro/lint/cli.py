"""The repo's one static checker: ``python -m repro.lint``.

Usage::

    python -m repro.lint [PATH ...] [--select R002,R03] [--ignore R006]
                         [--explain [RULE]]
                         [--format text|json|github|sarif]

Paths may be files or directories (default: ``src tests benchmarks``);
directories are walked recursively for ``*.py``, skipping VCS/build/
cache trees.  Every file is parsed once, and one pass applies

* the per-file rules — R002-R006 (:mod:`repro.lint.rules`) and the
  determinism rules R030-R032 (:mod:`repro.analysis.determinism`) —
  to every file;
* the hot-path rules R040-R042 (:mod:`repro.analysis.hotpath`) to the
  call graph of the library files among them;
* the EQ001-EQ003 audit of ``docs/equations.toml`` against the package
  source (:mod:`repro.analysis.equations`), when the paths include
  ``src/repro``.

``--select`` and ``--ignore`` take exact ids or prefixes (``R03``
is R030-R032); a token that matches no rule exits 2, so a stale id can
never select nothing and pass.  Findings print as
``path:line:col: RULE message``.  Exit status: 0 clean, 1 findings
(or unparsable files), 2 internal/usage error — so the command slots
directly into ``scripts/check.sh``, pre-commit and CI.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.callgraph import Program
from repro.analysis.determinism import GlobalRngRule, SetIterationRule, WallclockRule
from repro.analysis.equations import (
    DEFAULT_MANIFEST,
    DEFAULT_SRC_ROOT,
    EQUATION_RULES,
    audit_equations,
)
from repro.analysis.hotpath import HOTPATH_RULES, check_hot_path
from repro.lint.emitter import FORMATS, emit
from repro.lint.rules import ALL_RULES, FileContext, Finding, Rule, RuleInfo

#: Directory names never descended into during discovery.
SKIP_DIRS = frozenset(
    {
        ".git",
        "__pycache__",
        ".hypothesis",
        ".pytest_cache",
        ".mypy_cache",
        ".ruff_cache",
        "build",
        "dist",
        ".venv",
        "venv",
    }
)

#: The rules applied to each file on its own, in id order.
FILE_RULES: Tuple[Rule, ...] = (
    *ALL_RULES,
    GlobalRngRule(),
    WallclockRule(),
    SetIterationRule(),
)

#: Rule id -> catalogue entry, for every rule the checker reports, in
#: id order (R-rules numerically, EQ last).
CATALOGUE: Dict[str, RuleInfo] = {
    **{rule.rule_id: RuleInfo(rule.rule_id, rule.title, rule.explain) for rule in FILE_RULES},
    **HOTPATH_RULES,
    **EQUATION_RULES,
}


def discover_files(paths: Sequence[str]) -> List[Path]:
    """Expand the CLI path arguments into a sorted list of .py files."""
    found: List[Path] = []
    seen = set()
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            candidates: Iterable[Path] = [root] if root.suffix == ".py" else []
        elif root.is_dir():
            candidates = sorted(root.rglob("*.py"))
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for path in candidates:
            if any(
                part in SKIP_DIRS or part.endswith(".egg-info")
                for part in path.parts
            ):
                continue
            key = path.resolve()
            if key not in seen:
                seen.add(key)
                found.append(path)
    return found


def parse_paths(paths: Sequence[str]) -> Tuple[List[FileContext], List[Finding]]:
    """Parse every file under ``paths``: the parsed files, plus one
    E999 finding per file that does not parse."""
    files: List[FileContext] = []
    errors: List[Finding] = []
    for path in discover_files(paths):
        display = str(path)
        try:
            files.append(
                FileContext.parse(path, display, path.read_text(encoding="utf-8"))
            )
        except SyntaxError as exc:
            errors.append(Finding.syntax_error(display, exc))
    return files, errors


def lint_source(
    source: str,
    display_path: str,
    rules: Sequence[Rule],
    path: Optional[Path] = None,
) -> List[Finding]:
    """Apply per-file ``rules`` to one file's source; raises SyntaxError."""
    ctx = FileContext.parse(
        path if path is not None else Path(display_path), display_path, source
    )
    return [finding for rule in rules for finding in rule.check(ctx)]


def check_paths(paths: Sequence[str], chosen: FrozenSet[str]) -> List[Finding]:
    """Every finding of the ``chosen`` rules over ``paths``, plus E999
    for unparsable files, sorted by location."""
    files, findings = parse_paths(paths)
    rules = [rule for rule in FILE_RULES if rule.rule_id in chosen]
    for ctx in files:
        findings.extend(finding for rule in rules for finding in rule.check(ctx))
    if chosen & HOTPATH_RULES.keys():
        program = Program(ctx for ctx in files if ctx.is_library)
        findings.extend(_only(check_hot_path(program), chosen))
    if chosen & EQUATION_RULES.keys() and _includes_package(files):
        audit = audit_equations(
            DEFAULT_MANIFEST,
            DEFAULT_SRC_ROOT,
            parsed={ctx.path.resolve(): ctx.tree for ctx in files},
        )
        findings.extend(_only(audit.findings, chosen))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


def _only(findings: Iterable[Finding], chosen: FrozenSet[str]) -> List[Finding]:
    return [finding for finding in findings if finding.rule_id in chosen]


def _includes_package(files: Sequence[FileContext]) -> bool:
    """True when some checked file lies under ``src/repro``, the tree
    the equation audit scans."""
    package = DEFAULT_SRC_ROOT.resolve()
    return any(package in ctx.path.resolve().parents for ctx in files)


def _explain(rule_id: Optional[str]) -> int:
    """Print the rule catalogue (or one rule's full rationale)."""
    if rule_id is None:
        for info in CATALOGUE.values():
            print(f"{info.rule_id}  {info.title}")
        print()
        print("Use --explain RULE_ID for the full rationale of one rule.")
        return 0
    info = CATALOGUE.get(rule_id.upper())
    if info is None:
        print(f"unknown rule id: {rule_id}", file=sys.stderr)
        return 2
    print(f"{info.rule_id} — {info.title}")
    print()
    print(info.explain)
    return 0


def _matched_ids(spec: Optional[str], option: str) -> Optional[FrozenSet[str]]:
    """Resolve a comma-separated list of ids or id prefixes (None = unset)."""
    if spec is None:
        return None
    matched: set[str] = set()
    for token in spec.split(","):
        token = token.strip().upper()
        if not token:
            continue
        ids = {rule_id for rule_id in CATALOGUE if rule_id.startswith(token)}
        if not ids:
            print(
                f"repro.lint: unknown rule id in {option}: {token} "
                f"(valid: {', '.join(CATALOGUE)})",
                file=sys.stderr,
            )
            raise SystemExit(2)
        matched |= ids
    return frozenset(matched)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit status.

    0 clean, 1 findings, 2 internal or usage error.  Tolerates a
    downstream pipe closing early (``... | head``) by exiting 141
    (128 + SIGPIPE) instead of tracebacking.
    """
    try:
        return _run(argv)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except SystemExit:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        print(f"repro.lint: internal error: {exc!r}", file=sys.stderr)
        return 2


def _run(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="The repo's static checker: per-file rules (R002-R006, "
        "R030-R032), hot-path rules (R040-R042) and the equation audit "
        "(EQ001-EQ003).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to check (default: src tests benchmarks)",
    )
    parser.add_argument(
        "--explain",
        nargs="?",
        const="",
        default=None,
        metavar="RULE",
        help="print the rule catalogue, or one rule's full rationale",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids or prefixes to run, e.g. R002,R03 "
        "(default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids or prefixes to skip",
    )
    parser.add_argument(
        "--format",
        dest="output_format",
        choices=FORMATS,
        default="text",
        help="output encoding: text lines, a json object, GitHub "
        "Actions ::error annotations, or a SARIF 2.1.0 log",
    )
    args = parser.parse_args(argv)

    if args.explain is not None:
        return _explain(args.explain or None)

    chosen = _matched_ids(args.select, "--select")
    selected = frozenset(CATALOGUE) if chosen is None else chosen
    selected -= _matched_ids(args.ignore, "--ignore") or frozenset()
    try:
        findings = check_paths(args.paths or ["src", "tests", "benchmarks"], selected)
    except FileNotFoundError as exc:
        print(f"repro.lint: {exc}", file=sys.stderr)
        return 2
    emit(
        findings,
        args.output_format,
        rule_titles={rule_id: info.title for rule_id, info in CATALOGUE.items()},
    )
    if findings:
        files = len({f.path for f in findings})
        print(
            f"repro.lint: {len(findings)} finding(s) in {files} file(s)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
