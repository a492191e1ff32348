"""Command-line front end for the static dataflow/equations analysis.

Usage::

    python -m repro.analysis [PATH ...] [--select R010,R03] [--ignore R04]
                             [--explain [RULE]]
                             [--format text|json|github|sarif]
                             [--no-cache]
    python -m repro.analysis --equations [--manifest docs/equations.toml]
                             [--src src/repro]

The default invocation builds the package call graph over the given
paths (default: ``src``) and runs every checker family, reusing the
``repro.lint`` discovery, noqa and output conventions:

* the units/dimension dataflow analysis (R010-R012), propagated
  through the call graph into signatures declared in other modules;
* the determinism rules (R030-R032);
* the hot-path complexity/allocation rules (R040-R042).

``--select`` accepts exact ids or prefixes — ``--select R01,R03``
selects both whole families — and ``--ignore`` subtracts ids the same
way.  A token that matches no rule id exits 2, so a stale family
prefix can never select nothing and pass.  ``--equations`` instead
cross-checks the docstring equation citations against the
``docs/equations.toml`` manifest (EQ001-EQ003).

Exit status: 0 clean, 1 findings reported, 2 internal/usage error —
identical to ``python -m repro.lint``, so both slot into
``scripts/check.sh``, pre-commit and CI the same way.  Results are
memoized under ``.cache/analysis/`` keyed by file content hashes and
the checker's own sources (``--no-cache`` bypasses).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Mapping, Optional, Sequence, Set

from repro.analysis.callgraph import Program
from repro.analysis.dataflow import run_units
from repro.analysis.determinism import DETERMINISM_RULE_CLASSES
from repro.analysis.equations import (
    DEFAULT_MANIFEST,
    DEFAULT_SRC_ROOT,
    EQUATION_RULES,
    audit_equations,
)
from repro.analysis.hotpath import check_hot_path
from repro.analysis.registry import ANALYZER_RULE_IDS, RULE_REGISTRY
from repro.lint.cache import DEFAULT_CACHE_DIR, FindingsCache, content_digest
from repro.lint.cli import discover_files
from repro.lint.emitter import FORMATS, emit
from repro.lint.rules import Finding


def run_program_analysis(program: Program) -> List[Finding]:
    """Every checker family over an already-built :class:`Program`."""
    findings: List[Finding] = list(program.parse_findings)
    findings.extend(run_units(program))
    determinism = [cls() for cls in DETERMINISM_RULE_CLASSES]
    for name in sorted(program.modules):
        ctx = program.modules[name].ctx
        for rule in determinism:
            findings.extend(rule.check(ctx))
    findings.extend(check_hot_path(program))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


def analyze_paths(paths: Sequence[str]) -> List[Finding]:
    """Build the program from files/directories and analyze it."""
    return run_program_analysis(Program.load(paths))


def analyze_sources(sources: Mapping[str, str]) -> List[Finding]:
    """Analyze an in-memory {display_path: source} tree (for tests)."""
    return run_program_analysis(Program.from_sources(sources))


def _explain(rule_id: Optional[str]) -> int:
    """Print the analysis rule catalogue (or one rule's rationale)."""
    if rule_id is None:
        for rid in ANALYZER_RULE_IDS:
            print(f"{rid}  {RULE_REGISTRY[rid].title}")
        for eq_id in EQUATION_RULES:
            print(f"{eq_id}  {RULE_REGISTRY[eq_id].title}")
        print()
        print("Use --explain RULE_ID for the full rationale of one rule.")
        return 0
    key = rule_id.upper()
    info = RULE_REGISTRY.get(key)
    if info is not None:
        print(f"{info.rule_id} — {info.title}")
        print()
        print(info.explain)
        return 0
    print(f"unknown rule id: {rule_id}", file=sys.stderr)
    return 2


def _selected_ids(
    spec: Optional[str], valid: Sequence[str], option: str = "--select"
) -> Optional[Set[str]]:
    """Resolve ``--select``/``--ignore`` into a set of ids (None = unset).

    Tokens match exactly or as prefixes: ``R03`` selects every
    ``R03x`` rule, ``R0`` selects all R-rules of the family list.
    """
    if spec is None:
        return None
    chosen: Set[str] = set()
    for token in spec.split(","):
        token = token.strip().upper()
        if not token:
            continue
        matched = {rid for rid in valid if rid.startswith(token)}
        if not matched:
            print(
                f"repro.analysis: unknown rule id in {option}: {token} "
                f"(valid: {', '.join(valid)})",
                file=sys.stderr,
            )
            raise SystemExit(2)
        chosen.update(matched)
    return chosen


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit status.

    0 clean, 1 findings, 2 internal or usage error; 141 when a
    downstream pipe closes early (``... | head``).
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
        print(f"repro.analysis: internal error: {exc!r}", file=sys.stderr)
        return 2


def _run(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Whole-program units/dimension analysis (R010-R012), "
        "determinism rules (R030-R032), hot-path complexity rules "
        "(R040-R042) and paper-equation coverage audit (EQ001-EQ003).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--equations",
        action="store_true",
        help="run the equation-coverage audit instead of the units analysis",
    )
    parser.add_argument(
        "--manifest",
        default=str(DEFAULT_MANIFEST),
        metavar="TOML",
        help="equations manifest path (default: docs/equations.toml)",
    )
    parser.add_argument(
        "--src",
        default=str(DEFAULT_SRC_ROOT),
        metavar="DIR",
        help="tree whose docstrings the audit scans (default: src/repro)",
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
        help="comma-separated rule ids or prefixes to report, e.g. "
        "R010,R03 (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to suppress (complement of --select)",
    )
    parser.add_argument(
        "--format",
        dest="output_format",
        choices=FORMATS,
        default="text",
        help="output encoding: text lines, a json object, GitHub Actions "
        "::error annotations, or a SARIF 2.1.0 log",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the .cache/analysis/ findings cache",
    )
    args = parser.parse_args(argv)

    if args.explain is not None:
        return _explain(args.explain or None)

    if args.equations:
        manifest = Path(args.manifest)
        src_root = Path(args.src)
        if not manifest.is_file():
            print(f"repro.analysis: no such manifest: {manifest}", file=sys.stderr)
            return 2
        if not src_root.exists():
            print(f"repro.analysis: no such source tree: {src_root}", file=sys.stderr)
            return 2
        selected = _selected_ids(args.select, tuple(EQUATION_RULES))
        ignored = _selected_ids(args.ignore, tuple(EQUATION_RULES), "--ignore")
        findings = audit_equations(manifest, src_root).findings
        label = "equation-audit finding(s)"
    else:
        selected = _selected_ids(args.select, ANALYZER_RULE_IDS)
        ignored = _selected_ids(args.ignore, ANALYZER_RULE_IDS, "--ignore")
        paths = args.paths or ["src"]
        try:
            findings = _analyze_cached(paths, use_cache=not args.no_cache)
        except FileNotFoundError as exc:
            print(f"repro.analysis: {exc}", file=sys.stderr)
            return 2
        label = "finding(s)"

    if selected is not None:
        findings = [f for f in findings if f.rule_id in selected or f.rule_id == "E999"]
    if ignored:
        findings = [f for f in findings if f.rule_id not in ignored]

    emit(
        findings,
        args.output_format,
        tool_name="repro.analysis",
        rule_titles={rid: RULE_REGISTRY[rid].title for rid in RULE_REGISTRY},
    )
    if findings:
        files = len({f.path for f in findings})
        print(
            f"repro.analysis: {len(findings)} {label} in {files} file(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def _analyze_cached(paths: Sequence[str], use_cache: bool) -> List[Finding]:
    """Run :func:`analyze_paths`, memoized on the tree content hash.

    The units pass is whole-program — one edited module can
    change findings elsewhere through the call graph — so the cache
    key covers every discovered file; any edit re-runs the full pass.
    Filtering (``--select``/``--ignore``) happens after lookup, so one
    entry serves every selection.
    """
    if not use_cache:
        return analyze_paths(paths)
    files = discover_files(paths)
    items = []
    for path in files:
        try:
            items.append((str(path), content_digest(path.read_text(encoding="utf-8"))))
        except (OSError, UnicodeDecodeError):
            return analyze_paths(paths)
    cache = FindingsCache(DEFAULT_CACHE_DIR, "repro.analysis", "program")
    key = cache.key(items)
    cached = cache.load(key)
    if cached is not None:
        return cached
    findings = analyze_paths(paths)
    cache.store(key, findings)
    return findings


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
