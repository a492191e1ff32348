"""Mutation-detection: the analyzer catches injected regressions.

An analysis rule is only worth its runtime if it fires when the
defect it guards against is actually introduced.  These tests copy
the real tree, inject a representative regression — a per-node Python
loop into the router's hot path (R040) — and assert the analyzer
flags exactly the injected site while the un-mutated copy stays
clean.
"""

from __future__ import annotations

import ast
import shutil
from pathlib import Path
from typing import List

import pytest

from repro.analysis.callgraph import Program
from repro.analysis.hotpath import check_hot_path
from repro.lint.cli import parse_paths
from repro.lint.rules import Finding

REPO_SRC = Path("src/repro")


@pytest.fixture()
def tree(tmp_path) -> Path:
    target = tmp_path / "repro"
    shutil.copytree(REPO_SRC, target)
    return target


def _insert_into_method(
    path: Path, class_name: str, method: str, lines: List[str]
) -> int:
    """Insert ``lines`` at the top of a method body (after any
    docstring), preserving indentation; returns the insertion line."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            for item in node.body:
                if (
                    isinstance(item, ast.FunctionDef)
                    and item.name == method
                ):
                    anchor = item.body[0]
                    if (
                        isinstance(anchor, ast.Expr)
                        and isinstance(anchor.value, ast.Constant)
                        and len(item.body) > 1
                    ):
                        anchor = item.body[1]
                    indent = " " * anchor.col_offset
                    raw = source.splitlines(keepends=True)
                    at = anchor.lineno - 1
                    raw[at:at] = [indent + line + "\n" for line in lines]
                    path.write_text("".join(raw), encoding="utf-8")
                    return anchor.lineno
    raise AssertionError(f"{class_name}.{method} not found in {path}")


def _findings(root: Path, check) -> List[Finding]:
    files, _ = parse_paths([str(root)])
    return check(Program(files))


class TestRouterLoopInjection:
    def test_clean_copy_has_no_unsuppressed_r040(self, tree):
        findings = [
            f for f in _findings(tree, check_hot_path) if f.rule_id == "R040"
        ]
        assert findings == []

    def test_injected_per_node_loop_fires_r040(self, tree):
        at = _insert_into_method(
            tree / "control" / "router.py",
            "BackpressureRouter",
            "route",
            [
                "for node in range(self._model.num_nodes):",
                "    _ = node",
            ],
        )
        hits = [
            f
            for f in _findings(tree, check_hot_path)
            if f.rule_id == "R040" and f.path.endswith("control/router.py")
        ]
        assert [f.line for f in hits] == [at]
        assert "range(num_nodes)" in hits[0].message
        assert "route()" in hits[0].message
