"""The checker's CLI contract: exit codes, ``--ignore``, SARIF.

``python -m repro.lint`` promises 0 clean / 1 findings / 2 internal
error, ``--ignore`` as the complement of ``--select``, and a ``sarif``
emitter for GitHub code scanning — for the per-file rules and for the
whole-program hot-path rules alike.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.cli import main as lint_main
from repro.lint.emitter import render_sarif
from repro.lint.rules import Finding

LINT_BAD = "import numpy as np\nnp.random.seed(0)\n"

#: A hot-path root with a per-node loop (R040).
HOT_BAD = """\
class SlotSimulator:
    def step(self, num_nodes: int) -> None:
        for node in range(num_nodes):
            print(node)
"""

CLEAN = '''\
"""Implements Eq. 3."""


def f(x: float) -> float:
    return x
'''


@pytest.fixture()
def workdir(tmp_path, monkeypatch) -> Path:
    # Run each call from a scratch directory, away from the repo tree.
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _module_main(argv: list[str]) -> int:
    # The same CLI through its ``python -m repro.lint`` entry point.
    src_root = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv],
        env=dict(os.environ, PYTHONPATH=str(src_root)),
        capture_output=True,
        timeout=120,
    )
    return done.returncode


def _hot_file(workdir: Path) -> Path:
    # Outside src/repro, so the equation audit stays out of the run.
    target = workdir / "pkg" / "repro" / "sim" / "engine.py"
    target.parent.mkdir(parents=True)
    target.write_text(HOT_BAD)
    return target


class TestExitCodes:
    @pytest.mark.parametrize("main", [lint_main, _module_main], ids=["main0", "main1"])
    def test_clean_exits_zero(self, main, workdir):
        target = workdir / "clean.py"
        target.write_text(CLEAN)
        assert main([str(target)]) == 0

    def test_lint_findings_exit_one(self, workdir):
        target = workdir / "bad.py"
        target.write_text(LINT_BAD)
        assert lint_main([str(target)]) == 1

    def test_analysis_findings_exit_one(self, workdir):
        assert lint_main([str(_hot_file(workdir))]) == 1

    @pytest.mark.parametrize("main", [lint_main, _module_main], ids=["main0", "main1"])
    def test_missing_path_exits_two(self, main, workdir):
        assert main(["definitely/not/a/path"]) == 2


class TestIgnore:
    def test_lint_ignore_suppresses_rule(self, workdir, capsys):
        target = workdir / "bad.py"
        target.write_text(LINT_BAD)
        assert lint_main([str(target), "--ignore", "R030"]) == 0
        capsys.readouterr()

    def test_lint_ignore_composes_with_select(self, workdir, capsys):
        target = workdir / "bad.py"
        target.write_text(LINT_BAD)
        assert lint_main([str(target), "--select", "R030", "--ignore", "R030"]) == 0
        assert lint_main([str(target), "--select", "R030", "--ignore", "R002"]) == 1
        capsys.readouterr()

    def test_lint_ignore_rejects_unknown_rule(self, workdir):
        target = workdir / "bad.py"
        target.write_text(LINT_BAD)
        with pytest.raises(SystemExit):
            lint_main([str(target), "--ignore", "R999"])

    def test_analysis_ignore_suppresses_family_prefix(self, workdir, capsys):
        assert lint_main([str(_hot_file(workdir)), "--ignore", "R04"]) == 0
        capsys.readouterr()


class TestSarif:
    def test_lint_sarif_log_shape(self, workdir, capsys):
        target = workdir / "bad.py"
        target.write_text(LINT_BAD)
        assert lint_main([str(target), "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro.lint"
        result = next(r for r in run["results"] if r["ruleId"] == "R030")
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("bad.py")
        assert location["region"]["startLine"] == 2
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert "R030" in rule_ids

    def test_analysis_sarif_names_its_tool(self, workdir, capsys):
        # Whole-program findings share the one tool's SARIF log.
        assert lint_main([str(_hot_file(workdir)), "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro.lint"
        assert {r["ruleId"] for r in run["results"]} == {"R040"}

    def test_clean_run_emits_empty_results(self, workdir, capsys):
        target = workdir / "clean.py"
        target.write_text(CLEAN)
        assert lint_main([str(target), "--format", "sarif"]) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["runs"][0]["results"] == []

    def test_render_sarif_rule_titles(self):
        finding = Finding(
            path="src/x.py", line=1, col=1, rule_id="R040", message="m"
        )
        (text,) = render_sarif([finding], {"R040": "no hot loops"})
        log = json.loads(text)
        (rule,) = [
            r
            for r in log["runs"][0]["tool"]["driver"]["rules"]
            if r["id"] == "R040"
        ]
        assert rule["shortDescription"]["text"] == "no hot loops"
