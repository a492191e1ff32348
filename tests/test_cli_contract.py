"""Shared CLI contract: ``--ignore``, exit codes, SARIF, the cache.

Both front ends promise the same interface — 0 clean / 1 findings /
2 internal error, ``--ignore`` as the complement of ``--select``, a
``sarif`` emitter for GitHub code scanning, and a content-hash
findings cache under ``.cache/analysis/`` with a ``--no-cache``
escape hatch.  Each promise gets a test per tool.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.cli import main as analysis_main
from repro.lint.cli import main as lint_main
from repro.lint.emitter import render_sarif
from repro.lint.rules import Finding

REPO_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

LINT_BAD = "import numpy as np\nnp.random.seed(0)\n"

UNITS_BAD = '''\
"""Implements Eq. 3."""

from repro.units import Joules, Watts


def f(e: Joules, p: Watts) -> float:
    return e + p
'''

CLEAN = '''\
"""Implements Eq. 3."""


def f(x: float) -> float:
    return x
'''


@pytest.fixture()
def workdir(tmp_path, monkeypatch) -> Path:
    # Isolate the .cache/ directory each CLI writes.
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestExitCodes:
    @pytest.mark.parametrize("main", [lint_main, analysis_main])
    def test_clean_exits_zero(self, main, workdir):
        target = workdir / "clean.py"
        target.write_text(CLEAN)
        assert main([str(target)]) == 0

    def test_lint_findings_exit_one(self, workdir):
        target = workdir / "bad.py"
        target.write_text(LINT_BAD)
        assert lint_main([str(target)]) == 1

    def test_analysis_findings_exit_one(self, workdir):
        target = workdir / "bad.py"
        target.write_text(UNITS_BAD)
        assert analysis_main([str(target)]) == 1

    @pytest.mark.parametrize("main", [lint_main, analysis_main])
    def test_missing_path_exits_two(self, main, workdir):
        assert main(["definitely/not/a/path"]) == 2


class TestIgnore:
    def test_lint_ignore_suppresses_rule(self, workdir, capsys):
        target = workdir / "bad.py"
        target.write_text(LINT_BAD)
        assert lint_main([str(target), "--ignore", "R001"]) == 0
        capsys.readouterr()

    def test_lint_ignore_composes_with_select(self, workdir, capsys):
        target = workdir / "bad.py"
        target.write_text(LINT_BAD)
        assert lint_main([str(target), "--select", "R001", "--ignore", "R001"]) == 0
        assert lint_main([str(target), "--select", "R001", "--ignore", "R002"]) == 1
        capsys.readouterr()

    def test_lint_ignore_rejects_unknown_rule(self, workdir):
        target = workdir / "bad.py"
        target.write_text(LINT_BAD)
        with pytest.raises(SystemExit):
            lint_main([str(target), "--ignore", "R999"])

    def test_analysis_ignore_suppresses_family_prefix(self, workdir, capsys):
        target = workdir / "bad.py"
        target.write_text(UNITS_BAD)
        assert analysis_main([str(target), "--ignore", "R01"]) == 0
        capsys.readouterr()

    def test_analysis_ignore_rejects_unknown_rule(self, workdir):
        target = workdir / "bad.py"
        target.write_text(UNITS_BAD)
        with pytest.raises(SystemExit):
            analysis_main([str(target), "--ignore", "R999"])


class TestSarif:
    def test_lint_sarif_log_shape(self, workdir, capsys):
        target = workdir / "bad.py"
        target.write_text(LINT_BAD)
        assert lint_main([str(target), "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro.lint"
        result = next(r for r in run["results"] if r["ruleId"] == "R001")
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("bad.py")
        assert location["region"]["startLine"] == 2
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert "R001" in rule_ids

    def test_analysis_sarif_names_its_tool(self, workdir, capsys):
        target = workdir / "bad.py"
        target.write_text(UNITS_BAD)
        assert analysis_main([str(target), "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro.analysis"
        assert {r["ruleId"] for r in run["results"]} == {"R010"}

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
        (text,) = render_sarif(
            [finding], "repro.analysis", {"R040": "no hot loops"}
        )
        log = json.loads(text)
        (rule,) = [
            r
            for r in log["runs"][0]["tool"]["driver"]["rules"]
            if r["id"] == "R040"
        ]
        assert rule["shortDescription"]["text"] == "no hot loops"


class TestCache:
    def test_analysis_cache_round_trips_findings(self, workdir, capsys):
        target = workdir / "bad.py"
        target.write_text(UNITS_BAD)
        assert analysis_main([str(target)]) == 1
        first = capsys.readouterr().out
        cached_entries = list((workdir / ".cache" / "analysis").glob("*.json"))
        assert cached_entries
        assert analysis_main([str(target)]) == 1
        assert capsys.readouterr().out == first

    def test_analysis_cache_invalidates_on_edit(self, workdir, capsys):
        target = workdir / "bad.py"
        target.write_text(UNITS_BAD)
        assert analysis_main([str(target)]) == 1
        capsys.readouterr()
        target.write_text(CLEAN)
        assert analysis_main([str(target)]) == 0
        assert capsys.readouterr().out == ""

    def test_no_cache_leaves_no_entries(self, workdir, capsys):
        target = workdir / "bad.py"
        target.write_text(UNITS_BAD)
        assert analysis_main([str(target), "--no-cache"]) == 1
        capsys.readouterr()
        assert not (workdir / ".cache").exists()

    def test_lint_cache_is_per_file(self, workdir, capsys):
        good = workdir / "a_clean.py"
        good.write_text(CLEAN)
        bad = workdir / "b_bad.py"
        bad.write_text(LINT_BAD)
        assert lint_main([str(good), str(bad)]) == 1
        capsys.readouterr()
        entries = list((workdir / ".cache" / "analysis").glob("*.json"))
        assert len(entries) == 2
        # Editing one file leaves the other's entry valid.
        bad.write_text(CLEAN)
        assert lint_main([str(good), str(bad)]) == 0
        capsys.readouterr()

    def test_cached_and_uncached_findings_agree(self, workdir, capsys):
        target = workdir / "bad.py"
        target.write_text(LINT_BAD)
        assert lint_main([str(target)]) == 1
        warm = capsys.readouterr().out
        assert lint_main([str(target)]) == 1
        cached = capsys.readouterr().out
        assert lint_main([str(target), "--no-cache"]) == 1
        uncached = capsys.readouterr().out
        assert warm == cached == uncached

    @pytest.mark.parametrize(
        "tool, source, module, message",
        [
            (
                "repro.lint",
                LINT_BAD,
                "lint/rules.py",
                "is forbidden: use an explicit np.random.Generator",
            ),
            (
                "repro.analysis",
                UNITS_BAD,
                "analysis/dataflow.py",
                "(insert the repro.constants converter for this pair)",
            ),
        ],
        ids=["lint", "analysis"],
    )
    def test_checker_edit_invalidates_cache(
        self, tmp_path, tool, source, module, message
    ):
        # A copy of the package whose rule message is then edited: the
        # warm cache must not serve the findings of the old code.
        package = tmp_path / "pkg" / "repro"
        shutil.copytree(
            REPO_PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__")
        )
        work = tmp_path / "work"
        work.mkdir()
        (work / "bad.py").write_text(source)
        env = dict(os.environ, PYTHONPATH=str(package.parent))

        def run() -> str:
            done = subprocess.run(
                [sys.executable, "-m", tool, "bad.py"],
                cwd=work,
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert done.returncode == 1, done.stderr
            return done.stdout

        assert message in run()
        assert list((work / ".cache" / "analysis").glob("*.json"))
        rule_file = package / module
        text = rule_file.read_text(encoding="utf-8")
        assert text.count(message) == 1
        rule_file.write_text(
            text.replace(message, "EDITED RULE MESSAGE"), encoding="utf-8"
        )
        out = run()
        assert "EDITED RULE MESSAGE" in out
        assert message not in out
