"""Tests for the project lint suite (``repro.lint``, rules R001-R006).

Each rule is exercised on seeded source snippets in both its firing
and its non-firing configuration (library vs. test context, noqa
suppression), and the CLI contract — exit codes, output format,
``--explain`` — is pinned down.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import ALL_RULES, RULES_BY_ID
from repro.lint.cli import discover_files, lint_source, main
from repro.lint.emitter import render
from repro.lint.rules import Finding

LIB = Path("src/repro/example.py")
TEST = Path("tests/test_example.py")
RNG = Path("src/repro/sim/rng.py")


def findings(source, path=LIB, rules=ALL_RULES):
    return lint_source(
        textwrap.dedent(source), str(path), rules, path=path
    )


def rule_ids(source, path=LIB):
    return {f.rule_id for f in findings(source, path)}


class TestR001RngDiscipline:
    def test_global_seed_flagged_everywhere(self):
        src = "import numpy as np\nnp.random.seed(1)\n"
        assert rule_ids(src, LIB) == {"R001"}
        assert rule_ids(src, TEST) == {"R001"}

    def test_legacy_draws_flagged(self):
        src = "import numpy as np\nx = np.random.uniform(0, 1)\n"
        assert rule_ids(src) == {"R001"}

    def test_randomstate_flagged(self):
        src = "import numpy as np\nr = np.random.RandomState(7)\n"
        assert rule_ids(src) == {"R001"}

    def test_default_rng_flagged_in_library(self):
        src = "import numpy as np\nrng = np.random.default_rng(42)\n"
        assert rule_ids(src, LIB) == {"R001"}

    def test_seeded_default_rng_allowed_in_tests(self):
        src = "import numpy as np\nrng = np.random.default_rng(42)\n"
        assert rule_ids(src, TEST) == set()
        keyword = "import numpy as np\nrng = np.random.default_rng(seed=42)\n"
        assert rule_ids(keyword, TEST) == set()

    def test_unseeded_default_rng_flagged_in_tests(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rule_ids(src, TEST) == {"R001"}

    def test_rng_module_exempt(self):
        src = "import numpy as np\nrng = np.random.default_rng(1)\n"
        assert rule_ids(src, RNG) == set()

    def test_alias_and_from_import_resolved(self):
        aliased = "import numpy.random as nr\nnr.shuffle([1])\n"
        assert rule_ids(aliased) == {"R001"}
        from_import = (
            "from numpy.random import default_rng\nrng = default_rng(3)\n"
        )
        assert rule_ids(from_import, LIB) == {"R001"}

    def test_unrelated_random_attribute_ignored(self):
        src = "import numpy as np\nx = np.random\n"  # no call
        assert rule_ids(src) == set()


class TestR002FloatEquality:
    def test_literal_eq_flagged(self):
        assert rule_ids("def f(x: float) -> bool:\n    return x == 0.0\n") == {
            "R002"
        }

    def test_literal_ne_and_negative_literal_flagged(self):
        assert "R002" in rule_ids("y = 1.0\nz = y != 2.5\n")
        assert "R002" in rule_ids("y = 1.0\nz = y == -1.0\n")

    def test_int_literal_and_computed_comparisons_allowed(self):
        assert rule_ids("y = 2\nz = y == 0\n") == set()
        assert rule_ids("a = 1.0\nb = 2.0\nz = a == b\n") == set()

    def test_exempt_in_tests(self):
        src = "def test_x():\n    assert 0.5 == 0.5\n"
        assert rule_ids(src, TEST) == set()

    def test_noqa_suppresses(self):
        src = "y = 1.0\nz = y == 0.0  # noqa: R002\n"
        assert rule_ids(src) == set()


class TestR003MutableDefaults:
    @pytest.mark.parametrize(
        "default", ["[]", "{}", "set()", "dict()", "list()", "{1: 2}"]
    )
    def test_mutable_default_flagged(self, default):
        src = f"def f(x={default}):\n    return x\n"
        assert "R003" in rule_ids(src)

    def test_kwonly_and_lambda_defaults_flagged(self):
        assert "R003" in rule_ids("def f(*, x=[]):\n    return x\n")
        assert "R003" in rule_ids("g = lambda x=[]: x\n")

    def test_immutable_defaults_allowed(self):
        src = "def f(x=None, y=(), z='a', w=1.5):\n    return x, y, z, w\n"
        ids = rule_ids(src)
        assert "R003" not in ids


class TestR004PublicAnnotations:
    def test_unannotated_public_function_flagged(self):
        src = "def f(x):\n    return x\n"
        assert "R004" in rule_ids(src)

    def test_missing_return_annotation_flagged(self):
        src = "def f(x: int):\n    return x\n"
        msgs = [f.message for f in findings(src) if f.rule_id == "R004"]
        assert any("return annotation" in m for m in msgs)

    def test_fully_annotated_clean(self):
        src = "def f(x: int, *args: int, **kw: int) -> int:\n    return x\n"
        assert "R004" not in rule_ids(src)

    def test_private_nested_and_test_code_exempt(self):
        assert "R004" not in rule_ids("def _f(x):\n    return x\n")
        nested = "def f() -> None:\n    def inner(x):\n        return x\n"
        assert "R004" not in rule_ids(nested)
        assert "R004" not in rule_ids("def f(x):\n    return x\n", TEST)

    def test_method_self_exempt_but_params_checked(self):
        src = (
            "class C:\n"
            "    def m(self, x) -> None:\n"
            "        self.x = x\n"
        )
        msgs = [f.message for f in findings(src) if f.rule_id == "R004"]
        assert len(msgs) == 1 and "x" in msgs[0]

    def test_outside_library_exempt(self):
        src = "def f(x):\n    return x\n"
        assert "R004" not in rule_ids(src, Path("scripts/tool.py"))


class TestR005EquationCitations:
    CONTROL = Path("src/repro/control/example.py")

    def test_missing_citation_flagged(self):
        src = '"""A control module with no citations."""\n'
        assert rule_ids(src, self.CONTROL) == {"R005"}

    def test_missing_docstring_flagged(self):
        assert rule_ids("x = 1\n", self.CONTROL) == {"R005"}

    @pytest.mark.parametrize(
        "citation",
        ["Eq. 15", "Eqs. 20-24", "constraint (19)", "Section IV-C"],
    )
    def test_citation_forms_accepted(self, citation):
        src = f'"""Implements {citation} of the paper."""\n'
        assert rule_ids(src, self.CONTROL) == set()

    def test_out_of_scope_modules_exempt(self):
        src = '"""No citations here."""\n'
        assert rule_ids(src, Path("src/repro/control/__init__.py")) == set()
        assert rule_ids(src, Path("src/repro/energy/renewable.py")) == set()


class TestR006HotPathDictLoops:
    QUEUEING = Path("src/repro/queueing/example.py")
    STATE = Path("src/repro/state.py")
    ROUTER = Path("src/repro/control/router.py")

    LOOP = """\
    class Bank:
        def _step(self):
            for key, queue in self._queues.items():
                queue.step(key)
    """

    def test_state_container_loop_flagged(self):
        assert rule_ids(self.LOOP, self.QUEUEING) == {"R006"}

    def test_comprehension_flagged(self):
        src = """\
        class Bank:
            def _snapshot(self):
                return {k: q.backlog for k, q in self._queues.items()}
        """
        assert rule_ids(src, self.QUEUEING) == {"R006"}

    def test_values_and_keys_flagged(self):
        src = """\
        class Bank:
            def _total(self):
                return sum(q.backlog for q in self._queues.values())

            def _names(self):
                return [k for k in self._queues.keys()]
        """
        found = findings(src, self.QUEUEING)
        assert [f.rule_id for f in found] == ["R006", "R006"]

    def test_bare_name_receiver_exempt(self):
        src = """\
        class Bank:
            def _step(self, transfer):
                for key, rate in transfer.items():
                    self._apply(key, rate)
        """
        assert rule_ids(src, self.QUEUEING) == set()

    def test_cold_path_docstring_exempts_function(self):
        src = '''\
        class Bank:
            def _build(self):
                """Cold path: runs once, before the slot loop."""
                for key, queue in self._queues.items():
                    queue.reset(key)
        '''
        assert rule_ids(src, self.QUEUEING) == set()

    def test_cold_path_exemption_covers_nested_scopes(self):
        src = '''\
        class Bank:
            def _build(self):
                """cold path constructor"""
                def inner():
                    return list(self._queues.items())
                return [k for k, _ in self._queues.items()]
        '''
        assert rule_ids(src, self.QUEUEING) == set()

    def test_module_docstring_marker_does_not_exempt(self):
        # A module docstring cannot opt a whole file out of R006; each
        # loop needs its own justified noqa.
        src = '"""Reference banks, R006-exempt."""\n' + textwrap.dedent(self.LOOP)
        assert rule_ids(src, self.QUEUEING) == {"R006"}

    def test_noqa_suppression(self):
        src = """\
        class Bank:
            def _step(self):
                for key, queue in self._queues.items():  # noqa: R006 - justified
                    queue.step(key)
        """
        assert rule_ids(src, self.QUEUEING) == set()

    @pytest.mark.parametrize(
        "path",
        [
            Path("src/repro/state.py"),
            Path("src/repro/control/router.py"),
            Path("src/repro/control/scheduler.py"),
            Path("src/repro/queueing/backlog.py"),
            Path("src/repro/core/arraystate.py"),
        ],
    )
    def test_hot_path_modules_in_scope(self, path):
        src = self.LOOP
        if path.parent.name == "control":
            src = '"""Implements Eq. 15."""\n' + textwrap.dedent(src)
        assert "R006" in rule_ids(src, path)

    @pytest.mark.parametrize(
        "path",
        [
            Path("src/repro/energy/renewable.py"),
            Path("src/repro/control/controller.py"),
            Path("src/repro/sim/engine.py"),
            Path("tests/test_example.py"),
        ],
    )
    def test_out_of_scope_modules_exempt(self, path):
        src = self.LOOP
        if path.parent.name == "control":
            src = '"""Implements Eq. 15."""\n' + textwrap.dedent(src)
        assert "R006" not in rule_ids(src, path)


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text('"""Nothing wrong here."""\nX = 1\n')
        assert main([str(target)]) == 0
        assert capsys.readouterr().out == ""

    def test_violation_exits_one_with_location_format(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import numpy as np\nnp.random.seed(0)\n")
        assert main([str(target)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"{target}:2:1: R001 ")

    def test_syntax_error_exits_one(self, tmp_path, capsys):
        target = tmp_path / "broken.py"
        target.write_text("def f(:\n")
        assert main([str(target)]) == 1
        assert "E999" in capsys.readouterr().out

    def test_missing_path_exits_two(self, capsys):
        assert main(["definitely/not/a/path"]) == 2

    def test_explain_catalogue_and_single_rule(self, capsys):
        assert main(["--explain"]) == 0
        catalogue = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.rule_id in catalogue
        assert main(["--explain", "R002"]) == 0
        assert "tolerance" in capsys.readouterr().out
        assert main(["--explain", "R999"]) == 2

    def test_select_runs_only_chosen_rules(self, tmp_path):
        target = tmp_path / "bad.py"
        target.write_text(
            "import numpy as np\nnp.random.seed(0)\n"
            "def f(x=[]):\n    return x\n"
        )
        assert main([str(target), "--select", "R002"]) == 0
        assert main([str(target), "--select", "R003"]) == 1

    def test_discovery_skips_caches_and_egginfo(self, tmp_path):
        (tmp_path / "pkg.egg-info").mkdir()
        (tmp_path / "pkg.egg-info" / "junk.py").write_text("x = 1\n")
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("x = 1\n")
        (tmp_path / "keep.py").write_text("x = 1\n")
        files = discover_files([str(tmp_path)])
        assert [f.name for f in files] == ["keep.py"]

    def test_json_format(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import numpy as np\nnp.random.seed(0)\n")
        assert main([str(target), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == len(payload["findings"]) == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "R001"
        assert finding["path"] == str(target)
        assert finding["line"] == 2 and finding["col"] == 1
        assert "message" in finding

    def test_json_format_clean_run_is_empty_object(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text('"""Nothing wrong here."""\nX = 1\n')
        assert main([str(target), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"findings": [], "count": 0}

    def test_github_format(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import numpy as np\nnp.random.seed(0)\n")
        assert main([str(target), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("::error file=")
        assert ",line=2,col=1,title=R001::" in out

    def test_github_format_escapes_workflow_characters(self):
        finding = Finding(
            path="src/a,b.py", line=1, col=1, rule_id="R001",
            message="50% of draws\nuse the shared generator",
        )
        (line,) = render([finding], "github")
        assert "file=src/a%2Cb.py" in line
        assert line.endswith("::50%25 of draws%0Ause the shared generator")

    def test_render_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            render([], "teletype")

    def test_repo_is_clean(self):
        """The acceptance criterion: the lint suite passes on the PR."""
        assert main(["src", "tests", "benchmarks"]) == 0

    def test_every_rule_has_explain_text(self):
        for rule_id, rule in RULES_BY_ID.items():
            assert rule.rule_id == rule_id
            assert rule.title
            assert len(rule.explain.strip()) > 40
