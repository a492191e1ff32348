"""Tests for the equation audit and the whole-program leg of the checker.

Covers the equation manifest round-trip, citation extraction, the
EQ001-EQ003 audit on fixture manifests, and the CLI contract of
``python -m repro.lint`` for the rules that need more than one file:
the hot-path rules (R040-R042) over a library tree and the equation
audit over a package tree — exit codes, ``--select``/``--ignore``,
``--explain``, ``--format``.
"""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.equations import (
    EquationEntry,
    ManifestError,
    audit_equations,
    citations_in_source,
    expand_citation_span,
    load_manifest,
    parse_manifest_text,
)
from repro.lint.cli import CATALOGUE, main


class TestCitationExtraction:
    @pytest.mark.parametrize(
        "span, expected",
        [
            ("4", {4}),
            ("9-14", {9, 10, 11, 12, 13, 14}),
            ("9 - 11", {9, 10, 11}),
            ("(20)-(22)", {20, 21, 22}),
            ("28 and 30", {28, 30}),
            ("9, 11 and 13", {9, 11, 13}),
            ("2 to 4", {2, 3, 4}),
        ],
    )
    def test_expand_citation_span(self, span, expected):
        assert expand_citation_span(span) == expected

    def test_docstring_citations_collected(self):
        src = textwrap.dedent(
            '''
            """Implements Eqs. 9-11 of the paper."""

            class C:
                """Constraint (22)."""

                def m(self) -> None:
                    """See Equation (25) and Eq. 4."""
            '''
        )
        cites = citations_in_source(src, "src/repro/x.py")
        assert sorted(c.equation_id for c in cites) == [4, 9, 10, 11, 22, 25]

    def test_rule_ids_and_bare_numbers_not_citations(self):
        src = '"""EQ001 findings reference (14) and R010, not equations."""\n'
        assert citations_in_source(src, "x.py") == []

    def test_non_docstring_strings_ignored(self):
        src = 'MESSAGE = "see Eq. 3"\n'
        assert citations_in_source(src, "x.py") == []


SAMPLE_MANIFEST = '''\
# comment line
[[equation]]
id = 1
section = "II-B"
title = "link \\"capacity\\""  # trailing comment
modules = ["src/repro/mod.py", "src/repro/other.py"]

[[equation]]
id = 2
section = "IV"
title = "derivation step"
status = "analysis"
note = "no single owner"
'''


class TestManifestParsing:
    def test_entries_decoded(self):
        entries = parse_manifest_text(SAMPLE_MANIFEST)
        assert [e.equation_id for e in entries] == [1, 2]
        assert entries[0].title == 'link "capacity"'
        assert entries[0].modules == ("src/repro/mod.py", "src/repro/other.py")
        assert entries[0].status == "implemented"
        assert entries[1].status == "analysis"
        assert entries[1].note == "no single owner"

    def test_repo_manifest_decodes(self):
        text = Path("docs/equations.toml").read_text(encoding="utf-8")
        assert len(parse_manifest_text(text)) >= 30

    def test_repo_manifest_covers_paper_equations(self):
        """Acceptance: every display from Eq. 2 through Eq. 31 is mapped."""
        entries = load_manifest(Path("docs/equations.toml"))
        ids = {e.equation_id for e in entries}
        assert set(range(2, 32)) <= ids

    @pytest.mark.parametrize(
        "text",
        [
            '[[equation]]\nid = 1\ntitle = "unterminated\n',  # TOML syntax
            "[[equation]]\nid\n",  # not key = value
            "equation = 3\n",  # not an array of tables
            "[[equation]]\nid = 1.5\n",  # schema: id must be an int
        ],
    )
    def test_malformed_manifest_rejected(self, text):
        with pytest.raises(ManifestError):
            parse_manifest_text(text)

    @pytest.mark.parametrize(
        "raw",
        [
            {"id": 0},
            {"id": "four"},
            {"id": True},
            {"id": 4, "status": "planned"},
            {"id": 4, "modules": "src/repro/mod.py"},
            {"id": 4, "note": 7},
            {"id": 4, "owner": "me"},  # unknown key
        ],
    )
    def test_entry_schema_rejected(self, raw):
        with pytest.raises(ManifestError):
            EquationEntry.from_mapping(raw)


def _write_repo(tmp_path, manifest_text, modules):
    docs = tmp_path / "docs"
    docs.mkdir()
    manifest = docs / "equations.toml"
    manifest.write_text(manifest_text, encoding="utf-8")
    for rel, content in modules.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content, encoding="utf-8")
    return manifest, tmp_path / "src"


GOOD_MANIFEST = """\
[[equation]]
id = 1
section = "II"
title = "capacity"
modules = ["src/repro/mod.py"]
"""


class TestEquationAudit:
    def test_clean_repo_has_no_findings(self, tmp_path):
        manifest, src = _write_repo(
            tmp_path, GOOD_MANIFEST, {"src/repro/mod.py": '"""Eq. 1."""\n'}
        )
        result = audit_equations(manifest, src)
        assert result.findings == []
        assert [e.equation_id for e in result.entries] == [1]
        assert [c.equation_id for c in result.citations] == [1]

    def test_parsed_trees_stand_in_for_files(self, tmp_path):
        # The checker hands the audit the trees it already parsed: a
        # file among them is not read again, and one it lacks is.
        manifest, src = _write_repo(
            tmp_path,
            GOOD_MANIFEST,
            {
                "src/repro/mod.py": '"""No citations."""\n',
                "src/repro/other.py": '"""Eq. 2."""\n',
            },
        )
        parsed = {(src / "repro" / "mod.py").resolve(): ast.parse('"""Eq. 1."""\n')}
        found = audit_equations(manifest, src, parsed=parsed).findings
        assert [f.rule_id for f in found] == ["EQ002"]
        assert found[0].path == str(src / "repro" / "other.py")
        assert sorted(f.rule_id for f in audit_equations(manifest, src).findings) == [
            "EQ001",
            "EQ002",
        ]

    def test_eq001_uncited_implemented_equation(self, tmp_path):
        manifest, src = _write_repo(
            tmp_path, GOOD_MANIFEST, {"src/repro/mod.py": '"""No citations."""\n'}
        )
        found = audit_equations(manifest, src).findings
        assert [f.rule_id for f in found] == ["EQ001"]
        assert "equation 1" in found[0].message
        assert found[0].path == str(manifest)

    def test_eq001_satisfied_by_any_owner(self, tmp_path):
        manifest_text = GOOD_MANIFEST.replace(
            'modules = ["src/repro/mod.py"]',
            'modules = ["src/repro/mod.py", "src/repro/other.py"]',
        )
        manifest, src = _write_repo(
            tmp_path,
            manifest_text,
            {
                "src/repro/mod.py": '"""Nothing."""\n',
                "src/repro/other.py": '"""Implements Eq. 1."""\n',
            },
        )
        assert audit_equations(manifest, src).findings == []

    def test_eq002_citation_of_unknown_equation(self, tmp_path):
        manifest, src = _write_repo(
            tmp_path,
            GOOD_MANIFEST,
            {"src/repro/mod.py": '"""Eq. 1 and Eq. 99."""\n'},
        )
        found = audit_equations(manifest, src).findings
        assert [f.rule_id for f in found] == ["EQ002"]
        assert "equation 99" in found[0].message
        assert found[0].path.endswith("mod.py")
        assert found[0].line == 1

    def test_eq003_duplicate_id(self, tmp_path):
        manifest, src = _write_repo(
            tmp_path,
            GOOD_MANIFEST + GOOD_MANIFEST,
            {"src/repro/mod.py": '"""Eq. 1."""\n'},
        )
        found = audit_equations(manifest, src).findings
        assert [f.rule_id for f in found] == ["EQ003"]
        assert "duplicate" in found[0].message

    def test_eq003_missing_module(self, tmp_path):
        manifest, src = _write_repo(
            tmp_path, GOOD_MANIFEST, {"src/repro/unrelated.py": "X = 1\n"}
        )
        found = audit_equations(manifest, src).findings
        assert [f.rule_id for f in found] == ["EQ003"]
        assert "does not exist" in found[0].message

    def test_eq003_analysis_entry_rules(self, tmp_path):
        manifest_text = """\
[[equation]]
id = 1
section = "IV"
title = "derivation"
status = "analysis"
note = "owns modules by mistake"
modules = ["src/repro/mod.py"]

[[equation]]
id = 2
section = "IV"
title = "another derivation"
status = "analysis"
"""
        manifest, src = _write_repo(
            tmp_path, manifest_text, {"src/repro/mod.py": '"""x."""\n'}
        )
        found = audit_equations(manifest, src).findings
        assert [f.rule_id for f in found] == ["EQ003", "EQ003"]
        messages = " / ".join(f.message for f in found)
        assert "own no modules" in messages
        assert "must carry a note" in messages

    def test_eq003_implemented_without_modules(self, tmp_path):
        manifest_text = '[[equation]]\nid = 1\nsection = "II"\ntitle = "x"\n'
        manifest, src = _write_repo(
            tmp_path, manifest_text, {"src/repro/mod.py": '"""x."""\n'}
        )
        found = audit_equations(manifest, src).findings
        assert [f.rule_id for f in found] == ["EQ003"]
        assert "at least one owning module" in found[0].message

    def test_eq003_missing_manifest(self, tmp_path):
        found = audit_equations(tmp_path / "docs" / "equations.toml", tmp_path).findings
        assert [f.rule_id for f in found] == ["EQ003"]

    def test_eq003_unparsable_manifest(self, tmp_path):
        manifest, src = _write_repo(
            tmp_path, "[[equation\n", {"src/repro/mod.py": '"""x."""\n'}
        )
        found = audit_equations(manifest, src).findings
        assert [f.rule_id for f in found] == ["EQ003"]
        assert found[0].line == 1 and found[0].col == 1


ENGINE = """\
class SlotSimulator:
    def step(self, num_nodes: int) -> None:
        {body}
"""

CLEAN_SRC = ENGINE.format(body="return None")

BROKEN_SRC = ENGINE.format(body="for node in range(num_nodes):\n            print(node)")


@pytest.fixture()
def engine(tmp_path):
    """A library file whose step() is the hot-path root."""
    target = tmp_path / "src" / "repro" / "sim" / "engine.py"
    target.parent.mkdir(parents=True)
    return target


class TestCli:
    def test_clean_file_exits_zero(self, engine, capsys):
        engine.write_text(CLEAN_SRC)
        assert main([str(engine)]) == 0
        assert capsys.readouterr().out == ""

    def test_violation_exits_one_with_location_format(self, engine, capsys):
        engine.write_text(BROKEN_SRC)
        assert main([str(engine)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"{engine}:3:21: R040 ")

    def test_syntax_error_reported_as_e999(self, engine, capsys):
        engine.write_text("def f(:\n")
        assert main([str(engine)]) == 1
        assert capsys.readouterr().out.count("E999") == 1

    def test_missing_path_exits_two(self, capsys):
        assert main(["definitely/not/a/path"]) == 2

    def test_select_filters_rule_ids(self, engine, capsys):
        engine.write_text(BROKEN_SRC)
        assert main([str(engine), "--select", "R041"]) == 0
        assert main([str(engine), "--select", "R040,R042"]) == 1
        capsys.readouterr()

    def test_prefix_select(self, engine, capsys):
        engine.write_text(BROKEN_SRC)
        assert main([str(engine), "--select", "R04"]) == 1
        assert main([str(engine), "--select", "R00,R03,EQ"]) == 0
        assert main([str(engine), "--ignore", "R04"]) == 0
        capsys.readouterr()

    def test_deleted_family_prefixes_exit_two(self, engine, capsys):
        # The units (R01x), axis/shape (R02x) and process-pool (R05x)
        # families and R001 are gone: a stale --select must fail loudly,
        # not select nothing.
        engine.write_text(CLEAN_SRC)
        for prefix in ("R001", "R01", "R010", "R02", "R05", "R020", "R050"):
            with pytest.raises(SystemExit) as excinfo:
                main([str(engine), "--select", prefix])
            assert excinfo.value.code == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_explain_lists_exactly_the_analyzer_families(self, capsys):
        assert main(["--explain"]) == 0
        listed = [
            line.split()[0]
            for line in capsys.readouterr().out.splitlines()
            if line[:1] in ("R", "E")
        ]
        assert listed == [
            "R002", "R003", "R004", "R005", "R006",
            "R030", "R031", "R032",
            "R040", "R041", "R042",
            "EQ001", "EQ002", "EQ003",
        ]
        assert listed == list(CATALOGUE)

    def test_select_rejects_unknown_rule(self, engine):
        engine.write_text(BROKEN_SRC)
        with pytest.raises(SystemExit):
            main([str(engine), "--select", "R999"])

    def test_explain_catalogue_and_single_rule(self, capsys):
        assert main(["--explain"]) == 0
        catalogue = capsys.readouterr().out
        for rule_id in ("R040", "R041", "R042", "EQ001", "EQ002", "EQ003"):
            assert rule_id in catalogue
        assert main(["--explain", "R040"]) == 0
        assert "engine.step" in capsys.readouterr().out
        assert main(["--explain", "EQ002"]) == 0
        assert "manifest" in capsys.readouterr().out.lower()
        assert main(["--explain", "R999"]) == 2

    def test_json_format(self, engine, capsys):
        engine.write_text(BROKEN_SRC)
        assert main([str(engine), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "R040"
        assert finding["path"] == str(engine)
        assert finding["line"] == 3

    def test_github_format(self, engine, capsys):
        engine.write_text(BROKEN_SRC)
        assert main([str(engine), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("::error file=")
        assert ",title=R040::" in out

    def test_equations_audit_failure_exits_one(self, tmp_path, monkeypatch, capsys):
        # The audit runs when the checked paths include src/repro.
        _write_repo(tmp_path, GOOD_MANIFEST, {"src/repro/mod.py": '"""Nothing."""\n'})
        monkeypatch.chdir(tmp_path)
        assert main(["src"]) == 1
        assert "EQ001" in capsys.readouterr().out
        (tmp_path / "other.py").write_text('"""Clean."""\n')
        assert main(["other.py"]) == 0

    def test_equations_json_format(self, tmp_path, monkeypatch, capsys):
        _write_repo(tmp_path, GOOD_MANIFEST, {"src/repro/mod.py": '"""Nothing."""\n'})
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "EQ001"

    def test_repo_src_is_clean(self):
        """Acceptance: every rule family passes on the library."""
        assert main(["src"]) == 0

    def test_repo_equation_audit_is_clean(self):
        """Acceptance: the manifest and the tree's citations agree."""
        assert main(["src", "--select", "EQ"]) == 0
