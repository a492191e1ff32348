"""Tests for the static units/equations analysis (``repro.analysis``).

Covers the unit lattice (join/meet and the dimension algebra), the
dataflow analyzer's propagation rules on deliberately broken fixtures
(R010/R011/R012), noqa suppression, the equation manifest round-trip
(tomllib vs. the 3.9 fallback decoder), the EQ001-EQ003 audit, and the
CLI contract — exit codes, ``--select``, ``--explain``, ``--format``.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.cli import analyze_paths, main
from repro.analysis.dataflow import BUILTIN_SIGNATURES, UnitDataflowRule
from repro.analysis.equations import (
    EquationEntry,
    ManifestError,
    audit_equations,
    citations_in_source,
    expand_citation_span,
    load_manifest,
    parse_manifest_text,
)
from repro.analysis.unitlattice import (
    CONFLICT,
    SCALAR,
    UNKNOWN,
    add_result,
    classify_mismatch,
    div_result,
    from_symbol,
    join,
    meet,
    mul_result,
    unit_elem,
)
from repro.lint.cli import lint_source
from repro.units import UNIT_BY_SYMBOL

LIB = Path("src/repro/example.py")

J = from_symbol("J")
KWH = from_symbol("kWh")
W = from_symbol("W")
S = from_symbol("s")
DB = from_symbol("dB")
LIN = from_symbol("lin")
BPS = from_symbol("bit/s")
BIT = from_symbol("bit")
BPSLOT = from_symbol("bit/slot")
DOLLARS = from_symbol("$")


def findings(source, path=LIB):
    return lint_source(
        textwrap.dedent(source), str(path), [UnitDataflowRule()], path=path
    )


def rule_ids(source, path=LIB):
    return [f.rule_id for f in findings(source, path)]


class TestLattice:
    def test_join_toward_unknown(self):
        assert join(J, J) == J
        assert join(J, W) == UNKNOWN
        assert join(J, UNKNOWN) == UNKNOWN
        assert join(J, SCALAR) == UNKNOWN
        assert join(SCALAR, SCALAR) == SCALAR

    def test_join_absorbs_conflict(self):
        assert join(CONFLICT, J) == J
        assert join(J, CONFLICT) == J
        assert join(CONFLICT, CONFLICT) == CONFLICT

    def test_meet_toward_conflict(self):
        assert meet(J, J) == J
        assert meet(UNKNOWN, J) == J
        assert meet(J, UNKNOWN) == J
        assert meet(J, W) == CONFLICT
        assert meet(J, SCALAR) == CONFLICT

    def test_join_meet_commute_on_samples(self):
        samples = (UNKNOWN, SCALAR, CONFLICT, J, W, DB)
        for a in samples:
            for b in samples:
                assert join(a, b) == join(b, a)
                assert meet(a, b) == meet(b, a)
                assert join(a, a) == a
                assert meet(a, a) == a

    def test_unit_elem_matches_from_symbol(self):
        assert unit_elem(UNIT_BY_SYMBOL["J"]) == J


class TestDimensionAlgebra:
    def test_add_same_unit_and_scalar(self):
        assert add_result(J, J) == (J, None)
        assert add_result(J, SCALAR) == (J, None)
        assert add_result(SCALAR, W) == (W, None)
        assert add_result(SCALAR, SCALAR) == (SCALAR, None)

    def test_add_mismatch_reports_pair_and_degrades(self):
        result, mismatch = add_result(J, W)
        assert result == UNKNOWN
        assert mismatch == (J.unit, W.unit)

    def test_add_with_unknown_never_reports(self):
        assert add_result(UNKNOWN, J) == (UNKNOWN, None)
        assert add_result(J, UNKNOWN) == (UNKNOWN, None)

    def test_product_table(self):
        assert mul_result(W, S) == (J, None)
        assert mul_result(S, W) == (J, None)  # commuted
        assert mul_result(BPS, S) == (BIT, None)
        assert mul_result(J, LIN) == (J, None)
        assert mul_result(SCALAR, W) == (W, None)
        assert mul_result(J, W)[0] == UNKNOWN  # no entry: unknown, silent

    def test_quotient_table(self):
        assert div_result(J, S) == (W, None)
        assert div_result(J, W) == (S, None)
        assert div_result(BIT, S) == (BPS, None)
        assert div_result(DOLLARS, J) == (from_symbol("$/J"), None)
        assert div_result(J, LIN) == (J, None)
        assert div_result(J, SCALAR) == (J, None)

    def test_same_dimension_quotient_is_scalar(self):
        assert div_result(J, KWH) == (SCALAR, None)
        assert div_result(BPSLOT, BPSLOT) == (SCALAR, None)

    def test_db_arithmetic(self):
        assert add_result(DB, DB) == (DB, None)  # dB +/- dB is fine
        result, mismatch = mul_result(DB, DB)  # dB * dB is not
        assert result == UNKNOWN
        assert mismatch == (DB.unit, DB.unit)
        assert div_result(DB, LIN)[1] is not None
        assert mul_result(SCALAR, DB) == (DB, None)  # plain scaling is fine

    def test_classify_mismatch(self):
        assert classify_mismatch(DB.unit, LIN.unit) == "R011"
        assert classify_mismatch(J.unit, DB.unit) == "R011"
        assert classify_mismatch(BPSLOT.unit, from_symbol("kbit/s").unit) == "R012"
        assert classify_mismatch(from_symbol("packet/slot").unit, BPS.unit) == "R012"
        assert classify_mismatch(J.unit, W.unit) == "R010"
        assert classify_mismatch(J.unit, KWH.unit) == "R010"  # scale mix


class TestR010Dataflow:
    def test_watts_plus_joules(self):
        src = """
            from repro.units import Joules, Watts

            def f(energy_j: Joules, power_w: Watts) -> float:
                return energy_j + power_w
        """
        found = findings(src)
        assert [f.rule_id for f in found] == ["R010"]
        assert "[J] added to [W]" in found[0].message
        assert "repro.constants" in found[0].message

    def test_joules_vs_kwh_subtraction(self):
        src = """
            from repro.units import Joules, KilowattHours

            def f(a: Joules, b: KilowattHours) -> float:
                return a - b
        """
        assert rule_ids(src) == ["R010"]

    def test_comparison_checked(self):
        src = """
            from repro.units import Joules, Watts

            def f(a: Joules, b: Watts) -> bool:
                return a > b
        """
        found = findings(src)
        assert [f.rule_id for f in found] == ["R010"]
        assert "compared with" in found[0].message

    def test_one_bug_one_finding_no_cascade(self):
        src = """
            from repro.units import Joules, Watts

            def f(a: Joules, b: Watts) -> float:
                x = a + b
                return x + a
        """
        assert rule_ids(src) == ["R010"]

    def test_scalars_and_unknowns_never_flagged(self):
        src = """
            from repro.units import Joules

            def f(a: Joules, mystery) -> float:
                return a + 1.0 + mystery
        """
        assert rule_ids(src) == []

    def test_power_times_seconds_is_energy(self):
        src = """
            from repro.units import Joules, Seconds, Watts

            def f(p: Watts, dt: Seconds, e: Joules) -> Joules:
                return p * dt + e
        """
        assert rule_ids(src) == []

    def test_return_annotation_checked(self):
        src = """
            from repro.units import Joules, Watts

            def f(p: Watts) -> Joules:
                return p
        """
        found = findings(src)
        assert [f.rule_id for f in found] == ["R010"]
        assert "[W] returned as [J]" in found[0].message

    def test_annassign_declaration_checked(self):
        src = """
            from repro.units import Joules, Watts

            def f(p: Watts) -> float:
                e: Joules = p
                return e
        """
        found = findings(src)
        assert [f.rule_id for f in found] == ["R010"]
        assert "assigned to" in found[0].message

    def test_augmented_assignment_propagates(self):
        src = """
            from repro.units import Joules, Watts

            def f(e: Joules, p: Watts) -> Joules:
                total = e
                total += p
                return total
        """
        assert rule_ids(src) == ["R010"]

    def test_augmented_assignment_keeps_unit(self):
        src = """
            from repro.units import Joules, Watts

            def f(e: Joules, p: Watts) -> float:
                total = e
                total += 1.0
                return total + p
        """
        assert rule_ids(src) == ["R010"]  # total is still Joules

    def test_ternary_joins_arms(self):
        src = """
            from repro.units import Joules, Watts

            def f(e: Joules, p: Watts, flag: bool) -> float:
                mixed = e if flag else p
                ok = mixed + e
                bad = (e if flag else e) + p
                return ok + bad
        """
        found = findings(src)
        assert [f.rule_id for f in found] == ["R010"]
        assert found[0].line == 7  # only the same-unit ternary flags

    def test_if_branches_join(self):
        src = """
            from repro.units import Joules, Watts

            def f(e: Joules, p: Watts, flag: bool) -> float:
                if flag:
                    x = e
                else:
                    x = p
                return x + e
        """
        assert rule_ids(src) == []  # join(J, W) = unknown: silent

    def test_if_branches_agreeing_keep_unit(self):
        src = """
            from repro.units import Joules, Watts

            def f(e: Joules, p: Watts, flag: bool) -> float:
                if flag:
                    x = e
                else:
                    x = e + 1.0
                return x + p
        """
        assert rule_ids(src) == ["R010"]

    def test_loop_preserves_and_rebinds(self):
        src = """
            from repro.units import Joules, Watts

            def f(e: Joules, p: Watts, items: list) -> float:
                for _item in items:
                    e = e + 1.0
                return e + p

            def g(e: Joules, values: list) -> float:
                total = 0.0
                for e in values:
                    total = total + e
                return total
        """
        assert rule_ids(src) == ["R010"]  # f flags; g's rebound e is unknown

    def test_min_max_and_abs_preserve_units(self):
        src = """
            from repro.units import Joules, Watts

            def f(a: Joules, b: Joules, p: Watts) -> float:
                return abs(min(a, b)) + p
        """
        assert rule_ids(src) == ["R010"]

    def test_converter_calls_infer_return_unit(self):
        src = """
            from repro.constants import watts_over_slot_to_joules
            from repro.units import Joules, Seconds, Watts

            def f(p: Watts, dt: Seconds, e: Joules) -> Joules:
                return watts_over_slot_to_joules(p, dt) + e
        """
        assert rule_ids(src) == []

    def test_converter_argument_checked(self):
        src = """
            from repro.constants import watts_over_slot_to_joules
            from repro.units import Joules, Seconds

            def f(e: Joules, dt: Seconds) -> Joules:
                return watts_over_slot_to_joules(e, dt)
        """
        found = findings(src)
        assert [f.rule_id for f in found] == ["R010"]
        assert "argument 'watts'" in found[0].message
        assert "expects [W] but receives [J]" in found[0].message

    def test_same_module_signatures_checked(self):
        src = """
            from repro.units import Joules, Watts

            def demand_j(power_w: Watts) -> Joules:
                ...

            def ok(e: Joules, p: Watts) -> Joules:
                return e + demand_j(p)

            def bad(e: Joules) -> Joules:
                return demand_j(e)

            def bad_kw(e: Joules) -> Joules:
                return demand_j(power_w=e)
        """
        found = findings(src)
        assert [f.rule_id for f in found] == ["R010", "R010"]
        assert all("demand_j()" in f.message for f in found)

    def test_module_alias_annotations_resolved(self):
        src = """
            from repro import units

            def f(e: units.Joules, p: units.Watts) -> float:
                return e + p
        """
        assert rule_ids(src) == ["R010"]

    def test_string_annotations_resolved(self):
        src = """
            from repro.units import Joules, Watts

            def f(e: "Joules", p: "Watts") -> float:
                return e + p
        """
        assert rule_ids(src) == ["R010"]

    def test_noqa_suppresses_only_matching_rule(self):
        suppressed = """
            from repro.units import Joules, Watts

            def f(e: Joules, p: Watts) -> float:
                return e + p  # noqa: R010
        """
        assert rule_ids(suppressed) == []
        wrong_id = """
            from repro.units import Joules, Watts

            def f(e: Joules, p: Watts) -> float:
                return e + p  # noqa: R011
        """
        assert rule_ids(wrong_id) == ["R010"]


class TestR011Dataflow:
    def test_db_times_db(self):
        src = """
            from repro.units import Db

            def f(a: Db, b: Db) -> float:
                return a * b
        """
        found = findings(src)
        assert [f.rule_id for f in found] == ["R011"]
        assert "db_to_linear" in found[0].message

    def test_db_add_and_scale_allowed(self):
        src = """
            from repro.units import Db

            def f(a: Db, b: Db) -> Db:
                return 2.0 * a + b - 3.0
        """
        assert rule_ids(src) == []

    def test_db_returned_as_linear(self):
        src = """
            from repro.units import Db, Linear

            def f(threshold_db: Db) -> Linear:
                return threshold_db
        """
        assert rule_ids(src) == ["R011"]

    def test_linear_passed_to_db_converter(self):
        src = """
            from repro.units import Db, Linear, db_to_linear, linear_to_db

            def good(threshold_db: Db) -> Linear:
                return db_to_linear(threshold_db)

            def bad(ratio: Linear) -> Linear:
                return db_to_linear(ratio)
        """
        found = findings(src)
        assert [f.rule_id for f in found] == ["R011"]
        assert "expects [dB] but receives [lin]" in found[0].message

    def test_db_compared_with_linear(self):
        src = """
            from repro.units import Db, Linear

            def f(a: Db, b: Linear) -> bool:
                return a > b
        """
        assert rule_ids(src) == ["R011"]


class TestR012Dataflow:
    def test_per_slot_plus_per_second(self):
        src = """
            from repro.units import BitsPerSlot, Kbps

            def f(rate_slot: BitsPerSlot, rate_kbps: Kbps) -> float:
                return rate_slot + rate_kbps
        """
        found = findings(src)
        assert [f.rule_id for f in found] == ["R012"]
        assert "kbps_to_bits_per_slot" in found[0].message

    def test_converted_rate_is_clean(self):
        src = """
            from repro.constants import kbps_to_bits_per_slot
            from repro.units import BitsPerSlot, Kbps, Seconds

            def f(rate_slot: BitsPerSlot, rate_kbps: Kbps, dt: Seconds) -> float:
                return rate_slot + kbps_to_bits_per_slot(rate_kbps, dt)
        """
        assert rule_ids(src) == []

    def test_packets_per_slot_vs_bits_per_second(self):
        src = """
            from repro.units import BitsPerSecond, PacketsPerSlot

            def f(a: PacketsPerSlot, b: BitsPerSecond) -> bool:
                return a < b
        """
        assert rule_ids(src) == ["R012"]


class TestBuiltinSignatures:
    def test_every_builtin_exists_in_the_library(self):
        import repro.constants as constants
        import repro.units as units

        for name in BUILTIN_SIGNATURES:
            assert hasattr(constants, name) or hasattr(units, name)

    def test_builtin_units_are_canonical(self):
        for params, ret in BUILTIN_SIGNATURES.values():
            for _, unit in params:
                assert unit is None or unit.symbol in UNIT_BY_SYMBOL
            assert ret is None or ret.symbol in UNIT_BY_SYMBOL


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

    def test_eq003_unparsable_manifest(self, tmp_path):
        manifest, src = _write_repo(
            tmp_path, "[[equation\n", {"src/repro/mod.py": '"""x."""\n'}
        )
        found = audit_equations(manifest, src).findings
        assert [f.rule_id for f in found] == ["EQ003"]
        assert found[0].line == 1 and found[0].col == 1


CLEAN_SRC = """\
from repro.units import Joules, Watts


def f(e: Joules) -> Joules:
    return e + 1.0
"""

BROKEN_SRC = """\
from repro.units import Joules, Watts


def f(e: Joules, p: Watts) -> float:
    return e + p
"""


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text(CLEAN_SRC)
        assert main([str(target)]) == 0
        assert capsys.readouterr().out == ""

    def test_violation_exits_one_with_location_format(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(BROKEN_SRC)
        assert main([str(target)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"{target}:5:12: R010 ")

    def test_syntax_error_reported_as_e999(self, tmp_path, capsys):
        target = tmp_path / "broken.py"
        target.write_text("def f(:\n")
        assert main([str(target)]) == 1
        assert "E999" in capsys.readouterr().out

    def test_missing_path_exits_two(self, capsys):
        assert main(["definitely/not/a/path"]) == 2

    def test_select_filters_rule_ids(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(BROKEN_SRC)
        assert main([str(target), "--select", "R011"]) == 0
        assert main([str(target), "--select", "R010,R012"]) == 1
        capsys.readouterr()

    def test_prefix_select(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(BROKEN_SRC)
        assert main([str(target), "--select", "R01"]) == 1
        assert main([str(target), "--select", "R03,R04"]) == 0
        assert main([str(target), "--ignore", "R01"]) == 0
        capsys.readouterr()

    def test_deleted_family_prefixes_exit_two(self, tmp_path, capsys):
        # The axis/shape (R02x) and process-pool (R05x) families are
        # gone: a stale --select must fail loudly, not select nothing.
        target = tmp_path / "clean.py"
        target.write_text(CLEAN_SRC)
        for prefix in ("R02", "R05", "R020", "R050"):
            with pytest.raises(SystemExit) as excinfo:
                main([str(target), "--select", prefix])
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
            "R010", "R011", "R012",
            "R030", "R031", "R032",
            "R040", "R041", "R042",
            "EQ001", "EQ002", "EQ003",
        ]

    def test_select_rejects_unknown_rule(self, tmp_path):
        target = tmp_path / "bad.py"
        target.write_text(BROKEN_SRC)
        with pytest.raises(SystemExit):
            main([str(target), "--select", "R999"])

    def test_explain_catalogue_and_single_rule(self, capsys):
        assert main(["--explain"]) == 0
        catalogue = capsys.readouterr().out
        for rule_id in ("R010", "R011", "R012", "EQ001", "EQ002", "EQ003"):
            assert rule_id in catalogue
        assert main(["--explain", "R012"]) == 0
        assert "slot" in capsys.readouterr().out
        assert main(["--explain", "EQ002"]) == 0
        assert "manifest" in capsys.readouterr().out.lower()
        assert main(["--explain", "R999"]) == 2

    def test_json_format(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(BROKEN_SRC)
        assert main([str(target), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "R010"
        assert finding["path"] == str(target)
        assert finding["line"] == 5

    def test_github_format(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(BROKEN_SRC)
        assert main([str(target), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("::error file=")
        assert ",title=R010::" in out

    def test_equations_missing_manifest_exits_two(self, tmp_path):
        assert main(["--equations", "--manifest", str(tmp_path / "no.toml")]) == 2

    def test_equations_audit_failure_exits_one(self, tmp_path, capsys):
        manifest, src = _write_repo(
            tmp_path, GOOD_MANIFEST, {"src/repro/mod.py": '"""Nothing."""\n'}
        )
        code = main(
            ["--equations", "--manifest", str(manifest), "--src", str(src)]
        )
        assert code == 1
        assert "EQ001" in capsys.readouterr().out

    def test_equations_json_format(self, tmp_path, capsys):
        manifest, src = _write_repo(
            tmp_path, GOOD_MANIFEST, {"src/repro/mod.py": '"""Nothing."""\n'}
        )
        args = ["--equations", "--manifest", str(manifest), "--src", str(src)]
        assert main(args + ["--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "EQ001"

    def test_analyze_paths_matches_main(self, tmp_path):
        target = tmp_path / "bad.py"
        target.write_text(BROKEN_SRC)
        found = analyze_paths([str(target)])
        assert [f.rule_id for f in found] == ["R010"]

    def test_repo_src_is_clean(self):
        """Acceptance: the units analysis passes on the library."""
        assert main(["src"]) == 0

    def test_repo_equation_audit_is_clean(self):
        """Acceptance: the manifest and the tree's citations agree."""
        assert main(["--equations"]) == 0
