"""Registry-level audit of every rule the toolchain ships.

One parametrized suite asserts, for each rule id across the lint chassis
(R001-R006), the units dataflow pass (R010-R012), the determinism pass
(R030-R032), the hot-path rules (R040-R042) and the equations audit
(EQ001-EQ003):

* the registry has non-empty ``--explain`` text;
* at least one positive fixture trips the rule;
* at least one negative fixture stays clean.

A new rule id without fixtures fails here by construction, so the
catalogue cannot silently rot.
"""

from __future__ import annotations

import io
import re
import textwrap
import tokenize
from pathlib import Path
from typing import NamedTuple, Optional, Type

import pytest

from repro.analysis.cli import analyze_sources, main
from repro.analysis.dataflow import UnitDataflowRule
from repro.analysis.determinism import (
    GlobalRngRule,
    SetIterationRule,
    WallclockRule,
)
from repro.analysis.equations import audit_equations
from repro.analysis.registry import ALL_RULE_IDS, RULE_REGISTRY
from repro.lint.cli import lint_source
from repro.lint.rules import _NOQA_RE, RULES_BY_ID, Rule

REPO_ROOT = Path(__file__).resolve().parents[1]

LIB = Path("src/repro/example.py")
HOT = Path("src/repro/queueing/example.py")
CONTROL = Path("src/repro/control/example.py")

EXPECTED_IDS = [
    "R001", "R002", "R003", "R004", "R005", "R006",
    "R010", "R011", "R012",
    "R030", "R031", "R032",
    "R040", "R041", "R042",
    "EQ001", "EQ002", "EQ003",
]


class RuleFixture(NamedTuple):
    rule: Optional[Type[Rule]]  # None for the manifest-audit EQ rules
    positive: str
    negative: str
    path: Path = LIB


FIXTURES = {
    "R001": RuleFixture(
        None,
        """
        import numpy as np

        def f():
            return np.random.uniform()
        """,
        """
        import numpy as np

        def f(rng: np.random.Generator):
            return rng.uniform()
        """,
    ),
    "R002": RuleFixture(
        None,
        """
        def f(x: float) -> bool:
            return x == 1.5
        """,
        """
        def f(x: float) -> bool:
            return x < 1.5
        """,
    ),
    "R003": RuleFixture(
        None,
        """
        def f(acc=[]):
            return acc
        """,
        """
        def f(acc=None):
            return acc
        """,
    ),
    "R004": RuleFixture(
        None,
        """
        def f(x):
            return x
        """,
        """
        def f(x: float) -> float:
            return x
        """,
    ),
    "R005": RuleFixture(
        None,
        '"""Routing helpers with no citation."""\n',
        '"""Implements Eq. 15."""\n',
        CONTROL,
    ),
    "R006": RuleFixture(
        None,
        """
        class Bank:
            def step(self) -> None:
                for key, value in self._queues.items():
                    print(key, value)
        """,
        """
        class Bank:
            def step(self, transfer: dict) -> None:
                for key, value in transfer.items():
                    print(key, value)
        """,
        HOT,
    ),
    "R010": RuleFixture(
        UnitDataflowRule,
        """
        from repro.units import Joules, Watts

        def f(e: Joules, p: Watts) -> float:
            return e + p
        """,
        """
        from repro.units import Joules

        def f(a: Joules, b: Joules) -> Joules:
            return a + b
        """,
    ),
    "R011": RuleFixture(
        UnitDataflowRule,
        """
        from repro.units import Db

        def f(a: Db, b: Db) -> float:
            return a * b
        """,
        """
        from repro.units import Db

        def f(a: Db, b: Db) -> Db:
            return 2.0 * a + b
        """,
    ),
    "R012": RuleFixture(
        UnitDataflowRule,
        """
        from repro.units import BitsPerSecond, BitsPerSlot

        def f(a: BitsPerSlot, b: BitsPerSecond) -> float:
            return a + b
        """,
        """
        from repro.units import BitsPerSlot

        def f(a: BitsPerSlot, b: BitsPerSlot) -> BitsPerSlot:
            return a + b
        """,
    ),
    "R030": RuleFixture(
        GlobalRngRule,
        """
        import numpy as np

        def f():
            return np.random.rand(4)
        """,
        """
        import numpy as np

        def f(rng: np.random.Generator):
            return rng.random(4)
        """,
    ),
    "R031": RuleFixture(
        WallclockRule,
        """
        import time

        def stamp(record: dict) -> None:
            record["at"] = time.time()
        """,
        """
        import time

        def measure() -> float:
            return time.perf_counter()
        """,
    ),
    "R032": RuleFixture(
        SetIterationRule,
        """
        def f(items, results):
            pending = set(items)
            for key in pending:
                results.append(key)
        """,
        """
        def f(items, results):
            pending = set(items)
            for key in sorted(pending):
                results.append(key)
        """,
    ),
}

class ProgramFixture(NamedTuple):
    """Whole-program fixtures: {display_path: source} trees, analyzed
    over the call graph rather than one file at a time."""

    positive: dict
    negative: dict


PROGRAM_FIXTURES = {
    "R040": ProgramFixture(
        {
            "src/repro/sim/engine.py": """
class SlotSimulator:
    def step(self, num_nodes: int) -> None:
        for node in range(num_nodes):
            print(node)
"""
        },
        {
            "src/repro/sim/engine.py": """
class SlotSimulator:
    def step(self, backlog) -> float:
        return float(backlog.sum())
"""
        },
    ),
    "R041": ProgramFixture(
        {
            "src/repro/network/grid.py": """
import numpy as np

def build(num_nodes: int) -> np.ndarray:
    return np.zeros((num_nodes, num_nodes))
"""
        },
        {
            "src/repro/network/grid.py": """
import numpy as np

def build(num_nodes: int) -> np.ndarray:
    return np.zeros(num_nodes)
"""
        },
    ),
    "R042": ProgramFixture(
        {
            "src/repro/sim/engine.py": """
import numpy as np

class SlotSimulator:
    def step(self, batches) -> None:
        for batch in batches:
            buf = np.zeros(4)
            buf[:] = batch
"""
        },
        {
            "src/repro/sim/engine.py": """
import numpy as np

class SlotSimulator:
    def step(self, batches) -> None:
        buf = np.zeros(4)
        for batch in batches:
            buf[:] = batch
"""
        },
    ),
}

MANIFEST = """\
[[equation]]
id = 1
section = "II"
title = "capacity"
modules = ["src/repro/mod.py"]
"""

EQ_FIXTURES = {
    # (manifest text, module docstring) pairs.
    "EQ001": ((MANIFEST, '"""No citations."""\n'), (MANIFEST, '"""Eq. 1."""\n')),
    "EQ002": (
        (MANIFEST, '"""Eq. 1 and Eq. 99."""\n'),
        (MANIFEST, '"""Eq. 1."""\n'),
    ),
    "EQ003": ((MANIFEST + MANIFEST, '"""Eq. 1."""\n'), (MANIFEST, '"""Eq. 1."""\n')),
}


def _rule_for(rule_id: str) -> Rule:
    fixture = FIXTURES[rule_id]
    if fixture.rule is not None:
        return fixture.rule()
    return RULES_BY_ID[rule_id]


def _lint_ids(rule_id: str, source: str):
    fixture = FIXTURES[rule_id]
    found = lint_source(
        textwrap.dedent(source),
        str(fixture.path),
        [_rule_for(rule_id)],
        path=fixture.path,
    )
    return [f.rule_id for f in found]


def _program_ids(sources: dict):
    dedented = {
        path: textwrap.dedent(source) for path, source in sources.items()
    }
    return [f.rule_id for f in analyze_sources(dedented)]


def _audit_ids(tmp_path, manifest_text: str, docstring: str):
    manifest = tmp_path / "docs" / "equations.toml"
    manifest.parent.mkdir(parents=True, exist_ok=True)
    manifest.write_text(manifest_text, encoding="utf-8")
    module = tmp_path / "src" / "repro" / "mod.py"
    module.parent.mkdir(parents=True, exist_ok=True)
    module.write_text(docstring, encoding="utf-8")
    result = audit_equations(manifest, tmp_path / "src", repo_root=tmp_path)
    return [f.rule_id for f in result.findings]


class TestRegistryShape:
    def test_every_expected_id_registered(self):
        assert list(ALL_RULE_IDS) == EXPECTED_IDS

    def test_fixture_tables_cover_the_registry(self):
        assert sorted(list(FIXTURES) + list(PROGRAM_FIXTURES)) + sorted(
            EQ_FIXTURES
        ) == sorted(ALL_RULE_IDS, key=lambda rid: (rid.startswith("EQ"), rid))


@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
class TestEveryRule:
    def test_explain_text_is_substantive(self, rule_id):
        info = RULE_REGISTRY[rule_id]
        assert info.rule_id == rule_id
        assert info.title.strip()
        assert len(info.explain.strip()) > 80

    def test_explain_via_cli(self, rule_id, capsys):
        assert main(["--explain", rule_id]) == 0
        out = capsys.readouterr().out
        assert rule_id in out

    def test_positive_fixture_trips(self, rule_id, tmp_path):
        if rule_id.startswith("EQ"):
            manifest_text, docstring = EQ_FIXTURES[rule_id][0]
            assert rule_id in _audit_ids(tmp_path, manifest_text, docstring)
        elif rule_id in PROGRAM_FIXTURES:
            assert rule_id in _program_ids(PROGRAM_FIXTURES[rule_id].positive)
        else:
            assert rule_id in _lint_ids(rule_id, FIXTURES[rule_id].positive)

    def test_negative_fixture_is_clean(self, rule_id, tmp_path):
        if rule_id.startswith("EQ"):
            manifest_text, docstring = EQ_FIXTURES[rule_id][1]
            assert _audit_ids(tmp_path, manifest_text, docstring) == []
        elif rule_id in PROGRAM_FIXTURES:
            assert rule_id not in _program_ids(
                PROGRAM_FIXTURES[rule_id].negative
            )
        else:
            assert rule_id not in _lint_ids(rule_id, FIXTURES[rule_id].negative)


#: Trees whose ``# noqa`` comments name repro rule ids.
SUPPRESSION_TREES = ("src", "tests", "benchmarks", "examples", "scripts")

_RULE_ID_RE = re.compile(r"\b(R\d{3}|EQ\d{3})\b")


def _noqa_comments(path: Path):
    """(line, codes) for every real ``# noqa:`` comment in ``path``.

    Reads comment tokens only, so fixtures inside string literals (the
    tests above embed many) never count.
    """
    source = path.read_text(encoding="utf-8")
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _NOQA_RE.search(token.string)
        if match is not None and match.group("codes"):
            yield token.start[0], match.group("codes")


def _noqa_rule_ids(path: Path):
    """(line, rule id) for every repro id in a real ``# noqa:`` comment."""
    for line, codes in _noqa_comments(path):
        for rule_id in _RULE_ID_RE.findall(codes.upper()):
            yield line, rule_id


#: Packages under ``src/repro`` left out of the ``# noqa`` ratchet: the
#: analyzer and the linter quote rule ids in their own machinery.
RATCHET_EXEMPT_PACKAGES = ("analysis", "lint")
#: Committed ceiling on ``# noqa:`` comments in the runtime modules
#: (``src/repro`` minus ``RATCHET_EXEMPT_PACKAGES``).  Lower it whenever
#: a change removes suppressions; never raise it.
RUNTIME_NOQA_BUDGET = 7


class TestNoDeadSuppressions:
    def test_every_noqa_rule_id_is_registered(self):
        scanned = 0
        dead = []
        for tree in SUPPRESSION_TREES:
            for path in sorted((REPO_ROOT / tree).rglob("*.py")):
                scanned += 1
                for line, rule_id in _noqa_rule_ids(path):
                    if rule_id not in RULE_REGISTRY:
                        relative = path.relative_to(REPO_ROOT)
                        dead.append(f"{relative}:{line}: {rule_id}")
        assert scanned > 100
        assert dead == []

    def test_runtime_noqa_count_within_budget(self):
        root = REPO_ROOT / "src" / "repro"
        found = [
            f"{path.relative_to(REPO_ROOT)}:{line}"
            for path in sorted(root.rglob("*.py"))
            if path.relative_to(root).parts[0] not in RATCHET_EXEMPT_PACKAGES
            for line, _codes in _noqa_comments(path)
        ]
        assert found, "scanner found no runtime suppressions at all"
        assert len(found) <= RUNTIME_NOQA_BUDGET, (
            f"{len(found)} '# noqa:' comments in runtime modules exceed the "
            f"budget of {RUNTIME_NOQA_BUDGET}; fix the code instead of "
            "suppressing the rule. When a change removes suppressions, lower "
            "RUNTIME_NOQA_BUDGET to the new count so the ratchet holds.\n"
            + "\n".join(found)
        )

    def test_scanner_reads_comments_not_strings(self, tmp_path):
        probe = tmp_path / "probe.py"
        probe.write_text(
            'FIXTURE = "x = 1  # noqa: R999"\n'
            "y = 2  # noqa: R040, R050 - justification\n"
            "z = 3  # noqa: E402\n",
            encoding="utf-8",
        )
        assert list(_noqa_rule_ids(probe)) == [(2, "R040"), (2, "R050")]
