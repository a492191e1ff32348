"""Paper-equation coverage audit (rules EQ001-EQ003).

The lint rule R005 mandates ``Eq. N`` citations in control/solver
docstrings; this module closes the loop in both directions against a
machine-readable manifest, ``docs/equations.toml``, that lists every
numbered construct of the paper (equation id, paper section, owning
modules, status):

* **EQ001** — an ``implemented``-status equation whose owning modules
  contain no docstring citation of it: the manifest claims coverage
  the code does not acknowledge.
* **EQ002** — a docstring citation of an equation id that does not
  exist in the manifest: either a typo for a real equation or a claim
  about a nonexistent one; both corrupt the paper-to-code map.
* **EQ003** — a malformed manifest: duplicate ids, unknown status,
  owning-module paths that do not exist, or an ``analysis``-status
  entry with no note explaining why no code owns it.

Citations are extracted from *docstrings only* (module, class and
function), and only when introduced by a keyword — ``Eq. 4``,
``Eqs. 9-14``, ``Equation (25)``, ``Constraints (20)-(22)`` — because
bare parenthesised numbers are overwhelmingly false positives
(shapes, years, section references).  Ranges and conjunctions expand:
``Eqs. 9-14`` cites six equations, ``Eqs. 28 and 30`` cites two.

The manifest is TOML, parsed with the stdlib ``tomllib``.
"""

from __future__ import annotations

import ast
import re
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.lint.rules import Finding, RuleInfo

#: Where the manifest lives, relative to the repo root.
DEFAULT_MANIFEST = Path("docs") / "equations.toml"
#: The tree whose docstrings are scanned for citations.
DEFAULT_SRC_ROOT = Path("src") / "repro"

_VALID_STATUS = ("implemented", "analysis")

#: A keyword-introduced citation span: the keyword plus every number,
#: range and conjunction that follows it.
_CITATION_RE = re.compile(
    # A separator (dot, space or paren) is required after the keyword so
    # rule ids like "EQ001" are not read as citations of equation 1.
    r"\b(?:Equations?|Eqs?|Constraints?)(?:\.\s*|\s+|\s*\()"
    r"\s*(\(?\d+\)?(?:\s*(?:[-–]|to|and|,)\s*\(?\d+\)?)*)",
    re.IGNORECASE,
)

_CITATION_TOKEN_RE = re.compile(r"\d+|[-–]|to|and|,", re.IGNORECASE)


class ManifestError(ValueError):
    """The manifest file cannot be parsed at all (syntax, not schema)."""


@dataclass(frozen=True)
class EquationEntry:
    """One numbered paper construct, as declared in the manifest."""

    equation_id: int
    section: str
    title: str
    modules: Tuple[str, ...]
    status: str = "implemented"
    note: str = ""

    @classmethod
    def from_mapping(cls, raw: Mapping[str, object]) -> "EquationEntry":
        """Build an entry from one decoded ``[[equation]]`` table."""
        known = {"id", "section", "title", "modules", "status", "note"}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ManifestError(f"unknown manifest key(s): {', '.join(unknown)}")
        eq_id = raw.get("id")
        if not isinstance(eq_id, int) or isinstance(eq_id, bool) or eq_id < 1:
            raise ManifestError(f"equation id must be a positive integer, got {eq_id!r}")
        section = raw.get("section", "")
        title = raw.get("title", "")
        if not isinstance(section, str) or not isinstance(title, str):
            raise ManifestError(f"equation {eq_id}: section/title must be strings")
        modules_raw = raw.get("modules", [])
        if not isinstance(modules_raw, list) or not all(
            isinstance(m, str) for m in modules_raw
        ):
            raise ManifestError(f"equation {eq_id}: modules must be a string array")
        status = raw.get("status", "implemented")
        if status not in _VALID_STATUS:
            raise ManifestError(
                f"equation {eq_id}: status must be one of {_VALID_STATUS}, got {status!r}"
            )
        note = raw.get("note", "")
        if not isinstance(note, str):
            raise ManifestError(f"equation {eq_id}: note must be a string")
        return cls(
            equation_id=eq_id,
            section=section,
            title=title,
            modules=tuple(modules_raw),
            status=str(status),
            note=note,
        )


@dataclass(frozen=True)
class Citation:
    """One equation number cited by one docstring."""

    path: str
    line: int
    equation_id: int


# -- manifest parsing --------------------------------------------------


def parse_manifest_text(text: str) -> List[EquationEntry]:
    """Decode manifest TOML text into validated entries."""
    try:
        data = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ManifestError(str(exc)) from exc
    tables = data.get("equation", [])
    if not isinstance(tables, list):
        raise ManifestError("'equation' must be an array of tables ([[equation]])")
    return [EquationEntry.from_mapping(table) for table in tables]


def load_manifest(path: Path) -> List[EquationEntry]:
    """Read and decode the manifest file."""
    return parse_manifest_text(path.read_text(encoding="utf-8"))


# -- citation extraction -----------------------------------------------


def expand_citation_span(span: str) -> Set[int]:
    """Equation ids in one citation span (``"9-14"``, ``"28 and 30"``)."""
    ids: Set[int] = set()
    previous: Optional[int] = None
    pending_range = False
    for token in _CITATION_TOKEN_RE.findall(span):
        if token.isdigit():
            number = int(token)
            if pending_range and previous is not None:
                low, high = sorted((previous, number))
                ids.update(range(low, high + 1))
                pending_range = False
            else:
                ids.add(number)
            previous = number
        elif token.lower() in ("-", "–", "to"):
            pending_range = True
        else:  # "and", ","
            pending_range = False
    return ids


def citations_in_source(source: str, display_path: str) -> List[Citation]:
    """Every keyword-introduced equation citation in a file's docstrings."""
    return citations_in_tree(ast.parse(source, filename=display_path), display_path)


def citations_in_tree(tree: ast.AST, display_path: str) -> List[Citation]:
    """Every keyword-introduced equation citation in a parsed file's
    docstrings."""
    citations: List[Citation] = []
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        docstring = ast.get_docstring(node, clean=False)
        if docstring is None:
            continue
        body = node.body[0]
        line = getattr(body, "lineno", 1)
        for match in _CITATION_RE.finditer(docstring):
            for eq_id in sorted(expand_citation_span(match.group(1))):
                citations.append(Citation(path=display_path, line=line, equation_id=eq_id))
    return citations


def collect_citations(
    src_root: Path, parsed: Optional[Mapping[Path, ast.AST]] = None
) -> List[Citation]:
    """Citations across every ``.py`` file under ``src_root``.

    ``parsed`` maps resolved paths to the trees a checker pass already
    holds; only the files it lacks are read and parsed here.
    """
    parsed = parsed or {}
    citations: List[Citation] = []
    for path in sorted(src_root.rglob("*.py")):
        tree = parsed.get(path.resolve())
        if tree is None:
            try:
                tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            except SyntaxError:
                # The per-file pass reports unparsable files as E999;
                # the audit just skips them.
                continue
        citations.extend(citations_in_tree(tree, str(path)))
    return citations


# -- the audit ---------------------------------------------------------


@dataclass
class AuditResult:
    """The audit's findings plus the data they were derived from."""

    findings: List[Finding] = field(default_factory=list)
    entries: List[EquationEntry] = field(default_factory=list)
    citations: List[Citation] = field(default_factory=list)


def audit_equations(
    manifest_path: Path,
    src_root: Path,
    repo_root: Optional[Path] = None,
    parsed: Optional[Mapping[Path, ast.AST]] = None,
) -> AuditResult:
    """Cross-check the manifest against the tree's docstring citations.

    ``repo_root`` anchors the manifest's relative module paths; it
    defaults to the manifest's grandparent (``docs/..``).  ``parsed``
    is passed on to :func:`collect_citations`.
    """
    result = AuditResult()
    manifest_display = str(manifest_path)
    try:
        result.entries = load_manifest(manifest_path)
    except (OSError, ManifestError) as exc:
        result.findings.append(
            Finding(path=manifest_display, line=1, col=1, rule_id="EQ003", message=str(exc))
        )
        return result
    root = repo_root if repo_root is not None else manifest_path.resolve().parent.parent

    seen_ids: Set[int] = set()
    for entry in result.entries:
        if entry.equation_id in seen_ids:
            result.findings.append(
                Finding(
                    path=manifest_display,
                    line=1,
                    col=1,
                    rule_id="EQ003",
                    message=f"duplicate manifest entry for equation {entry.equation_id}",
                )
            )
        seen_ids.add(entry.equation_id)
        if entry.status == "analysis":
            if entry.modules:
                result.findings.append(
                    Finding(
                        path=manifest_display,
                        line=1,
                        col=1,
                        rule_id="EQ003",
                        message=(
                            f"equation {entry.equation_id}: analysis-status entries "
                            "own no modules (drop 'modules' or set status = "
                            '"implemented")'
                        ),
                    )
                )
            if not entry.note.strip():
                result.findings.append(
                    Finding(
                        path=manifest_display,
                        line=1,
                        col=1,
                        rule_id="EQ003",
                        message=(
                            f"equation {entry.equation_id}: analysis-status entries "
                            "must carry a note explaining why no module owns them"
                        ),
                    )
                )
        elif not entry.modules:
            result.findings.append(
                Finding(
                    path=manifest_display,
                    line=1,
                    col=1,
                    rule_id="EQ003",
                    message=(
                        f"equation {entry.equation_id}: implemented-status entries "
                        "must list at least one owning module"
                    ),
                )
            )
        for module in entry.modules:
            if not (root / module).is_file():
                result.findings.append(
                    Finding(
                        path=manifest_display,
                        line=1,
                        col=1,
                        rule_id="EQ003",
                        message=(
                            f"equation {entry.equation_id}: owning module "
                            f"{module} does not exist"
                        ),
                    )
                )

    result.citations = collect_citations(src_root, parsed)
    cited_by_path: Dict[str, Set[int]] = {}
    for citation in result.citations:
        resolved = str(Path(citation.path).resolve())
        cited_by_path.setdefault(resolved, set()).add(citation.equation_id)

    for entry in result.entries:
        if entry.status != "implemented":
            continue
        owners = [str((root / module).resolve()) for module in entry.modules]
        if not owners or not all((root / m).is_file() for m in entry.modules):
            continue  # already reported as EQ003
        if not any(entry.equation_id in cited_by_path.get(owner, set()) for owner in owners):
            result.findings.append(
                Finding(
                    path=manifest_display,
                    line=1,
                    col=1,
                    rule_id="EQ001",
                    message=(
                        f"equation {entry.equation_id} ({entry.title}, "
                        f"Section {entry.section}) is never cited in its owning "
                        f"module(s): {', '.join(entry.modules)}"
                    ),
                )
            )

    for citation in result.citations:
        if citation.equation_id not in seen_ids:
            result.findings.append(
                Finding(
                    path=citation.path,
                    line=citation.line,
                    col=1,
                    rule_id="EQ002",
                    message=(
                        f"docstring cites equation {citation.equation_id}, which "
                        f"is not in {manifest_display}"
                    ),
                )
            )

    result.findings.sort(key=lambda f: (f.path, f.line, f.rule_id, f.message))
    return result


#: Catalogue entries of the audit rules.
EQUATION_RULES: Dict[str, RuleInfo] = {
    "EQ001": RuleInfo(
        "EQ001",
        "implemented equations must be cited by their owning modules",
        """\
docs/equations.toml declares, for every numbered construct of the
paper, which modules implement it.  If an owning module's docstrings
never cite the equation, the manifest and the code disagree — either
the implementation moved, or the docstring citation (which R005
mandates for control/solver modules and reviewers navigate by) was
never written.

Fix: cite the equation in the owning module's docstring ("Eq. 14",
"Eqs. 9-14", "Constraint (22)"), or correct the manifest's module
list.
""",
    ),
    "EQ002": RuleInfo(
        "EQ002",
        "docstring citations must reference manifest equations",
        """\
A docstring citing an equation id absent from docs/equations.toml is
either a typo for a real equation or a reference to one the paper
does not have; both corrupt the paper-to-code navigation map.

Fix: correct the citation, or — if the paper really numbers this
construct — add a [[equation]] entry to docs/equations.toml.
""",
    ),
    "EQ003": RuleInfo(
        "EQ003",
        "the equations manifest must be well-formed",
        """\
docs/equations.toml is machine-read by this audit: entries need a
unique positive integer id, a section, a title, and either
status = "implemented" with at least one existing owning-module path
(relative to the repo root) or status = "analysis" with a note
explaining why no code owns the construct (e.g. a derivation step
subsumed by another implementation).
""",
    ),
}
