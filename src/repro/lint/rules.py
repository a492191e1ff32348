"""The project lint rules (R001-R006), implemented over ``ast``.

Each rule is a small class with an id, a one-line title, a long
``explain`` text (surfaced by ``python -m repro.lint --explain R00x``)
and a ``check`` method yielding :class:`Finding` objects.  Rules see a
:class:`FileContext` describing where the file sits in the repo (library
vs. test code), because several rules are scoped: the RNG discipline is
strict in library code but allows explicitly seeded generators in
tests; float-equality and annotation rules do not apply to test code
at all.

Suppression: a trailing ``# noqa`` comment silences every rule on that
line; ``# noqa: R002`` silences only the listed rule ids.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: Legacy ``numpy.random`` module-level functions that mutate or read
#: the hidden global RandomState — forbidden everywhere (R001).
LEGACY_GLOBAL_RANDOM_FNS = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "random_integers",
        "ranf",
        "sample",
        "choice",
        "bytes",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "poisson",
        "exponential",
        "binomial",
        "beta",
        "gamma",
        "lognormal",
        "get_state",
        "set_state",
        "RandomState",
    }
)

#: Builtin/collections constructors that produce mutable objects (R003).
MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter", "OrderedDict"}
)

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9,\s]+))?", re.IGNORECASE)

_EQUATION_RE = re.compile(
    r"(?:Eq|Eqs|Equation|Constraint)s?\.?\s*\(?\s*\d+"
    r"|\(\d+\)"
    r"|Section\s+[IVXLC]+",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class Finding:
    """One lint violation at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        """``path:line:col: R00X message`` — the CLI output format."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


@dataclass
class FileContext:
    """Everything a rule needs to know about the file being checked."""

    path: Path
    display_path: str
    source: str
    tree: ast.AST
    #: Lines carrying a ``# noqa`` comment: line number -> suppressed
    #: rule ids (empty set means "suppress everything on this line").
    noqa: Dict[int, Set[str]] = field(default_factory=dict)

    @classmethod
    def build(cls, path: Path, display_path: str, source: str, tree: ast.AST) -> "FileContext":
        """Parse the noqa comments and assemble the context."""
        noqa: Dict[int, Set[str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _NOQA_RE.search(line)
            if match is None:
                continue
            codes = match.group("codes")
            if codes is None:
                noqa[lineno] = set()
            else:
                noqa[lineno] = {c.strip().upper() for c in codes.split(",") if c.strip()}
        return cls(
            path=path,
            display_path=display_path,
            source=source,
            tree=tree,
            noqa=noqa,
        )

    @property
    def is_test(self) -> bool:
        """True for test and benchmark code (rules relax there)."""
        parts = set(self.path.parts)
        if "tests" in parts or "benchmarks" in parts:
            return True
        name = self.path.name
        return name.startswith(("test_", "bench_")) or name == "conftest.py"

    @property
    def is_rng_module(self) -> bool:
        """True for ``sim/rng.py`` — the one home of generator creation."""
        return self.path.name == "rng.py" and self.path.parent.name == "sim"

    @property
    def is_library(self) -> bool:
        """True for files inside the installed ``repro`` package."""
        return "repro" in self.path.parts and not self.is_test

    def suppressed(self, line: int, rule_id: str) -> bool:
        """True when a ``# noqa`` comment silences ``rule_id`` here."""
        codes = self.noqa.get(line)
        if codes is None:
            return False
        return not codes or rule_id in codes

    def finding(self, node: ast.AST, rule_id: str, message: str) -> Optional[Finding]:
        """A :class:`Finding` at ``node``, unless noqa-suppressed."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        if self.suppressed(line, rule_id):
            return None
        return Finding(
            path=self.display_path,
            line=line,
            col=col,
            rule_id=rule_id,
            message=message,
        )


def _numpy_aliases(tree: ast.AST) -> Tuple[Dict[str, str], Dict[str, str]]:
    """Resolve the module's numpy import aliases.

    Returns:
        ``(modules, names)`` where ``modules`` maps local module
        aliases to canonical dotted paths (``np`` -> ``numpy``) and
        ``names`` maps directly imported attribute names
        (``default_rng`` -> ``numpy.random.default_rng``).
    """
    modules: Dict[str, str] = {}
    names: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy" or alias.name.startswith("numpy."):
                    modules[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "numpy":
                for alias in node.names:
                    if alias.name == "random":
                        modules[alias.asname or "random"] = "numpy.random"
            elif node.module == "numpy.random":
                for alias in node.names:
                    names[alias.asname or alias.name] = f"numpy.random.{alias.name}"
    return modules, names


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at a plain name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _canonical_call_target(
    node: ast.Call, modules: Dict[str, str], names: Dict[str, str]
) -> Optional[str]:
    """The canonical dotted path of a call's target, numpy-resolved."""
    if isinstance(node.func, ast.Name):
        return names.get(node.func.id)
    dotted = _dotted_name(node.func)
    if dotted is None:
        return None
    root, _, rest = dotted.partition(".")
    if root in modules:
        return f"{modules[root]}.{rest}" if rest else modules[root]
    return dotted


class Rule:
    """Base class: id, title, explain text, and the check hook."""

    rule_id: str = ""
    title: str = ""
    explain: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError


class RngDisciplineRule(Rule):
    """R001 — RNG streams are created in one place only."""

    rule_id = "R001"
    title = "no numpy global randomness / stray default_rng outside sim/rng.py"
    explain = """\
The repo's reproducibility contract (sim/rng.py) fans a single scenario
seed into named, independent streams so bound/architecture comparisons
stay *paired*: two runs sharing a seed see the identical environment
sample path.  Any code that creates its own generator or touches
numpy's hidden global RandomState breaks that pairing silently.

Forbidden:
  * the legacy global API anywhere: np.random.seed(...),
    np.random.uniform(...), np.random.RandomState(...), ...
  * np.random.default_rng(...) in library code outside sim/rng.py —
    accept an np.random.Generator argument and thread it explicitly;
  * np.random.default_rng() *without an explicit seed* in test or
    benchmark code (a seeded default_rng(123) fixture is fine there).

Fix: accept a Generator parameter, or derive a child stream via
RngStreams / SeedSequence.spawn in sim/rng.py.
"""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.is_rng_module:
            return
        modules, names = _numpy_aliases(ctx.tree)
        if not modules and not names:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = _canonical_call_target(node, modules, names)
            if target is None or not target.startswith("numpy.random."):
                continue
            attr = target.rsplit(".", 1)[1]
            finding: Optional[Finding] = None
            if attr == "default_rng":
                if not ctx.is_test:
                    finding = ctx.finding(
                        node,
                        self.rule_id,
                        "default_rng() outside sim/rng.py: thread an "
                        "np.random.Generator explicitly instead",
                    )
                elif not node.args and not any(
                    kw.arg == "seed" for kw in node.keywords
                ):
                    finding = ctx.finding(
                        node,
                        self.rule_id,
                        "unseeded default_rng() in test code is "
                        "non-deterministic: pass an explicit seed",
                    )
            elif attr in LEGACY_GLOBAL_RANDOM_FNS:
                finding = ctx.finding(
                    node,
                    self.rule_id,
                    f"numpy global-state randomness np.random.{attr}() "
                    "is forbidden: use an explicit np.random.Generator",
                )
            if finding is not None:
                yield finding


class FloatEqualityRule(Rule):
    """R002 — no exact float equality on computed quantities."""

    rule_id = "R002"
    title = "no float == / != against float literals (use tolerance helpers)"
    explain = """\
Energy balances, queue backlogs and distances are accumulated floats;
comparing them to a float literal with == or != is a latent bug that
round-off turns into a missed branch (see the mobility waypoint check
that motivated this rule).  Comparisons between two computed values
(e.g. tie-detection against min() of the same collection) are exact by
construction and stay allowed; only literal comparands are flagged.

Fix: use repro.constants.approx_eq / approx_zero, or restructure the
comparison as an inequality with an explicit tolerance.  Intentional
exact comparisons (e.g. dropping exactly-zero LP coefficients) carry a
`# noqa: R002` with a justification.

Test code is exempt: asserting exact deterministic outputs is the
point of a regression test.
"""

    @staticmethod
    def _is_float_literal(node: ast.AST) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.USub, ast.UAdd)
        ):
            node = node.operand
        return isinstance(node, ast.Constant) and isinstance(node.value, float)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.is_test:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            involved = [node.left, *node.comparators]
            for op, left, right in zip(
                node.ops, involved[:-1], involved[1:]
            ):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._is_float_literal(left) or self._is_float_literal(right):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    finding = ctx.finding(
                        node,
                        self.rule_id,
                        f"exact float {symbol} against a literal: use "
                        "repro.constants.approx_eq/approx_zero",
                    )
                    if finding is not None:
                        yield finding
                    break


class MutableDefaultRule(Rule):
    """R003 — no mutable default arguments."""

    rule_id = "R003"
    title = "no mutable default arguments"
    explain = """\
A mutable default ([], {}, set(), defaultdict(...)) is evaluated once
at definition time and shared across every call; state leaks between
calls, which in this codebase means state leaks between *slots* or
between *simulation runs* — exactly the class of bug the paired-seed
reproducibility setup cannot tolerate.

Fix: default to None and construct inside the body, or use
dataclasses.field(default_factory=...) in dataclass definitions.
"""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    name = getattr(node, "name", "<lambda>")
                    finding = ctx.finding(
                        default,
                        self.rule_id,
                        f"mutable default argument in {name}(): use "
                        "None and construct in the body",
                    )
                    if finding is not None:
                        yield finding

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            return name in MUTABLE_CONSTRUCTORS
        return False


class PublicAnnotationRule(Rule):
    """R004 — public library functions carry full type annotations."""

    rule_id = "R004"
    title = "public functions in src/repro must be fully type-annotated"
    explain = """\
mypy runs strict only on the foundation modules (repro.types,
repro.constants, repro.contracts, repro.lint); this rule extends one
strict guarantee — annotated public surfaces — to the whole library so
call-site errors surface at review time rather than inside a 10k-slot
run.  Every parameter (except self/cls) and the return type of every
public function or public-class method defined in src/repro must be
annotated.

Private helpers (leading underscore), dunders, nested functions and
test code are exempt; @overload stubs are exempt.
"""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.is_library:
            return
        module = ctx.tree
        if not isinstance(module, ast.Module):
            return
        for node in module.body:
            yield from self._check_scope(ctx, node, is_method=False)

    def _check_scope(
        self, ctx: FileContext, node: ast.stmt, is_method: bool
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from self._check_function(ctx, node, is_method)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for member in node.body:
                yield from self._check_scope(ctx, member, is_method=True)

    def _check_function(
        self,
        ctx: FileContext,
        node: ast.stmt,
        is_method: bool,
    ) -> Iterator[Finding]:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if node.name.startswith("_"):
            return
        for decorator in node.decorator_list:
            dotted = _dotted_name(decorator) or ""
            if dotted.split(".")[-1] == "overload":
                return
        args = node.args
        positional = list(args.posonlyargs) + list(args.args)
        if is_method and positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        missing = [
            a.arg
            for a in positional + list(args.kwonlyargs)
            if a.annotation is None
        ]
        for vararg in (args.vararg, args.kwarg):
            if vararg is not None and vararg.annotation is None:
                missing.append(vararg.arg)
        if missing:
            finding = ctx.finding(
                node,
                self.rule_id,
                f"public function {node.name}() has unannotated "
                f"parameter(s): {', '.join(missing)}",
            )
            if finding is not None:
                yield finding
        if node.returns is None:
            finding = ctx.finding(
                node,
                self.rule_id,
                f"public function {node.name}() has no return annotation",
            )
            if finding is not None:
                yield finding


class EquationCitationRule(Rule):
    """R005 — control/solver modules cite their paper equations."""

    rule_id = "R005"
    title = "control and solver modules must cite paper equation numbers"
    explain = """\
The control plane (repro/control/*) and the numerical solvers
(repro/solvers/*) each implement a specific piece of the paper's
Section IV decomposition; the mapping from module to equations is the
primary navigation aid when auditing the reproduction against the
paper.  Every such module's docstring must cite at least one equation,
constraint, or section number — e.g. "Eq. 15", "(22)", "Eqs. 9-14",
or "Section IV-C-1".

__init__.py re-export shims and test code are exempt.
"""

    _SCOPED_DIRS = ("control", "solvers")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.is_test or ctx.path.name == "__init__.py":
            return
        if ctx.path.parent.name not in self._SCOPED_DIRS:
            return
        if "repro" not in ctx.path.parts:
            return
        module = ctx.tree
        if not isinstance(module, ast.Module):
            return
        docstring = ast.get_docstring(module)
        if docstring is None:
            finding = ctx.finding(
                module,
                self.rule_id,
                "control/solver module has no docstring (must cite its "
                "paper equations)",
            )
            if finding is not None:
                yield finding
            return
        if not _EQUATION_RE.search(docstring):
            finding = ctx.finding(
                module,
                self.rule_id,
                "module docstring cites no paper equation/constraint/"
                "section number",
            )
            if finding is not None:
                yield finding


class HotPathDictLoopRule(Rule):
    """R006 — hot-path modules stay vectorized over state containers."""

    rule_id = "R006"
    title = "no per-item dict iteration over state containers in hot-path modules"
    explain = """\
PR 5 moved the per-slot state — data queues Q_i^s (Eq. 15), virtual
queues G_ij/H_ij (Eqs. 28/30), battery levels and z_i (Eq. 31) — into
the struct-of-arrays core (repro/core/arraystate.py), which also holds
the Eq. 4/15/28 update kernels.  The hot per-slot modules
(repro/core/arraystate.py, repro/queueing/*, repro/state.py,
repro/control/router.py, repro/control/scheduler.py) update that state
through vectorized numpy kernels; a `for key, value in self.<container>.items()` loop over
nodes, links, or sessions in those modules silently reintroduces the
interpreter-bound path the refactor removed.

Flagged: for-loops and comprehensions iterating `.items()` /
`.values()` / `.keys()` of an *attribute-chain* receiver (e.g.
`self._queues.items()`, `state.renewables.items()`) — those are the
persistent containers that scale with network size.

Exempt by design:
  * bare-name receivers (`transfer.items()`): local working dicts are
    decision-sized, not network-sized;
  * functions whose docstring marks them "cold path" (constructors,
    snapshot/diagnostic pretty-printing that runs outside the slot
    loop);
  * anything carrying `# noqa: R006` with a justification.

Fix: index through the frozen ArrayState layout (q, g, battery_level
and the link_tx/link_rx index arrays) instead of looping per key, or
document why the loop is not hot.
"""

    _DICT_METHODS = frozenset({"items", "values", "keys"})
    _HOT_CONTROL_FILES = frozenset({"router.py", "scheduler.py"})

    def _in_scope(self, ctx: FileContext) -> bool:
        if not ctx.is_library:
            return False
        parent = ctx.path.parent.name
        if parent == "queueing":
            return True
        if ctx.path.name == "arraystate.py" and parent == "core":
            return True
        if ctx.path.name == "state.py" and parent == "repro":
            return True
        return parent == "control" and ctx.path.name in self._HOT_CONTROL_FILES

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not self._in_scope(ctx):
            return
        yield from self._walk(ctx, ctx.tree, exempt=False)

    def _walk(
        self, ctx: FileContext, node: ast.AST, exempt: bool
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            child_exempt = exempt
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                docstring = ast.get_docstring(child) or ""
                if "cold path" in docstring.lower():
                    child_exempt = True
            if not child_exempt:
                if isinstance(child, ast.For):
                    iterables = [child.iter]
                elif isinstance(
                    child,
                    (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
                ):
                    iterables = [gen.iter for gen in child.generators]
                else:
                    iterables = []
                for iterable in iterables:
                    receiver = self._state_dict_receiver(iterable)
                    if receiver is None:
                        continue
                    finding = ctx.finding(
                        iterable,
                        self.rule_id,
                        f"per-item iteration over {receiver} in a hot-path "
                        "module: use the ArrayState vectorized kernels, or "
                        'mark the enclosing function "cold path"',
                    )
                    if finding is not None:
                        yield finding
            yield from self._walk(ctx, child, child_exempt)

    def _state_dict_receiver(self, node: ast.AST) -> Optional[str]:
        """The dotted receiver of ``<attr-chain>.items()``-style iterables."""
        if not isinstance(node, ast.Call) or node.args or node.keywords:
            return None
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in self._DICT_METHODS:
            return None
        # Bare-name receivers (local working dicts) are exempt; only
        # attribute chains — persistent state containers — are hot.
        if not isinstance(func.value, ast.Attribute):
            return None
        return _dotted_name(func.value) or "a state container"


#: Every rule, in id order — the CLI's default selection.
ALL_RULES: Sequence[Rule] = (
    RngDisciplineRule(),
    FloatEqualityRule(),
    MutableDefaultRule(),
    PublicAnnotationRule(),
    EquationCitationRule(),
    HotPathDictLoopRule(),
)

RULES_BY_ID: Dict[str, Rule] = {rule.rule_id: rule for rule in ALL_RULES}
