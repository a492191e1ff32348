"""Determinism lint rules (R030-R032).

The repo's reproducibility contract is bit-identity: a scenario seed
fully determines the sample path (``sim/rng.py`` stream separation),
serial and parallel sweeps must agree byte-for-byte, and the
committed trajectory fingerprints must reproduce on every run.  Three
rule families guard the ways that contract silently erodes:

* **R030** — drawing randomness outside the seeded stream discipline:
  legacy global ``np.random.*`` calls, stdlib ``random`` module
  functions, or unseeded ``default_rng()`` / ``Generator`` /
  ``RandomState`` construction anywhere but ``sim/rng.py``;
* **R031** — wallclock reads (``time.time``, ``datetime.now``, ...)
  in library code, where they can leak into simulation state or
  recorded results (monotonic ``perf_counter`` timing is fine — it
  measures elapsed cost, not state);
* **R032** — iterating an unordered ``set``/``frozenset`` where the
  iteration order can reach results or RNG consumption order.
  Order-insensitive consumers (``sorted``, ``min``/``max``, ``sum``,
  ``any``/``all``, ``len``, set-to-set operations) are allowed.

All three are plain AST rules on the ``repro.lint`` chassis and run
with the dataflow passes under ``python -m repro.analysis``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.analysis.dataflow import AnalysisRuleInfo
from repro.lint.rules import (
    LEGACY_GLOBAL_RANDOM_FNS,
    FileContext,
    Finding,
    Rule,
    _canonical_call_target,
    _numpy_aliases,
)

#: stdlib ``random`` module-level draw functions (module state).
STDLIB_RANDOM_FNS = frozenset(
    {
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "sample", "shuffle", "seed", "getrandbits", "gauss", "normalvariate",
        "expovariate", "betavariate", "triangular", "vonmisesvariate",
        "paretovariate", "weibullvariate", "lognormvariate", "binomialvariate",
    }
)

#: Wallclock call targets (dotted, after alias canonicalization).
WALLCLOCK_TARGETS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
    }
)

#: Call names whose consumption of an iterable is order-insensitive.
ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {"sorted", "min", "max", "sum", "any", "all", "set", "frozenset", "len"}
)


class GlobalRngRule(Rule):
    """R030: all randomness flows through the seeded stream discipline."""

    rule_id = "R030"
    title = "no RNG draws outside the seeded sim/rng.py streams"
    explain = """\
Bit-identical replications require every random draw to come from a
named, seed-derived stream (sim/rng.py RngStreams).  Three escape
hatches break that silently:

- legacy global numpy draws (np.random.rand, np.random.choice, ...)
  share one hidden global state across the whole process;
- stdlib random module functions (random.random, random.shuffle, ...)
  do the same, and are additionally affected by hash randomization
  when seeded from object hashes;
- an unseeded np.random.default_rng() / Generator(...) pulls OS
  entropy, so no seed reproduces the run.

Library code must accept an np.random.Generator (or RngStreams) from
its caller.  Tests may construct their own generators but must seed
them.  sim/rng.py itself is the sanctioned construction site and is
exempt.  Suppress deliberate exceptions with `# noqa: R030` and a
one-line justification.
"""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.is_rng_module:
            return
        modules, names = _numpy_aliases(ctx.tree)
        stdlib_random_names = _stdlib_random_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            finding = self._check_call(
                ctx, node, modules, names, stdlib_random_names
            )
            if finding is not None:
                yield finding

    def _check_call(
        self,
        ctx: FileContext,
        node: ast.Call,
        modules: Dict[str, str],
        names: Dict[str, str],
        stdlib_random_names: Set[str],
    ) -> Optional[Finding]:
        target = _canonical_call_target(node, modules, names)
        if target is not None and target.startswith("numpy.random."):
            attr = target.rsplit(".", 1)[1]
            if attr in LEGACY_GLOBAL_RANDOM_FNS:
                return ctx.finding(
                    node,
                    self.rule_id,
                    f"legacy global np.random.{attr}() shares hidden "
                    "process-wide state: draw from a seeded RngStreams "
                    "generator (sim/rng.py) instead",
                )
            if attr in ("default_rng", "Generator", "RandomState"):
                if not node.args and not node.keywords:
                    return ctx.finding(
                        node,
                        self.rule_id,
                        f"unseeded np.random.{attr}() draws OS entropy: "
                        "no seed can reproduce the run; pass a seed or a "
                        "spawned SeedSequence",
                    )
                if not ctx.is_test:
                    return ctx.finding(
                        node,
                        self.rule_id,
                        f"np.random.{attr}() constructed in library "
                        "code: accept an np.random.Generator from the "
                        "caller (see sim/rng.py stream discipline)",
                    )
                return None
        # stdlib random: both `random.random()` and `from random import x`.
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in stdlib_random_names
            and func.attr in STDLIB_RANDOM_FNS | {"Random", "SystemRandom"}
        ):
            return ctx.finding(
                node,
                self.rule_id,
                f"stdlib random.{func.attr}() bypasses the seeded numpy "
                "stream discipline: use an np.random.Generator from "
                "sim/rng.py",
            )
        return None


def _stdlib_random_aliases(tree: ast.AST) -> Set[str]:
    """Names the stdlib ``random`` module is bound to in this file."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    names.add(alias.asname or "random")
    return names


class WallclockRule(Rule):
    """R031: no wallclock reads in library code."""

    rule_id = "R031"
    title = "no wallclock influencing sim state"
    explain = """\
A simulation step that reads time.time() or datetime.now() produces
state that can never be reproduced from the scenario seed, and a
result record stamped with wallclock breaks byte-for-byte comparison
between serial and parallel sweep runs.

The rule flags wallclock call targets (time.time, time.time_ns,
datetime.now/utcnow/today, date.today, time.localtime/gmtime/ctime)
in library code.  Monotonic elapsed-time measurement
(time.perf_counter, time.monotonic) is deliberately allowed: it
measures cost, not state, and the sweep executor reports it as
timing metadata only.  Tests and benchmarks are out of scope.
Suppress deliberate uses (e.g. a log header) with `# noqa: R031` and
a one-line justification.
"""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.is_library:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = _dotted_call_target(node.func)
            if target in WALLCLOCK_TARGETS:
                yield from _maybe(
                    ctx.finding(
                        node,
                        self.rule_id,
                        f"wallclock read {target}() in library code: derive "
                        "sim state from the seeded environment and timestamp "
                        "results outside the library (perf_counter is fine "
                        "for elapsed timing)",
                    )
                )


class SetIterationRule(Rule):
    """R032: no iteration over unordered sets feeding ordered consumers."""

    rule_id = "R032"
    title = "no set-iteration order reaching results or RNG order"
    explain = """\
Python set iteration order depends on insertion history and element
hashes — and str hashes are randomized per process.  A `for` loop over
a set that appends to results, draws from an RNG, or fixes variables
decides those effects in an order that differs between runs and
between the serial and parallel sweep paths.

The rule flags for-loops, comprehensions and list()/tuple() calls over
expressions that are provably sets (set literals/comprehensions,
set()/frozenset() calls, variables assigned only those), unless the
iteration feeds an order-insensitive consumer (sorted, min/max, sum,
any/all, len, set/frozenset).

Fix: iterate `sorted(the_set)` (with an explicit key for non-trivially
ordered elements), or keep a deterministically ordered list alongside
the membership set.  Provably order-independent loops (pure membership
updates) carry `# noqa: R032` with a justification.
"""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.is_library:
            return
        for func in ast.walk(ctx.tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, func)

    def _check_function(
        self, ctx: FileContext, func: ast.AST
    ) -> Iterator[Finding]:
        set_names = _set_bound_names(func)
        skip: Set[int] = set()
        for nested in ast.walk(func):
            if (
                isinstance(nested, (ast.FunctionDef, ast.AsyncFunctionDef))
                and nested is not func
            ):
                for node in ast.walk(nested):
                    skip.add(id(node))
        for node in ast.walk(func):
            if id(node) in skip:
                continue
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_set_expr(node.iter, set_names):
                    yield from _maybe(
                        ctx.finding(
                            node,
                            self.rule_id,
                            "for-loop over an unordered set: iterate "
                            "sorted(...) so effects apply in a "
                            "deterministic order",
                        )
                    )
            elif isinstance(node, (ast.ListComp, ast.DictComp)):
                yield from self._check_comprehension(ctx, node, set_names)
            elif isinstance(node, ast.GeneratorExp):
                # Flagged only when the surrounding call is
                # order-sensitive; handled via the Call branch below.
                continue
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, set_names)

    def _check_comprehension(
        self, ctx: FileContext, node: ast.expr, set_names: Set[str]
    ) -> Iterator[Finding]:
        for comp in getattr(node, "generators", []):
            if self._is_set_expr(comp.iter, set_names):
                kind = (
                    "dict" if isinstance(node, ast.DictComp) else "list"
                )
                yield from _maybe(
                    ctx.finding(
                        node,
                        self.rule_id,
                        f"{kind} comprehension over an unordered set "
                        "produces a nondeterministic order: iterate "
                        "sorted(...) instead",
                    )
                )

    def _check_call(
        self, ctx: FileContext, node: ast.Call, set_names: Set[str]
    ) -> Iterator[Finding]:
        name = node.func.id if isinstance(node.func, ast.Name) else None
        if name in ("list", "tuple") and len(node.args) == 1:
            if self._is_set_expr(node.args[0], set_names):
                yield from _maybe(
                    ctx.finding(
                        node,
                        self.rule_id,
                        f"{name}() of an unordered set freezes a "
                        "nondeterministic order: use sorted(...) instead",
                    )
                )
            return
        if name in ORDER_INSENSITIVE_CONSUMERS:
            return
        # Order-sensitive call consuming a genexp over a set, e.g.
        # "".join(f(x) for x in some_set).
        for arg in node.args:
            if isinstance(arg, ast.GeneratorExp):
                for comp in arg.generators:
                    if self._is_set_expr(comp.iter, set_names):
                        yield from _maybe(
                            ctx.finding(
                                arg,
                                self.rule_id,
                                "generator over an unordered set feeding "
                                f"{name or 'a call'}(): iterate sorted(...) "
                                "so consumption order is deterministic",
                            )
                        )

    @staticmethod
    def _is_set_expr(node: ast.expr, set_names: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node, ast.Name):
            return node.id in set_names
        return False


def _set_bound_names(func: ast.AST) -> Set[str]:
    """Names bound *only* to provable set expressions in ``func``."""
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    bound: Dict[str, bool] = {}

    def note(name: str, is_set: bool) -> None:
        bound[name] = bound.get(name, True) and is_set

    args = func.args
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        if _is_set_annotation(arg.annotation):
            note(arg.arg, True)
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    note(target.id, _is_plain_set(node.value))
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            if node.value is not None:
                note(node.target.id, _is_plain_set(node.value))
        elif isinstance(node, ast.AugAssign) and isinstance(
            node.target, ast.Name
        ):
            note(node.target.id, False)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if isinstance(node.target, ast.Name):
                note(node.target.id, False)
    return {name for name, is_set in bound.items() if is_set}


def _is_plain_set(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_set_annotation(node: Optional[ast.expr]) -> bool:
    """``set`` / ``Set[...]`` / ``frozenset`` parameter annotations."""
    if node is None:
        return False
    if isinstance(node, ast.Subscript):
        node = node.value
    name: Optional[str] = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value.split("[")[0].strip()
    return name in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet")


def _dotted_call_target(func: ast.expr) -> Optional[str]:
    """``a.b.c`` for an attribute-chain call target, else the bare name."""
    parts: List[str] = []
    node: ast.expr = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _maybe(finding: Optional[Finding]) -> Iterator[Finding]:
    if finding is not None:
        yield finding


#: The determinism checkers, in rule-id order.
DETERMINISM_RULE_CLASSES = (GlobalRngRule, WallclockRule, SetIterationRule)

DETERMINISM_RULES: Dict[str, AnalysisRuleInfo] = {
    cls.rule_id: AnalysisRuleInfo(cls.rule_id, cls.title, cls.explain)
    for cls in DETERMINISM_RULE_CLASSES
}
