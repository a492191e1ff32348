"""Units/dimension dataflow analysis (rules R010-R012).

Layered on the ``repro.lint`` AST infrastructure (:class:`FileContext`,
:class:`Finding`, noqa suppression), this module infers a unit lattice
element (see :mod:`repro.analysis.unitlattice`) for every local
variable of every function and flags arithmetic that mixes
incompatible physical quantities:

* **R010** — adding, subtracting or comparing values of different
  dimensions or scales (watts + joules, joules vs. kWh, ...);
* **R011** — dB/linear confusion: multiplying dB-scale values, or
  passing a dB value where a linear one is expected (and vice versa);
* **R012** — mixing per-slot and per-second rates without an explicit
  ``slot_seconds`` conversion.

Unit facts enter the analysis only through annotations — function
parameters and ``x: Joules = ...`` assignments using the
:mod:`repro.units` aliases — and through calls to functions with
annotated signatures (the ``repro.constants`` converters and
``repro.units`` dB helpers are built in; same-module signatures are
collected in a pre-pass).  Numeric literals are scalars; everything
else starts ``UNKNOWN``, so the analyzer is conservative: it reports
only when it can prove both operands' units.

The flow is a single forward pass per function: branches of ``if`` /
``try`` are analyzed on copies of the environment and joined; loop
bodies are analyzed once and joined with the pre-loop state (enough
for unit inference, which has no interesting loop-carried widening);
ternaries join their arms.  Nested functions are analyzed separately
with fresh environments.

:func:`run_units` lifts the same pass to whole-program scope: each
module's index resolves calls through the
:class:`~repro.analysis.callgraph.Program` import map into a global
signature table before falling back to same-module lookup, so a
``Watts`` argument handed to a ``Joules`` parameter declared in
another module is R010 too.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.unitlattice import (
    SCALAR,
    UNKNOWN,
    Elem,
    add_result,
    classify_mismatch,
    join,
    unit_elem,
)
from repro.analysis.unitlattice import mul_result as _mul
from repro.analysis.unitlattice import div_result as _div
from repro.axes import ALIAS_UNITS as _AXES_UNITS
from repro.lint.rules import FileContext, Finding, Rule
from repro.units import ALIAS_UNITS, Unit

if TYPE_CHECKING:  # callgraph imports this module at load time
    from repro.analysis.callgraph import ModuleInfo, Program

#: A callable signature the analyzer knows: parameter names with their
#: units (None = unconstrained) and the return unit.
Signature = Tuple[Tuple[Tuple[str, Optional[Unit]], ...], Optional[Unit]]

_UNIT = {name: unit for name, unit in ALIAS_UNITS.items()}


def _sig(params: Sequence[Tuple[str, Optional[str]]], ret: Optional[str]) -> Signature:
    from repro.units import UNIT_BY_SYMBOL

    return (
        tuple((name, UNIT_BY_SYMBOL[sym] if sym else None) for name, sym in params),
        UNIT_BY_SYMBOL[ret] if ret else None,
    )


#: The ``repro.constants`` converters and ``repro.units`` helpers,
#: always in scope regardless of which file is being analyzed.
BUILTIN_SIGNATURES: Dict[str, Signature] = {
    "kwh_to_joules": _sig([("kwh", "kWh")], "J"),
    "wh_to_joules": _sig([("wh", "Wh")], "J"),
    "joules_to_kwh": _sig([("joules", "J")], "kWh"),
    "joules_to_wh": _sig([("joules", "J")], "Wh"),
    "watts_over_slot_to_joules": _sig([("watts", "W"), ("slot_seconds", "s")], "J"),
    "kbps_to_bits_per_slot": _sig([("kbps", "kbit/s"), ("slot_seconds", "s")], "bit/slot"),
    "db_to_linear": _sig([("value_db", "dB")], "lin"),
    "linear_to_db": _sig([("value_linear", "lin")], "dB"),
}

#: Builtins that preserve their (single) argument's unit.
_PRESERVING_BUILTINS = frozenset({"abs", "float", "round"})
#: Builtins returning the join of their arguments' units.
_JOINING_BUILTINS = frozenset({"min", "max"})


class UnitEnv(Dict[str, Elem]):
    """Variable name -> lattice element, with a branch-join helper."""

    def copy(self) -> "UnitEnv":
        return UnitEnv(self)

    @staticmethod
    def joined(a: "UnitEnv", b: "UnitEnv") -> "UnitEnv":
        merged = UnitEnv()
        for name in set(a) | set(b):
            merged[name] = join(a.get(name, UNKNOWN), b.get(name, UNKNOWN))
        return merged


class _ModuleIndex:
    """Per-module context shared by all function analyses.

    Resolves ``repro.units`` alias imports and collects the annotated
    signatures of the module's own functions so intra-module calls
    check their arguments.
    """

    def __init__(self, tree: ast.AST) -> None:
        self.alias_names: Dict[str, Unit] = {}
        self.module_aliases: List[str] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "repro.units":
                    for alias in node.names:
                        unit = _UNIT.get(alias.name)
                        if unit is not None:
                            self.alias_names[alias.asname or alias.name] = unit
                elif node.module == "repro.axes":
                    # Unit-carrying array aliases (NodeJoules, ...)
                    # feed the units lattice too.
                    for alias in node.names:
                        unit = _AXES_UNITS.get(alias.name)
                        if unit is not None:
                            self.alias_names[alias.asname or alias.name] = unit
                elif node.module == "repro" and any(a.name == "units" for a in node.names):
                    for alias in node.names:
                        if alias.name == "units":
                            self.module_aliases.append(alias.asname or "units")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "repro.units":
                        self.module_aliases.append(alias.asname or "repro.units")
        self.signatures: Dict[str, Optional[Signature]] = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sig = self._signature_of(node)
                if node.name in self.signatures and self.signatures[node.name] != sig:
                    # Same name, different signatures (e.g. an abstract
                    # method and its overrides): ambiguous, drop it.
                    self.signatures[node.name] = None
                else:
                    self.signatures[node.name] = sig

    def annotation_unit(self, node: Optional[ast.expr]) -> Optional[Unit]:
        """The :class:`Unit` named by an annotation expression, if any."""
        if node is None:
            return None
        if isinstance(node, ast.Name):
            return self.alias_names.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in self.module_aliases or node.value.id == "units":
                return _UNIT.get(node.attr)
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A stringified annotation: resolve the bare alias name.
            return self.alias_names.get(node.value) or _UNIT.get(node.value)
        return None

    def _signature_of(self, node: ast.AST) -> Signature:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        args = node.args
        positional = list(args.posonlyargs) + list(args.args)
        if positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        params = tuple(
            (a.arg, self.annotation_unit(a.annotation))
            for a in positional + list(args.kwonlyargs)
        )
        return params, self.annotation_unit(node.returns)

    def lookup_call(self, func: ast.expr) -> Optional[Signature]:
        """Signature for a call target, by bare or attribute name."""
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            return None
        builtin = BUILTIN_SIGNATURES.get(name)
        if builtin is not None:
            return builtin
        return self.signatures.get(name)


class _FunctionAnalysis:
    """One forward dataflow pass over a single function body."""

    def __init__(
        self,
        ctx: FileContext,
        index: _ModuleIndex,
        func: ast.AST,
        emit: Callable[[Finding], None],
    ) -> None:
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        self._ctx = ctx
        self._index = index
        self._func = func
        self._emit = emit
        self._return_unit = index.annotation_unit(func.returns)

    def run(self) -> None:
        env = UnitEnv()
        args = self._func.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            unit = self._index.annotation_unit(arg.annotation)
            if unit is not None:
                env[arg.arg] = unit_elem(unit)
        self._walk_body(self._func.body, env)

    # -- statements ----------------------------------------------------

    def _walk_body(self, body: Sequence[ast.stmt], env: UnitEnv) -> None:
        for stmt in body:
            self._walk_stmt(stmt, env)

    def _walk_stmt(self, stmt: ast.stmt, env: UnitEnv) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are analyzed separately
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, env)
            for target in stmt.targets:
                self._bind(target, stmt.value, value, env)
        elif isinstance(stmt, ast.AnnAssign):
            declared = self._index.annotation_unit(stmt.annotation)
            inferred = self._eval(stmt.value, env) if stmt.value is not None else UNKNOWN
            if (
                declared is not None
                and inferred.kind == "unit"
                and inferred.unit is not None
                and inferred.unit.symbol != declared.symbol
            ):
                self._report_mismatch(stmt, declared, inferred.unit, "assigned to")
            elem = unit_elem(declared) if declared is not None else inferred
            if isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = elem
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                left = env.get(stmt.target.id, UNKNOWN)
                result = self._binop_result(stmt, stmt.op, left, self._eval(stmt.value, env))
                env[stmt.target.id] = result
            else:
                self._eval(stmt.value, env)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value = self._eval(stmt.value, env)
                if (
                    self._return_unit is not None
                    and value.kind == "unit"
                    and value.unit is not None
                    and value.unit.symbol != self._return_unit.symbol
                ):
                    self._report_mismatch(
                        stmt, self._return_unit, value.unit, "returned as"
                    )
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test, env)
            then_env, else_env = env.copy(), env.copy()
            self._walk_body(stmt.body, then_env)
            self._walk_body(stmt.orelse, else_env)
            merged = UnitEnv.joined(then_env, else_env)
            env.clear()
            env.update(merged)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._eval(stmt.iter, env)
            loop_env = env.copy()
            if isinstance(stmt.target, ast.Name):
                loop_env[stmt.target.id] = UNKNOWN
            self._walk_body(stmt.body, loop_env)
            self._walk_body(stmt.orelse, loop_env)
            merged = UnitEnv.joined(env, loop_env)
            env.clear()
            env.update(merged)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test, env)
            loop_env = env.copy()
            self._walk_body(stmt.body, loop_env)
            self._walk_body(stmt.orelse, loop_env)
            merged = UnitEnv.joined(env, loop_env)
            env.clear()
            env.update(merged)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval(item.context_expr, env)
            self._walk_body(stmt.body, env)
        elif isinstance(stmt, ast.Try):
            body_env = env.copy()
            self._walk_body(stmt.body, body_env)
            merged = body_env
            for handler in stmt.handlers:
                handler_env = env.copy()
                self._walk_body(handler.body, handler_env)
                merged = UnitEnv.joined(merged, handler_env)
            self._walk_body(stmt.orelse, merged)
            self._walk_body(stmt.finalbody, merged)
            env.clear()
            env.update(merged)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, env)
        elif isinstance(stmt, (ast.Assert,)):
            self._eval(stmt.test, env)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        # pass/break/continue/import/global/nonlocal: no unit effect.

    def _bind(self, target: ast.expr, value_node: ast.expr, value: Elem, env: UnitEnv) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            sources: List[Optional[ast.expr]]
            if isinstance(value_node, (ast.Tuple, ast.List)) and len(
                value_node.elts
            ) == len(target.elts):
                sources = list(value_node.elts)
            else:
                sources = [None] * len(target.elts)
            for sub_target, sub_source in zip(target.elts, sources):
                sub_value = self._eval(sub_source, env) if sub_source is not None else UNKNOWN
                self._bind(sub_target, sub_source or value_node, sub_value, env)
        # Attribute/subscript targets are not tracked.

    # -- expressions ---------------------------------------------------

    def _eval(self, node: ast.expr, env: UnitEnv) -> Elem:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
                return UNKNOWN
            return SCALAR
        if isinstance(node, ast.Name):
            return env.get(node.id, UNKNOWN)
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand, env)
            return operand if isinstance(node.op, (ast.UAdd, ast.USub)) else UNKNOWN
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, env)
            right = self._eval(node.right, env)
            return self._binop_result(node, node.op, left, right)
        if isinstance(node, ast.Compare):
            elems = [self._eval(node.left, env)]
            elems.extend(self._eval(c, env) for c in node.comparators)
            for a, b in zip(elems[:-1], elems[1:]):
                _, mismatch = add_result(a, b)
                if mismatch is not None:
                    self._report_pair(node, mismatch, "compared with")
            return UNKNOWN
        if isinstance(node, ast.BoolOp):
            parts = [self._eval(v, env) for v in node.values]
            result = parts[0]
            for part in parts[1:]:
                result = join(result, part)
            return result
        if isinstance(node, ast.IfExp):
            self._eval(node.test, env)
            return join(self._eval(node.body, env), self._eval(node.orelse, env))
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.Starred):
            return self._eval(node.value, env)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._eval(child, env)
            return UNKNOWN
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            return UNKNOWN
        if isinstance(node, ast.NamedExpr):
            value = self._eval(node.value, env)
            if isinstance(node.target, ast.Name):
                env[node.target.id] = value
            return value
        # Attribute, Subscript, Lambda, f-strings, ...: no tracking.
        return UNKNOWN

    def _eval_call(self, node: ast.Call, env: UnitEnv) -> Elem:
        func = node.func
        args = [self._eval(a, env) for a in node.args]
        kwargs = {
            kw.arg: self._eval(kw.value, env) for kw in node.keywords if kw.arg
        }
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in _PRESERVING_BUILTINS and len(args) == 1 and not kwargs:
            return args[0]
        if name in _JOINING_BUILTINS and args and not kwargs:
            result = args[0]
            for arg in args[1:]:
                result = join(result, arg)
            return result
        signature = self._index.lookup_call(func)
        if signature is None:
            return UNKNOWN
        params, return_unit = signature
        for position, elem in enumerate(args):
            if position < len(params):
                self._check_argument(node.args[position], params[position], elem, name)
        by_name = dict(params)
        for kw in node.keywords:
            if kw.arg and kw.arg in by_name:
                self._check_argument(kw.value, (kw.arg, by_name[kw.arg]), kwargs[kw.arg], name)
        return unit_elem(return_unit) if return_unit is not None else UNKNOWN

    def _check_argument(
        self,
        arg_node: ast.expr,
        param: Tuple[str, Optional[Unit]],
        elem: Elem,
        func_name: Optional[str],
    ) -> None:
        param_name, expected = param
        if expected is None or elem.kind != "unit" or elem.unit is None:
            return
        if elem.unit.symbol == expected.symbol:
            return
        if expected.dimension == "dimensionless" and elem.kind == "scalar":
            return
        rule_id = classify_mismatch(expected, elem.unit)
        finding = self._ctx.finding(
            arg_node,
            rule_id,
            f"argument '{param_name}' of {func_name or '<call>'}() expects "
            f"[{expected.symbol}] but receives [{elem.unit.symbol}]"
            + _hint(rule_id),
        )
        if finding is not None:
            self._emit(finding)

    def _binop_result(
        self, node: ast.AST, op: ast.operator, left: Elem, right: Elem
    ) -> Elem:
        if isinstance(op, (ast.Add, ast.Sub)):
            result, mismatch = add_result(left, right)
            if mismatch is not None:
                verb = "added to" if isinstance(op, ast.Add) else "subtracted from"
                self._report_pair(node, mismatch, verb)
            return result
        if isinstance(op, ast.Mult):
            result, mismatch = _mul(left, right)
            if mismatch is not None:
                self._report_pair(node, mismatch, "multiplied by")
            return result
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            result, mismatch = _div(left, right)
            if mismatch is not None:
                self._report_pair(node, mismatch, "divided by")
            return result
        if isinstance(op, ast.Mod):
            return left
        return UNKNOWN

    def _report_pair(self, node: ast.AST, pair: Tuple[Unit, Unit], verb: str) -> None:
        a, b = pair
        rule_id = classify_mismatch(a, b)
        finding = self._ctx.finding(
            node,
            rule_id,
            f"[{a.symbol}] {verb} [{b.symbol}]" + _hint(rule_id),
        )
        if finding is not None:
            self._emit(finding)

    def _report_mismatch(self, node: ast.AST, expected: Unit, got: Unit, verb: str) -> None:
        rule_id = classify_mismatch(expected, got)
        finding = self._ctx.finding(
            node,
            rule_id,
            f"[{got.symbol}] {verb} [{expected.symbol}]" + _hint(rule_id),
        )
        if finding is not None:
            self._emit(finding)


def _hint(rule_id: str) -> str:
    if rule_id == "R011":
        return " (convert with repro.units.db_to_linear/linear_to_db)"
    if rule_id == "R012":
        return " (convert with repro.constants.kbps_to_bits_per_slot or scale by slot_seconds)"
    return " (insert the repro.constants converter for this pair)"


class UnitDataflowRule(Rule):
    """R010-R012, implemented as one dataflow pass per function.

    The three rule ids share this checker because they share the
    inference; ``--select`` filters the emitted findings by id.
    """

    rule_id = "R010"
    title = "units/dimension dataflow analysis (R010-R012)"
    explain = """\
See `python -m repro.analysis --explain R010|R011|R012`.
"""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        findings: List[Finding] = []
        index = _ModuleIndex(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _FunctionAnalysis(ctx, index, node, findings.append).run()
        yield from findings


class _ProgramUnitIndex:
    """A module's unit index, falling back to the global signature
    table through the import map (whole-program R010-R012)."""

    def __init__(
        self,
        module: "ModuleInfo",
        program: "Program",
        global_signatures: Dict[str, Signature],
    ) -> None:
        self._module = module
        self._inner = module.unit_index
        self._program = program
        self._global = global_signatures

    def annotation_unit(self, node: Optional[ast.expr]) -> Optional[Unit]:
        return self._inner.annotation_unit(node)

    def lookup_call(self, func: ast.expr) -> Optional[Signature]:
        signature = self._inner.lookup_call(func)
        if signature is not None:
            return signature
        qualname: Optional[str] = None
        if isinstance(func, ast.Name):
            qualname = self._program.resolve_name(self._module, func.id)
        elif isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            base = self._module.imports.get(func.value.id)
            if base is not None:
                qualname = f"{base}.{func.attr}"
        if qualname is None:
            return None
        return self._global.get(qualname)


def _global_unit_signatures(program: "Program") -> Dict[str, Signature]:
    table: Dict[str, Signature] = {}
    for module in program.modules.values():
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                signature = module.unit_index._signature_of(stmt)
                params, ret = signature
                if ret is not None or any(u is not None for _, u in params):
                    table[f"{module.name}.{stmt.name}"] = signature
    return table


def run_units(program: "Program") -> List[Finding]:
    """Whole-program units/dimension analysis (R010-R012)."""
    findings: List[Finding] = []
    table = _global_unit_signatures(program)
    for module in program.modules.values():
        index = _ProgramUnitIndex(module, program, table)
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _FunctionAnalysis(
                    module.ctx, index, node, findings.append  # type: ignore[arg-type]
                ).run()
    return findings


@dataclass(frozen=True)
class AnalysisRuleInfo:
    """Catalogue entry backing ``--explain`` for one analysis rule."""

    rule_id: str
    title: str
    explain: str


ANALYSIS_RULES: Dict[str, AnalysisRuleInfo] = {
    "R010": AnalysisRuleInfo(
        "R010",
        "no arithmetic mixing incompatible dimensions or scales",
        """\
Adding, subtracting or comparing two quantities of different physical
dimensions (watts + joules) — or the same dimension at different
scales (joules vs. kWh) — is the dominant silent-bug class in energy
network reproductions: the code runs, the numbers are wrong by 3.6e6.

The analyzer infers units from repro.units annotations on function
signatures and from the repro.constants converters, then flags every
+, -, comparison, argument pass or return whose two sides have known,
different units.

Fix: route the value through the appropriate repro.constants converter
(kwh_to_joules, watts_over_slot_to_joules, ...) or correct the
annotation.  Intentional mixed arithmetic carries `# noqa: R010` with
a justification.
""",
    ),
    "R011": AnalysisRuleInfo(
        "R011",
        "no dB/linear confusion",
        """\
SINR thresholds and gains appear in the literature both on the
logarithmic dB scale and as linear ratios; the library computes in
linear (Gamma = 1.0 means 0 dB).  Multiplying two dB values, or
passing a Db-annotated value where a Linear one is expected (or vice
versa), silently corrupts every SINR feasibility decision.

dB values may be added, subtracted and compared among themselves
(that is multiplication/division in linear space) and scaled by plain
numbers; any arithmetic that combines a Db value with a different
unit is flagged.

Fix: cross the boundary explicitly with repro.units.db_to_linear /
linear_to_db.
""",
    ),
    "R012": AnalysisRuleInfo(
        "R012",
        "no per-slot vs. per-second rate mixing",
        """\
The paper states demand in Kbps but every queue evolves in per-slot
quantities (the slot is one minute), so per-second and per-slot rates
coexist throughout the control plane and differ by a factor of
slot_seconds = 60 — a silent error that inflates or starves every
backlog by the same factor.

The analyzer flags +/-/comparisons and argument passes that combine a
per-slot rate (BitsPerSlot, PacketsPerSlot) with a per-second rate
(Kbps, BitsPerSecond).

Fix: convert at the configuration boundary with
repro.constants.kbps_to_bits_per_slot (or multiply by slot_seconds
where the conversion is genuinely local).
""",
    ),
}
