"""Package-wide call graph and program index for whole-program analysis.

The per-function units pass (:mod:`repro.analysis.dataflow`) stops at
call boundaries: a unit fact declared in ``solvers/`` is invisible to
the ``control/`` caller that imports it.  This module builds the
structures the whole-program units pass
(:func:`repro.analysis.dataflow.run_units`) and the hot-path rules
(:mod:`repro.analysis.hotpath`) share:

* :class:`Program` — every module parsed once, with its import map,
  units index, numpy aliases, top-level functions and classes qualified
  by dotted name (``repro.control.router.BackpressureRouter.route``);
* :class:`CallGraph` — the caller -> callee edges, resolved through
  imports, ``self``, annotated parameters, ``self.attr = Class(...)``
  constructor assignments in ``__init__``, and — for receivers built
  behind factories — a name-based fallback that links ``x.decide()``
  to every known ``decide`` method;
* reachability (:meth:`CallGraph.reachable_from`) used to scope the
  hot-path rules to ``engine.step``.

Resolution is deliberately over-approximate (the fallback may add
edges that never fire at runtime) because every consumer wants a
superset: a function *possibly* reachable from the slot loop must obey
the hot-path rules.  Builtin-collection method names (``items``,
``get``, ``update``, ...) are excluded from the fallback so ordinary
dict traffic does not wire the whole program together.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.dataflow import _ModuleIndex
from repro.lint.cli import discover_files
from repro.lint.rules import FileContext, Finding, _numpy_aliases

#: Method names never resolved by the name-based fallback: they are
#: overwhelmingly dict/list/set/str protocol traffic, and an edge to a
#: same-named program method would wire unrelated code into the hot
#: path.  Typed receivers (annotations, ``self.attr`` constructor
#: scans) still resolve these precisely.
FALLBACK_EXCLUDED_METHODS = frozenset(
    {
        "get", "keys", "values", "items", "update", "pop", "append",
        "extend", "add", "remove", "discard", "clear", "copy",
        "setdefault", "popitem", "insert", "count", "index", "sort",
        "reverse", "join", "split", "strip", "format", "startswith",
        "endswith", "read", "write", "close", "flush", "mkdir",
        "exists", "resolve", "open",
    }
)

#: Entry points of the per-slot hot path: everything reachable from
#: these must stay vectorized (rules R040/R042).
HOT_ROOTS: Tuple[str, ...] = (
    "repro.sim.engine.SlotSimulator.step",
    "repro.sim.engine.SlotSimulator.run",
)


def module_name_for(display_path: str) -> str:
    """Dotted module name for a source path (``repro.control.router``).

    Everything from the last path component named ``repro`` onwards is
    the package path; files outside a ``repro`` tree fall back to their
    stem so ad-hoc fixtures still index cleanly.
    """
    parts = display_path.replace("\\", "/").rstrip("/").split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    anchor = -1
    for position, part in enumerate(parts):
        if part == "repro":
            anchor = position
    selected = parts[anchor:] if anchor >= 0 else parts[-1:]
    if selected and selected[-1] == "__init__":
        selected = selected[:-1]
    return ".".join(selected)


@dataclass
class FunctionInfo:
    """One top-level function or one directly nested method."""

    qualname: str
    module: "ModuleInfo"
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: Optional[str] = None

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[1]


@dataclass
class ClassInfo:
    """One top-level class: its methods, typed attributes and bases."""

    qualname: str
    module: "ModuleInfo"
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: attribute name -> class *qualname* (from ``self.x = Class(...)``
    #: assignments in ``__init__`` and annotated class-level fields).
    attr_classes: Dict[str, str] = field(default_factory=dict)
    #: resolved base-class qualnames (single level is enough here).
    bases: List[str] = field(default_factory=list)


@dataclass
class ModuleInfo:
    """One parsed module with its per-pass indexes and import map."""

    name: str
    ctx: FileContext
    unit_index: _ModuleIndex
    #: local aliases bound to the ``numpy`` module (``np``), read by
    #: the hot-path allocation rules (R041/R042).
    numpy_names: Set[str] = field(default_factory=set)
    #: local binding name -> dotted target (module, function or class).
    imports: Dict[str, str] = field(default_factory=dict)

    @property
    def tree(self) -> ast.Module:
        tree = self.ctx.tree
        assert isinstance(tree, ast.Module)
        return tree


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge, with the AST node for diagnostics."""

    caller: str
    callee: str
    node: ast.Call


class CallGraph:
    """Caller -> callee qualname edges with BFS reachability."""

    def __init__(self) -> None:
        self.edges: Dict[str, Set[str]] = {}
        self.call_sites: List[CallSite] = []

    def add(self, caller: str, callee: str, node: ast.Call) -> None:
        self.edges.setdefault(caller, set()).add(callee)
        self.call_sites.append(CallSite(caller, callee, node))

    def callees(self, qualname: str) -> Set[str]:
        return self.edges.get(qualname, set())

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        """Every qualname reachable from ``roots`` (roots included
        when they exist as edges' sources or anywhere in the graph)."""
        seen: Set[str] = set()
        frontier = [root for root in roots]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self.edges.get(current, ()))
        return seen


def _import_map(tree: ast.Module, module_name: str) -> Dict[str, str]:
    """Local binding name -> dotted target for every import statement."""
    mapping: Dict[str, str] = {}
    package_parts = module_name.split(".")[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                mapping[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = package_parts[: len(package_parts) - node.level + 1]
                prefix = ".".join(base_parts + ([node.module] if node.module else []))
            else:
                prefix = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mapping[local] = f"{prefix}.{alias.name}" if prefix else alias.name
    return mapping


class Program:
    """Every module of the analyzed tree, indexed for whole-program use."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.parse_findings: List[Finding] = []
        #: method bare name -> qualnames, for the name-based fallback.
        self.methods_by_name: Dict[str, Set[str]] = {}
        self.callgraph = CallGraph()

    # -- construction --------------------------------------------------

    @classmethod
    def load(cls, paths: Sequence[str]) -> "Program":
        """Parse every ``*.py`` under ``paths`` into a program."""
        sources: List[Tuple[Path, str, str]] = []
        for path in discover_files(paths):
            sources.append((path, str(path), path.read_text(encoding="utf-8")))
        return cls._build(sources)

    @classmethod
    def from_sources(cls, sources: Mapping[str, str]) -> "Program":
        """Build a program from in-memory ``{display_path: source}``."""
        triples = [
            (Path(display), display, text) for display, text in sorted(sources.items())
        ]
        return cls._build(triples)

    @classmethod
    def _build(cls, sources: Sequence[Tuple[Path, str, str]]) -> "Program":
        program = cls()
        for path, display, text in sources:
            try:
                tree = ast.parse(text, filename=display)
            except SyntaxError as exc:
                program.parse_findings.append(
                    Finding(
                        path=display,
                        line=exc.lineno or 1,
                        col=(exc.offset or 0) or 1,
                        rule_id="E999",
                        message=f"syntax error: {exc.msg}",
                    )
                )
                continue
            ctx = FileContext.build(
                path=path, display_path=display, source=text, tree=tree
            )
            name = module_name_for(display)
            numpy_modules, _ = _numpy_aliases(tree)
            module = ModuleInfo(
                name=name,
                ctx=ctx,
                unit_index=_ModuleIndex(tree),
                numpy_names={
                    alias
                    for alias, target in numpy_modules.items()
                    if target == "numpy"
                },
                imports=_import_map(tree, name),
            )
            # Last writer wins on duplicate module names (shadowed
            # fixtures); real trees have unique dotted names.
            program.modules[name] = module
        program._collect_definitions()
        program._collect_attr_classes()
        program._build_callgraph()
        return program

    def _collect_definitions(self) -> None:
        for module in self.modules.values():
            for stmt in module.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info = FunctionInfo(
                        qualname=f"{module.name}.{stmt.name}",
                        module=module,
                        node=stmt,
                    )
                    self.functions[info.qualname] = info
                elif isinstance(stmt, ast.ClassDef):
                    cls_info = ClassInfo(
                        qualname=f"{module.name}.{stmt.name}",
                        module=module,
                        node=stmt,
                    )
                    for body_stmt in stmt.body:
                        if isinstance(
                            body_stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                        ):
                            method = FunctionInfo(
                                qualname=(
                                    f"{module.name}.{stmt.name}.{body_stmt.name}"
                                ),
                                module=module,
                                node=body_stmt,
                                class_name=stmt.name,
                            )
                            cls_info.methods[body_stmt.name] = method
                            self.functions[method.qualname] = method
                            self.methods_by_name.setdefault(
                                body_stmt.name, set()
                            ).add(method.qualname)
                    for base in stmt.bases:
                        resolved = self._resolve_expr_name(module, base)
                        if resolved is not None:
                            cls_info.bases.append(resolved)
                    self.classes[cls_info.qualname] = cls_info

    def _collect_attr_classes(self) -> None:
        """Scan every ``__init__`` for ``self.x = Class(...)`` facts."""
        for cls_info in self.classes.values():
            module = cls_info.module
            init = cls_info.methods.get("__init__")
            if init is None:
                continue
            for node in ast.walk(init.node):
                target: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value = node.target, node.value
                if (
                    not isinstance(target, ast.Attribute)
                    or not isinstance(target.value, ast.Name)
                    or target.value.id != "self"
                    or not isinstance(value, ast.Call)
                ):
                    continue
                resolved = self._resolve_expr_name(module, value.func)
                if resolved in self.classes:
                    cls_info.attr_classes[target.attr] = resolved

    # -- name resolution -----------------------------------------------

    def resolve_name(self, module: ModuleInfo, name: str) -> Optional[str]:
        """Dotted target for a bare name in ``module`` scope, if known."""
        local = f"{module.name}.{name}"
        if local in self.functions or local in self.classes:
            return local
        return module.imports.get(name)

    def _resolve_expr_name(
        self, module: ModuleInfo, node: ast.expr
    ) -> Optional[str]:
        if isinstance(node, ast.Name):
            return self.resolve_name(module, node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            base = module.imports.get(node.value.id)
            if base is not None:
                return f"{base}.{node.attr}"
        return None

    def lookup_method(self, class_qualname: str, method: str) -> Optional[str]:
        """Find ``method`` on the class or (one level of) its bases."""
        seen: Set[str] = set()
        frontier = [class_qualname]
        while frontier:
            current = frontier.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls_info = self.classes.get(current)
            if cls_info is None:
                continue
            if method in cls_info.methods:
                return cls_info.methods[method].qualname
            frontier.extend(cls_info.bases)
        return None

    # -- call graph ----------------------------------------------------

    def _build_callgraph(self) -> None:
        for module in self.modules.values():
            for info in self.functions.values():
                if info.module is not module:
                    continue
                local_types = self._local_class_types(module, info)
                for node in ast.walk(info.node):
                    if not isinstance(node, ast.Call):
                        continue
                    for callee in self._callees(module, info, node, local_types):
                        self.callgraph.add(info.qualname, callee, node)

    def _local_class_types(
        self, module: ModuleInfo, info: FunctionInfo
    ) -> Dict[str, str]:
        """Variable -> class qualname from annotations and constructor
        assignments, a one-pass flow-insensitive approximation."""
        types: Dict[str, str] = {}
        func = info.node
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        args = func.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if arg.annotation is None:
                continue
            resolved = self._resolve_expr_name(module, arg.annotation)
            if resolved in self.classes:
                types[arg.arg] = resolved
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                resolved = self._resolve_expr_name(module, node.value.func)
                if resolved in self.classes:
                    types[node.targets[0].id] = resolved
        return types

    def _callees(
        self,
        module: ModuleInfo,
        caller: FunctionInfo,
        call: ast.Call,
        local_types: Dict[str, str],
    ) -> Set[str]:
        func = call.func
        out: Set[str] = set()
        if isinstance(func, ast.Name):
            target = self.resolve_name(module, func.id)
            if target in self.functions:
                out.add(target)
            elif target in self.classes:
                init = self.lookup_method(target, "__init__")
                if init is not None:
                    out.add(init)
            return out
        if not isinstance(func, ast.Attribute):
            return out
        attr = func.attr
        base = func.value
        receiver_class: Optional[str] = None
        if isinstance(base, ast.Name):
            if base.id == "self" and caller.class_name is not None:
                receiver_class = f"{module.name}.{caller.class_name}"
            elif base.id in local_types:
                receiver_class = local_types[base.id]
            else:
                target = self.resolve_name(module, base.id)
                if target is not None:
                    dotted = f"{target}.{attr}"
                    if dotted in self.functions:  # module alias call
                        out.add(dotted)
                        return out
                    if dotted in self.classes:  # mod.Class(...) ctor
                        init = self.lookup_method(dotted, "__init__")
                        if init is not None:
                            out.add(init)
                        return out
                    if target in self.classes:  # Class.method(...)
                        receiver_class = target
        elif (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
            and caller.class_name is not None
        ):
            own = self.classes.get(f"{module.name}.{caller.class_name}")
            if own is not None:
                receiver_class = own.attr_classes.get(base.attr)
        if receiver_class is not None:
            resolved_method = self.lookup_method(receiver_class, attr)
            if resolved_method is not None:
                out.add(resolved_method)
                return out
        if attr.startswith("__") or attr in FALLBACK_EXCLUDED_METHODS:
            return out
        out.update(self.methods_by_name.get(attr, ()))
        return out

    # -- reachability --------------------------------------------------

    def hot_functions(self, roots: Sequence[str] = HOT_ROOTS) -> Set[str]:
        """Qualnames reachable from the per-slot loop entry points."""
        present = [root for root in roots if root in self.functions]
        return self.callgraph.reachable_from(present)
