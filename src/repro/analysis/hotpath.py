"""Hot-path complexity/allocation rules over the call graph (R040-R042).

The slot loop is the product the benchmarks measure: everything
reachable from ``SlotSimulator.step`` runs once per slot, per
replication, per sweep point.  These rules turn the performance
assumptions behind ROADMAP items 1-2 (batched S1/S4 control kernels,
sub-quadratic topology for large U) into checked properties:

* **R040** — a per-slot Python loop over a named-axis-sized iterable
  (``range(num_nodes)``, ``for node in model.nodes``) in a function
  reachable from ``engine.step``.  One such loop caps the whole
  simulator at Python speed regardless of how vectorized the kernels
  around it are;
* **R041** — dense quadratic construction: an ``(N, N)``/``(L, L)``
  allocation, the all-pairs ``x[:, None] - x[None, :]`` broadcast
  idiom, or a ``sum(...)`` accumulation that walks a 2-D matrix row
  with an axis-sized generator.  Checked everywhere in the library
  (topology is built off the hot path but caps scale just the same);
* **R042** — an array allocation inside a loop in a hot-reachable
  function: per-iteration ``np.zeros(...)`` churn that belongs in a
  preallocated buffer.

Functions whose docstring marks them ``"cold path"`` are exempt from
R040/R042 (same convention as R006); test/benchmark code is always
exempt.  Findings that are accepted costs carry ``# noqa: R04x`` with
a justification naming the ROADMAP item that will remove them.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import HOT_ROOTS, FunctionInfo, Program
from repro.analysis.dataflow import AnalysisRuleInfo
from repro.lint.rules import Finding

#: Identifier/attribute names that measure a named axis (N/L/U/S).
AXIS_COUNT_TOKENS = frozenset(
    {
        "num_nodes",
        "num_links",
        "num_users",
        "num_sessions",
        "num_queues",
        "num_candidate_links",
    }
)
#: Final attribute/name components naming an axis-sized collection.
AXIS_COLLECTION_NAMES = frozenset(
    {"nodes", "links", "candidate_links", "sessions", "users", "queues"}
)
#: Iterable wrappers unwrapped before matching the axis pattern.
_ITER_WRAPPERS = frozenset(
    {"enumerate", "sorted", "list", "tuple", "reversed", "zip", "set"}
)
#: numpy constructors that allocate a fresh array.
ALLOC_FUNCS = frozenset(
    {
        "zeros", "ones", "empty", "full", "eye", "identity", "arange",
        "linspace", "fromiter", "tile", "repeat", "vstack", "hstack",
        "stack", "concatenate", "array", "zeros_like", "ones_like",
        "empty_like", "full_like", "outer",
    }
)


def _final_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _dotted(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _mentions_axis_count(node: ast.expr) -> Optional[str]:
    """An axis-count token mentioned anywhere inside ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in AXIS_COUNT_TOKENS:
            return sub.id
        if isinstance(sub, ast.Attribute) and sub.attr in AXIS_COUNT_TOKENS:
            return sub.attr
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "len"
            and sub.args
        ):
            final = _final_name(sub.args[0])
            if final in AXIS_COLLECTION_NAMES:
                return f"len(...{final})"
    return None


def axis_iterable(node: ast.expr) -> Optional[str]:
    """A human-readable description when ``node`` iterates a named
    axis, else None."""
    if isinstance(node, ast.Call):
        func_name = _final_name(node.func)
        if isinstance(node.func, ast.Name) and func_name == "range":
            for arg in node.args:
                token = _mentions_axis_count(arg)
                if token is not None:
                    return f"range({token})"
            return None
        if isinstance(node.func, ast.Name) and func_name in _ITER_WRAPPERS:
            for arg in node.args:
                inner = axis_iterable(arg)
                if inner is not None:
                    return inner
            return None
        return None
    dotted = _dotted(node)
    if dotted is not None and dotted.rsplit(".", 1)[-1] in AXIS_COLLECTION_NAMES:
        return dotted
    return None


def _is_cold(func: ast.AST) -> bool:
    docstring = ast.get_docstring(func) or ""  # type: ignore[arg-type]
    return "cold path" in docstring.lower()


def _numpy_alloc_name(
    call: ast.Call, numpy_names: Set[str]
) -> Optional[str]:
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in numpy_names
        and func.attr in ALLOC_FUNCS
    ):
        return func.attr
    return None


def _loop_iters(node: ast.stmt) -> Iterator[ast.expr]:
    if isinstance(node, (ast.For, ast.AsyncFor)):
        yield node.iter
    for sub in ast.walk(node):
        if isinstance(
            sub, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for generator in sub.generators:
                yield generator.iter


def check_hot_path(program: Program, roots: Sequence[str] = HOT_ROOTS) -> List[Finding]:
    """Run R040/R041/R042 over the program."""
    findings: List[Finding] = []
    hot = program.hot_functions(roots)
    hot_infos = [
        program.functions[qual]
        for qual in sorted(hot)
        if qual in program.functions
    ]
    for info in hot_infos:
        ctx = info.module.ctx
        if not ctx.is_library or _is_cold(info.node):
            continue
        findings.extend(_check_r040(info))
        findings.extend(_check_r042(info))
    for module in program.modules.values():
        if not module.ctx.is_library:
            continue
        findings.extend(_check_r041(module))
    return findings


def _check_r040(info: FunctionInfo) -> Iterator[Finding]:
    ctx = info.module.ctx
    for node in ast.walk(info.node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not info.node and _is_cold(node):
                return  # nested cold helpers keep their loops
    seen: Set[int] = set()
    for stmt in ast.walk(info.node):
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iters: List[ast.expr] = [stmt.iter]
        elif isinstance(
            stmt, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            iters = [generator.iter for generator in stmt.generators]
        else:
            continue
        for iterable in iters:
            if id(iterable) in seen:
                continue
            seen.add(id(iterable))
            description = axis_iterable(iterable)
            if description is None:
                continue
            finding = ctx.finding(
                iterable,
                "R040",
                f"per-slot Python loop over axis-sized '{description}' in "
                f"{info.qualname}(), reachable from engine.step: vectorize "
                "over the ArrayState arrays (ROADMAP item 1 batches the "
                "S1/S4 kernels)",
            )
            if finding is not None:
                yield finding


def _check_r041(module) -> Iterator[Finding]:
    ctx = module.ctx
    numpy_names = module.numpy_names
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            alloc = _numpy_alloc_name(node, numpy_names)
            if alloc is not None and node.args:
                shape = node.args[0]
                entries = (
                    list(shape.elts)
                    if isinstance(shape, (ast.Tuple, ast.List))
                    else []
                )
                tokens = [
                    token
                    for token in (_mentions_axis_count(e) for e in entries)
                    if token is not None
                ]
                if len(tokens) >= 2:
                    finding = ctx.finding(
                        node,
                        "R041",
                        f"dense quadratic allocation np.{alloc}(({', '.join(tokens)}, "
                        "...)): an axis-by-axis matrix caps scale at "
                        "U~hundreds; use the sparse/candidate-link "
                        "representation (ROADMAP item 2)",
                    )
                    if finding is not None:
                        yield finding
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id == "sum"
                and node.args
                and isinstance(node.args[0], ast.GeneratorExp)
            ):
                yield from _check_dense_accumulation(ctx, node.args[0])
        elif isinstance(node, ast.BinOp):
            yield from _check_allpairs_broadcast(ctx, node)


def _check_allpairs_broadcast(ctx, node: ast.BinOp) -> Iterator[Finding]:
    """``x[:, None, :] - x[None, :, :]``: the O(U^2) pairwise idiom."""
    left, right = node.left, node.right
    if not (isinstance(left, ast.Subscript) and isinstance(right, ast.Subscript)):
        return
    left_base = _dotted(left.value)
    right_base = _dotted(right.value)
    if left_base is None or left_base != right_base:
        return

    def has_none_index(sub: ast.Subscript) -> bool:
        items = (
            list(sub.slice.elts)
            if isinstance(sub.slice, ast.Tuple)
            else [sub.slice]
        )
        return any(
            isinstance(item, ast.Constant) and item.value is None
            for item in items
        )

    if has_none_index(left) and has_none_index(right):
        finding = ctx.finding(
            node,
            "R041",
            f"all-pairs broadcast '{left_base}[...None...] op "
            f"{right_base}[...None...]' materializes a dense quadratic "
            "matrix; switch to the neighbourhood-limited construction "
            "(ROADMAP item 2)",
        )
        if finding is not None:
            yield finding


def _check_dense_accumulation(ctx, genexp: ast.GeneratorExp) -> Iterator[Finding]:
    """``sum(m[k, j] ... for k in range(num_nodes))``: a dense matrix
    walk that, called per link/band, goes quadratic."""
    for generator in genexp.generators:
        description = axis_iterable(generator.iter)
        if description is None or not isinstance(generator.target, ast.Name):
            continue
        loop_var = generator.target.id
        for sub in ast.walk(genexp.elt):
            if not isinstance(sub, ast.Subscript):
                continue
            if not isinstance(sub.slice, ast.Tuple):
                continue
            uses_var = any(
                isinstance(item, ast.Name) and item.id == loop_var
                for item in sub.slice.elts
            )
            if uses_var:
                matrix = _dotted(sub.value) or "<matrix>"
                finding = ctx.finding(
                    genexp,
                    "R041",
                    f"dense accumulation over '{matrix}' with an axis-sized "
                    f"generator ({description}): per-call O(axis) walks of a "
                    "dense matrix compose to quadratic work; vectorize the "
                    "sum or restrict to the candidate neighbourhood "
                    "(ROADMAP item 2)",
                )
                if finding is not None:
                    yield finding
                return


def _check_r042(info: FunctionInfo) -> Iterator[Finding]:
    ctx = info.module.ctx
    numpy_names = info.module.numpy_names
    reported: Set[int] = set()
    for loop in ast.walk(info.node):
        if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
            continue
        for sub in ast.walk(loop):
            if sub is loop or not isinstance(sub, ast.Call):
                continue
            alloc = _numpy_alloc_name(sub, numpy_names)
            if alloc is None or id(sub) in reported:
                continue
            reported.add(id(sub))
            finding = ctx.finding(
                sub,
                "R042",
                f"np.{alloc}(...) allocated inside a loop in "
                f"{info.qualname}(), reachable from engine.step: hoist to "
                "a preallocated buffer filled in place (allocation churn "
                "dominates small-array slot loops)",
            )
            if finding is not None:
                yield finding


# -- catalogue ---------------------------------------------------------

HOTPATH_RULES: Dict[str, AnalysisRuleInfo] = {
    "R040": AnalysisRuleInfo(
        "R040",
        "no per-slot Python loops over named axes in engine.step's cone",
        """\
Everything reachable from SlotSimulator.step runs once per slot, per
replication, per sweep point; one Python-level loop over an axis-sized
iterable (range(num_nodes), for node in model.nodes, an axis-sized
comprehension) pins the whole simulator at interpreter speed no matter
how vectorized the kernels around it are — the exact plateau the
per-phase profile of benchmarks/suite exposes.

The analyzer builds the package call graph, takes the reachable cone
of engine.step, and flags axis-sized loops inside it.  Functions whose
docstring marks them "cold path" are exempt (same convention as R006).

Fix: batch the computation over the ArrayState struct-of-arrays
layout (ROADMAP item 1).  Accepted interim loops carry `# noqa: R040`
naming the ROADMAP item that retires them.
""",
    ),
    "R041": AnalysisRuleInfo(
        "R041",
        "no dense quadratic (N,N)/(L,L) construction",
        """\
A dense axis-by-axis matrix — np.zeros((num_nodes, num_nodes)), the
all-pairs broadcast positions[:, None, :] - positions[None, :, :], or
a sum(...) that walks a dense gains row per call — is O(U^2) memory or
time and is exactly what caps the reproduction near U~200 while the
paper's regime of interest extends to 10k-1M users (ROADMAP item 2).

The analyzer flags the three construction idioms everywhere in the
library tree (topology building is off the hot path but still bounds
the reachable scale).

Fix: build gains/conflicts over the candidate-link neighbourhood
(k-nearest or radius-limited) instead of all pairs.  Until the
sub-quadratic topology lands, accepted sites carry `# noqa: R041`
referencing ROADMAP item 2.
""",
    ),
    "R042": AnalysisRuleInfo(
        "R042",
        "no array allocation inside hot loops (preallocate buffers)",
        """\
np.zeros/np.empty inside a loop in engine.step's reachable cone
allocates and garbage-collects once per iteration; for the small
per-band/per-link arrays of the control plane, allocator traffic
rivals the arithmetic itself (the struct-of-arrays refactor exists
precisely to amortize this).

The analyzer flags numpy allocation calls lexically inside for/while
loops of hot-reachable functions.  "cold path" docstrings exempt a
function (R006 convention).

Fix: hoist the buffer above the loop and fill it in place (out=,
buf[:] = ...), or vectorize the loop away entirely (then R040 retires
too).  Justified per-iteration allocations carry `# noqa: R042`.
""",
    ),
}
