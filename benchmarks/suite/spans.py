"""In-memory span tracing around the simulator's layer boundaries.

The tracer never edits the program: it wraps, for the duration of one
traced pass, the instance methods of a built simulator and the
module-level names the layers look up at call time, then restores them.
Each span is ``{name, start_ns, end_ns, parent, run, slot}``; spans of
one slot share the ``(run, slot)`` id.  Counts are read from the wrapped
calls' arguments and return values.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import repro.control.energy_manager as energy_manager_mod
import repro.control.scheduler as scheduler_mod
import repro.sim.engine as engine_mod
from repro.solvers.linprog import LinearProgram
from repro.state import NetworkState

class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.run_ids: List[str] = []
        self.slot_ids: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self.run_id = ""
        self.slot_id = -1
        self._stack: List[int] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        """Open a span under the innermost open span; returns its index."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.run_ids.append(self.run_id)
        self.slot_ids.append(self.slot_id)
        self.ends.append(-1)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def end(self, index: int) -> None:
        """Close the span opened as ``index``."""
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    def innermost(self) -> str:
        """Name of the innermost open span ("" if none)."""
        return self.names[self._stack[-1]] if self._stack else ""

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable[["Tracer", tuple, dict, object], None]] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``; ``count`` sees args and result."""

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def spans(self) -> List[dict]:
        """All spans as plain dicts (the trace file format)."""
        return [
            {
                "name": self.names[i],
                "start_ns": self.starts[i],
                "end_ns": self.ends[i],
                "parent": self.parents[i],
                "run": self.run_ids[i],
                "slot": self.slot_ids[i],
            }
            for i in range(len(self.names))
        ]


def self_times(spans: Sequence[dict]) -> List[int]:
    """Per span: its duration minus the part covered by child spans.

    Children are clipped to the parent's interval and overlapping
    children are merged first, so a covered nanosecond counts once.
    """
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]].append((span["start_ns"], span["end_ns"]))
    out: List[int] = []
    for i, span in enumerate(spans):
        lo, hi = span["start_ns"], span["end_ns"]
        covered = 0
        cursor = lo
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, hi)
            if end > start:
                covered += end - start
                cursor = end
        out.append(hi - lo - covered)
    return out


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def layer_metrics(
    spans: Sequence[dict],
    counts: Dict[str, float],
    maxima: Dict[str, float],
    num_slots: int,
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced pass, as ``name -> (value, unit)``.

    Setup spans carry ``slot = -(rep + 1)``.  Like ``setup_s``, a setup
    metric takes each simulator's median over its constructions, sums
    over the simulators of an episode, and reports the median over
    episodes.  Slot times are ms per timed slot; counts are per timed
    slot.
    """
    selves = self_times(spans)
    slot_total: Dict[str, int] = defaultdict(int)
    slot_self: Dict[str, int] = defaultdict(int)
    constructions: Dict[Tuple[str, str], List[int]] = defaultdict(list)
    setup_total = 0
    setup_self = 0
    lp_in_s1 = 0
    lp_in_relaxed = 0
    relaxed_decides: set = set()
    for i, span in enumerate(spans):
        name = span["name"]
        duration = span["end_ns"] - span["start_ns"]
        if span["slot"] < 0:
            constructions[(span["run"], name)].append(duration)
            if name == "setup":
                setup_total += duration
                setup_self += selves[i]
            continue
        slot_total[name] += duration
        slot_self[name] += selves[i]
        if name == "lp.solve":
            parent = spans[span["parent"]]
            if parent["name"] == "s1.sf":
                lp_in_s1 += duration
            else:
                lp_in_relaxed += duration
                relaxed_decides.add(span["parent"])
    relaxed_total = sum(
        spans[i]["end_ns"] - spans[i]["start_ns"] for i in relaxed_decides
    )
    episodes: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for (run_id, name), durations in constructions.items():
        episodes[run_id.split(":", 1)[0]][name] += statistics.median(durations)

    def setup_s(name: str) -> float:
        return statistics.median([e[name] for e in episodes.values()]) / 1e9

    slots = max(num_slots, 1)

    def ms(name: str, table: Dict[str, int] = slot_total) -> float:
        return table[name] / 1e6 / slots

    def per_slot(name: str) -> float:
        return counts.get(name, 0.0) / slots

    out: Dict[str, Tuple[float, str]] = {
        "setup.model_s": (setup_s("setup.model"), "s"),
        "setup.constants_s": (setup_s("setup.constants"), "s"),
        "setup.state_s": (setup_s("setup.state"), "s"),
        "setup.controller_s": (setup_s("setup.controller"), "s"),
        "setup.coverage": (1.0 - _share(setup_self, setup_total), "ratio"),
        "observe_ms": (ms("observe"), "ms"),
        "decide.self_ms": (ms("decide", slot_self), "ms"),
        "s1_ms": (ms("s1"), "ms"),
        "s1.power_ms": (ms("s1.power"), "ms"),
        "s1.lp.share": (_share(lp_in_s1, slot_total["s1"]), "ratio"),
        "relaxed.lp.share": (_share(lp_in_relaxed, relaxed_total), "ratio"),
        "s2_ms": (ms("s2"), "ms"),
        "s3_ms": (ms("s3"), "ms"),
        "s4_ms": (ms("s4"), "ms"),
        "s4.bisect_ms": (ms("s4.bisect"), "ms"),
        "apply_ms": (ms("apply"), "ms"),
        "metrics_ms": (ms("metrics"), "ms"),
        "step.self_ms": (ms("step", slot_self), "ms"),
        "trace.coverage": (1.0 - _share(slot_self["step"], slot_total["step"]), "ratio"),
        "s1.scheduled": (per_slot("s1.scheduled"), "count/slot"),
        "s1.power.calls": (per_slot("s1.power.calls"), "count/slot"),
        "s1.power.links_in": (per_slot("s1.power.links_in"), "count/slot"),
        "s1.power.links_kept": (per_slot("s1.power.links_kept"), "count/slot"),
        "s1.power.keep_ratio": (
            _share(counts.get("s1.power.links_kept", 0.0), counts.get("s1.power.links_in", 0.0)),
            "ratio",
        ),
        "s1.power.solves": (per_slot("s1.power.solves"), "count/slot"),
        "s1.power.max_set": (maxima.get("s1.power.max_set", 0.0), "count"),
        "s1.power.flops": (per_slot("s1.power.flops"), "flop/slot"),
        "s1.lp.solves": (per_slot("s1.lp.solves"), "count/slot"),
        "relaxed.lp.solves": (per_slot("relaxed.lp.solves"), "count/slot"),
        "s3.rates": (per_slot("s3.rates"), "count/slot"),
        "s4.bisect.calls": (per_slot("s4.bisect.calls"), "count/slot"),
        "curtail.dropped": (per_slot("curtail.dropped"), "count/slot"),
    }
    return out


# -- counters read from wrapped calls ------------------------------------------


def _record_power(tracer: Tracer, n: int, kept: int, dropped: int) -> None:
    """Foschini-Miljanic work of one co-band call.

    The routine solves the full set, drops one link per infeasible
    solve, and stops at the first feasible set (or an empty one), so the
    dense solve sizes are ``n, n-1, ..., kept`` (the last only if
    ``kept > 0``).  ``flops`` is the computed LU cost, sum of 2/3 k^3.
    """
    sizes = range(n, n - dropped, -1)
    flops = sum(2.0 / 3.0 * k**3 for k in sizes)
    solves = dropped
    if kept:
        flops += 2.0 / 3.0 * kept**3
        solves += 1
    c = tracer.counts
    c["s1.power.calls"] += 1
    c["s1.power.links_in"] += n
    c["s1.power.links_kept"] += kept
    c["s1.power.solves"] += solves
    c["s1.power.flops"] += flops
    tracer.maxima["s1.power.max_set"] = max(tracer.maxima["s1.power.max_set"], n)


def _count_power_vec(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    kept, _, dropped = result
    _record_power(tracer, int(args[0].shape[0]), int(kept.shape[0]), len(dropped))


def _count_power_scalar(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    links = kwargs["links"] if "links" in kwargs else args[0]
    _record_power(tracer, len(links), len(result.powers), len(result.dropped))


def _count_lp(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    # The innermost open span is the LP's caller: S1's sequential fix or
    # the relaxed controller's decide.
    key = "s1.lp.solves" if tracer.innermost() == "s1.sf" else "relaxed.lp.solves"
    tracer.counts[key] += 1


def _counter(key: str, size: Callable[[object], int]) -> Callable:
    def count(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
        tracer.counts[key] += size(result)

    return count


_count_bisect = _counter("s4.bisect.calls", lambda result: 1)
_count_scheduled = _counter("s1.scheduled", lambda result: len(result.transmissions))
_count_rates = _counter("s3.rates", lambda result: len(result.rates))
_count_curtailed = _counter("curtail.dropped", lambda result: len(result.curtailed))


# -- patching ------------------------------------------------------------------


#: (owner, attribute, span name, counter) of every module-level name the
#: layers resolve at call time.
MODULE_TARGETS: Tuple[Tuple[object, str, str, Optional[Callable]], ...] = (
    (engine_mod, "build_network_model", "setup.model", None),
    (engine_mod, "compute_constants", "setup.constants", None),
    (engine_mod, "DriftPlusPenaltyController", "setup.controller", None),
    (engine_mod, "RelaxedLpController", "setup.controller", None),
    (scheduler_mod, "minimal_power_assignment_vec", "s1.power", _count_power_vec),
    (scheduler_mod, "minimal_power_assignment", "s1.power", _count_power_scalar),
    (scheduler_mod, "sequential_fix", "s1.sf", None),
    (energy_manager_mod, "bisect_root_vec", "s4.bisect", _count_bisect),
    (energy_manager_mod, "bisect_root", "s4.bisect", _count_bisect),
    (LinearProgram, "solve", "lp.solve", _count_lp),
)


@contextlib.contextmanager
def patched(tracer: Tracer) -> Iterator[Callable]:
    """Wrap the module-level layer entry points while the block runs.

    Yields the timing ``state_cls`` factory to pass to the simulator
    constructors.  Every original is restored on exit.
    """
    saved = []
    try:
        for owner, attr, name, count in MODULE_TARGETS:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer.wrap("setup.state", NetworkState)
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def instrument(tracer: Tracer, sim) -> None:
    """Wrap the per-slot layer methods of one built simulator."""
    state = sim.state
    state.observe = tracer.wrap("observe", state.observe)
    state.apply = tracer.wrap("apply", state.apply)
    sim.metrics.record = tracer.wrap("metrics", sim.metrics.record)
    controller = sim.controller
    controller.decide = tracer.wrap("decide", controller.decide, _count_curtailed)
    layers = (
        ("scheduler", "schedule", "s1", _count_scheduled),
        ("allocator", "allocate", "s2", None),
        ("router", "route", "s3", _count_rates),
        ("energy_manager", "manage", "s4", None),
    )
    for attr, method, name, count in layers:
        layer = getattr(controller, attr, None)
        if layer is not None:  # the relaxed-LP controller has no S1-S4
            setattr(layer, method, tracer.wrap(name, getattr(layer, method), count))
