"""The repository benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 benchmarks/suite/run.py [--workload NAME|all] [--seed 2014]
        [--seconds 10] [--trace [0|1]] [--repeat N] [--out FILE]

One workload runs in this process; ``all`` runs every workload, one at
a time, each in a fresh subprocess so that its peak RSS is its own.  The
loop is closed: a slot starts when the previous one has finished.  The
runner starts no threads and pins the BLAS to one thread (see below).

A pass runs whole episodes, at least the workload's ``min_episodes``,
until ``--seconds`` of wall time have passed; an episode is a fixed
amount of work.  An episode
constructs every simulator of the workload ``setup_reps`` times, keeps
the last construction, and steps the simulators round-robin, one slot
of each per round, so a burst of host slowness lands on every simulator
alike.  Between slots, and between constructions, the runner times a
fixed reference kernel (``hostref.py``).  It reports slot and
construction times normalized by it as well as measured, so that the
host's drifting speed cancels out of the gated timing metrics.
``--trace 1`` adds a traced pass of the same episodes and reports the
per-layer metrics instead of the end-to-end ones.

Every simulator run is checked: an exception, a non-finite or negative
queue, or a battery outside [0, capacity] fails it.  Each episode hashes
its per-slot decisions and final state; every episode of a run, and the
traced pass, must reproduce the hash, and at a seed pinned in
``golden.json`` it must match the pin.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# One BLAS thread, set before numpy loads.  The program's dense solves
# are at most a few hundred rows, where a second OpenBLAS thread saves
# nothing, but on a virtual machine whose other vCPU is descheduled a
# threaded solve of size ~110-260 waits 0.1 s for its helper: 200-fold
# swings in slot time that belong to the host, not the program.  An
# explicitly exported value wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import repro  # noqa: E402
import spans  # noqa: E402
from compare import quartiles  # noqa: E402
from hostref import HostReference  # noqa: E402
from workloads import WORKLOADS, SimRun, Workload  # noqa: E402

BENCHMARK = ROOT / "BENCHMARK.json"
GOLDEN = SUITE / "golden.json"
OUT_DIR = SUITE / "out"
DEFAULT_SEED = 2014
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: Significant digits kept when hashing floats: enough to pin every
#: decision, few enough that a last-bit BLAS difference cannot move it.
HASH_DIGITS = 9


class InvariantError(RuntimeError):
    """A slot left the state outside the model's bounds."""


# -- fingerprints ----------------------------------------------------------------


def decision_fingerprint(decision) -> tuple:
    """Everything a slot decided, as an exactly comparable tuple."""
    return (
        tuple((t.tx, t.rx, t.band, t.power_w) for t in decision.schedule.transmissions),
        tuple(decision.schedule.link_service_pkts.items()),
        tuple(decision.schedule.dropped),
        tuple(decision.admission.sources.items()),
        tuple(decision.admission.admitted.items()),
        tuple(decision.routing.rates.items()),
        tuple(decision.curtailed),
    )


def canonical(obj) -> object:
    """``obj`` with floats rounded to ``HASH_DIGITS`` significant digits."""
    if isinstance(obj, float):
        return format(obj, f".{HASH_DIGITS}g")
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (tuple, list)):
        return tuple(canonical(item) for item in obj)
    return obj


def round_significant(values: np.ndarray) -> np.ndarray:
    """Array form of :func:`canonical`'s float rounding."""
    values = np.asarray(values, dtype=float)
    out = values.copy()
    mask = np.isfinite(values) & (values != 0)
    exponent = np.floor(np.log10(np.abs(values[mask])))
    scale = 10.0 ** (HASH_DIGITS - 1 - exponent)
    out[mask] = np.round(values[mask] * scale) / scale
    return out


def check_state(arrays, slot: int) -> None:
    """Raise :class:`InvariantError` if the state left its bounds."""
    for name, values in (
        ("q", arrays.q),
        ("g", arrays.g),
        ("z", arrays.z_values_array()),
        ("battery", arrays.battery_level),
    ):
        if not np.all(np.isfinite(values)):
            raise InvariantError(f"slot {slot}: non-finite {name}")
    for name, values in (("q", arrays.q), ("g", arrays.g)):
        if np.any(values < 0):
            raise InvariantError(f"slot {slot}: negative {name} queue")
    level = arrays.battery_level
    if np.any(level < 0) or np.any(level > arrays.capacity_j):
        raise InvariantError(f"slot {slot}: battery outside [0, capacity]")


# -- episodes --------------------------------------------------------------------


@dataclass
class SimStats:
    """What one simulator of an episode measured."""

    label: str
    relaxed: bool
    episode: int
    setup_ns: List[int] = field(default_factory=list)
    norm_setup_ns: List[float] = field(default_factory=list)
    slot_ns: List[int] = field(default_factory=list)
    norm_slot_ns: List[float] = field(default_factory=list)
    avg_cost: float = float("nan")
    avg_backlog: float = float("nan")
    nodes: int = 0
    links: int = 0
    error: Optional[str] = None


class _Sim:
    """One simulator of a running episode, with its stats and digest."""

    def __init__(self, sim_run: SimRun, episode: int) -> None:
        self.run = sim_run
        self.stats = SimStats(sim_run.label, sim_run.relaxed, episode)
        self.digest = hashlib.sha256(sim_run.label.encode())
        self.sim = None

    def fail(self, exc: Exception) -> None:
        traceback.print_exc(file=sys.stderr)
        self.stats.error = f"{self.run.label}: {type(exc).__name__}: {exc}"
        self.digest.update(b"failed")
        self.sim = None

    def build(self, reps: int, tracer, state_cls, run_id: str, ref: HostReference) -> None:
        """Construct ``reps`` times, timing each; keep the last.

        The reference kernel is sampled once the previous construction
        is freed: sampled beside a live simulator, its allocations left
        that heap laid out differently from run to run, which moved the
        U=1k workloads' peak RSS by ~10 MB.
        """
        for rep in range(reps):
            self.sim = None
            gc.collect()  # free the previous construction before timing
            if rep:
                ref.sample()
            index = -1
            if tracer is not None:
                tracer.run_id, tracer.slot_id = run_id, -(rep + 1)
                index = tracer.begin("setup")
            t0 = time.perf_counter_ns()
            try:
                self.sim = self.run.build(state_cls)
            finally:
                elapsed = time.perf_counter_ns() - t0
                if tracer is not None:
                    tracer.end(index)
                self.stats.setup_ns.append(elapsed)
                ref.add(elapsed, self.stats.norm_setup_ns)
        self.stats.nodes = self.sim.model.num_nodes
        self.stats.links = len(self.sim.model.topology.candidate_links)
        if tracer is not None:
            spans.instrument(tracer, self.sim)

    def step(self, slot: int, tracer, run_id: str, ref: HostReference) -> None:
        """Step one slot, timing it, and check the state it leaves."""
        index = -1
        if tracer is not None:
            tracer.run_id, tracer.slot_id = run_id, slot
            index = tracer.begin("step")
        t0 = time.perf_counter_ns()
        try:
            decision = self.sim.step(slot)
        finally:
            elapsed = time.perf_counter_ns() - t0
            if tracer is not None:
                tracer.end(index)
        self.stats.slot_ns.append(elapsed)
        ref.add(elapsed, self.stats.norm_slot_ns)
        ref.sample()
        self.digest.update(repr(canonical(decision_fingerprint(decision))).encode())
        check_state(self.sim.state.arrays, slot)

    def finish(self) -> None:
        """Record the run's averages and hash its final state."""
        collector = self.sim.metrics
        self.stats.avg_cost = collector.average_cost()
        backlog = collector.snapshot_series("bs_data_packets") + collector.snapshot_series(
            "user_data_packets"
        )
        self.stats.avg_backlog = float(backlog.mean())
        arrays = self.sim.state.arrays
        for values in (arrays.q, arrays.g, arrays.battery_level, [self.stats.avg_cost]):
            self.digest.update(round_significant(np.asarray(values)).tobytes())
        self.sim = None


@dataclass
class Pass:
    """One untraced or traced pass: whole episodes of a workload."""

    sims: List[SimStats] = field(default_factory=list)
    hashes: List[str] = field(default_factory=list)

    @property
    def slot_ns(self) -> List[int]:
        return [ns for s in self.sims for ns in s.slot_ns]

    @property
    def failed(self) -> int:
        return sum(s.error is not None for s in self.sims)

    def slots_per_s(self, times: str = "norm_slot_ns") -> float:
        """Slots stepped per second of step time (``times`` names which)."""
        total = sum(sum(getattr(s, times)) for s in self.sims)
        return len(self.slot_ns) / (total / 1e9) if total else 0.0

    def setup_s(self, times: str = "norm_setup_ns") -> float:
        """Set-up time of an episode, median over the episodes.

        An episode's set-up time is each simulator's median construction
        time, summed over the simulators.
        """
        per_episode: Dict[int, float] = {}
        for s in self.sims:
            if getattr(s, times):
                total = statistics.median(getattr(s, times)) / 1e9
                per_episode[s.episode] = per_episode.get(s.episode, 0.0) + total
        return statistics.median(per_episode.values())


def run_episode(
    workload: Workload,
    sim_runs: Sequence[SimRun],
    episode: int,
    result: Pass,
    ref: HostReference,
    tracer: Optional[spans.Tracer] = None,
    state_cls=None,
) -> None:
    """Build every simulator, step them round-robin, add to ``result``."""
    sims = [_Sim(r, episode) for r in sim_runs]
    for i, s in enumerate(sims):
        try:
            s.build(workload.setup_reps, tracer, state_cls, f"{episode}:{i}:{s.run.label}", ref)
        except Exception as exc:  # a failed run is counted, not fatal
            s.fail(exc)
    ref.sample()  # normalizes the constructions still queued
    for slot in range(max(r.params.num_slots for r in sim_runs)):
        for i, s in enumerate(sims):
            if s.sim is None or slot >= s.run.params.num_slots:
                continue
            try:
                s.step(slot, tracer, f"{episode}:{i}:{s.run.label}", ref)
            except Exception as exc:
                s.fail(exc)
    for s in sims:
        if s.sim is not None:
            try:
                s.finish()
            except Exception as exc:
                s.fail(exc)
    result.sims.extend(s.stats for s in sims)
    result.hashes.append(hashlib.sha256(b"".join(s.digest.digest() for s in sims)).hexdigest())


def run_pass(
    workload: Workload,
    seed: int,
    seconds: float,
    ref: HostReference,
    episodes: Optional[int] = None,
    tracer: Optional[spans.Tracer] = None,
    state_cls=None,
) -> Pass:
    """Whole episodes until ``seconds`` have passed and at least the
    workload's ``min_episodes`` ran (or exactly ``episodes``)."""
    sim_runs = workload.runs(seed)
    result = Pass()
    started = time.perf_counter()
    while True:
        run_episode(workload, sim_runs, len(result.hashes), result, ref, tracer, state_cls)
        done = len(result.hashes)
        if episodes is not None:
            if done >= episodes:
                return result
        elif done >= workload.min_episodes and time.perf_counter() - started >= seconds:
            return result


def traced_pass(
    workload: Workload, seed: int, ref: HostReference, episodes: int
) -> Tuple[Pass, spans.Tracer]:
    """The traced pass: same episodes, layer entry points wrapped."""
    tracer = spans.Tracer()
    with spans.patched(tracer) as state_cls:
        result = run_pass(workload, seed, 0.0, ref, episodes, tracer, state_cls)
    return result, tracer


# -- metrics ---------------------------------------------------------------------


def tail(slot_ns: Sequence[int]) -> Optional[Dict[str, float]]:
    """Slot time at the highest whole percentile with >= 10 slots beyond it."""
    n = len(slot_ns)
    if n < 11:
        return None
    pct = (100 * (n - 10)) // n
    value = float(np.percentile(np.asarray(slot_ns, dtype=float), pct)) / 1e6
    return {"pct": pct, "ms": value, "n": n}


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _slot_p50_ms(sims: Sequence[SimStats], times: str) -> float:
    """Each simulator's median slot time, averaged over the simulators."""
    return _mean([statistics.median(getattr(s, times)) / 1e6 for s in sims if s.slot_ns])


def end_to_end(result: Pass, ref: HostReference) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics of an untraced pass, plus some for context.

    The gated times are normalized by the reference kernel; the
    ``wall_`` ones are the same times as measured.
    """
    integral = [s for s in result.sims if not s.relaxed and s.error is None]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (result.setup_s(), "s"),
        "slots_per_s": (result.slots_per_s(), "slots/s"),
        "slot_p50_ms": (_slot_p50_ms(result.sims, "norm_slot_ns"), "ms"),
        "wall_setup_s": (result.setup_s("setup_ns"), "s"),
        "wall_slots_per_s": (result.slots_per_s("slot_ns"), "slots/s"),
        "wall_slot_p50_ms": (_slot_p50_ms(result.sims, "slot_ns"), "ms"),
        "host_ref_ms": (statistics.median(ref.samples) / 1e6, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "avg_cost": (_mean([s.avg_cost for s in integral]), "cost/slot"),
        "avg_backlog_pkts": (_mean([s.avg_backlog for s in integral]), "pkts"),
    }


def per_layer(
    untraced: Pass, traced: Pass, tracer: spans.Tracer
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of a traced pass."""
    out = spans.layer_metrics(
        tracer.spans(), tracer.counts, tracer.maxima, len(traced.slot_ns)
    )
    ok = [s for s in traced.sims if s.error is None]
    out["topology.nodes"] = (float(max((s.nodes for s in ok), default=0)), "count")
    out["topology.links"] = (float(max((s.links for s in ok), default=0)), "count")
    base = untraced.slots_per_s()
    out["trace.overhead"] = (1.0 - traced.slots_per_s() / base if base else 0.0, "ratio")
    return out


# -- records -----------------------------------------------------------------------


def benchmark_spec() -> dict:
    """The metric lists fixed in ``BENCHMARK.json``."""
    return json.loads(BENCHMARK.read_text())


def golden_hash(workload: str, seed: int) -> Optional[str]:
    """The pinned hash for ``(workload, seed)``, if any."""
    if not GOLDEN.exists():
        return None
    pins = json.loads(GOLDEN.read_text())
    return pins.get(str(seed), {}).get(workload)


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    """Hardware, versions and BLAS thread settings of the running machine."""
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "commit": _commit(),
    }


def summarize(runs: Sequence[dict]) -> dict:
    """Per workload and metric: median and quartiles over the runs."""
    table: Dict[str, Dict[str, List[float]]] = {}
    units: Dict[str, str] = {}
    for run in runs:
        for block in ("end_to_end", "context", "per_layer"):
            for name, metric in run.get(block, {}).items():
                table.setdefault(run["workload"], {}).setdefault(name, []).append(
                    metric["value"]
                )
                units[name] = metric["unit"]
    summary: Dict[str, dict] = {}
    for workload, metrics in table.items():
        summary[workload] = {}
        for name, values in sorted(metrics.items()):
            q1, median, q3 = quartiles(values)
            summary[workload][name] = {
                "median": median, "q1": q1, "q3": q3, "n": len(values), "unit": units[name]
            }
    return summary


def append_record(path: Path, record: dict) -> None:
    """Add one run to the record file at ``path`` and refresh its summary."""
    if path.exists():
        data = json.loads(path.read_text())
    else:
        data = {"schema": "suite/v1", "runs": []}
    data["runs"].append(record)
    data["summary"] = summarize(data["runs"])
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(data, indent=1) + "\n")
    os.replace(tmp, path)


# -- one workload in this process ------------------------------------------------


def _metric_block(
    values: Dict[str, Tuple[float, str]], names: Sequence[str]
) -> Dict[str, dict]:
    return {name: {"value": float(values[name][0]), "unit": values[name][1]} for name in names}


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path = OUT_DIR
) -> Tuple[dict, dict]:
    """Run one workload; returns ``(result line, full record)``."""
    started = time.perf_counter()
    spec = benchmark_spec()
    gated = [m["name"] for m in spec["end_to_end"]]
    ref = HostReference()
    untraced = run_pass(workload, seed, seconds, ref)
    e2e = end_to_end(untraced, ref)
    record: dict = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "episodes": len(untraced.hashes),
        "sim_runs": len(untraced.sims),
        "slots": len(untraced.slot_ns),
        "hash": untraced.hashes[0],
        "tail": tail(untraced.slot_ns),
        "errors": [s.error for s in untraced.sims if s.error],
        "end_to_end": _metric_block(e2e, gated),
        "context": _metric_block(e2e, [name for name in e2e if name not in gated]),
    }
    attempted = len(untraced.sims)
    failed = untraced.failed
    consistent = len(set(untraced.hashes)) == 1
    if trace:
        traced, tracer = traced_pass(workload, seed, ref, len(untraced.hashes))
        attempted += len(traced.sims)
        failed += traced.failed
        record["traced_hash"] = traced.hashes[0]
        consistent = consistent and set(traced.hashes) == set(untraced.hashes)
        layers = per_layer(untraced, traced, tracer)
        record["per_layer"] = _metric_block(layers, [m["name"] for m in spec["per_layer"]])
        record["errors"] += [s.error for s in traced.sims if s.error]
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_path = out_dir / f"trace-{workload.name}.json"
        trace_path.write_text(
            json.dumps({"workload": workload.name, "seed": seed, "spans": tracer.spans()})
            + "\n"
        )
        record["trace_file"] = os.path.relpath(trace_path, ROOT)
    pinned = golden_hash(workload.name, seed)
    record["golden_match"] = None if pinned is None else pinned == untraced.hashes[0]
    record["consistent"] = consistent
    record["failed_frac"] = failed / attempted
    correct = failed == 0 and consistent and record["golden_match"] is not False
    record["correct"] = correct
    record["wall_s"] = time.perf_counter() - started
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["per_layer"] if trace else record["end_to_end"],
    }
    return line, record


def print_record(record: dict) -> None:
    """Human-readable metric lines (name, value, unit)."""
    print(
        f"workload {record['workload']}  seed {record['seed']}  episodes "
        f"{record['episodes']}  simulator runs {record['sim_runs']}  slots {record['slots']}"
    )
    for block in ("end_to_end", "context", "per_layer"):
        for name, metric in record.get(block, {}).items():
            print(f"  {name:<22} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'failed_frac':<22} {record['failed_frac']:>16.6g} ratio")
    if record["tail"]:
        t = record["tail"]
        print(f"  slot p{t['pct']} {t['ms']:.4g} ms over n={t['n']} slots (not gated)")
    print(
        f"  hash {record['hash'][:16]}  golden_match {record['golden_match']}  "
        f"consistent {record['consistent']}  correct {record['correct']}  "
        f"wall {record['wall_s']:.1f} s"
    )
    sys.stdout.flush()


# -- every workload, one subprocess each ------------------------------------------


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh subprocess, one at a time."""
    lines: Dict[str, List[dict]] = {}
    for _ in range(args.repeat):
        for name in WORKLOADS:
            cmd = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]
            if args.out is not None:
                cmd += ["--out", str(args.out)]
            with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
                last = ""
                for text in child.stdout:
                    print(text, end="", flush=True)
                    last = text
                code = child.wait()
            try:
                lines.setdefault(name, []).append(json.loads(last))
            except json.JSONDecodeError:
                print(f"{name}: no result (exit code {code})", file=sys.stderr)
                return 1
    metrics = {}
    for name, results in lines.items():
        for metric, first in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            metrics[f"{name}.{metric}"] = {
                "value": statistics.median(values),
                "unit": first["unit"],
            }
    every = [r for results in lines.values() for r in results]
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in every),
                "attempted": sum(r["attempted"] for r in every),
                "failed": sum(r["failed"] for r in every),
                "metrics": metrics,
            }
        )
    )
    return 0


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=10.0,
        help="measure whole episodes until this much wall time has passed",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: add a traced pass and report the per-layer metrics",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="with --workload all: run every workload this many times",
    )
    parser.add_argument("--out", type=Path, help="append run records to this JSON file")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    program = Path(repro.__file__).resolve()
    if SRC.resolve() not in program.parents:
        print(f"repro was imported from {program}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    line, record = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    if args.out is not None:
        record["env"] = environment()
        append_record(args.out, record)
    print_record(record)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
