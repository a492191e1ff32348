"""Scale benchmark: slots/sec of the grid-built topology out to U=100k.

Grows the paper's Section-VI scenario at constant spatial density —
area side ``2000 * sqrt(U / 20)`` metres, one base station per six
users on a grid — so per-node neighbourhood size stays fixed and the
candidate-link count grows linearly in U.  Each scale runs the GREEDY
closed loop on the grid-built topology (above 2048 nodes no O(N^2)
gain matrix is cached) and reports:

* ``build_s`` — node/model/topology construction time (the grid-bucket
  link enumeration dominates this at large U);
* ``first_slot_s`` — slot 0, which pays the one-time scheduler/router
  static-table builds on top of the steady per-slot cost;
* ``slots_per_sec`` — steady-state rate over the remaining slots.

The full mode finishes with a million-user smoke: topology build plus
one closed-loop slot at U=1e6 (no rate is derived from a single slot;
the point is that the build stays sub-quadratic and the slot completes).

The ``--check-baseline`` gate compares against the committed
``benchmarks/bench_scale_baseline.json``.  Raw slots/sec shifts with
host hardware, so the gate is hardware-normalized: every baseline rate
is rescaled by (U200-now / U200-baseline) measured in the same run,
and the check fails if a current rate falls below 50% of that
expectation — i.e. the *scaling curve* regressed, not the host.

Usage:
    PYTHONPATH=src python benchmarks/bench_scale.py [--smoke]
        [--output BENCH_scale.json] [--check-baseline]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

_REPO = Path(__file__).resolve().parent.parent
try:  # pragma: no cover - path shim for direct invocation
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(_REPO / "src"))

from repro.config import paper_scenario
from repro.config.parameters import ScenarioParameters
from repro.network.geometry import grid_placement
from repro.sim.engine import SlotSimulator
from repro.types import Point, SchedulerKind

BASELINE_PATH = _REPO / "benchmarks" / "bench_scale_baseline.json"

#: (name, num_users, num_slots) per mode.  Slot counts shrink with U so
#: the full curve stays runnable in minutes; the steady rate is computed
#: over slots 1..n, so even the largest scale averages >= 2 slots.
SCALES = {
    "full": [
        ("U200", 200, 12),
        ("U1k", 1_000, 8),
        ("U10k", 10_000, 5),
        ("U100k", 100_000, 3),
    ],
    "smoke": [
        ("U200", 200, 6),
        ("U10k", 10_000, 2),
    ],
}

#: Users per base station.  The paper's density is 10 (20 users, 2
#: BSs), but a BS grid that sparse leaves its cell corners ~999 m from
#: the nearest BS while a user's feasible-link radius is ~889 m, so a
#: user drawn into a corner with no other user nearby is isolated — a
#: ~4e-6 tail that a million draws *will* hit.  One BS per six users
#: puts every point of the area within 774 m of a BS, so no random
#: layout can isolate a node at any U.
USERS_PER_BS = 6

#: Million-user smoke (full mode only): topology build + 1 slot.
MILLION_USERS = 1_000_000

#: Regression gate: a hardware-normalized rate below this fraction of
#: the baseline expectation fails the check.
GATE_FRACTION = 0.5


def scale_scenario(num_users: int, num_slots: int) -> ScenarioParameters:
    """The Section-VI scenario grown at constant spatial density."""
    side = 2000.0 * math.sqrt(num_users / 20.0)
    num_bs = max(2, num_users // USERS_PER_BS)
    stations = tuple(
        Point(p.x, p.y) for p in grid_placement(num_bs, side)
    )
    return paper_scenario(
        num_slots=num_slots,
        seed=2014,
        num_users=num_users,
        area_side_m=side,
        base_station_positions=stations,
        # Renewable sampling is O(N) noise on top of the layers this
        # benchmark measures (topology + scheduling + queues).
        renewables_enabled=False,
    )


def _build(params: ScenarioParameters) -> SlotSimulator:
    return SlotSimulator.integral(params, scheduler_kind=SchedulerKind.GREEDY)


def bench_scale(name: str, num_users: int, num_slots: int) -> Dict:
    params = scale_scenario(num_users, num_slots)

    t0 = time.perf_counter()
    sim = _build(params)
    build_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    sim.step(0)
    first_slot_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for slot in range(1, num_slots):
        sim.step(slot)
    steady_s = time.perf_counter() - t0

    topology = sim.model.topology
    return {
        "num_users": num_users,
        "num_nodes": params.num_nodes,
        "num_links": int(topology.link_tx.size),
        "num_slots": num_slots,
        "build_s": round(build_s, 3),
        "first_slot_s": round(first_slot_s, 3),
        "slots_per_sec": round((num_slots - 1) / steady_s, 3),
    }


def bench_million() -> Dict:
    """U=1e6 smoke: topology/model build plus one closed-loop slot."""
    params = scale_scenario(MILLION_USERS, num_slots=1)
    t0 = time.perf_counter()
    sim = _build(params)
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    sim.step(0)
    slot_s = time.perf_counter() - t0
    return {
        "num_users": MILLION_USERS,
        "num_nodes": params.num_nodes,
        "num_links": int(sim.model.topology.link_tx.size),
        "build_s": round(build_s, 3),
        "slot_s": round(slot_s, 3),
    }


def check_baseline(report: Dict, baseline: Dict) -> List[str]:
    """Hardware-normalized regression check (module docstring)."""
    failures: List[str] = []
    anchor = report["scales"].get("U200")
    base_anchor = baseline.get("scales", {}).get("U200")
    if anchor is None or base_anchor is None:
        return ["baseline check needs the U200 scale in both reports"]
    host_scale = anchor["slots_per_sec"] / base_anchor["slots_per_sec"]
    for name, current in report["scales"].items():
        base = baseline["scales"].get(name)
        if base is None or name == "U200":
            continue
        expected = base["slots_per_sec"] * host_scale
        floor = GATE_FRACTION * expected
        if current["slots_per_sec"] < floor:
            failures.append(
                f"{name}: {current['slots_per_sec']:.2f} slots/s is below"
                f" the regression floor {floor:.2f} (baseline"
                f" {base['slots_per_sec']:.2f} scaled by {host_scale:.2f}"
                f" for this host, gate {GATE_FRACTION:.0%})"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced scale for CI (U<=10k, no million-user smoke)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_scale.json"),
        help="where to write the report (default: ./BENCH_scale.json)",
    )
    parser.add_argument(
        "--check-baseline",
        action="store_true",
        help="fail if a scale regresses >50%% against "
        "benchmarks/bench_scale_baseline.json (hardware-normalized)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=BASELINE_PATH,
        help="baseline file for --check-baseline",
    )
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "full"

    scales: Dict[str, Dict] = {}
    for name, users, slots in SCALES[mode]:
        print(f"benchmarking {name} (users={users}, slots={slots}) ...", flush=True)
        scales[name] = bench_scale(name, users, slots)
        row = scales[name]
        print(
            f"  links={row['num_links']} build={row['build_s']}s"
            f" first_slot={row['first_slot_s']}s"
            f" steady={row['slots_per_sec']} slots/s",
            flush=True,
        )

    million = None
    if mode == "full":
        print("million-user smoke (topology build + 1 slot) ...", flush=True)
        million = bench_million()
        print(
            f"  links={million['num_links']} build={million['build_s']}s"
            f" slot={million['slot_s']}s",
            flush=True,
        )

    report = {
        "schema": "bench_scale/v1",
        "mode": mode,
        "scheduler": "GREEDY",
        "scales": scales,
        "million_user_smoke": million,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    rc = 0
    if args.check_baseline:
        if not args.baseline.exists():
            print(f"FAIL: baseline {args.baseline} not found", file=sys.stderr)
            rc = 1
        else:
            baseline = json.loads(args.baseline.read_text())
            failures = check_baseline(report, baseline)
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            if failures:
                rc = 1
            else:
                print("baseline check passed")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
