"""Ablation bench: S1 solver choice (DESIGN.md `abl-sched`).

Compares the paper's sequential-fix heuristic against the exact
max-weight-matching solution and the cheap greedy heuristic on the
same runs: achieved cost, delivered traffic, and per-run wall time.
The SF heuristic should track the exact scheduler closely (the paper
relies on it being near-optimal).
"""

import time

from repro.reporting import format_table
from repro.sim import SlotSimulator
from repro.types import SchedulerKind


def _run_all(base):
    rows = {}
    for kind in SchedulerKind:
        start = time.perf_counter()
        simulator = SlotSimulator.integral(base, scheduler_kind=kind)
        drops = 0
        for slot in range(base.num_slots):
            decision = simulator.step(slot)
            drops += len(decision.schedule.dropped)
        result = simulator.run(num_slots=0)  # finalize result object
        elapsed = time.perf_counter() - start
        rows[kind] = (result, elapsed, drops)
    return rows


def test_scheduler_ablation(benchmark, show, bench_base):
    rows = benchmark.pedantic(
        _run_all, args=(bench_base,), rounds=1, iterations=1
    )

    table_rows = []
    for kind, (result, elapsed, drops) in rows.items():
        table_rows.append(
            (
                kind.value,
                result.metrics.average_cost(),
                result.metrics.totals()["delivered_pkts"],
                result.metrics.snapshot_series("bs_data_packets").mean(),
                drops,
                elapsed,
            )
        )
    show(
        format_table(
            [
                "S1 scheduler",
                "avg cost",
                "delivered",
                "mean BS backlog",
                "dropped",
                "wall (s)",
            ],
            table_rows,
            title="Ablation: SF vs SINR-aware SF vs exact matching vs greedy",
        )
    )

    # The interference-aware relaxation avoids power-control drops.
    assert rows[SchedulerKind.SEQUENTIAL_FIX_SINR][2] <= rows[
        SchedulerKind.SEQUENTIAL_FIX
    ][2]

    sf = rows[SchedulerKind.SEQUENTIAL_FIX][0]
    exact = rows[SchedulerKind.MAX_WEIGHT_MATCHING][0]
    # Same demand delivered (Eq. 18 forces it identically).
    assert sf.metrics.totals()["delivered_pkts"] == exact.metrics.totals()[
        "delivered_pkts"
    ]
    # SF's achieved cost stays within 2x of the exact scheduler's.
    assert sf.average_cost <= exact.average_cost * 2.0 + 1.0
