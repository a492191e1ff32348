"""Ablation bench: Eq.-15 semantics vs packet-accurate transfers
(DESIGN.md `abl-queue`).

The paper's queueing law credits the receiver with the full scheduled
rate even when the transmitter holds fewer packets ("null packets");
the packet-accurate mode caps transfers by real backlog.  The ablation
shows the analytical idealisation inflates queue levels but leaves the
energy-cost picture intact.
"""

import dataclasses

from repro.reporting import format_table
from repro.sim import SlotSimulator
from repro.types import QueueSemantics


def _run_both(base):
    results = {}
    for semantics in QueueSemantics:
        params = dataclasses.replace(base, queue_semantics=semantics)
        results[semantics] = SlotSimulator.integral(params).run()
    return results


def test_queue_semantics_ablation(benchmark, show, bench_base):
    results = benchmark.pedantic(
        _run_both, args=(bench_base,), rounds=1, iterations=1
    )

    rows = []
    for semantics, result in results.items():
        total_backlog = (
            result.backlog_series("bs_data_packets")
            + result.backlog_series("user_data_packets")
        )
        rows.append(
            (
                semantics.value,
                result.average_cost,
                float(total_backlog.mean()),
                float(total_backlog.max()),
                result.metrics.totals()["delivered_pkts"],
            )
        )
    show(
        format_table(
            ["semantics", "avg cost", "mean backlog", "max backlog", "delivered"],
            rows,
            title="Ablation: Eq.-15 null-packet semantics vs packet-accurate",
        )
    )

    paper = results[QueueSemantics.PAPER]
    accurate = results[QueueSemantics.PACKET_ACCURATE]
    paper_mean = (
        paper.backlog_series("bs_data_packets")
        + paper.backlog_series("user_data_packets")
    ).mean()
    accurate_mean = (
        accurate.backlog_series("bs_data_packets")
        + accurate.backlog_series("user_data_packets")
    ).mean()
    # Null packets can only inflate measured backlogs.
    assert paper_mean >= accurate_mean * 0.9
    # The energy cost shape survives the semantics change.
    assert accurate.average_cost <= paper.average_cost * 1.5 + 1.0
    assert paper.average_cost <= accurate.average_cost * 1.5 + 1.0
