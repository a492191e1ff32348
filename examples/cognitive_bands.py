#!/usr/bin/env python3
"""Cognitive bands: scheduling around primary-user activity.

The paper's spectrum model (its cognitive-radio lineage) gives each
user a static set of accessible bands; this example turns on the
dynamic-availability extension, where a Markov primary user blocks
each random band at each user for stretches of slots.  The controller
needs no changes: blocked bands simply drop out of the per-slot
candidate set, and the always-on cellular band guarantees demand keeps
flowing.  The example measures how much capacity headroom the random
bands contribute as their availability degrades.
"""

import dataclasses

from repro import SlotSimulator, paper_scenario
from repro.reporting import format_table


def run_with_availability(on_prob: float):
    base = paper_scenario(control_v=2e5, num_slots=80, seed=17)
    spectrum = dataclasses.replace(
        base.spectrum,
        dynamic_availability=True,
        availability_on_prob=on_prob,
        availability_persistence=0.9,
    )
    params = dataclasses.replace(base, spectrum=spectrum)
    return SlotSimulator.integral(params).run()


def main() -> None:
    rows = []
    for on_prob in (1.0, 0.7, 0.4, 0.1):
        result = run_with_availability(on_prob)
        backlog = result.backlog_series("virtual_packets")
        rows.append(
            (
                f"{100 * on_prob:.0f}%",
                result.metrics.totals()["delivered_pkts"],
                result.metrics.series("scheduled_links").mean(),
                float(backlog.mean()),
                result.average_cost,
            )
        )
    print(
        format_table(
            [
                "band availability",
                "delivered pkts",
                "links/slot",
                "mean link-layer backlog",
                "avg cost",
            ],
            rows,
            title="Primary-user blocking vs scheduling headroom",
        )
    )
    print()
    print(
        "Reading: demand stays fully served even at 10% band availability\n"
        "(the cellular band is never blocked), but the link-layer virtual\n"
        "queues carry more backlog as the schedulable band set shrinks."
    )


if __name__ == "__main__":
    main()
