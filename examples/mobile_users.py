#!/usr/bin/env python3
"""Mobile users: the controller adapts as the topology drifts.

Runs the paper scenario with random-waypoint pedestrian users (the
paper's system model has mobile terminals; its evaluation froze them).
The backpressure machinery needs no changes: per-slot power control
re-prices every link from the current positions, the virtual queues
steer the scheduler to whatever links are currently good, and sessions
keep their demand met while their destinations walk across the cells.
"""

import dataclasses

from repro import SlotSimulator, paper_scenario
from repro.reporting import format_table
from repro.types import MobilityKind


def run(kind: MobilityKind, speed=(1.0, 3.0)):
    params = dataclasses.replace(
        paper_scenario(control_v=2e5, num_slots=80, seed=21),
        mobility=kind,
        user_speed_range_mps=speed,
    )
    return SlotSimulator.integral(params).run()


def main() -> None:
    rows = []
    for label, kind, speed in (
        ("static (paper)", MobilityKind.STATIC, (0.0, 0.0)),
        ("pedestrians (1-3 m/s)", MobilityKind.RANDOM_WAYPOINT, (1.0, 3.0)),
        ("vehicles (10-20 m/s)", MobilityKind.RANDOM_WAYPOINT, (10.0, 20.0)),
    ):
        result = run(kind, speed)
        rows.append(
            (
                label,
                result.average_cost,
                result.metrics.totals()["delivered_pkts"],
                result.metrics.totals()["curtailed_links"],
                result.average_delay_slots,
            )
        )
    print(
        format_table(
            ["mobility", "avg cost", "delivered", "curtailed", "delay (slots)"],
            rows,
            title="Paper scenario under user mobility",
        )
    )
    print()
    print(
        "Reading: demand stays fully served under motion; faster users\n"
        "mainly shift which links carry the traffic (the virtual-queue\n"
        "backpressure re-routes), with modest cost and delay impact."
    )


if __name__ == "__main__":
    main()
