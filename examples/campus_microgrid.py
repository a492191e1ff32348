#!/usr/bin/env python3
"""Campus microgrid: diurnal solar, Markov wind, and the V trade-off.

A campus operator runs a two-cell multi-hop network where users carry
solar-harvesting devices (diurnal output over a 6-hour simulated day)
and base stations are backed by small wind turbines (Markov-modulated
gusts).  The example sweeps the Lyapunov weight V and shows the
energy-cost / queue-backlog trade-off the paper's Figs. 2(a)-2(c)
document: a larger V buys a lower steady-state grid cost at the price
of larger data backlogs.
"""

import dataclasses

from repro import SlotSimulator, paper_scenario
from repro.reporting import format_table
from repro.config.parameters import SessionParameters
from repro.types import Point, RenewableKind


def build_campus_scenario(control_v: float):
    """The paper scenario re-dressed as a campus deployment."""
    base = paper_scenario(control_v=control_v, num_slots=120, seed=7)
    return dataclasses.replace(
        base,
        num_users=12,
        area_side_m=1200.0,
        base_station_positions=(Point(300.0, 600.0), Point(900.0, 600.0)),
        user_renewable_kind=RenewableKind.SOLAR,
        bs_renewable_kind=RenewableKind.WIND,
        sessions=SessionParameters(num_sessions=4, demand_kbps=150.0),
    )


def main() -> None:
    rows = []
    for v in (5e4, 2e5, 8e5):
        params = build_campus_scenario(v)
        result = SlotSimulator.integral(params).run()
        backlog = result.backlog_series("bs_data_packets")
        rows.append(
            (
                v,
                result.average_cost,
                result.steady_state_cost,
                float(backlog.mean()),
                float(backlog.max()),
                result.metrics.totals()["delivered_pkts"],
            )
        )

    print(
        format_table(
            [
                "V",
                "avg cost",
                "steady cost",
                "mean BS backlog",
                "max BS backlog",
                "delivered pkts",
            ],
            rows,
            title="Campus microgrid: the cost/backlog trade-off vs V",
        )
    )
    print()
    print(
        "Reading: larger V weighs energy cost more heavily, so queues are\n"
        "allowed to grow (backlog columns) while the settled grid cost\n"
        "drops or the controller banks more cheap energy early."
    )


if __name__ == "__main__":
    main()
