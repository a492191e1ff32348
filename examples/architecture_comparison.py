#!/usr/bin/env python3
"""Architecture comparison: why multi-hop + renewables wins (Fig. 2(f)).

Runs the four architectures the paper compares — {multi-hop, one-hop}
x {with, without renewables} — on the identical random environment and
prints their time-averaged energy cost at three values of V, plus a
breakdown of where the savings come from (renewable energy used vs
grid energy drawn).
"""

import dataclasses

from repro import Architecture, paper_scenario
from repro.reporting import format_table
from repro.baselines import architecture_label, run_architecture
from repro.experiments.fig2f import ARCHITECTURES


def main() -> None:
    base = paper_scenario(num_slots=80, seed=5)
    v_values = (1e5, 3e5, 5e5)

    cost_rows = []
    detail_rows = []
    for architecture in ARCHITECTURES:
        costs = []
        for v in v_values:
            result = run_architecture(
                dataclasses.replace(base, control_v=v), architecture
            )
            costs.append(result.average_cost)
            if v == v_values[1]:
                detail_rows.append(
                    (
                        architecture_label(architecture),
                        result.metrics.average_grid_draw_j(),
                        result.metrics.totals()["spill_j"],
                        result.metrics.totals()["delivered_pkts"],
                    )
                )
        cost_rows.append([architecture_label(architecture)] + costs)

    print(
        format_table(
            ["architecture"] + [f"V={v:g}" for v in v_values],
            cost_rows,
            title="Time-averaged expected energy cost by architecture (Fig. 2(f))",
        )
    )
    print()
    print(
        format_table(
            [
                "architecture",
                "avg BS grid draw (J/slot)",
                "spilled renewables (J)",
                "delivered pkts",
            ],
            detail_rows,
            title=f"Where the savings come from (V={v_values[1]:g})",
        )
    )
    print()
    print(
        "Reading: renewables displace grid draw at the base stations;\n"
        "multi-hop shifts transmit energy onto renewable-powered relays,\n"
        "so the combination is cheapest — the paper's Fig. 2(f) ordering."
    )


if __name__ == "__main__":
    main()
