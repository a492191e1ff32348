#!/usr/bin/env python3
"""Time-of-use arbitrage: batteries buy cheap and serve dear.

The paper's flat tariff only lets storage smooth variability; under a
real-world time-of-use tariff (three cheap night slots followed by
three 25x-dearer peak slots, repeating), the drift-plus-penalty
controller automatically charges during cheap slots and discharges
through the peak — no forecasting code, the ``V f(P)`` term does it.
This example quantifies the arbitrage value against the storage-blind
grid-only policy and shows the per-slot behaviour.
"""

import dataclasses

from repro import SlotSimulator, paper_scenario
from repro.reporting import format_table
from repro.types import EnergySolverKind

TARIFF = (0.2, 0.2, 0.2, 5.0, 5.0, 5.0)


def main() -> None:
    base = paper_scenario(control_v=1e5, num_slots=120, seed=3)
    params = dataclasses.replace(base, tou_multipliers=TARIFF)

    results = {}
    for solver in (
        EnergySolverKind.PRICE_DECOMPOSITION,
        EnergySolverKind.GRID_ONLY,
    ):
        results[solver] = SlotSimulator.integral(params, energy_solver=solver).run()

    rows = [
        (
            solver.value,
            result.average_cost,
            result.steady_state_cost,
            result.metrics.average_grid_draw_j(),
        )
        for solver, result in results.items()
    ]
    print(
        format_table(
            ["S4 policy", "avg cost", "steady cost", "avg draw (J/slot)"],
            rows,
            title=f"Tariff {TARIFF}: storage-aware vs grid-only",
        )
    )

    # Show a settled tariff period: draws concentrate in cheap slots.
    smart = results[EnergySolverKind.PRICE_DECOMPOSITION]
    draws = smart.metrics.series("grid_draw_j")
    costs = smart.metrics.series("cost")
    period_rows = []
    for slot in range(96, 96 + 2 * len(TARIFF)):
        period_rows.append(
            (
                slot,
                TARIFF[slot % len(TARIFF)],
                float(draws[slot]),
                float(costs[slot]),
            )
        )
    print()
    print(
        format_table(
            ["slot", "tariff x", "grid draw (J)", "cost"],
            period_rows,
            title="Two settled tariff periods (storage-aware policy)",
        )
    )
    print()
    saving = 1.0 - smart.steady_state_cost / max(
        results[EnergySolverKind.GRID_ONLY].steady_state_cost, 1e-12
    )
    print(f"Steady-state arbitrage saving: {100 * saving:.1f}%")


if __name__ == "__main__":
    main()
