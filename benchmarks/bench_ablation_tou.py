"""Ablation bench: storage arbitrage under a time-of-use tariff.

Under the paper's flat tariff a battery can only smooth variability;
under a varying tariff it buys cheap and serves dear.  This bench runs
the paper scenario with a strong 3-cheap/3-dear repeating tariff and
compares the storage-aware controller against the grid-only baseline:
the arbitrage value shows up directly in the settled (steady-state)
cost.
"""

import dataclasses

from repro.reporting import format_table
from repro.sim import SlotSimulator
from repro.types import EnergySolverKind

#: Three cheap slots followed by three 25x-dearer slots.
TARIFF = (0.2, 0.2, 0.2, 5.0, 5.0, 5.0)


def test_tou_storage_arbitrage(benchmark, show, bench_base):
    # Longer horizon and moderate V so the battery-fill transient (the
    # threshold V*gamma_max scales with the dearest tariff) completes
    # inside the first half and the steady-state window is settled.
    params = dataclasses.replace(
        bench_base,
        tou_multipliers=TARIFF,
        control_v=1e5,
        num_slots=max(90, bench_base.num_slots),
    )

    def run_both():
        return {
            solver: SlotSimulator.integral(params, energy_solver=solver).run()
            for solver in (
                EnergySolverKind.PRICE_DECOMPOSITION,
                EnergySolverKind.GRID_ONLY,
            )
        }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)

    rows = [
        (
            solver.value,
            result.average_cost,
            result.steady_state_cost,
            result.metrics.average_grid_draw_j(),
        )
        for solver, result in results.items()
    ]
    show(
        format_table(
            ["S4 solver", "avg cost", "steady cost", "avg draw (J)"],
            rows,
            title="Ablation: battery arbitrage under a 3-cheap/3-dear tariff",
        )
    )

    smart = results[EnergySolverKind.PRICE_DECOMPOSITION]
    naive = results[EnergySolverKind.GRID_ONLY]
    # Arbitrage must beat the storage-blind policy once settled.
    assert smart.steady_state_cost < naive.steady_state_cost
