"""Ablation bench: S4 solver choice (DESIGN.md `abl-energy`).

Compares the exact price-decomposition energy manager against the
naive grid-only policy (no storage use) over full runs, and micro-
benchmarks a single S4 solve of each kind.  The decomposition must
never lose to grid-only on the drift objective it optimises.  Its
agreement with the SLSQP reference is a unit test
(tests/test_control_energy_manager.py), not a bench leg.
"""

import time

import numpy as np

from repro.reporting import format_table
from repro.control.energy_manager import (
    EnergyManager,
    NodeEnergyBatch,
    NodeEnergyInputs,
)
from repro.sim import SlotSimulator
from repro.types import EnergySolverKind


def _random_inputs(model, rng, count=12):
    inputs = []
    for node in range(count):
        is_bs = node < 2
        demand = float(rng.uniform(0, 800))
        inputs.append(
            NodeEnergyInputs(
                node=node,
                is_base_station=is_bs,
                demand_j=demand,
                renewable_j=float(rng.uniform(0, 400)),
                grid_connected=True,
                grid_cap_j=2000.0,
                charge_cap_j=float(rng.uniform(50, 400)),
                discharge_cap_j=float(rng.uniform(50, 400)),
                z=float(rng.uniform(-5000, 50)),
            )
        )
    return NodeEnergyBatch.from_inputs(inputs)


def test_energy_solver_ablation(benchmark, show, bench_base):
    def run_both():
        results = {}
        for solver in (
            EnergySolverKind.PRICE_DECOMPOSITION,
            EnergySolverKind.GRID_ONLY,
        ):
            results[solver] = SlotSimulator.integral(
                bench_base, energy_solver=solver
            ).run()
        return results

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)

    rows = [
        (
            solver.value,
            result.average_cost,
            result.steady_state_cost,
            result.metrics.average_grid_draw_j(),
            result.metrics.totals()["spill_j"],
        )
        for solver, result in results.items()
    ]
    show(
        format_table(
            ["S4 solver", "avg cost", "steady cost", "avg draw (J)", "spill (J)"],
            rows,
            title="Ablation: price-decomposition vs grid-only energy management",
        )
    )

    smart = results[EnergySolverKind.PRICE_DECOMPOSITION]
    naive = results[EnergySolverKind.GRID_ONLY]
    # In steady state the storage-aware policy is at least as cheap.
    assert smart.steady_state_cost <= naive.steady_state_cost * 1.1 + 1.0


def test_s4_solver_microbenchmark(show, bench_base):
    simulator = SlotSimulator.integral(bench_base)
    model = simulator.model
    rng = np.random.default_rng(0)
    instances = [_random_inputs(model, rng) for _ in range(20)]

    rows = []
    objectives = {}
    for solver in EnergySolverKind:
        manager = EnergyManager(model, solver)
        start = time.perf_counter()
        totals = []
        for batch in instances:
            decision = manager.manage(batch)
            allocation = decision.allocation
            value = model.params.control_v * decision.cost + float(
                np.dot(batch.z, allocation.charge_j - allocation.discharge_j)
            )
            totals.append(value)
        elapsed = (time.perf_counter() - start) / len(instances)
        objectives[solver] = float(np.mean(totals))
        rows.append((solver.value, elapsed * 1e3, objectives[solver]))

    show(
        format_table(
            ["S4 solver", "ms / solve", "mean drift objective"],
            rows,
            title="S4 micro-benchmark (20 random 12-node instances)",
        )
    )

    # Grid-only (no charge, no discharge) is feasible for the exact
    # drift objective, whose quadratic term is non-negative, so the
    # decomposition's linear part can only be lower.
    exact = objectives[EnergySolverKind.PRICE_DECOMPOSITION]
    naive = objectives[EnergySolverKind.GRID_ONLY]
    scale = max(abs(exact), abs(naive), 1.0)
    assert exact <= naive + 1e-3 * scale
