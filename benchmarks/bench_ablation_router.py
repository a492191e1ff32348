"""Ablation bench: router capacity modes and energy-aware scheduling.

Two design decisions called out in DESIGN.md:

* `abl-queue`/router — the paper-literal Eq. (25) cap (routing limited
  to *scheduled* capacity) versus the potential-capacity default that
  lets the S1 <-> S3 feedback loop bootstrap multi-hop flows;
* `abl-sched-energy` — energy-aware S1 weights versus the paper's
  energy-blind weights.
"""

import dataclasses

from repro.reporting import format_table
from repro.control.router import RouterMode
from repro.sim import SlotSimulator


def test_router_capacity_mode_ablation(benchmark, show, bench_base):
    def run_both():
        results = {}
        for mode in RouterMode:
            results[mode] = SlotSimulator.integral(
                bench_base, router_mode=mode
            ).run()
        return results

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)

    rows = []
    for mode, result in results.items():
        rows.append(
            (
                mode.value,
                result.average_cost,
                float(result.backlog_series("bs_data_packets")[-1]),
                float(result.backlog_series("virtual_packets").mean()),
                result.metrics.series("scheduled_links").mean(),
            )
        )
    show(
        format_table(
            [
                "router mode",
                "avg cost",
                "final BS backlog",
                "mean virtual backlog",
                "links/slot",
            ],
            rows,
            title="Ablation: potential-capacity vs paper-literal Eq. (25) routing",
        )
    )

    literal = results[RouterMode.SCHEDULED_CAPACITY]
    bootstrap = results[RouterMode.POTENTIAL_CAPACITY]
    # The starvation signature: the literal mode routes (and therefore
    # schedules) far less traffic beyond the forced last hops.
    assert (
        literal.metrics.series("scheduled_links").mean()
        <= bootstrap.metrics.series("scheduled_links").mean() + 1e-9
    )


def test_energy_aware_scheduling_ablation(benchmark, show, bench_base):
    def run_both():
        blind_params = dataclasses.replace(
            bench_base, energy_aware_scheduling=False
        )
        return {
            "energy-aware (default)": SlotSimulator.integral(bench_base).run(),
            "energy-blind (paper S1)": SlotSimulator.integral(blind_params).run(),
        }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)

    rows = [
        (
            label,
            result.average_cost,
            result.steady_state_cost,
            result.metrics.totals()["delivered_pkts"],
        )
        for label, result in results.items()
    ]
    show(
        format_table(
            ["S1 weights", "avg cost", "steady cost", "delivered"],
            rows,
            title="Ablation: energy-aware vs energy-blind scheduling weights",
        )
    )

    aware = results["energy-aware (default)"]
    blind = results["energy-blind (paper S1)"]
    # Both must deliver the same forced demand.
    assert aware.metrics.totals()["delivered_pkts"] == blind.metrics.totals()[
        "delivered_pkts"
    ]
