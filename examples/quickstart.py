#!/usr/bin/env python3
"""Quickstart: run the paper's scenario and inspect the result.

Builds the Section-VI evaluation network (2 base stations, 20 users,
5 spectrum bands, 5 downlink sessions), runs the drift-plus-penalty
controller for 60 one-minute slots, and prints the headline numbers:
time-averaged energy cost, queue stability verdicts, and the
upper/lower bound pair for the configured V.
"""

from repro import SlotSimulator, lower_bound_cost, paper_scenario
from repro.reporting import format_table


def main() -> None:
    params = paper_scenario(control_v=2e5, num_slots=60, seed=42)

    print("== Running the proposed drift-plus-penalty controller ==")
    result = SlotSimulator.integral(params).run()

    summary = result.summary()
    rows = [(key, value) for key, value in sorted(summary.items())]
    print(format_table(["metric", "value"], rows, title="Run summary"))
    print()

    print("== Strong-stability check (Theorem 3, empirical) ==")
    rows = [
        (name, report.verdict.value, report.final_running_mean, report.growth_fraction)
        for name, report in result.stability_reports().items()
    ]
    print(
        format_table(
            ["queue aggregate", "verdict", "running mean", "growth fraction"],
            rows,
        )
    )
    print()

    print("== Bounds on the optimal cost (Theorems 4 and 5) ==")
    relaxed = SlotSimulator.relaxed(params).run()
    lower = lower_bound_cost(
        relaxed.average_penalty, result.constants.drift_b, params.control_v
    )
    rows = [
        ("upper bound (our algorithm, Thm 4)", result.average_penalty),
        ("empirical lower (relaxed LP optimum)", relaxed.average_penalty),
        ("formal lower (psi*_P3bar - B/V, Thm 5)", lower),
    ]
    print(format_table(["bound", "value"], rows))


if __name__ == "__main__":
    main()
