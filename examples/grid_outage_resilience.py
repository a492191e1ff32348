#!/usr/bin/env python3
"""Grid-outage resilience: batteries carry the network through a blackout.

Disconnects both base stations from the grid for 25 slots mid-run
(slots 40-64) with ``NetworkState.schedule_grid_outage``: inside the
window ``omega_i(t) = 0`` for those nodes whatever their connection
probability.  Because the controller's shifted energy queues bank
energy up to the ``V * gamma_max`` threshold beforehand, the network
rides through the blackout on batteries and renewables; the example
reports the demand deficit with a full and with a token battery to
quantify the resilience benefit.

Run with ``PYTHONPATH=src python examples/grid_outage_resilience.py``.
"""

import dataclasses

from repro import SlotSimulator, paper_scenario
from repro.reporting import format_table

OUTAGE = (40, 65)


def run_with_outage(battery_scale: float):
    """Run the paper scenario with a scripted BS blackout.

    Args:
        battery_scale: multiplier on base-station storage capacity
            (1.0 = the default 3 kWh; 0.01 approximates "no battery").
    """
    base = paper_scenario(control_v=3e5, num_slots=100, seed=11)
    bs_energy = dataclasses.replace(
        base.bs_energy,
        battery_capacity_j=base.bs_energy.battery_capacity_j * battery_scale,
        charge_cap_j=min(
            base.bs_energy.charge_cap_j,
            base.bs_energy.battery_capacity_j * battery_scale / 2,
        ),
        discharge_cap_j=min(
            base.bs_energy.discharge_cap_j,
            base.bs_energy.battery_capacity_j * battery_scale / 2,
        ),
    )
    params = dataclasses.replace(base, bs_energy=bs_energy)
    simulator = SlotSimulator.integral(params)

    # Failure injection: every base station off the grid in the window.
    simulator.state.schedule_grid_outage(simulator.model.bs_ids, *OUTAGE)
    return simulator.run()


def main() -> None:
    rows = []
    for label, scale in (("full battery (3 kWh)", 1.0), ("token battery (3 Wh)", 0.001)):
        result = run_with_outage(scale)
        deficits = result.metrics.series("deficit_j")
        curtailed = result.metrics.series("curtailed_links")
        outage_slice = slice(*OUTAGE)
        rows.append(
            (
                label,
                result.average_cost,
                float(deficits[outage_slice].sum()),
                float(curtailed[outage_slice].sum()),
                float(result.metrics.series("delivered_pkts")[outage_slice].sum()),
            )
        )
    print(
        format_table(
            [
                "configuration",
                "avg cost",
                "outage deficit (J)",
                "outage curtailments",
                "outage delivered pkts",
            ],
            rows,
            title=f"Blackout at base stations, slots [{OUTAGE[0]}, {OUTAGE[1]})",
        )
    )
    print()
    print(
        "Reading: with real storage the controller has banked energy by\n"
        "slot 40 and the blackout causes little to no deficit; with token\n"
        "storage the base stations must shed load (curtailments/deficit)."
    )


if __name__ == "__main__":
    main()
