"""Operator report: a full plain-text debrief of one simulation run.

``build_report`` turns a :class:`SimulationResult` (plus its simulator
context) into the report a network operator would want after a trial:
cost and traffic headlines, the stability verdicts, the energy-flow
balance per node class, theory-vs-measured checks, and any incidents
(deficits, curtailments).
"""

from __future__ import annotations

from typing import List

from repro.reporting.tables import format_table
from repro.core import theory
from repro.sim.engine import SlotSimulator
from repro.sim.results import SimulationResult


def _headline_section(result: SimulationResult) -> str:
    rows = [
        ("time-averaged energy cost f(P)", result.average_cost),
        ("steady-state cost (2nd half)", result.steady_state_cost),
        ("P2 objective avg[f - lambda k]", result.average_penalty),
        ("avg grid draw (J/slot)", result.metrics.average_grid_draw_j()),
        ("delivered packets", result.metrics.totals()["delivered_pkts"]),
        ("admitted packets", result.metrics.totals()["admitted_pkts"]),
        ("Little's-law delay (slots)", result.average_delay_slots),
    ]
    return format_table(["headline", "value"], rows, title="Headlines")


def _stability_section(result: SimulationResult) -> str:
    rows = [
        (
            name,
            report.verdict.value,
            report.final_running_mean,
            report.max_backlog,
        )
        for name, report in result.stability_reports().items()
    ]
    return format_table(
        ["queue aggregate", "verdict", "running mean", "peak"],
        rows,
        title="Strong stability (Theorem 3, empirical)",
    )


def _energy_section(result: SimulationResult) -> str:
    rows = []
    for label, node_class in (("base stations", "bs"), ("users", "user")):
        rows.append(
            (
                label,
                float(result.metrics.flow_series(node_class, "renewable_used_j").sum()),
                float(result.metrics.flow_series(node_class, "grid_serve_j").sum()),
                float(result.metrics.flow_series(node_class, "grid_charge_j").sum()),
                float(result.metrics.flow_series(node_class, "discharge_j").sum()),
                float(result.metrics.flow_series(node_class, "spill_j").sum()),
            )
        )
    return format_table(
        [
            "node class",
            "renewable (J)",
            "grid serve (J)",
            "grid charge (J)",
            "discharge (J)",
            "spill (J)",
        ],
        rows,
        title="Energy flows over the horizon",
    )


def _theory_section(simulator: SlotSimulator, result: SimulationResult) -> str:
    predictions = theory.predict(simulator.model, simulator.constants)
    plateau = theory.verify_bs_plateau(
        simulator.model, simulator.constants, result
    )
    fill = theory.fill_time_slots(simulator.model, simulator.constants)
    rows = [
        ("admission threshold (pkts/session)", predictions.admission_threshold_pkts),
        ("predicted BS battery plateau (J)", predictions.bs_battery_total_j),
        ("measured BS battery plateau (J)", plateau.measured_j),
        ("plateau relative error", plateau.relative_error),
        ("predicted fill time (slots)", fill),
        ("formal bound slack B/V", predictions.formal_gap),
    ]
    return format_table(["prediction", "value"], rows, title="Theory checks")


def _incident_section(result: SimulationResult) -> str:
    deficits = result.metrics.series("deficit_j")
    curtailed = result.metrics.series("curtailed_links")
    incidents: List[tuple] = []
    for metrics in result.metrics.slots:
        if metrics.deficit_j > 0 or metrics.curtailed_links > 0:
            incidents.append(
                (metrics.slot, metrics.deficit_j, metrics.curtailed_links)
            )
    if not incidents:
        return "Incidents: none (no deficits, no curtailments)."
    table = format_table(
        ["slot", "deficit (J)", "curtailed links"],
        incidents[:20],
        title=(
            f"Incidents ({len(incidents)} slots; total deficit "
            f"{deficits.sum():.1f} J, {int(curtailed.sum())} curtailments)"
        ),
    )
    if len(incidents) > 20:
        table += f"\n... and {len(incidents) - 20} more slots"
    return table


def build_report(simulator: SlotSimulator, result: SimulationResult) -> str:
    """Assemble the full operator report for a finished run."""
    params = simulator.params
    header = (
        f"Run report — scenario seed {params.seed}, V = {params.control_v:g}, "
        f"{result.num_slots} slots x {params.slot_seconds:.0f} s, "
        f"{params.num_users} users / {params.num_base_stations} base stations"
    )
    sections = [
        header,
        "=" * len(header),
        _headline_section(result),
        _stability_section(result),
        _energy_section(result),
        _theory_section(simulator, result),
        _incident_section(result),
    ]
    return "\n\n".join(sections)
