"""Experiment drivers: one per paper figure, plus the sweep executor."""

from repro.experiments.executor import (
    FaultPlan,
    JobKind,
    JobSpec,
    MetricStats,
    ReplicatedResult,
    SweepExecutionError,
    SweepResult,
    SweepSpec,
    SweepVariant,
    run_sweep,
    write_bench_record,
)
from repro.experiments.runner import (
    bounds_from_results,
    compute_bounds,
    sweep_bounds,
    sweep_v,
)
from repro.experiments.fig2a import run_fig2a
from repro.experiments.fig2bc import run_fig2b, run_fig2c
from repro.experiments.fig2de import run_fig2d, run_fig2e
from repro.experiments.fig2f import run_fig2f
from repro.experiments.cell_edge import run_cell_edge
from repro.experiments.v_convergence import v_convergence
from repro.experiments.export import export_figure

__all__ = [
    "FaultPlan",
    "JobKind",
    "JobSpec",
    "MetricStats",
    "ReplicatedResult",
    "SweepExecutionError",
    "SweepResult",
    "SweepSpec",
    "SweepVariant",
    "run_sweep",
    "write_bench_record",
    "bounds_from_results",
    "compute_bounds",
    "sweep_bounds",
    "sweep_v",
    "run_cell_edge",
    "v_convergence",
    "export_figure",
    "run_fig2a",
    "run_fig2b",
    "run_fig2c",
    "run_fig2d",
    "run_fig2e",
    "run_fig2f",
]
