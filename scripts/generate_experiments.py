#!/usr/bin/env python3
"""Regenerate every paper figure, print the tables and check every claim.

This is the EXPERIMENTS.md data source and the one figure pipeline:
the paper's Section-VI scenario (2 BSs, 20 users, 100 one-minute
slots) with the paper's V sweeps, plus the extension experiments
(cell-edge, V-convergence).  Every run also checks the shape each
figure claims (the ``check_*`` functions below); a claim that does not
hold is named on stderr, figure first, and the exit status is 1.

The paper-scale run takes under a minute serially; ``--workers N``
fans each figure's (V, variant) grid over N worker processes through
the sweep executor (results are bit-identical to the serial run —
tests/test_executor.py pins that).  Pass ``--export DIR`` to
additionally write each figure's data as CSV; ``--bench PATH``
collects every grid's timing record into a machine-readable
BENCH_sweep.json.
"""

import argparse
import dataclasses
import os
import sys
import time
from pathlib import Path
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.config import cell_edge_scenario, paper_scenario
from repro.config.parameters import ScenarioParameters
from repro.core.theory import PlateauCheck, verify_bs_plateau
from repro.experiments import (
    export_figure,
    run_cell_edge,
    run_fig2a,
    run_fig2f,
    sweep_v,
    v_convergence,
)
from repro.experiments.cell_edge import CellEdgeResult
from repro.experiments.executor import BENCH_ENV_VAR
from repro.experiments.fig2a import Fig2aResult
from repro.experiments.fig2bc import BACKLOG_FIGURES, BacklogFigure, backlog_figure
from repro.experiments.fig2f import ARCHITECTURES, Fig2fResult
from repro.experiments.v_convergence import VConvergenceResult
from repro.queueing.stability import StabilityVerdict, assess_strong_stability
from repro.sim import SlotSimulator
from repro.sim.results import SimulationResult
from repro.types import Architecture


class VGrids(NamedTuple):
    """The V values each experiment sweeps."""

    bounds: Tuple[float, ...]  # Fig. 2(a)
    backlog: Tuple[float, ...]  # Figs. 2(b)-2(e)
    architectures: Tuple[float, ...]  # Fig. 2(f)
    cell_edge: Tuple[float, ...]
    convergence: Tuple[float, ...]  # read off Fig. 2(a): a subset of bounds


#: The paper's sweeps (Section VI) and the extensions' grids.
PAPER_GRIDS = VGrids(
    bounds=tuple(k * 1e5 for k in range(1, 11)),
    backlog=tuple(k * 1e5 for k in range(1, 6)),
    architectures=(1e5, 3e5, 5e5),
    cell_edge=(1e5, 3e5),
    convergence=(1e5, 3e5, 1e6),
)

#: Largest relative error allowed between the Fig. 2(d) plateau and
#: ``V * gamma_max + d_max`` per station (measured worst: about 0.1 %).
PLATEAU_RTOL = 0.002


class FigureRun(NamedTuple):
    """One printed figure: its result, wall time and failed claims."""

    name: str
    result: Any
    seconds: float
    failures: List[str]


# -- claims ------------------------------------------------------------------


def _failures(figure: str, claims: Iterable[Tuple[bool, str]]) -> List[str]:
    """``"figure: claim"`` for every claim that does not hold."""
    return [f"{figure}: {claim}" for holds, claim in claims if not holds]


def check_fig2a(result: Fig2aResult) -> List[str]:
    """The bound gap closes with V, and the bounds bracket the cost."""
    gaps = [report.gap for report in result.reports]
    claims = [(gaps[-1] < gaps[0], "the bound gap shrinks with V")]
    for r in result.reports:
        claims += [
            (r.lower <= r.upper, f"lower <= upper at V={r.control_v:g}"),
            (
                r.relaxed_penalty <= r.upper * 1.05 + 1.0,
                f"relaxed <= 1.05 * upper + 1 at V={r.control_v:g}",
            ),
        ]
    return _failures("fig2a", claims)


def check_data_backlog(name: str, figure: BacklogFigure) -> List[str]:
    """Figs. 2(b)/2(c): stable, non-negative backlogs that grow with V."""
    means = figure.mean_values()
    claims = [
        (
            means[max(means)] >= means[min(means)] * 0.8,
            "the mean backlog at the largest V is >= 0.8x the smallest V's",
        )
    ]
    for v, series in figure.series.items():
        nonnegative = bool(np.all(series >= 0))
        # The stability estimator rejects negative paths outright.
        stable = nonnegative and (
            assess_strong_stability(series).verdict is not StabilityVerdict.UNSTABLE
        )
        claims += [
            (nonnegative, f"the backlog is >= 0 at V={v:g}"),
            (stable, f"the backlog is not UNSTABLE at V={v:g}"),
        ]
    return _failures(name, claims)


def check_fig2d(
    figure: BacklogFigure,
    base: ScenarioParameters,
    plateaus: Mapping[float, PlateauCheck],
) -> List[str]:
    """BS buffers stay within capacity and settle at the predicted plateau."""
    capacity = base.num_base_stations * base.bs_energy.battery_capacity_j
    finals = figure.final_values()
    claims = [(finals[max(finals)] >= finals[min(finals)], "larger V banks at least as much")]
    claims += [
        (series.max() <= capacity + 1e-6, f"every value <= capacity at V={v:g}")
        for v, series in figure.series.items()
    ]
    claims += [
        (
            check.relative_error < PLATEAU_RTOL,
            f"the plateau is within {100 * PLATEAU_RTOL:g}% of V*gamma_max + d_max at "
            f"V={v:g} (off by {100 * check.relative_error:.3f}%)",
        )
        for v, check in plateaus.items()
    ]
    return _failures("fig2d", claims)


def check_fig2e(figure: BacklogFigure, base: ScenarioParameters) -> List[str]:
    """User buffers stay within [0, capacity] and end >= where they start."""
    capacity = base.num_users * base.user_energy.battery_capacity_j
    claims = []
    for v, series in figure.series.items():
        claims += [
            (bool(np.all(series >= 0)), f"the buffer is >= 0 at V={v:g}"),
            (series.max() <= capacity + 1e-6, f"every value <= capacity at V={v:g}"),
            (series[-1] >= series[0], f"the buffer ends >= its start at V={v:g}"),
        ]
    return _failures("fig2e", claims)


def _v_values(results: Mapping[Tuple[Architecture, float], Any]) -> List[float]:
    return sorted({v for _, v in results})


def check_fig2f(result: Fig2fResult, num_slots: int) -> List[str]:
    """The proposed system is cheapest, and renewables never hurt it."""
    claims = []
    for v in _v_values(result.results):
        ours = result.cost(Architecture.MULTI_HOP_RENEWABLE, v)
        no_renewable = result.cost(Architecture.MULTI_HOP_NO_RENEWABLE, v)
        claims += [
            (result.ordering_holds(v), f"the proposed system is cheapest at V={v:g}"),
            (
                result.steady_ordering_holds(v),
                f"the proposed system is cheapest in steady state at V={v:g}",
            ),
            (
                ours <= no_renewable * 1.02,
                f"the proposed system costs <= 1.02x the no-renewable one at V={v:g}",
            ),
        ]
    claims += [
        (
            arch in ARCHITECTURES and run.num_slots == num_slots,
            f"{arch.value} runs the full {num_slots} slots at V={v:g}",
        )
        for (arch, v), run in result.results.items()
    ]
    return _failures("fig2f", claims)


def check_cell_edge(result: CellEdgeResult) -> List[str]:
    """Multi-hop saves steady-state energy for cell-edge sessions."""
    claims = [
        (result.multi_hop_saving(v) > 0.0, f"multi-hop saves energy over one-hop at V={v:g}")
        for v in _v_values(result.comparison.results)
    ]
    return _failures("cell_edge", claims)


def check_v_convergence(result: VConvergenceResult) -> List[str]:
    """The heuristic stays within 10 % of the relaxed optimum at every V."""
    worst = result.worst_relative_gap
    claim = f"the worst relative gap is < 10% (it is {100 * worst:.1f}%)"
    return _failures("v_convergence", [(worst < 0.10, claim)])


# -- run plan ----------------------------------------------------------------


def _timed(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[Any, float]:
    start = time.time()
    out = fn(*args, **kwargs)
    return out, time.time() - start


def _bs_plateau(base: ScenarioParameters, run: SimulationResult) -> PlateauCheck:
    """The measured-vs-predicted Fig. 2(d) plateau of one integral run."""
    params = dataclasses.replace(base, control_v=run.control_v)
    simulator = SlotSimulator.integral(params)
    return verify_bs_plateau(simulator.model, simulator.constants, run)


def run_plan(
    base: ScenarioParameters,
    edge: ScenarioParameters,
    grids: VGrids,
    workers: int = 1,
) -> Iterator[FigureRun]:
    """Run every experiment and check it, yielding figures in print order.

    ``edge`` is the cell-edge scenario; every other experiment derives
    from ``base``.  ``workers`` is the sweep-executor fan-out.
    """
    fig2a, seconds = _timed(
        run_fig2a, base=base, v_values=grids.bounds, max_workers=workers
    )
    # V-convergence reads Fig. 2(a)'s reports: derive it now, so a
    # convergence V missing from the bound grid fails before the other
    # sweeps run, and print it last.
    convergence, convergence_seconds = _timed(
        v_convergence, fig2a, grids.convergence
    )
    yield FigureRun("fig2a", fig2a, seconds, check_fig2a(fig2a))

    # Figs. 2(b)-2(e) are four views of one integral sweep: run it once
    # and charge its time to Fig. 2(b).
    runs, seconds = _timed(
        sweep_v, base, sorted(grids.backlog), max_workers=workers
    )
    figures = {name: backlog_figure(name, runs) for name in BACKLOG_FIGURES}
    plateaus = {v: _bs_plateau(base, run) for v, run in runs.items()}
    checks = {
        "fig2b": check_data_backlog("fig2b", figures["fig2b"]),
        "fig2c": check_data_backlog("fig2c", figures["fig2c"]),
        "fig2d": check_fig2d(figures["fig2d"], base, plateaus),
        "fig2e": check_fig2e(figures["fig2e"], base),
    }
    for name, figure in figures.items():
        yield FigureRun(name, figure, seconds, checks[name])
        seconds = 0.0

    fig2f, seconds = _timed(
        run_fig2f, base=base, v_values=grids.architectures, max_workers=workers
    )
    yield FigureRun("fig2f", fig2f, seconds, check_fig2f(fig2f, base.num_slots))

    cell_edge, seconds = _timed(
        run_cell_edge, base=edge, v_values=grids.cell_edge, max_workers=workers
    )
    yield FigureRun("cell_edge", cell_edge, seconds, check_cell_edge(cell_edge))

    yield FigureRun(
        "v_convergence",
        convergence,
        convergence_seconds,
        check_v_convergence(convergence),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--export", default=None, help="directory for per-figure CSVs"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="sweep-executor processes per figure grid (default: serial)",
    )
    parser.add_argument(
        "--bench",
        default=None,
        help="collect per-grid timing records into this BENCH_sweep.json",
    )
    args = parser.parse_args(argv)

    if args.bench is not None:
        # The executor consults this env var on every run_sweep call,
        # so one file accumulates every figure's grid record.
        os.environ[BENCH_ENV_VAR] = args.bench

    failures: List[str] = []
    for run in run_plan(
        paper_scenario(num_slots=100, seed=2014),
        cell_edge_scenario(num_slots=100, seed=2014),
        PAPER_GRIDS,
        workers=args.workers,
    ):
        print(f"===== {run.name} ({run.seconds:.0f}s) =====")
        print(run.result.table)
        print()
        if args.export is not None:
            target = Path(args.export)
            target.mkdir(parents=True, exist_ok=True)
            export_figure(run.result, target / f"{run.name}.csv")
        failures += run.failures
    if args.bench is not None:
        print(f"sweep timing records collected in {args.bench}")
    for failure in failures:
        print(f"claim failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
