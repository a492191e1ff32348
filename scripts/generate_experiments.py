#!/usr/bin/env python3
"""Regenerate every paper figure and ablation, print the tables and check every claim.

This is the EXPERIMENTS.md data source and the one experiment
pipeline: the paper's Section-VI scenario (2 BSs, 20 users, 100
one-minute slots) with the paper's V sweeps, the extension experiments
(cell-edge, V-convergence) and six ablations that run one design
choice against its alternative on the same scenario.  Every run also
checks the shape each table claims (the ``check_*`` functions below);
a claim that does not hold is named on stderr, table first, and the
exit status is 1.

The paper-scale run takes about 56 s serially on a 2-vCPU VM, 29 s of
it in the ablations; ``--workers N`` fans each figure's (V, variant)
grid over N worker processes through the sweep executor (results are
bit-identical to the serial run — tests/test_executor.py pins that).
The ablations run serially: their variants differ in simulator
options that a sweep cell does not carry.  A variant that several
ablations share (the default controller on ``base``) runs once.  Pass
``--export DIR`` to additionally write each table's data as CSV.
"""

import argparse
import dataclasses
import functools
import inspect
import sys
import time
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
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
from repro.control.router import RouterMode
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
from repro.experiments.fig2a import Fig2aResult
from repro.experiments.fig2bc import BACKLOG_FIGURES, BacklogFigure, backlog_figure
from repro.experiments.fig2f import ARCHITECTURES, Fig2fResult
from repro.experiments.v_convergence import VConvergenceResult
from repro.queueing.stability import StabilityVerdict, assess_strong_stability
from repro.reporting import format_table
from repro.reporting.tables import Cell
from repro.sim import SlotSimulator
from repro.sim.results import SimulationResult
from repro.types import (
    Architecture,
    EnergySolverKind,
    QueueSemantics,
    SchedulerKind,
)


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


#: The time-of-use ablation's tariff: three cheap slots, then three
#: 25x-dearer ones.
TOU_TARIFF = (0.2, 0.2, 0.2, 5.0, 5.0, 5.0)

#: The S1 weight variants of the ``abl_weights`` ablation.
ENERGY_AWARE = "energy-aware (default)"
ENERGY_BLIND = "energy-blind (paper S1)"


class FigureRun(NamedTuple):
    """One printed table: its result, wall time and failed claims."""

    name: str
    result: Any
    seconds: float
    failures: List[str]


class AblationTable(NamedTuple):
    """One ablation: a row per variant, its label in the first cell."""

    title: str
    headers: Tuple[str, ...]
    rows: Tuple[Tuple[Cell, ...], ...]

    @property
    def table(self) -> str:
        return format_table(self.headers, self.rows, title=self.title)

    def cell(self, label: str, header: str) -> Any:
        """The cell of variant ``label`` under ``header``."""
        row = next(row for row in self.rows if row[0] == label)
        return row[self.headers.index(header)]


class VariantRun(NamedTuple):
    """One ablation variant's run and the links S1 power control dropped."""

    result: SimulationResult
    dropped: int


def _total_backlog(run: VariantRun) -> np.ndarray:
    return run.result.backlog_series("bs_data_packets") + run.result.backlog_series(
        "user_data_packets"
    )


#: Every ablation column: its header and its cell for one variant.
COLUMNS: Mapping[str, Callable[[VariantRun], Cell]] = {
    "avg cost": lambda run: run.result.average_cost,
    "steady cost": lambda run: run.result.steady_state_cost,
    "delivered": lambda run: run.result.metrics.totals()["delivered_pkts"],
    "avg draw (J)": lambda run: run.result.metrics.average_grid_draw_j(),
    "spill (J)": lambda run: run.result.metrics.totals()["spill_j"],
    "mean BS backlog": lambda run: float(
        run.result.backlog_series("bs_data_packets").mean()
    ),
    "final BS backlog": lambda run: float(
        run.result.backlog_series("bs_data_packets")[-1]
    ),
    "mean backlog": lambda run: float(_total_backlog(run).mean()),
    "max backlog": lambda run: float(_total_backlog(run).max()),
    "mean virtual backlog": lambda run: float(
        run.result.backlog_series("virtual_packets").mean()
    ),
    "links/slot": lambda run: float(
        run.result.metrics.series("scheduled_links").mean()
    ),
    "dropped": lambda run: run.dropped,
}


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


def check_abl_scheduler(result: AblationTable) -> List[str]:
    """SF-SINR drops no more than SF, and SF tracks exact matching."""
    cell = result.cell
    sf, sinr, exact = (
        kind.value
        for kind in (
            SchedulerKind.SEQUENTIAL_FIX,
            SchedulerKind.SEQUENTIAL_FIX_SINR,
            SchedulerKind.MAX_WEIGHT_MATCHING,
        )
    )
    claims = [
        (cell(sinr, "dropped") <= cell(sf, "dropped"), "SF-SINR drops <= SF drops"),
        (
            cell(sf, "delivered") == cell(exact, "delivered"),
            "SF delivers what exact matching delivers",
        ),
        (
            cell(sf, "avg cost") <= cell(exact, "avg cost") * 2.0 + 1.0,
            "SF avg cost <= 2 * matching's + 1",
        ),
    ]
    return _failures("abl_scheduler", claims)


def check_abl_queue(result: AblationTable) -> List[str]:
    """Null packets inflate backlogs but leave the cost shape intact."""
    cell = result.cell
    paper, accurate = QueueSemantics.PAPER.value, QueueSemantics.PACKET_ACCURATE.value
    claims = [
        (
            cell(paper, "mean backlog") >= cell(accurate, "mean backlog") * 0.9,
            "the paper semantics' mean backlog >= 0.9 * packet-accurate's",
        ),
        (
            cell(accurate, "avg cost") <= cell(paper, "avg cost") * 1.5 + 1.0,
            "packet-accurate avg cost <= 1.5 * paper's + 1",
        ),
        (
            cell(paper, "avg cost") <= cell(accurate, "avg cost") * 1.5 + 1.0,
            "paper avg cost <= 1.5 * packet-accurate's + 1",
        ),
    ]
    return _failures("abl_queue", claims)


def _decomposition_vs_grid_only(result: AblationTable) -> Tuple[float, float]:
    """The steady costs of the price decomposition and of grid-only."""
    return (
        result.cell(EnergySolverKind.PRICE_DECOMPOSITION.value, "steady cost"),
        result.cell(EnergySolverKind.GRID_ONLY.value, "steady cost"),
    )


def check_abl_energy(result: AblationTable) -> List[str]:
    """Storage-aware S4 is at least about as cheap as grid-only once settled."""
    ours, grid = _decomposition_vs_grid_only(result)
    claim = "decomposition steady cost <= 1.1 * grid-only's + 1"
    return _failures("abl_energy", [(ours <= grid * 1.1 + 1.0, claim)])


def check_abl_router(result: AblationTable) -> List[str]:
    """The paper-literal Eq. (25) cap schedules no more links per slot."""
    literal = result.cell(RouterMode.SCHEDULED_CAPACITY.value, "links/slot")
    bootstrap = result.cell(RouterMode.POTENTIAL_CAPACITY.value, "links/slot")
    claim = "scheduled-capacity links/slot <= potential-capacity's"
    return _failures("abl_router", [(literal <= bootstrap + 1e-9, claim)])


def check_abl_weights(result: AblationTable) -> List[str]:
    """Both S1 weightings deliver the same forced demand."""
    aware = result.cell(ENERGY_AWARE, "delivered")
    blind = result.cell(ENERGY_BLIND, "delivered")
    claim = "energy-aware delivered == energy-blind delivered"
    return _failures("abl_weights", [(aware == blind, claim)])


def check_abl_tou(result: AblationTable) -> List[str]:
    """Battery arbitrage beats grid-only once settled."""
    ours, grid = _decomposition_vs_grid_only(result)
    claim = "decomposition steady cost < grid-only's"
    return _failures("abl_tou", [(ours < grid, claim)])


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


#: One ablation variant: its row label, scenario and simulator options.
Variant = Tuple[str, ScenarioParameters, Mapping[str, Any]]

#: ``SlotSimulator.integral``'s option defaults: a variant that passes
#: one of them is the same run as a variant that leaves it out.
OPTION_DEFAULTS = {
    name: parameter.default
    for name, parameter in inspect.signature(SlotSimulator.integral).parameters.items()
    if parameter.default is not inspect.Parameter.empty
}


def _run_variant(params: ScenarioParameters, options: Mapping[str, Any]) -> VariantRun:
    """Step one integral run over its horizon, counting S1's drops."""
    simulator = SlotSimulator.integral(params, **options)
    dropped = sum(
        len(simulator.step(slot).schedule.dropped) for slot in range(params.num_slots)
    )
    result = SimulationResult(
        control_v=params.control_v,
        num_slots=params.num_slots,
        metrics=simulator.metrics,
        constants=simulator.constants,
    )
    return VariantRun(result, dropped)


def run_ablation(
    name: str,
    title: str,
    variants: Sequence[Variant],
    columns: Sequence[str],
    check: Callable[[AblationTable], List[str]],
    done: Dict[Hashable, VariantRun],
) -> FigureRun:
    """Run each variant not in ``done`` and check the table of its ``columns``.

    The first header names what the variants vary; the rest index
    :data:`COLUMNS`.  ``done`` maps each (scenario, options) run of
    earlier tables to its result, and gains this table's new runs.
    """
    start = time.time()
    rows = []
    for label, params, options in variants:
        key = (params, frozenset({**OPTION_DEFAULTS, **options}.items()))
        if key not in done:
            done[key] = _run_variant(params, options)
        rows.append((label, *(COLUMNS[header](done[key]) for header in columns[1:])))
    table = AblationTable(title, tuple(columns), tuple(rows))
    return FigureRun(name, table, time.time() - start, check(table))


def run_ablations(base: ScenarioParameters) -> Iterator[FigureRun]:
    """Each design choice against its alternative, derived from ``base``."""
    solvers = (EnergySolverKind.PRICE_DECOMPOSITION, EnergySolverKind.GRID_ONLY)
    ablation = functools.partial(run_ablation, done={})
    yield ablation(
        "abl_scheduler",
        "Ablation: SF vs SINR-aware SF vs exact matching vs greedy",
        [(kind.value, base, {"scheduler_kind": kind}) for kind in SchedulerKind],
        ("S1 scheduler", "avg cost", "delivered", "mean BS backlog", "dropped"),
        check_abl_scheduler,
    )
    yield ablation(
        "abl_queue",
        "Ablation: Eq.-15 null-packet semantics vs packet-accurate",
        [
            (semantics.value, dataclasses.replace(base, queue_semantics=semantics), {})
            for semantics in QueueSemantics
        ],
        ("semantics", "avg cost", "mean backlog", "max backlog", "delivered"),
        check_abl_queue,
    )
    yield ablation(
        "abl_energy",
        "Ablation: price-decomposition vs grid-only energy management",
        [(solver.value, base, {"energy_solver": solver}) for solver in solvers],
        ("S4 solver", "avg cost", "steady cost", "avg draw (J)", "spill (J)"),
        check_abl_energy,
    )
    yield ablation(
        "abl_router",
        "Ablation: potential-capacity vs paper-literal Eq. (25) routing",
        [(mode.value, base, {"router_mode": mode}) for mode in RouterMode],
        (
            "router mode",
            "avg cost",
            "final BS backlog",
            "mean virtual backlog",
            "links/slot",
        ),
        check_abl_router,
    )
    blind = dataclasses.replace(base, energy_aware_scheduling=False)
    yield ablation(
        "abl_weights",
        "Ablation: energy-aware vs energy-blind scheduling weights",
        [(ENERGY_AWARE, base, {}), (ENERGY_BLIND, blind, {})],
        ("S1 weights", "avg cost", "steady cost", "delivered"),
        check_abl_weights,
    )
    # A longer horizon and a moderate V, so the battery-fill transient
    # (its threshold V * gamma_max scales with the dearest tariff) ends
    # inside the first half and the steady-state window is settled.
    tou = dataclasses.replace(
        base,
        tou_multipliers=TOU_TARIFF,
        control_v=1e5,
        num_slots=max(90, base.num_slots),
    )
    yield ablation(
        "abl_tou",
        "Ablation: battery arbitrage under a 3-cheap/3-dear tariff",
        [(solver.value, tou, {"energy_solver": solver}) for solver in solvers],
        ("S4 solver", "avg cost", "steady cost", "avg draw (J)"),
        check_abl_tou,
    )


def run_plan(
    base: ScenarioParameters,
    edge: ScenarioParameters,
    grids: VGrids,
    workers: int = 1,
) -> Iterator[FigureRun]:
    """Run every experiment and check it, yielding tables in print order.

    ``edge`` is the cell-edge scenario; every other experiment, the
    ablations included, derives from ``base``.  ``workers`` is the sweep-executor fan-out.
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
    yield from run_ablations(base)


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
    args = parser.parse_args(argv)

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
    for failure in failures:
        print(f"claim failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
