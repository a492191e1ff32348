"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``run`` — simulate one scenario and print the summary (optionally
  writing a per-slot CSV/JSON trace);
* ``bounds`` — compute the Theorem-4/5 bound pair for one V;
* ``report`` — the operator report of one run;
* ``figure`` — regenerate one of the paper's figures (2a-2f); ``2f``
  also prints whether the proposed system is cheapest at every V;
* ``sweep`` — a V sweep replicated over seeds, with confidence
  intervals.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.reporting import build_report, format_table, mean_confidence_interval
from repro.config import (
    ScenarioParameters,
    cell_edge_scenario,
    paper_scenario,
    small_scenario,
    tiny_scenario,
)
from repro.experiments import (
    SweepSpec,
    compute_bounds,
    run_fig2a,
    run_fig2b,
    run_fig2c,
    run_fig2d,
    run_fig2e,
    run_fig2f,
    run_sweep,
)
from repro.sim import SlotSimulator

_SCENARIOS = {
    "paper": paper_scenario,
    "small": small_scenario,
    "tiny": tiny_scenario,
    "cell-edge": cell_edge_scenario,
}

_FIGURES = {
    "2a": run_fig2a,
    "2b": run_fig2b,
    "2c": run_fig2c,
    "2d": run_fig2d,
    "2e": run_fig2e,
    "2f": run_fig2f,
}


def _build_scenario(args: argparse.Namespace) -> ScenarioParameters:
    factory = _SCENARIOS[args.scenario]
    kwargs = {"control_v": args.v, "seed": args.seed}
    if args.slots is not None:
        kwargs["num_slots"] = args.slots
    return factory(**kwargs)


def _cmd_run(args: argparse.Namespace) -> int:
    params = _build_scenario(args)
    result = SlotSimulator.integral(params).run()

    rows = sorted(result.summary().items())
    print(format_table(["metric", "value"], rows, title="Run summary"))
    print()
    stability_rows = [
        (name, report.verdict.value, report.final_running_mean)
        for name, report in result.stability_reports().items()
    ]
    print(
        format_table(
            ["queue aggregate", "verdict", "running mean"],
            stability_rows,
            title="Strong-stability check",
        )
    )
    if args.trace_csv:
        print(f"\ntrace written to {result.metrics.to_csv(args.trace_csv)}")
    if args.trace_json:
        print(f"\ntrace written to {result.metrics.to_json(args.trace_json)}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    params = _build_scenario(args)
    simulator = SlotSimulator.integral(params)
    result = simulator.run()
    print(build_report(simulator, result))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    params = _build_scenario(args)
    report = compute_bounds(params)
    rows = [
        ("V", report.control_v),
        ("upper (our algorithm, Thm 4)", report.upper),
        ("empirical lower (relaxed LP)", report.relaxed_penalty),
        ("formal lower (Thm 5)", report.lower),
        ("drift constant B", report.drift_b),
    ]
    print(format_table(["bound", "value"], rows, title="Bounds on psi*_P1"))
    return 0


def _parse_v_list(raw: str) -> List[float]:
    try:
        values = [float(token) for token in raw.split(",") if token]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad V list {raw!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty V list")
    return values


def _cmd_figure(args: argparse.Namespace) -> int:
    params = _build_scenario(args)
    runner = _FIGURES[args.figure]
    kwargs = {"base": params}
    if args.v_values is not None:
        kwargs["v_values"] = args.v_values
    result = runner(**kwargs)
    print(result.table)
    if args.figure == "2f":
        ok = all(result.ordering_holds(v) for _, v in result.results)
        print()
        print(
            "proposed system cheapest at every V: "
            + ("yes" if ok else "NO — see table")
        )
    if args.export is not None:
        from repro.experiments import export_figure

        path = export_figure(result, args.export)
        print(f"\ndata written to {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    params = _build_scenario(args)
    v_values = args.v_values or [1e5, 3e5, 5e5]
    # Replications run on spawn-key children of the scenario's seed.
    sweep = run_sweep(SweepSpec.integral(params, v_values, replications=args.seeds))
    rows = []
    for v in v_values:
        runs = sweep.replicated("integral", v)
        cost = mean_confidence_interval([run.average_cost for run in runs])
        backlog = mean_confidence_interval(
            [float(run.backlog_series("bs_data_packets").mean()) for run in runs]
        )
        rows.append((v, *cost, *backlog))
    print(
        format_table(
            ["V", "avg cost", "+/-", "mean BS backlog", "+/-"],
            rows,
            title=f"V sweep over {args.seeds} seeds (95% CIs)",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Optimal Energy Cost for Strongly Stable "
            "Multi-hop Green Cellular Networks' (ICDCS 2014)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--scenario",
            choices=sorted(_SCENARIOS),
            default="paper",
            help="scenario factory (default: paper)",
        )
        p.add_argument("--v", type=float, default=1e5, help="Lyapunov weight V")
        p.add_argument("--slots", type=int, default=None, help="horizon override")
        p.add_argument("--seed", type=int, default=2014, help="RNG seed")

    run_p = sub.add_parser("run", help="simulate one scenario")
    common(run_p)
    run_p.add_argument("--trace-csv", default=None, help="write per-slot CSV trace")
    run_p.add_argument("--trace-json", default=None, help="write per-slot JSON trace")
    run_p.set_defaults(handler=_cmd_run)

    bounds_p = sub.add_parser("bounds", help="Theorem-4/5 bound pair")
    common(bounds_p)
    bounds_p.set_defaults(handler=_cmd_bounds)

    report_p = sub.add_parser("report", help="full operator report of one run")
    common(report_p)
    report_p.set_defaults(handler=_cmd_report)

    figure_p = sub.add_parser("figure", help="regenerate a paper figure")
    figure_p.add_argument("figure", choices=sorted(_FIGURES))
    common(figure_p)
    figure_p.add_argument(
        "--v-values",
        type=_parse_v_list,
        default=None,
        help="comma-separated V sweep (default: the paper's)",
    )
    figure_p.add_argument(
        "--export", default=None, help="write the figure data as CSV"
    )
    figure_p.set_defaults(handler=_cmd_figure)

    sweep_p = sub.add_parser(
        "sweep", help="V sweep with multi-seed confidence intervals"
    )
    common(sweep_p)
    sweep_p.add_argument(
        "--v-values", type=_parse_v_list, default=None,
        help="comma-separated V values (default: 1e5,3e5,5e5)",
    )
    sweep_p.add_argument(
        "--seeds", type=int, default=3, help="replications per V (default 3)"
    )
    sweep_p.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - module execution guard
    sys.exit(main())
