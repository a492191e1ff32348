"""The experiment generator, ``scripts/generate_experiments.py``.

The generator is the one experiment pipeline: every run prints the
EXPERIMENTS.md tables and checks every Fig. 2 and ablation claim.
These tests run its plan at reduced scale (10 users, 40 slots), show
that each table's check rejects a doctored result and names the table,
and, under the ``slow`` marker, run the paper-scale plan its CLI runs.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.config import cell_edge_scenario, small_scenario
from repro.core.theory import PlateauCheck
from repro.experiments import export_figure
from repro.experiments.fig2bc import BacklogFigure
from repro.types import Architecture

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "generate_experiments.py"


def _load_generator():
    spec = importlib.util.spec_from_file_location("generate_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


generate = _load_generator()

SMALL_BASE = small_scenario(num_slots=40, num_users=10, seed=2014)
SMALL_EDGE = cell_edge_scenario(num_slots=100, num_users=10, seed=2014)
SMALL_GRIDS = generate.VGrids(
    bounds=(1e5, 3e5, 1e6),
    backlog=(1e5, 3e5, 5e5),
    architectures=(1e5, 3e5, 5e5),
    cell_edge=(1e5,),
    convergence=(1e5, 3e5, 1e6),
)
FIGURES = (
    "fig2a",
    "fig2b",
    "fig2c",
    "fig2d",
    "fig2e",
    "fig2f",
    "cell_edge",
    "v_convergence",
)
ABLATIONS = (
    "abl_scheduler",
    "abl_queue",
    "abl_energy",
    "abl_router",
    "abl_weights",
    "abl_tou",
)
TABLES = FIGURES + ABLATIONS


@pytest.fixture(scope="module")
def runs():
    plan = generate.run_plan(SMALL_BASE, SMALL_EDGE, SMALL_GRIDS)
    return {run.name: run for run in plan}


def test_small_scale_plan_passes_every_check(runs):
    assert tuple(runs) == TABLES
    assert [failure for run in runs.values() for failure in run.failures] == []


def test_backlog_figures_share_one_sweep(runs):
    # Figs. 2(b)-2(e) render the same integral runs: 3 V values, not 12.
    horizons = {
        len(series)
        for name in ("fig2b", "fig2c", "fig2d", "fig2e")
        for series in runs[name].result.series.values()
    }
    assert horizons == {SMALL_BASE.num_slots}
    assert runs["fig2c"].seconds == 0.0


def test_ablations_run_each_distinct_variant_once(monkeypatch):
    # The SF, paper, price-decomposition, potential-capacity and
    # energy-aware rows are all the default controller on ``base``: one
    # run serves the five of them, so 14 rows need 10 runs.
    built = []
    integral = generate.SlotSimulator.integral

    def counting(params, **options):
        built.append(options)
        return integral(params, **options)

    monkeypatch.setattr(generate.SlotSimulator, "integral", counting)
    tables = list(generate.run_ablations(dataclasses.replace(SMALL_BASE, num_slots=5)))
    assert sum(len(table.result.rows) for table in tables) == 14
    assert len(built) == 10


def test_ablation_table_exports_as_csv(runs, tmp_path):
    table = runs["abl_router"].result
    lines = export_figure(table, tmp_path / "abl_router.csv").read_text().splitlines()
    assert lines[0] == ",".join(table.headers)
    assert len(lines) == 1 + len(table.rows)


# -- doctored results --------------------------------------------------------


def _with_series(figure: BacklogFigure, edit) -> BacklogFigure:
    return dataclasses.replace(
        figure, series={v: edit(v, s) for v, s in figure.series.items()}
    )


def _swap(results, a, b):
    out = dict(results)
    for (arch, v), run in results.items():
        if arch is a:
            out[(a, v)], out[(b, v)] = results[(b, v)], run
    return out


def _doctor_fig2a(runs):
    first, *rest = runs["fig2a"].result.reports
    inflated = dataclasses.replace(first, relaxed_penalty=2 * first.upper + 10)
    return generate.check_fig2a(
        dataclasses.replace(runs["fig2a"].result, reports=(inflated, *rest))
    )


def _doctor_fig2b(runs):
    diverging = _with_series(
        runs["fig2b"].result, lambda v, s: s + 1e3 * np.arange(len(s)) ** 2
    )
    return generate.check_data_backlog("fig2b", diverging)


def test_negative_backlog_is_a_failed_claim_not_an_error(runs):
    negative = _with_series(runs["fig2c"].result, lambda v, s: -s - 1.0)
    failures = generate.check_data_backlog("fig2c", negative)
    assert "fig2c: the backlog is >= 0 at V=100000" in failures


def _doctor_fig2c(runs):
    top = max(runs["fig2c"].result.series)
    shrunk = _with_series(
        runs["fig2c"].result, lambda v, s: 0.5 * s if v == top else s
    )
    return generate.check_data_backlog("fig2c", shrunk)


def _doctor_fig2d(runs):
    one_percent_off = {1e5: PlateauCheck(predicted_j=1e6, measured_j=1.01e6)}
    return generate.check_fig2d(runs["fig2d"].result, SMALL_BASE, one_percent_off)


def _doctor_fig2e(runs):
    draining = _with_series(runs["fig2e"].result, lambda v, s: s[::-1].copy())
    return generate.check_fig2e(draining, SMALL_BASE)


def _doctor_fig2f(runs):
    fig2f = runs["fig2f"].result
    swapped = _swap(
        fig2f.results,
        Architecture.MULTI_HOP_RENEWABLE,
        Architecture.ONE_HOP_NO_RENEWABLE,
    )
    return generate.check_fig2f(
        dataclasses.replace(fig2f, results=swapped), SMALL_BASE.num_slots
    )


def _doctor_cell_edge(runs):
    edge = runs["cell_edge"].result
    swapped = _swap(
        edge.comparison.results,
        Architecture.MULTI_HOP_RENEWABLE,
        Architecture.ONE_HOP_RENEWABLE,
    )
    comparison = dataclasses.replace(edge.comparison, results=swapped)
    return generate.check_cell_edge(dataclasses.replace(edge, comparison=comparison))


def _doctor_v_convergence(runs):
    result = runs["v_convergence"].result
    gaps = (0.2,) + result.relative_gaps[1:]
    return generate.check_v_convergence(
        dataclasses.replace(result, relative_gaps=gaps)
    )


def _with_cell(run, label, header, edit):
    """The ablation table of ``run`` with one cell edited."""
    table = run.result
    column = table.headers.index(header)
    rows = tuple(
        row[:column] + (edit(row[column]),) + row[column + 1 :] if row[0] == label else row
        for row in table.rows
    )
    return table._replace(rows=rows)


def _doctor_abl_scheduler(runs):
    sf_dropped = runs["abl_scheduler"].result.cell("sequential_fix", "dropped")
    more = _with_cell(
        runs["abl_scheduler"], "sequential_fix_sinr", "dropped", lambda _: sf_dropped + 1
    )
    return generate.check_abl_scheduler(more)


def _doctor_abl_queue(runs):
    shrunk = _with_cell(runs["abl_queue"], "paper", "mean backlog", lambda _: 0.0)
    return generate.check_abl_queue(shrunk)


def _doctor_abl_energy(runs):
    dear = _with_cell(
        runs["abl_energy"], "price_decomposition", "steady cost", lambda _: 1e6
    )
    return generate.check_abl_energy(dear)


def _doctor_abl_router(runs):
    busier = _with_cell(
        runs["abl_router"], "scheduled_capacity", "links/slot", lambda n: n + 100.0
    )
    return generate.check_abl_router(busier)


def _doctor_abl_weights(runs):
    short = _with_cell(
        runs["abl_weights"], generate.ENERGY_BLIND, "delivered", lambda n: n - 1.0
    )
    return generate.check_abl_weights(short)


def _doctor_abl_tou(runs):
    grid = runs["abl_tou"].result.cell("grid_only", "steady cost")
    tied = _with_cell(runs["abl_tou"], "price_decomposition", "steady cost", lambda _: grid)
    return generate.check_abl_tou(tied)


DOCTORED = {
    "fig2a": (_doctor_fig2a, "relaxed <= 1.05 * upper + 1 at V=100000"),
    "fig2b": (_doctor_fig2b, "the backlog is not UNSTABLE at V=100000"),
    "fig2c": (_doctor_fig2c, "the mean backlog at the largest V is >= 0.8x"),
    "fig2d": (_doctor_fig2d, "the plateau is within 0.2% of V*gamma_max + d_max"),
    "fig2e": (_doctor_fig2e, "the buffer ends >= its start at V=100000"),
    "fig2f": (_doctor_fig2f, "the proposed system is cheapest at V=100000"),
    "cell_edge": (_doctor_cell_edge, "multi-hop saves energy over one-hop"),
    "v_convergence": (_doctor_v_convergence, "the worst relative gap is < 10%"),
    "abl_scheduler": (_doctor_abl_scheduler, "SF-SINR drops <= SF drops"),
    "abl_queue": (_doctor_abl_queue, "mean backlog >= 0.9 * packet-accurate's"),
    "abl_energy": (_doctor_abl_energy, "decomposition steady cost <= 1.1 * grid-only's + 1"),
    "abl_router": (_doctor_abl_router, "scheduled-capacity links/slot <= potential"),
    "abl_weights": (_doctor_abl_weights, "energy-aware delivered == energy-blind delivered"),
    "abl_tou": (_doctor_abl_tou, "decomposition steady cost < grid-only's"),
}


def test_every_figure_has_a_doctored_case():
    assert tuple(DOCTORED) == TABLES


@pytest.mark.parametrize("figure", TABLES)
def test_check_rejects_doctored_result(runs, figure):
    doctor, claim = DOCTORED[figure]
    failures = doctor(runs)
    assert failures, f"the {figure} check passed a doctored result"
    assert all(failure.startswith(f"{figure}: ") for failure in failures)
    assert any(claim in failure for failure in failures), failures


def test_main_exits_one_and_names_the_failed_claim(runs, monkeypatch, capsys):
    doctored = runs["v_convergence"]._replace(failures=_doctor_v_convergence(runs))
    monkeypatch.setattr(generate, "run_plan", lambda *args, **kwargs: [doctored])
    assert generate.main([]) == 1
    captured = capsys.readouterr()
    assert "===== v_convergence" in captured.out
    assert "claim failed: v_convergence: the worst relative gap" in captured.err


@pytest.mark.slow
def test_paper_scale_generator_passes_every_check(capsys):
    assert generate.main([]) == 0, capsys.readouterr().err
    out = capsys.readouterr().out
    for figure in TABLES:
        assert f"===== {figure} (" in out
