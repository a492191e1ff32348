"""Executable documentation: the tutorial's code paths and the
examples' importability are tested so the docs cannot rot."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from repro import (
    SlotSimulator,
    lower_bound_cost,
    paper_scenario,
    validate_parameters,
)
from repro.reporting import build_report
from repro.core import compute_drift_terms, fill_time_slots, predict, verify_bs_plateau
from repro.experiments import export_figure, run_fig2d
from repro.types import MobilityKind, Point, RenewableKind, TrafficPattern

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture(scope="module")
def tutorial_params():
    """The tutorial's custom scenario, scaled down for test speed."""
    return dataclasses.replace(
        paper_scenario(control_v=2e4, num_slots=15, seed=7),
        num_users=6,
        area_side_m=1500.0,
        base_station_positions=(Point(400.0, 750.0), Point(1100.0, 750.0)),
    )


class TestTutorialSteps:
    def test_step1_validate(self, tutorial_params):
        validate_parameters(tutorial_params)

    def test_step2_run_and_summary(self, tutorial_params):
        simulator = SlotSimulator.integral(tutorial_params)
        result = simulator.run()
        summary = result.summary()
        assert summary["average_cost"] >= 0
        assert result.backlog_series("bs_data_packets").shape == (15,)
        assert set(result.stability_reports())

    def test_step3_manual_stepping_and_drift(self, tutorial_params):
        simulator = SlotSimulator.integral(tutorial_params)
        observation = simulator.state.observe(0)
        decision = simulator.controller.decide(observation, simulator.state)
        terms = compute_drift_terms(
            simulator.model,
            simulator.constants,
            decision,
            simulator.state.arrays.q,
            simulator.state.h_backlogs(),
            simulator.state.z_values(),
        )
        assert terms.psi1 <= 0
        simulator.state.apply(decision, slot=0)

    def test_step4_theory(self, tutorial_params):
        simulator = SlotSimulator.integral(tutorial_params)
        result = simulator.run()
        predictions = predict(simulator.model, simulator.constants)
        assert predictions.admission_threshold_pkts > 0
        check = verify_bs_plateau(simulator.model, simulator.constants, result)
        assert check.predicted_j > 0
        assert fill_time_slots(simulator.model, simulator.constants) > 0

    def test_step5_bounds(self, tutorial_params):
        integral = SlotSimulator.integral(tutorial_params)
        result = integral.run()
        relaxed = SlotSimulator.relaxed(tutorial_params).run()
        formal = lower_bound_cost(
            relaxed.average_penalty,
            integral.constants.drift_b,
            tutorial_params.control_v,
        )
        assert formal <= relaxed.average_penalty

    def test_step6_figure_and_export(self, tutorial_params, tmp_path):
        figure = run_fig2d(base=tutorial_params, v_values=(1e4,))
        assert "Fig. 2(d)" in figure.table
        path = export_figure(figure, tmp_path / "fig2d.csv")
        assert path.exists()

    def test_step7_extensions_compose(self, tutorial_params):
        params = dataclasses.replace(
            tutorial_params,
            tou_multipliers=(0.2, 0.2, 0.2, 5.0, 5.0, 5.0),
            mobility=MobilityKind.RANDOM_WAYPOINT,
            user_renewable_kind=RenewableKind.SOLAR,
            sessions=dataclasses.replace(
                tutorial_params.sessions,
                traffic_pattern=TrafficPattern.ON_OFF,
            ),
        )
        result = SlotSimulator.integral(params).run()
        assert result.num_slots == 15

    def test_report_builds(self, tutorial_params):
        simulator = SlotSimulator.integral(tutorial_params)
        result = simulator.run()
        assert "Headlines" in build_report(simulator, result)


class TestExamplesImportable:
    """Every example must at least import cleanly (syntax, API drift)."""

    @pytest.mark.parametrize(
        "name",
        sorted(p.stem for p in EXAMPLES_DIR.glob("*.py")),
    )
    def test_example_imports(self, name):
        spec = importlib.util.spec_from_file_location(
            f"example_{name}", EXAMPLES_DIR / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        try:
            spec.loader.exec_module(module)
            assert hasattr(module, "main"), f"{name} has no main()"
        finally:
            sys.modules.pop(spec.name, None)
