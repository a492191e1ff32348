"""Tests for energy-flow metrics and the operator report."""

import numpy as np
import pytest

from repro.reporting import build_report
from repro.cli import main
from repro.config import tiny_scenario
from repro.sim import SlotSimulator


@pytest.fixture(scope="module")
def run():
    simulator = SlotSimulator.integral(tiny_scenario(num_slots=20))
    result = simulator.run()
    return simulator, result


class TestEnergyFlowMetrics:
    def test_flow_series_lengths(self, run):
        _, result = run
        for node_class in ("bs", "user"):
            series = result.metrics.flow_series(node_class, "grid_serve_j")
            assert len(series) == 20

    def test_unknown_class_rejected(self, run):
        _, result = run
        with pytest.raises(KeyError):
            result.metrics.flow_series("martian", "grid_serve_j")

    def test_bs_grid_flows_sum_to_draw(self, run):
        _, result = run
        draw = result.metrics.series("grid_draw_j")
        serve = result.metrics.flow_series("bs", "grid_serve_j")
        charge = result.metrics.flow_series("bs", "grid_charge_j")
        assert np.allclose(draw, serve + charge)

    def test_disconnected_users_draw_nothing(self, run):
        # tiny_scenario users have grid_connect_prob = 0.
        _, result = run
        assert result.metrics.flow_series("user", "grid_serve_j").sum() == 0.0
        assert result.metrics.flow_series("user", "grid_charge_j").sum() == 0.0

    def test_flows_non_negative(self, run):
        _, result = run
        for node_class in ("bs", "user"):
            for field_name in (
                "renewable_used_j",
                "grid_serve_j",
                "grid_charge_j",
                "discharge_j",
                "spill_j",
            ):
                assert np.all(
                    result.metrics.flow_series(node_class, field_name) >= 0
                )

    def test_energy_conservation_per_class(self, run):
        """Renewable used + spill never exceeds what was harvestable."""
        simulator, result = run
        params = simulator.params
        cap_per_slot = sum(
            params.energy_params(n).renewable_max_w * params.slot_seconds
            for n in range(params.num_nodes)
        )
        used = (
            result.metrics.flow_series("bs", "renewable_used_j")
            + result.metrics.flow_series("user", "renewable_used_j")
            + result.metrics.flow_series("bs", "spill_j")
            + result.metrics.flow_series("user", "spill_j")
        )
        assert np.all(used <= cap_per_slot + 1e-6)


class TestReport:
    def test_report_sections_present(self, run):
        simulator, result = run
        report = build_report(simulator, result)
        for section in (
            "Run report",
            "Headlines",
            "Strong stability",
            "Energy flows",
            "Theory checks",
            "Incidents",
        ):
            assert section in report

    def test_report_plateau_close(self, run):
        simulator, result = run
        report = build_report(simulator, result)
        assert "plateau relative error" in report

    def test_cli_report_command(self, capsys):
        code = main(["report", "--scenario", "tiny", "--slots", "8", "--v", "1e4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Run report" in out
        assert "Energy flows" in out
