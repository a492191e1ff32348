"""Tests for the extension experiments (cell edge, V convergence)."""

import pytest

from repro.config import cell_edge_scenario, small_scenario
from repro.experiments import run_cell_edge, run_fig2a, v_convergence


class TestCellEdgeExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        base = cell_edge_scenario(num_slots=60, num_users=10, seed=3)
        return run_cell_edge(base=base, v_values=(1e5,))

    def test_all_architectures_ran(self, result):
        assert len(result.comparison.results) == 4

    def test_table_contains_saving_section(self, result):
        assert "multi-hop saving" in result.table
        assert "Fig. 2(f)" in result.table

    def test_saving_is_finite(self, result):
        saving = result.multi_hop_saving(1e5)
        assert -1.0 <= saving <= 1.0

    def test_zero_one_hop_cost_guarded(self, result):
        # The saving helper must not divide by zero.
        assert result.multi_hop_saving(1e5) == result.multi_hop_saving(1e5)


class TestVConvergenceExperiment:
    V_VALUES = (5e4, 2e5, 8e5)

    @pytest.fixture(scope="class")
    def fig2a(self):
        base = small_scenario(num_slots=25, num_users=6, seed=9)
        return run_fig2a(base=base, v_values=self.V_VALUES)

    @pytest.fixture(scope="class")
    def result(self, fig2a):
        return v_convergence(fig2a, self.V_VALUES)

    def test_reads_fig2a_reports(self, fig2a, result):
        assert result.uppers == tuple(r.upper for r in fig2a.reports)

    def test_v_missing_from_fig2a_grid_raises(self, fig2a):
        with pytest.raises(ValueError, match="no run at V=100000"):
            v_convergence(fig2a, (5e4, 1e5))

    def test_sweep_ordered(self, result):
        assert list(result.v_values) == sorted(result.v_values)

    def test_gaps_are_relative(self, result):
        assert all(-0.5 <= g <= 0.5 for g in result.relative_gaps)

    def test_heuristic_close_to_optimum(self, result):
        assert result.worst_relative_gap < 0.15

    def test_fit_evaluates(self, result):
        for v in result.v_values:
            assert result.fitted(v) == pytest.approx(
                result.floor + result.slope / v
            )

    def test_table_renders(self, result):
        assert "rel gap %" in result.table
        assert len(result.table.splitlines()) == 3 + len(result.v_values)


class TestExportFigure:
    def test_fig2a_export(self, tmp_path):
        from repro.experiments import export_figure, run_fig2a

        result = run_fig2a(
            base=small_scenario(num_slots=8, num_users=5, seed=2),
            v_values=(1e4,),
        )
        path = export_figure(result, tmp_path / "fig2a.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "V,upper,empirical_lower,formal_lower"
        assert len(lines) == 2

    def test_backlog_export(self, tmp_path):
        from repro.experiments import export_figure, run_fig2b

        result = run_fig2b(
            base=small_scenario(num_slots=6, num_users=5, seed=2),
            v_values=(1e4, 1e5),
        )
        path = export_figure(result, tmp_path / "fig2b.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("slot,")
        assert len(lines) == 1 + 6  # header + one row per slot

    def test_fig2f_export(self, tmp_path):
        from repro.experiments import export_figure, run_fig2f

        result = run_fig2f(
            base=small_scenario(num_slots=6, num_users=5, seed=2),
            v_values=(1e4,),
        )
        path = export_figure(result, tmp_path / "fig2f.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 4  # header + one row per architecture

    def test_unknown_type_rejected(self, tmp_path):
        from repro.experiments import export_figure

        with pytest.raises(TypeError):
            export_figure(object(), tmp_path / "x.csv")

    def test_cell_edge_export(self, tmp_path):
        from repro.config import cell_edge_scenario
        from repro.experiments import export_figure, run_cell_edge

        result = run_cell_edge(
            base=cell_edge_scenario(num_slots=6, num_users=6, seed=2),
            v_values=(1e4,),
        )
        path = export_figure(result, tmp_path / "edge.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 4

    def test_v_convergence_export(self, tmp_path):
        from repro.experiments import export_figure, run_fig2a, v_convergence

        fig2a = run_fig2a(
            base=small_scenario(num_slots=8, num_users=5, seed=2),
            v_values=(1e4, 1e5),
        )
        result = v_convergence(fig2a, (1e4, 1e5))
        path = export_figure(result, tmp_path / "vconv.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "V,upper,relative_gap"
        assert len(lines) == 3
