"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
        capsys.readouterr()

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scenario == "paper"
        assert args.v == 1e5
        assert args.slots is None

    def test_v_list_parsing(self):
        args = build_parser().parse_args(
            ["figure", "2a", "--v-values", "1e4,2e4"]
        )
        assert args.v_values == [1e4, 2e4]

    def test_bad_v_list_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "2a", "--v-values", "abc"])
        capsys.readouterr()

    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "9z"])
        capsys.readouterr()


class TestCommands:
    def test_run_prints_summary(self, capsys):
        code = main(["run", "--scenario", "tiny", "--slots", "5", "--v", "1e4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Run summary" in out
        assert "average_cost" in out
        assert "Strong-stability check" in out

    def test_run_writes_traces(self, tmp_path, capsys):
        csv_path = tmp_path / "t.csv"
        json_path = tmp_path / "t.json"
        code = main(
            [
                "run",
                "--scenario",
                "tiny",
                "--slots",
                "4",
                "--trace-csv",
                str(csv_path),
                "--trace-json",
                str(json_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert csv_path.exists()
        assert len(json.loads(json_path.read_text())) == 4

    def test_bounds_command(self, capsys):
        code = main(["bounds", "--scenario", "tiny", "--slots", "5", "--v", "1e4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "upper" in out and "formal lower" in out

    def test_figure_command(self, capsys):
        code = main(
            [
                "figure",
                "2d",
                "--scenario",
                "tiny",
                "--slots",
                "6",
                "--v-values",
                "1e4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Fig. 2(d)" in out

    def test_figure_2f_command(self, capsys):
        code = main(
            [
                "figure",
                "2f",
                "--scenario",
                "tiny",
                "--slots",
                "6",
                "--v-values",
                "1e4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "architecture" in out
        assert "proposed system cheapest at every V" in out

    def test_cell_edge_scenario_available(self, capsys):
        code = main(
            ["run", "--scenario", "cell-edge", "--slots", "3", "--v", "1e4"]
        )
        capsys.readouterr()
        assert code == 0


class TestSweepAndExport:
    def test_sweep_command(self, capsys):
        code = main(
            [
                "sweep",
                "--scenario",
                "tiny",
                "--slots",
                "6",
                "--v-values",
                "1e4",
                "--seeds",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "V sweep over 2 seeds" in out

    def test_figure_export_flag(self, tmp_path, capsys):
        target = tmp_path / "fig.csv"
        code = main(
            [
                "figure",
                "2e",
                "--scenario",
                "tiny",
                "--slots",
                "5",
                "--v-values",
                "1e4",
                "--export",
                str(target),
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert target.exists()
