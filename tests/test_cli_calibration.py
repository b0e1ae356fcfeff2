"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestCliParser:
    def test_figure_arguments(self):
        args = build_parser().parse_args(
            ["figure", "--name", "fig2", "--dataset", "cifar10", "--scale", "test"]
        )
        assert args.command == "figure"
        assert args.name == "fig2"
        assert args.scale == "test"

    def test_table_arguments(self):
        args = build_parser().parse_args(
            ["table", "--name", "table2", "--datasets", "mnist", "cifar10"]
        )
        assert args.datasets == ["mnist", "cifar10"]

    def test_evaluate_arguments(self):
        args = build_parser().parse_args(
            ["evaluate", "--coding", "ttas", "--duration", "7",
             "--deletion", "0.5", "--weight-scaling"]
        )
        assert args.coding == "ttas"
        assert args.duration == 7
        assert args.deletion == 0.5
        assert args.weight_scaling is True

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "--name", "fig99"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_evaluate_end_to_end(self, capsys):
        exit_code = main([
            "evaluate", "--dataset", "mnist", "--coding", "ttfs",
            "--scale", "test", "--eval-size", "8", "--deletion", "0.2",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "SNN accuracy" in captured.out
        assert "spikes per sample" in captured.out
