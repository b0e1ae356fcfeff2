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


    def test_evaluate_ttas_takes_its_duration(self, capsys, monkeypatch):
        import repro.cli as cli_module

        built = []
        original = cli_module.NoiseRobustSNN

        def recording(*args, **kwargs):
            built.append(kwargs["coder_kwargs"])
            return original(*args, **kwargs)

        monkeypatch.setattr(cli_module, "NoiseRobustSNN", recording)
        exit_code = main([
            "evaluate", "--dataset", "mnist", "--coding", "ttas", "--duration", "2",
            "--scale", "test", "--eval-size", "8",
        ])
        assert exit_code == 0
        assert built == [{"target_duration": 2}]
        assert "coding             : ttas (t_a=2)" in capsys.readouterr().out


class TestCliRefusals:
    @pytest.mark.parametrize("size", ["0", "-3"])
    @pytest.mark.parametrize("entry", [
        ["evaluate", "--dataset", "mnist"],
        ["figure", "--name", "fig2", "--dataset", "mnist"],
        ["table", "--name", "table1", "--datasets", "mnist"],
    ])
    def test_non_positive_eval_size_is_a_usage_error(self, entry, size, capsys,
                                                     monkeypatch):
        import repro.cli as cli_module
        import repro.experiments.runner as runner_module

        def no_workload(*_, **__):
            raise AssertionError("a refused run must not prepare a workload")

        monkeypatch.setattr(cli_module, "prepare_workload", no_workload)
        monkeypatch.setattr(runner_module, "prepare_workload", no_workload)
        with pytest.raises(SystemExit) as raised:
            main([*entry, "--scale", "test", "--eval-size", size])
        assert raised.value.code == 2
        assert f"--eval-size must be >= 1, got {size}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--dataset", "foo"], "unknown dataset 'foo'"),
        (["--dataset", "mnist", "--coding", "burst", "--simulator", "timestep"],
         "cannot faithfully model burst"),
    ])
    def test_evaluate_config_errors_print_one_line(self, flags, message, capsys):
        exit_code = main(["evaluate", "--scale", "test", "--eval-size", "8", *flags])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert "Traceback" not in captured.err
