"""Extra integration coverage: figure entry points and the CLI figure command.

The figure functions are normally exercised by the benchmark harness; these
tests run them at the tiny TEST_SCALE so the full code path (workload
preparation -> sweep -> curves) is also covered by ``pytest tests/``.
"""

import pytest

from repro.experiments.config import TEST_SCALE
from repro.experiments.figures import (
    figure2_deletion,
    figure3_jitter,
    figure6_ttas_jitter,
    figure7_deletion_comparison,
)
from repro.experiments.workloads import prepare_workload


@pytest.fixture(scope="module")
def tiny_cifar_workload():
    """One tiny CIFAR workload shared by all figure-path tests."""
    return prepare_workload("cifar10", scale=TEST_SCALE, seed=3)


class TestFigureEntryPoints:
    def test_figure2_structure(self, tiny_cifar_workload):
        result = figure2_deletion(
            dataset="cifar10", levels=(0.0, 0.8), scale=TEST_SCALE,
            workload=tiny_cifar_workload, eval_size=12,
        )
        assert [c.label for c in result.curves] == ["Rate", "Phase", "Burst", "TTFS"]
        for curve in result.curves:
            assert len(curve.accuracies) == 2
            # deletion cannot create spikes
            assert curve.spike_counts[1] <= curve.spike_counts[0]

    def test_figure3_rate_is_flat(self, tiny_cifar_workload):
        result = figure3_jitter(
            dataset="cifar10", levels=(0.0, 3.0), scale=TEST_SCALE,
            workload=tiny_cifar_workload, eval_size=12,
        )
        rate = result.curve("Rate")
        assert abs(rate.accuracies[0] - rate.accuracies[1]) <= 0.1

    def test_figure6_labels_include_durations(self, tiny_cifar_workload):
        result = figure6_ttas_jitter(
            dataset="cifar10", levels=(0.0, 2.0), scale=TEST_SCALE,
            workload=tiny_cifar_workload, eval_size=8, ttas_durations=(1, 4),
        )
        assert [c.label for c in result.curves] == ["TTFS", "TTAS(1)", "TTAS(4)"]
        # TTAS(4) uses more spikes than TTAS(1) (burst cost).
        assert (result.curve("TTAS(4)").spikes_per_sample[0]
                > result.curve("TTAS(1)").spikes_per_sample[0])

    def test_figure7_has_ws_and_plain_curves(self, tiny_cifar_workload):
        result = figure7_deletion_comparison(
            dataset="cifar10", levels=(0.0, 0.5), scale=TEST_SCALE,
            workload=tiny_cifar_workload, eval_size=8, ttas_duration=3,
        )
        labels = [c.label for c in result.curves]
        assert "Rate" in labels and "Rate+WS" in labels
        assert "TTAS(3)+WS" in labels
        assert len(labels) == 9


class TestCliFigureCommand:
    def test_cli_runs_tiny_figure(self, capsys):
        from repro.cli import main

        exit_code = main([
            "figure", "--name", "fig2", "--dataset", "mnist",
            "--scale", "test", "--eval-size", "8",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Accuracy:" in captured.out
        assert "TTFS" in captured.out
