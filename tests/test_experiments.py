"""Tests for the experiment harness (configs, workloads, runner, figures, tables, reporting)."""

import numpy as np
import pytest

from repro.experiments import (
    BENCH_SCALE,
    PAPER_SCALE,
    MethodSpec,
    SweepConfig,
    dataset_config,
    figure5_activation_distribution,
    format_figure_series,
    format_table_rows,
    prepare_workload,
    render_markdown_table,
    run_sweep,
)
from repro.experiments.config import (
    TABLE1_DELETION_LEVELS,
    TABLE2_JITTER_LEVELS,
    TEST_SCALE,
    ExperimentScale,
)
from repro.experiments.runner import MethodCurve
from repro.experiments.tables import TableResult, TableRow, table2_jitter
from repro.utils.config import ConfigError


class TestConfig:
    def test_paper_scale_matches_section_v(self):
        assert PAPER_SCALE.rate_time_steps == 1000
        assert PAPER_SCALE.ttfs_time_steps == 108

    def test_time_steps_for_coding(self):
        assert BENCH_SCALE.time_steps_for("rate") == BENCH_SCALE.rate_time_steps
        assert BENCH_SCALE.time_steps_for("ttfs") == BENCH_SCALE.ttfs_time_steps
        assert BENCH_SCALE.time_steps_for("ttas") == BENCH_SCALE.ttfs_time_steps

    def test_table_levels_match_paper(self):
        assert TABLE1_DELETION_LEVELS == (0.0, 0.2, 0.5, 0.8)
        assert TABLE2_JITTER_LEVELS == (0.0, 1.0, 2.0, 3.0)

    def test_dataset_config_lookup(self):
        assert dataset_config("mnist").architecture == "mlp"
        assert dataset_config("cifar10").architecture == "vgg"
        with pytest.raises(ConfigError):
            dataset_config("svhn")

    def test_method_spec_labels(self):
        assert MethodSpec(coding="rate").display_label() == "Rate"
        assert MethodSpec(coding="rate", weight_scaling=True).display_label() == "Rate+WS"
        assert MethodSpec(coding="ttas", target_duration=5).display_label() == "TTAS(5)"
        assert MethodSpec(coding="ttfs").display_label() == "TTFS"
        assert MethodSpec(coding="rate", label="custom").display_label() == "custom"

    def test_method_spec_coder_kwargs(self):
        assert MethodSpec(coding="ttas", target_duration=3).coder_kwargs() == {
            "target_duration": 3
        }
        assert MethodSpec(coding="rate").coder_kwargs() == {}

    def test_sweep_config_validation(self):
        with pytest.raises(ConfigError):
            SweepConfig(dataset="cifar10", methods=(), noise_kind="deletion",
                        levels=(0.1,))
        with pytest.raises(ConfigError):
            SweepConfig(dataset="cifar10", methods=(MethodSpec(coding="rate"),),
                        noise_kind="dropout", levels=(0.1,))

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            ExperimentScale(name="x", rate_time_steps=0, ttfs_time_steps=1,
                            train_size=1, test_size=1, eval_size=1,
                            train_epochs=1, image_size=1)


@pytest.fixture(scope="module")
def tiny_workload():
    return prepare_workload("mnist", scale=TEST_SCALE, seed=0, use_cache=False)


class TestWorkloadAndRunner:
    def test_prepare_workload_structure(self, tiny_workload):
        assert tiny_workload.dataset_name == "mnist"
        assert 0.0 <= tiny_workload.dnn_accuracy <= 1.0
        assert tiny_workload.network.num_spiking_populations >= 2
        x, y = tiny_workload.evaluation_slice(8)
        assert x.shape[0] == 8 and y.shape[0] == 8

    def test_workload_cache_roundtrip(self, tmp_path):
        first = prepare_workload("mnist", scale=TEST_SCALE, seed=1,
                                 cache_dir=str(tmp_path), use_cache=True)
        second = prepare_workload("mnist", scale=TEST_SCALE, seed=1,
                                  cache_dir=str(tmp_path), use_cache=True)
        assert abs(first.dnn_accuracy - second.dnn_accuracy) < 1e-9

    def test_run_noise_sweep_structure(self, tiny_workload):
        config = SweepConfig(
            dataset="mnist",
            methods=(MethodSpec(coding="ttfs"),
                     MethodSpec(coding="ttas", target_duration=3,
                                weight_scaling=True)),
            noise_kind="deletion",
            levels=(0.0, 0.5),
            scale=TEST_SCALE,
            seed=0,
        )
        result = run_sweep(config, workload=tiny_workload, eval_size=12)
        assert result.labels() == ["TTFS", "TTAS(3)+WS"]
        for curve in result.curves:
            assert len(curve.accuracies) == 2
            assert len(curve.spike_counts) == 2
            assert all(0.0 <= acc <= 1.0 for acc in curve.accuracies)
        assert result.curve("TTFS").accuracy_at(0.0) >= 0.0
        with pytest.raises(KeyError):
            result.curve("Rate")

    def test_method_curve_average_excludes_clean(self):
        curve = MethodCurve(
            method=MethodSpec(coding="rate"),
            levels=[0.0, 0.2, 0.5], accuracies=[0.9, 0.8, 0.4],
            spike_counts=[100, 90, 60], spikes_per_sample=[10, 9, 6],
        )
        assert curve.average_accuracy() == pytest.approx(0.6)
        assert curve.average_accuracy(exclude_clean=False) == pytest.approx(0.7)

    def test_parallel_sweep_identical_to_serial(self, tiny_workload):
        config = SweepConfig(
            dataset="mnist",
            methods=(MethodSpec(coding="ttfs"),
                     MethodSpec(coding="ttas", target_duration=3),
                     MethodSpec(coding="rate")),
            noise_kind="deletion",
            levels=(0.0, 0.3, 0.6),
            scale=TEST_SCALE,
            seed=0,
        )
        serial = run_sweep(
            config, workload=tiny_workload, eval_size=12, max_workers=1
        )
        parallel = run_sweep(
            config, workload=tiny_workload, eval_size=12, max_workers=4
        )
        assert serial.labels() == parallel.labels()
        for s, p in zip(serial.curves, parallel.curves):
            assert s.accuracies == p.accuracies
            assert s.spike_counts == p.spike_counts
            assert s.spikes_per_sample == p.spikes_per_sample

    def test_resolve_max_workers(self):
        import os

        from repro.execution.executors import resolve_worker_count

        # The ``max_workers`` conventions every sweep entry point follows.
        assert resolve_worker_count() == 1
        assert resolve_worker_count(None) == 1
        assert resolve_worker_count(3) == 3
        assert resolve_worker_count(2) == 2
        assert resolve_worker_count(0) == (os.cpu_count() or 1)
        assert resolve_worker_count(-1) == (os.cpu_count() or 1)

    def test_table2_on_tiny_workload(self, tiny_workload):
        table = table2_jitter(
            datasets=("mnist",), levels=(0.0, 2.0), scale=TEST_SCALE,
            workloads={"mnist": tiny_workload}, eval_size=10, ttas_duration=3,
        )
        assert isinstance(table, TableResult)
        methods = {row.method for row in table.rows_for("mnist")}
        assert methods == {"Phase", "Burst", "TTFS", "TTAS(3)"}
        row = table.row("mnist", "TTFS")
        assert len(row.accuracies) == 2
        with pytest.raises(KeyError):
            table.row("mnist", "Rate")


class TestFiguresAndReporting:
    def test_figure5_distributions(self):
        dists = figure5_activation_distribution(trials=100, seed=0)
        assert set(dists) == {"rate", "phase", "burst", "ttfs", "ttas"}
        for dist in dists.values():
            assert dist.counts.sum() == 100

    def test_render_markdown_table(self):
        text = render_markdown_table(["a", "b"], [["1", "2"], ["3", "4"]])
        assert text.count("\n") == 3
        assert "| a" in text

    def test_render_markdown_table_validation(self):
        with pytest.raises(ValueError):
            render_markdown_table([], [])
        with pytest.raises(ValueError):
            render_markdown_table(["a"], [["1", "2"]])

    def test_format_figure_series(self, tiny_workload):
        config = SweepConfig(
            dataset="mnist", methods=(MethodSpec(coding="ttfs"),),
            noise_kind="jitter", levels=(0.0, 1.0), scale=TEST_SCALE, seed=0,
        )
        result = run_sweep(config, workload=tiny_workload, eval_size=8)
        text = format_figure_series(result, "demo")
        assert "demo" in text
        assert "TTFS" in text
        assert "Spikes per sample" in text

    def test_format_table_rows(self):
        table = TableResult(
            name="Table X", noise_kind="deletion", levels=[0.0, 0.5],
            rows=[TableRow(dataset="mnist", method="Rate+WS", levels=[0.0, 0.5],
                           accuracies=[0.99, 0.5], average_accuracy=0.5,
                           spike_counts=[100.0, 60.0], average_spikes=60.0)],
        )
        text = format_table_rows(table, "demo")
        assert "Rate+WS" in text
        assert "Clean" in text
        assert "Spikes per sample" in text
