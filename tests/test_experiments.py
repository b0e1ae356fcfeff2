"""Tests for the experiment harness (configs, workloads, runner, figures, tables, reporting)."""

import dataclasses
import json
import logging
import os

import numpy as np
import pytest

from repro.experiments import (
    BENCH_SCALE,
    PAPER_SCALE,
    MethodSpec,
    SweepConfig,
    dataset_config,
    figure5_activation_distribution,
    format_activation_distributions,
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
from repro.experiments.tables import TableResult, TableRow, run_table, table2_jitter
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

    def test_sweep_config_needs_a_level(self):
        with pytest.raises(ConfigError, match="noise level"):
            SweepConfig(dataset="mnist", methods=(MethodSpec(coding="rate"),),
                        noise_kind="deletion", levels=())

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            ExperimentScale(name="x", rate_time_steps=0, ttfs_time_steps=1,
                            train_size=1, test_size=1, eval_size=1,
                            train_epochs=1, image_size=1)


@pytest.fixture(scope="module")
def tiny_workload():
    return prepare_workload("mnist", scale=TEST_SCALE, seed=0)


def _captured_warnings(name):
    """Capture WARNING records of one repro logger (repro does not propagate)."""
    records = []

    class Capture(logging.Handler):
        def emit(self, record):
            records.append(record.getMessage())

    logger = logging.getLogger(name)
    handler = Capture(level=logging.WARNING)
    logger.addHandler(handler)
    try:
        yield records
    finally:
        logger.removeHandler(handler)


@pytest.fixture()
def workload_warnings():
    yield from _captured_warnings("repro.experiments.workloads")


class TestWorkloadFaults:
    """The weight cache is an accelerator: a stale, torn or unwritable one
    costs time, never a different network."""

    def test_stale_weight_cache_is_retrained_and_replaced(
        self, tiny_workload, tmp_path, workload_warnings
    ):
        from repro.execution import network_fingerprint
        from repro.experiments.workloads import _cache_path
        from repro.utils.serialization import save_arrays

        cache_file = _cache_path(str(tmp_path), "mnist", TEST_SCALE, 0)
        save_arrays(cache_file, {"layer9.weight": np.zeros(3, dtype=np.float32)})
        retrained = prepare_workload("mnist", scale=TEST_SCALE, seed=0,
                                     cache_dir=str(tmp_path))
        assert any("stale cache" in message for message in workload_warnings)
        assert network_fingerprint(retrained) == network_fingerprint(tiny_workload)
        workload_warnings.clear()
        prepare_workload("mnist", scale=TEST_SCALE, seed=0,
                         cache_dir=str(tmp_path))
        assert workload_warnings == []

    def test_partly_fitting_weight_cache_is_retrained_from_scratch(
        self, tiny_workload, tmp_path, workload_warnings
    ):
        """A cache whose first layers fit must not seed the retraining."""
        from repro.execution import network_fingerprint
        from repro.experiments.workloads import _cache_path
        from repro.utils.serialization import save_arrays

        state = {name: value + 1.0
                 for name, value in tiny_workload.model.state_dict().items()}
        last = sorted(state)[-1]
        state[last] = np.zeros(3, dtype=np.float32)
        save_arrays(_cache_path(str(tmp_path), "mnist", TEST_SCALE, 0), state)
        retrained = prepare_workload("mnist", scale=TEST_SCALE, seed=0,
                                     cache_dir=str(tmp_path))
        assert any("stale cache" in message for message in workload_warnings)
        assert network_fingerprint(retrained) == network_fingerprint(tiny_workload)

    @pytest.mark.parametrize("kept", [0.5, 0.0], ids=["truncated", "empty"])
    def test_torn_weight_archive_is_retrained_and_rewritten(
        self, tiny_workload, tmp_path, workload_warnings, kept
    ):
        """A training run killed mid-save must not break later set-ups."""
        from repro.execution import network_fingerprint
        from repro.experiments.workloads import _cache_path
        from repro.utils.serialization import load_arrays

        cache_file = _cache_path(str(tmp_path), "mnist", TEST_SCALE, 0)
        prepare_workload("mnist", scale=TEST_SCALE, seed=0, cache_dir=str(tmp_path))
        with open(cache_file, "rb") as handle:
            content = handle.read()
        with open(cache_file, "wb") as handle:
            handle.write(content[: int(len(content) * kept)])
        retrained = prepare_workload("mnist", scale=TEST_SCALE, seed=0,
                                     cache_dir=str(tmp_path))
        assert any(
            "stale cache" in message and cache_file in message
            for message in workload_warnings
        )
        assert network_fingerprint(retrained) == network_fingerprint(tiny_workload)
        rewritten = load_arrays(cache_file)
        expected = tiny_workload.model.state_dict()
        assert sorted(rewritten) == sorted(expected)
        assert all(np.array_equal(rewritten[name], expected[name]) for name in expected)
        workload_warnings.clear()
        prepare_workload("mnist", scale=TEST_SCALE, seed=0, cache_dir=str(tmp_path))
        assert workload_warnings == []

    def test_unwritable_cache_still_prepares(
        self, tiny_workload, tmp_path, workload_warnings
    ):
        from repro.execution import network_fingerprint

        blocker = tmp_path / "not-a-directory"
        blocker.write_text("a file where the cache directory should be")
        prepared = prepare_workload("mnist", scale=TEST_SCALE, seed=0,
                                    cache_dir=str(blocker / "cache"))
        assert network_fingerprint(prepared) == network_fingerprint(tiny_workload)
        assert prepared.dnn_accuracy == tiny_workload.dnn_accuracy
        assert any("weight cache write failed" in m for m in workload_warnings)
        assert any("conversion document write failed" in m for m in workload_warnings)


#: A conversion document as the weight cache holds it, for the test-scale
#: mnist MLP (two hidden ReLU layers); ``{key}`` is the workload's real
#: conversion key.  Caches written since the document moved beside the
#: weights hold exactly this shape, so it must keep being served.
CONVERSION_DOCUMENT = """{{
  "version": 1,
  "key": "{key}",
  "conversion": {{
    "scales": [
      1.5,
      2.25
    ],
    "percentile": 99.9,
    "means": [
      0.5,
      0.75
    ],
    "maxima": [
      2.0,
      3.0
    ],
    "sample_size": 128,
    "input_scale": 1.0,
    "dataset": "mnist",
    "scale": "test",
    "seed": 0,
    "dnn_accuracy": 0.875
  }}
}}
"""


def _conversion_file(cache_dir, key):
    return os.path.join(str(cache_dir), "workloads", key[:2], f"{key}.json")


def _damage_conversion(path, damage):
    """Replace the cached conversion document at ``path`` by a broken one."""
    if damage == "absent":
        os.unlink(path)
        return
    with open(path, encoding="utf-8") as handle:
        content = handle.read()
    if damage == "truncated":
        content = content[: len(content) // 2]
    else:
        document = json.loads(content)
        if damage == "missing-field":
            del document["conversion"]["input_scale"]
        elif damage == "wrong-length":  # scales of another architecture
            document["conversion"]["scales"].append(1.0)
        else:  # non-mapping
            document["conversion"] = [1.0, 2.0]
        content = json.dumps(document)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)


class TestConversionInWeightCache:
    """The conversion document lives beside the trained weights: a warm
    set-up loads both and skips calibration."""

    def test_second_prepare_reuses_the_cached_conversion(
        self, tmp_path, workload_warnings
    ):
        from repro.conversion.converter import CONVERSION_COUNTERS
        from repro.execution import network_fingerprint

        before = CONVERSION_COUNTERS["calibrations"]
        first = prepare_workload("mnist", scale=TEST_SCALE, seed=0,
                                 cache_dir=str(tmp_path))
        # A cold cache is a silent miss.
        assert workload_warnings == []
        second = prepare_workload("mnist", scale=TEST_SCALE, seed=0,
                                  cache_dir=str(tmp_path))
        assert CONVERSION_COUNTERS["calibrations"] == before + 1
        assert second.conversion_key == first.conversion_key
        assert network_fingerprint(second) == network_fingerprint(first)
        assert [s.activation_scale for s in second.network.segments] == [
            s.activation_scale for s in first.network.segments
        ]
        assert second.network.input_scale == first.network.input_scale
        assert second.dnn_accuracy == first.dnn_accuracy
        # Other trained weights have another key, hence a miss.
        other = prepare_workload("mnist", scale=TEST_SCALE, seed=1,
                                 cache_dir=str(tmp_path))
        assert other.conversion_key != first.conversion_key
        assert CONVERSION_COUNTERS["calibrations"] == before + 2

    @pytest.mark.parametrize(
        "damage",
        ["truncated", "missing-field", "wrong-length", "non-mapping", "absent"],
    )
    def test_truncated_cached_conversion_is_rewritten(
        self, tmp_path, workload_warnings, damage
    ):
        from repro.conversion.converter import CONVERSION_COUNTERS

        first = prepare_workload("mnist", scale=TEST_SCALE, seed=0,
                                 cache_dir=str(tmp_path))
        path = _conversion_file(tmp_path, first.conversion_key)
        with open(path, "rb") as handle:
            content = handle.read()
        _damage_conversion(path, damage)
        before = CONVERSION_COUNTERS["calibrations"]
        again = prepare_workload("mnist", scale=TEST_SCALE, seed=0,
                                 cache_dir=str(tmp_path))
        assert CONVERSION_COUNTERS["calibrations"] == before + 1
        # A broken document is a miss with one warning naming the file; an
        # absent one is a silent miss.
        warned = [message for message in workload_warnings if path in message]
        assert len(warned) == (0 if damage == "absent" else 1)
        assert again.dnn_accuracy == first.dnn_accuracy
        with open(path, "rb") as handle:
            assert handle.read() == content

    def test_unreadable_conversion_document_is_a_warned_miss(
        self, tiny_workload, tmp_path, workload_warnings
    ):
        """A document path that cannot be read or replaced (here a
        directory) costs a calibration and two warnings, never the run."""
        from repro.execution import network_fingerprint

        path = _conversion_file(tmp_path, tiny_workload.conversion_key)
        os.makedirs(path)
        prepared = prepare_workload("mnist", scale=TEST_SCALE, seed=0,
                                    cache_dir=str(tmp_path))
        assert network_fingerprint(prepared) == network_fingerprint(tiny_workload)
        assert any("ignoring unusable conversion document" in m and path in m
                   for m in workload_warnings)
        assert any("conversion document write failed" in m and path in m
                   for m in workload_warnings)
        assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]

    def test_racing_cold_prepares_agree(self, tiny_workload, tmp_path):
        """Two processes' worth of set-up on one cold cache: both finish,
        and the files they leave are whole."""
        import threading

        from repro.execution import network_fingerprint

        prepared, errors = [], []

        def prepare():
            try:
                prepared.append(prepare_workload("mnist", scale=TEST_SCALE, seed=0,
                                                 cache_dir=str(tmp_path)))
            except BaseException as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=prepare) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        expected = network_fingerprint(tiny_workload)
        assert [network_fingerprint(w) for w in prepared] == [expected, expected]
        leftovers = [p.name for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []
        warm = prepare_workload("mnist", scale=TEST_SCALE, seed=0,
                                cache_dir=str(tmp_path))
        assert network_fingerprint(warm) == expected

    def test_failed_conversion_write_is_a_warning(
        self, tiny_workload, tmp_path, monkeypatch, workload_warnings
    ):
        from repro.execution import network_fingerprint
        from repro.experiments import workloads

        def failing(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(workloads, "save_json", failing)
        prepared = prepare_workload("mnist", scale=TEST_SCALE, seed=0,
                                    cache_dir=str(tmp_path))
        assert network_fingerprint(prepared) == network_fingerprint(tiny_workload)
        assert any(
            "conversion document write failed" in m and "disk full" in m
            for m in workload_warnings
        )
        assert not (tmp_path / "workloads").exists()

    def test_literal_document_is_served(self, tiny_workload, tmp_path):
        """A document of the pinned format beside the weights is read as is."""
        from repro.conversion.converter import CONVERSION_COUNTERS
        from repro.experiments.workloads import _cache_path

        tiny_workload.model.save(_cache_path(str(tmp_path), "mnist", TEST_SCALE, 0))
        key = tiny_workload.conversion_key
        path = _conversion_file(tmp_path, key)
        os.makedirs(os.path.dirname(path))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(CONVERSION_DOCUMENT.format(key=key))
        before = CONVERSION_COUNTERS["calibrations"]
        served = prepare_workload("mnist", scale=TEST_SCALE, seed=0,
                                  cache_dir=str(tmp_path))
        assert CONVERSION_COUNTERS["calibrations"] == before
        assert served.conversion_key == key
        assert [s.activation_scale for s in served.network.segments
                if s.ends_with_spikes] == [1.5, 2.25]
        assert served.network.input_scale == 1.0
        assert served.dnn_accuracy == 0.875

    def test_cold_prepare_writes_the_literal_shape(self, tmp_path):
        """Same path, same keys in the same order, same value types."""
        prepared = prepare_workload("mnist", scale=TEST_SCALE, seed=0,
                                    cache_dir=str(tmp_path))
        key = prepared.conversion_key
        with open(_conversion_file(tmp_path, key), encoding="utf-8") as handle:
            written = json.load(handle)
        literal = json.loads(CONVERSION_DOCUMENT.format(key=key))

        def shape(value):
            if isinstance(value, dict):
                return [(name, shape(item)) for name, item in value.items()]
            if isinstance(value, list):
                return [shape(item) for item in value]
            return type(value).__name__

        assert shape(written) == shape(literal)
        assert written["key"] == key
        assert written["conversion"]["dnn_accuracy"] == prepared.dnn_accuracy

    def test_a_sweep_store_holds_no_conversion(self, tmp_path, monkeypatch):
        """One home: the document goes beside the weights, never into the
        result store of the sweep that prepared the workload."""
        from repro.execution import ResultStore
        from tests.conftest import stored_fingerprints

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "weights"))
        store = ResultStore(str(tmp_path / "store"))
        config = SweepConfig(
            dataset="mnist", methods=(MethodSpec(coding="ttfs"),),
            noise_kind="deletion", levels=(0.0,), scale=TEST_SCALE,
        )
        run_sweep(config, eval_size=4, store=store)
        assert sorted(os.listdir(store.root)) == ["cells"]
        assert len(stored_fingerprints(store)) == 1
        documents = list((tmp_path / "weights" / "workloads").glob("*/*.json"))
        assert len(documents) == 1

    def test_worker_rebuild_from_warm_cache_does_not_calibrate(
        self, weight_cache, monkeypatch
    ):
        """A pool worker that cannot inherit the parent's workload finds
        the weights and the conversion in ``REPRO_CACHE_DIR``."""
        from repro.conversion.converter import CONVERSION_COUNTERS
        from repro.execution import WorkloadRef, engine, network_fingerprint

        warm = prepare_workload("mnist", scale=TEST_SCALE, seed=0)
        monkeypatch.setattr(engine, "_WORKLOAD_REGISTRY", {})
        monkeypatch.setattr(engine, "_BATCH_WORKLOADS", {})
        before = CONVERSION_COUNTERS["calibrations"]
        rebuilt = engine.workload_for(WorkloadRef(dataset="mnist", scale=TEST_SCALE, seed=0))
        assert CONVERSION_COUNTERS["calibrations"] == before
        assert network_fingerprint(rebuilt) == network_fingerprint(warm)


class TestProvidedWorkloads:
    def test_a_workload_of_another_dataset_is_refused(self, tiny_workload):
        wrong = dataclasses.replace(tiny_workload, dataset_name="cifar10")
        config = SweepConfig(
            dataset="mnist", methods=(MethodSpec(coding="ttfs"),),
            noise_kind="deletion", levels=(0.0,), scale=TEST_SCALE,
        )
        with pytest.raises(ValueError, match="dataset 'cifar10' != 'mnist'"):
            run_sweep(config, workload=wrong, eval_size=8)

    def test_hand_built_workload_is_refused_for_spawned_workers(
        self, tiny_workload, monkeypatch
    ):
        import multiprocessing

        hand_built = dataclasses.replace(tiny_workload, seed=None)
        config = SweepConfig(
            dataset="mnist", methods=(MethodSpec(coding="ttfs"),),
            noise_kind="deletion", levels=(0.0,), scale=TEST_SCALE,
        )
        monkeypatch.setattr(multiprocessing, "get_start_method", lambda *a, **k: "spawn")
        with pytest.raises(ValueError, match="hand-built workload"):
            run_sweep(config, workload=hand_built, eval_size=8,
                      executor="process", max_workers=2)
        # Threads share the workload object whatever the start method.
        result = run_sweep(config, workload=hand_built, eval_size=8,
                           executor="thread", max_workers=2)
        assert len(result.curves) == 1


class TestWorkloadAndRunner:
    def test_prepare_workload_structure(self, tiny_workload):
        assert tiny_workload.dataset_name == "mnist"
        assert 0.0 <= tiny_workload.dnn_accuracy <= 1.0
        assert any(s.ends_with_spikes for s in tiny_workload.network.segments)
        x, y = tiny_workload.evaluation_slice(8)
        assert x.shape[0] == 8 and y.shape[0] == 8

    def test_workload_cache_roundtrip(self, tmp_path):
        first = prepare_workload("mnist", scale=TEST_SCALE, seed=1,
                                 cache_dir=str(tmp_path))
        second = prepare_workload("mnist", scale=TEST_SCALE, seed=1,
                                  cache_dir=str(tmp_path))
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
        assert [c.label for c in result.curves] == ["TTFS", "TTAS(3)+WS"]
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

    @pytest.mark.parametrize("levels,accuracies,average", [
        ([0.0], [0.9], 0.9),  # a clean-only curve averages its clean point
        ([0.0, 0.2, 0.5], [0.9, float("nan"), 0.4], 0.4),  # holes are skipped
    ])
    def test_method_curve_average_edge_cases(self, levels, accuracies, average):
        curve = MethodCurve(
            method=MethodSpec(coding="rate"), levels=levels,
            accuracies=accuracies, spike_counts=[0] * len(levels),
            spikes_per_sample=[0.0] * len(levels),
        )
        assert curve.average_accuracy() == pytest.approx(average)

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
        assert [c.label for c in serial.curves] == [c.label for c in parallel.curves]
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
        with pytest.raises(ValueError, match="max_workers must be >= 0, got -1"):
            resolve_worker_count(-1)

    def test_table2_on_tiny_workload(self, tiny_workload):
        table = table2_jitter(
            datasets=("mnist",), levels=(0.0, 2.0), scale=TEST_SCALE,
            workloads={"mnist": tiny_workload}, eval_size=10, ttas_duration=3,
        )
        assert isinstance(table, TableResult)
        methods = {row.method for row in table.rows_for("mnist")}
        assert methods == {"Phase", "Burst", "TTFS", "TTAS(3)"}
        row, = (r for r in table.rows_for("mnist") if r.method == "TTFS")
        assert len(row.accuracies) == 2

    def test_clean_only_table_row_averages_its_clean_point(self, tiny_workload):
        # The "Avg." columns follow MethodCurve.average_accuracy's rule: the
        # clean level counts when it is the only level.
        table = run_table(
            "table1", ("mnist",), levels=(0.0,), scale=TEST_SCALE,
            workloads={"mnist": tiny_workload}, eval_size=8,
        )
        assert table.rows
        for row in table.rows:
            assert row.average_accuracy == row.accuracies[0]
            assert row.average_spikes == row.spike_counts[0]
        cells = [cell.strip() for line in format_table_rows(table).splitlines()
                 for cell in line.split("|")]
        assert "--" not in cells


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

    def test_spike_table_lists_only_rows_with_counts(self):
        # Table II rows carry no spike counts; mixed with Table I rows, only
        # the counted rows enter the spikes table, and holes render as --.
        def row(method, accuracies, spikes=()):
            return TableRow(dataset="mnist", method=method, levels=[0.0, 0.5],
                            accuracies=accuracies, average_accuracy=0.5,
                            spike_counts=list(spikes), average_spikes=1500.0)

        table = TableResult(name="Table X", noise_kind="deletion", levels=[0.0, 0.5], rows=[
            row("TTFS", [0.9, float("nan")], spikes=[1000.0, 2000.0]),
            row("Phase", [0.8, 0.7]),
        ])
        accuracy, spikes = format_table_rows(table).split("Spikes per sample:")
        assert "Phase" in accuracy and "   --" in accuracy
        assert "Phase" not in spikes
        assert "1,000" in spikes and "2,000" in spikes and "1,500" in spikes

    def test_format_activation_distributions(self):
        from repro.core.analysis import ActivationDistribution

        dist = ActivationDistribution(
            bin_edges=np.array([0.0, 0.5, 1.0]), counts=np.array([1, 3]),
            clean_value=1.0, mean=0.625, std=0.25,
        )
        lines = format_activation_distributions({"rate": dist}, "Fig. 5B").splitlines()
        assert lines == [
            "# Fig. 5B",
            "rate: clean A=1.00 mean A'=0.625 std=0.250",
            "   0.00 | ########## 25.0%",
            "   0.50 | ############################## 75.0%",
        ]
        assert format_activation_distributions({}) == ""
