"""Tests for the execution subsystem: plans, executors, engine, result store."""

import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.core.pipeline import EvaluationResult
from repro.execution import (
    CellEvaluationError,
    EvaluationPlan,
    ProcessExecutor,
    ResultStore,
    SerialExecutor,
    ThreadExecutor,
    WorkloadRef,
    build_sweep_plans,
    evaluate_plan,
    evaluate_plans,
    network_fingerprint,
    register_workload,
    resolve_executor,
    resolve_store,
)
from repro.execution.attack import build_attack_plans
from repro.execution.executors import SWEEP_EXECUTOR_ENV, SWEEP_WORKERS_ENV
from repro.execution.store import RESULT_STORE_ENV
from repro.experiments import prepare_workload, run_sweep, run_sweeps
from repro.experiments.config import (
    TEST_SCALE,
    AttackSweepConfig,
    MethodSpec,
    SweepConfig,
)
from repro.experiments.runner import MethodCurve
from repro.experiments.tables import table2_jitter
from repro.metrics.robustness import RobustnessSummary
from repro.utils.validation import level_index


@pytest.fixture(scope="module")
def tiny_workload():
    return prepare_workload("mnist", scale=TEST_SCALE, seed=0, use_cache=False)


def tiny_config(**overrides):
    defaults = dict(
        dataset="mnist",
        methods=(MethodSpec(coding="ttfs"),
                 MethodSpec(coding="ttas", target_duration=3)),
        noise_kind="deletion",
        levels=(0.0, 0.5),
        scale=TEST_SCALE,
        seed=0,
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


class CountingExecutor(SerialExecutor):
    """Serial executor that records how many cells it actually evaluated."""

    def __init__(self):
        self.evaluated = 0

    def map(self, fn, items):
        for item in items:
            self.evaluated += 1
            yield fn(item)


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------
class TestPlans:
    def test_build_sweep_plans_method_major_order(self):
        plans = build_sweep_plans(tiny_config(), eval_size=12)
        assert len(plans) == 4
        assert [p.method_label for p in plans] == ["TTFS", "TTFS", "TTAS(3)", "TTAS(3)"]
        assert [p.level for p in plans] == [0.0, 0.5, 0.0, 0.5]
        assert all(p.num_steps == TEST_SCALE.ttfs_time_steps for p in plans)

    def test_plans_are_picklable(self):
        for plan in build_sweep_plans(tiny_config()):
            clone = pickle.loads(pickle.dumps(plan))
            assert clone == plan

    def test_plan_rng_matches_legacy_derivation(self):
        from repro.utils.rng import derive_rng

        plan = build_sweep_plans(tiny_config())[1]
        expected = derive_rng(0, "noise", "TTFS", 0.5)
        assert plan.noise_rng().integers(0, 2**31) == expected.integers(0, 2**31)

    def test_fingerprint_sensitivity(self, tiny_workload):
        network_hash = network_fingerprint(tiny_workload)
        base = build_sweep_plans(tiny_config())[0]
        assert base.fingerprint(network_hash) == base.fingerprint(network_hash)
        variants = [
            build_sweep_plans(tiny_config(seed=1))[0],
            build_sweep_plans(tiny_config(levels=(0.1, 0.5)))[0],
            build_sweep_plans(tiny_config(batch_size=8))[0],
            build_sweep_plans(tiny_config(simulator="timestep"))[0],
        ]
        fingerprints = {base.fingerprint(network_hash)}
        fingerprints.update(v.fingerprint(network_hash) for v in variants)
        assert len(fingerprints) == 1 + len(variants)
        # A different trained network must also change the address.
        assert base.fingerprint("deadbeef") != base.fingerprint(network_hash)

    def test_fingerprint_ignores_non_result_knobs(self, tiny_workload):
        # Cache knobs change where weights live, never what the result is;
        # eval_size=None and its explicit resolution are the same evaluation.
        network_hash = network_fingerprint(tiny_workload)
        base = build_sweep_plans(tiny_config())[0]
        same = [
            build_sweep_plans(tiny_config(), use_cache=False)[0],
            build_sweep_plans(tiny_config(), cache_dir="/tmp/elsewhere")[0],
            build_sweep_plans(tiny_config(), eval_size=TEST_SCALE.eval_size)[0],
        ]
        for variant in same:
            assert variant.fingerprint(network_hash) == base.fingerprint(network_hash)
        # ... but a genuinely different eval size is a different result.
        smaller = build_sweep_plans(tiny_config(), eval_size=8)[0]
        assert smaller.fingerprint(network_hash) != base.fingerprint(network_hash)

    def test_pinned_default_cell_fingerprints(self):
        # Store addresses of default cells.  Stores written by earlier
        # versions must keep resuming, so these change only together with a
        # deliberate fingerprint-schema bump.
        def sweep_cell(simulator):
            return build_sweep_plans(SweepConfig(
                dataset="mnist", methods=(MethodSpec(coding="rate"),),
                noise_kind="deletion", levels=(0.5,), scale=TEST_SCALE,
                simulator=simulator,
            ))[0]

        def attack_cell(evaluator):
            return build_attack_plans(AttackSweepConfig(
                dataset="mnist", methods=(MethodSpec(coding="ttfs"),),
                attack_kind="delete", budgets=(4,), scale=TEST_SCALE,
                evaluator=evaluator,
            ))[0]

        pinned = {
            sweep_cell("transport"):
                "9588c2150c6ee33ce4a0babdf8fdf0f6ebfd0fe07d9424796073395d2be4aa0b",
            sweep_cell("timestep"):
                "5f588f5d7620cff3f3ebe6a4a6949bac62383cd1a441b166c3e94275e385174f",
            attack_cell("transport"):
                "7a733b553921d57b41ec102266fe5e65df26121bf3f6bfcdb56e82689606bd7d",
            attack_cell("timestep"):
                "42bf6eb7eb23f15630d54e22e6f14c940ced0be86ae99e0ce759e57d470c81aa",
        }
        for plan, fingerprint in pinned.items():
            assert plan.cell_fingerprint("0" * 64) == fingerprint, plan.cell_id()

        # Shard addresses: a noise shard covers whole batches (40 samples
        # in batches of 16 split 2-way at sample 32), an attack shard
        # single samples (5 samples split 2-way at sample 3).
        noise_shard = build_sweep_plans(SweepConfig(
            dataset="mnist", methods=(MethodSpec(coding="rate"),),
            noise_kind="deletion", levels=(0.5,), scale=TEST_SCALE,
        ), eval_size=40)[0].shards(2)[1]
        attack_shard = build_attack_plans(AttackSweepConfig(
            dataset="mnist", methods=(MethodSpec(coding="ttfs"),),
            attack_kind="delete", budgets=(4,), scale=TEST_SCALE,
        ), eval_size=5)[0].shards(2)[1]
        assert noise_shard.sample_range() == (32, 40)
        assert attack_shard.sample_range() == (3, 5)
        assert noise_shard.fingerprint("0" * 64) == (
            "07cc4a1c6b18ec43ca41d99f09a5999e0c855f4946e6cdff4559a952e34c5b1c"
        )
        assert attack_shard.fingerprint("0" * 64) == (
            "32a297cf57882c129109bd6a144e135f5f94c6245f7ba2f849a014dcad6f53b6"
        )

    def test_plans_reject_malformed_axes(self):
        # A typo'd noise kind would otherwise run as a clean cell (every
        # level falls to 0.0) stored under the typo's fingerprint.
        plan = build_sweep_plans(tiny_config())[0]
        with pytest.raises(ValueError, match="noise_kind"):
            replace(plan, noise_kind="deleton")
        # batch_size=0 would otherwise only fail in shards() with a
        # ZeroDivisionError.
        with pytest.raises(ValueError, match="batch_size"):
            replace(plan, batch_size=0)

    def test_network_fingerprint_covers_conversion(self, tiny_workload):
        # The same trained model converted differently must not alias in
        # the store: the fingerprint hashes the converted network.
        import dataclasses

        from repro.conversion.converter import convert_dnn_to_snn

        calibration = tiny_workload.data.train.x[:64]
        unfused = dataclasses.replace(
            tiny_workload,
            network=convert_dnn_to_snn(
                tiny_workload.model, calibration, fuse_batch_norm=False
            ),
        )
        assert network_fingerprint(unfused) != network_fingerprint(tiny_workload)

    def test_evaluate_plan_is_deterministic(self, tiny_workload):
        plan = build_sweep_plans(tiny_config(), eval_size=10)[1]
        first = evaluate_plan(plan, tiny_workload)
        second = evaluate_plan(plan, tiny_workload)
        assert first == second
        assert isinstance(first, EvaluationResult)

    def test_evaluation_result_dict_roundtrip(self, tiny_workload):
        plan = build_sweep_plans(tiny_config(), eval_size=10)[0]
        result = evaluate_plan(plan, tiny_workload)
        import json

        payload = json.loads(json.dumps(result.as_dict()))
        assert EvaluationResult.from_dict(payload) == result


#: sha256 over the ordered cell fingerprints (network hash ``"0" * 64``) of
#: every CLI figure and table name, compiled for mnist at TEST_SCALE with
#: the CLI's defaults.  Stores written by earlier versions must keep
#: resuming, so these change only with a deliberate fingerprint-schema bump.
PINNED_CATALOGUE_DIGESTS = {
    ("figure", "adv-delete"): (
        "e9d327bd74ec171c1288181d7b50ab067ced52830746eb6c6d9316766a47f0b9"
    ),
    ("figure", "adv-insert"): (
        "d5d889538b62837002d0aa7402afd6e2b19bacd23b53a7f5739e5859c225b95e"
    ),
    ("figure", "adv-shift"): (
        "ea2b0aa1a7349fd9ed2b64030a2fa7d9acda7869463c76d05cc811a036df3799"
    ),
    ("figure", "fault-burst"): (
        "e4e1f4079e117c4575f9b89505c777001a8e794c7f176fcf8d33296f84b07f7f"
    ),
    ("figure", "fault-dead"): (
        "18cf335f8c6b3dd61fde39bbbba8d4b848c6cb24834deb3cd237de4320427ce1"
    ),
    ("figure", "fault-stuck"): (
        "08603ca86ba03ca027c163591e423bce8338e8ac0240d202121252f2e9d18cd9"
    ),
    ("figure", "fig2"): (
        "580159a81bdf8ccb17be2130abfb567d509268d7a12473fb34e65e2f73ae7493"
    ),
    ("figure", "fig3"): (
        "7eeae7d9e36b20cdd5ff2aae1c5df702c13f7ad2234c548df9e0da6ba9ce6dd0"
    ),
    ("figure", "fig4"): (
        "124cc3e98055982f9fc92817ceb578219d671041d5a1669b014ffcbb98b657ca"
    ),
    ("figure", "fig6"): (
        "089562fe557e4c42abcf4b66b20f71f093089d997a6cd532c733082ec5d5c624"
    ),
    ("figure", "fig7"): (
        "66234add43ba2bf47d60df222768211af363d16fac9666d668ee2bb224f40cb1"
    ),
    ("figure", "fig8"): (
        "2b6adfb5c8eb6eaa01f0826a7d6369116065d498a383e9c7a4cc4b4113f92d53"
    ),
    ("table", "adv-delete"): (
        "e9d327bd74ec171c1288181d7b50ab067ced52830746eb6c6d9316766a47f0b9"
    ),
    ("table", "adv-insert"): (
        "d5d889538b62837002d0aa7402afd6e2b19bacd23b53a7f5739e5859c225b95e"
    ),
    ("table", "adv-shift"): (
        "ea2b0aa1a7349fd9ed2b64030a2fa7d9acda7869463c76d05cc811a036df3799"
    ),
    ("table", "table1"): (
        "ba83027817018a806f6884c627fc51246ff6edbb34ef28d30bf941fbf2850f3a"
    ),
    ("table", "table2"): (
        "edfa6bca8bfc62d9f6373869820521a39bfec77a633bce856eb95b81dd59ed4c"
    ),
    ("table", "table3-burst"): (
        "67851d21b9f8cac6fd2663f8bc8f05c82be9ccfe031b6fc450cfabbaadc70d83"
    ),
    ("table", "table3-dead"): (
        "84cfb91bfdead6e48011eff0639a61a36cc925c1ac7ce51a8d7fdd913bdaafaf"
    ),
    ("table", "table3-stuck"): (
        "a7319ff2c5774a7859af50a57360736443fb956c73349d689120107978b1b5d7"
    ),
}


class _Compiled(Exception):
    """Raised by the stubbed run_sweeps once it has the compiled configs."""


@pytest.mark.parametrize("command,name", sorted(PINNED_CATALOGUE_DIGESTS))
def test_pinned_catalogue_cell_fingerprints(command, name, monkeypatch):
    import hashlib

    import repro.experiments.runner as runner_module
    from repro.cli import main

    configs = []

    def capture(batch, **_):
        configs.extend(batch)
        raise _Compiled

    monkeypatch.setattr(runner_module, "run_sweeps", capture)
    dataset_flag = "--dataset" if command == "figure" else "--datasets"
    with pytest.raises(_Compiled):
        main([command, "--name", name, dataset_flag, "mnist", "--scale", "test"])
    fingerprints = [
        plan.cell_fingerprint("0" * 64)
        for config in configs
        for plan in config.build_plans()
    ]
    digest = hashlib.sha256("\n".join(fingerprints).encode()).hexdigest()
    assert digest == PINNED_CATALOGUE_DIGESTS[(command, name)]


def test_catalogue_names_unchanged():
    # The catalogues are the CLI's --name choices; none may appear or vanish
    # without its pinned digest.
    from repro.experiments import FIGURES, TABLES

    names = {("figure", n) for n in FIGURES} | {("table", n) for n in TABLES}
    assert names == set(PINNED_CATALOGUE_DIGESTS)


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------
class TestExecutors:
    def test_resolve_executor_defaults(self, monkeypatch):
        monkeypatch.delenv(SWEEP_EXECUTOR_ENV, raising=False)
        monkeypatch.delenv(SWEEP_WORKERS_ENV, raising=False)
        assert resolve_executor(None, None).name == "serial"
        assert resolve_executor(None, 4).name == "thread"
        assert resolve_executor("process", 2).name == "process"
        existing = ThreadExecutor(2)
        assert resolve_executor(executor=existing) is existing

    def test_resolve_executor_env(self, monkeypatch):
        monkeypatch.setenv(SWEEP_EXECUTOR_ENV, "process")
        assert resolve_executor(None, None).name == "process"
        monkeypatch.setenv(SWEEP_EXECUTOR_ENV, "serial")
        assert resolve_executor(None, 8).name == "serial"

    def test_resolve_executor_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("gpu")

    def test_map_preserves_order(self):
        items = list(range(12))
        for executor in (SerialExecutor(), ThreadExecutor(4)):
            assert list(executor.map(_square, items)) == [i * i for i in items]

    def test_process_map_preserves_order(self):
        assert list(ProcessExecutor(2).map(_square, range(6))) == [
            i * i for i in range(6)
        ]

    def test_map_unordered_yields_on_completion(self):
        # Item 0 sleeps; every other item is instant, so with >1 worker the
        # slow item must come back last -- completion order, not submission.
        pairs = list(ThreadExecutor(4).map_unordered(_slow_first, range(8)))
        assert sorted(pairs) == [(i, i * i) for i in range(8)]
        assert pairs[-1][0] == 0

    def test_map_unordered_serial_indexing(self):
        assert list(SerialExecutor().map_unordered(_square, [3, 5])) == [
            (0, 9), (1, 25)
        ]

    def test_executor_matrix_bit_identical(self, tiny_workload):
        config = tiny_config(
            methods=(MethodSpec(coding="ttfs"),
                     MethodSpec(coding="ttas", target_duration=3),
                     MethodSpec(coding="rate")),
            levels=(0.0, 0.3, 0.6),
        )
        reference = run_sweep(
            config, workload=tiny_workload, eval_size=12, executor="serial"
        )
        for executor in ("thread", "process"):
            candidate = run_sweep(
                config, workload=tiny_workload, eval_size=12,
                executor=executor, max_workers=3,
            )
            assert candidate.labels() == reference.labels()
            assert candidate.stats.executor == executor
            for ref_curve, cand_curve in zip(reference.curves, candidate.curves):
                assert cand_curve.accuracies == ref_curve.accuracies
                assert cand_curve.spike_counts == ref_curve.spike_counts
                assert cand_curve.spikes_per_sample == ref_curve.spikes_per_sample

    def test_jitter_sweep_process_identical(self, tiny_workload):
        config = tiny_config(noise_kind="jitter", levels=(0.0, 2.0))
        serial = run_sweep(
            config, workload=tiny_workload, eval_size=10, executor="serial"
        )
        process = run_sweep(
            config, workload=tiny_workload, eval_size=10,
            executor="process", max_workers=2,
        )
        for s, p in zip(serial.curves, process.curves):
            assert s.accuracies == p.accuracies


# ---------------------------------------------------------------------------
# Result store
# ---------------------------------------------------------------------------
class TestResultStore:
    def test_rerun_hits_store_and_evaluates_nothing(self, tiny_workload, tmp_path):
        config = tiny_config()
        store = ResultStore(str(tmp_path))
        first = run_sweep(
            config, workload=tiny_workload, eval_size=12, store=store
        )
        assert first.stats.evaluated_cells == 4
        assert first.stats.store_writes == 4

        counting = CountingExecutor()
        second = run_sweep(
            config, workload=tiny_workload, eval_size=12, store=store,
            executor=counting,
        )
        assert counting.evaluated == 0
        assert second.stats.evaluated_cells == 0
        assert second.stats.store_hits == 4
        for f, s in zip(first.curves, second.curves):
            assert f.accuracies == s.accuracies
            assert f.spike_counts == s.spike_counts
            assert f.spikes_per_sample == s.spikes_per_sample

    def test_resume_from_partial_store(self, tiny_workload, tmp_path):
        config = tiny_config()
        store = ResultStore(str(tmp_path))
        run_sweep(config, workload=tiny_workload, eval_size=12, store=store)
        fingerprints = list(store.fingerprints())
        assert len(fingerprints) == 4

        # Simulate an interrupted run: drop two of the four cell documents.
        for fingerprint in fingerprints[:2]:
            os.unlink(store.path_for(fingerprint))
        counting = CountingExecutor()
        resumed = run_sweep(
            config, workload=tiny_workload, eval_size=12, store=store,
            executor=counting,
        )
        assert counting.evaluated == 2
        assert resumed.stats.store_hits == 2
        assert resumed.stats.evaluated_cells == 2
        assert sorted(store.fingerprints()) == sorted(fingerprints)

    def test_fingerprint_change_invalidates_store(self, tiny_workload, tmp_path):
        store = ResultStore(str(tmp_path))
        run_sweep(
            tiny_config(), workload=tiny_workload, eval_size=12, store=store
        )
        # A different batch size is a different noise realisation, so every
        # cell must miss and re-evaluate rather than alias the stored rows.
        counting = CountingExecutor()
        rerun = run_sweep(
            tiny_config(batch_size=6), workload=tiny_workload, eval_size=12,
            store=store, executor=counting,
        )
        assert counting.evaluated == 4
        assert rerun.stats.store_hits == 0
        assert len(list(store.fingerprints())) == 8

    @pytest.mark.parametrize("payload", [
        "{not json",                                    # truncated write
        '{"version": 1, "result": {"accuracy": "oops"}}',  # bad field types
        '{"version": 1}',                               # missing result
    ])
    def test_corrupt_document_is_a_miss(self, tiny_workload, tmp_path, payload):
        store = ResultStore(str(tmp_path))
        run_sweep(
            tiny_config(), workload=tiny_workload, eval_size=12, store=store
        )
        victim = store.path_for(next(iter(store.fingerprints())))
        with open(victim, "w", encoding="utf-8") as handle:
            handle.write(payload)
        counting = CountingExecutor()
        rerun = run_sweep(
            tiny_config(), workload=tiny_workload, eval_size=12, store=store,
            executor=counting,
        )
        assert counting.evaluated == 1
        assert rerun.stats.store_hits == 3

    def test_completed_cells_persist_before_a_slow_failure(
        self, tiny_workload, tmp_path, monkeypatch
    ):
        # One cell sleeps then fails while the others finish instantly on a
        # thread pool: the finished cells must already be on disk when the
        # failure surfaces (completion-order persistence, the resume
        # guarantee for killed/failed runs).
        import time

        from repro.execution.plan import evaluate_plan as real_evaluate_plan

        def flaky_evaluate_plan(plan, workload):
            if plan.method_label == "TTFS" and plan.level == 0.0:
                time.sleep(0.3)
                raise RuntimeError("injected failure")
            return real_evaluate_plan(plan, workload)

        monkeypatch.setattr(EvaluationPlan, "evaluate", flaky_evaluate_plan)
        store = ResultStore(str(tmp_path))
        with pytest.raises(CellEvaluationError, match="TTFS"):
            run_sweep(
                tiny_config(), workload=tiny_workload, eval_size=12,
                store=store, executor="thread", max_workers=4,
            )
        assert len(list(store.fingerprints())) == 3  # the three fast cells

    def test_store_shared_between_figure_and_table_cells(self, tiny_workload, tmp_path):
        # Identical (dataset, method, level, backends) cells share one
        # document no matter which entry point evaluated them first.
        store = ResultStore(str(tmp_path))
        config = tiny_config(
            methods=(MethodSpec(coding="phase"),
                     MethodSpec(coding="burst"),
                     MethodSpec(coding="ttfs"),
                     MethodSpec(coding="ttas", target_duration=3)),
            noise_kind="jitter",
            levels=(0.0, 2.0),
        )
        run_sweep(config, workload=tiny_workload, eval_size=10, store=store)
        table = table2_jitter(
            datasets=("mnist",), levels=(0.0, 2.0), scale=TEST_SCALE,
            workloads={"mnist": tiny_workload}, eval_size=10, ttas_duration=3,
            store=store,
        )
        assert len(table.rows_for("mnist")) == 4
        assert len(list(store.fingerprints())) == 8  # nothing re-stored twice

    def test_resolve_store(self, monkeypatch, tmp_path):
        monkeypatch.delenv(RESULT_STORE_ENV, raising=False)
        assert resolve_store(None) is None
        assert resolve_store(False) is None
        assert resolve_store(str(tmp_path)).root == str(tmp_path)
        store = ResultStore(str(tmp_path))
        assert resolve_store(store) is store
        monkeypatch.setenv(RESULT_STORE_ENV, str(tmp_path / "env"))
        assert resolve_store(None).root == str(tmp_path / "env")
        assert resolve_store(False) is None
        with pytest.raises(TypeError):
            resolve_store(123)

    def test_store_layout_is_sharded(self, tmp_path):
        store = ResultStore(str(tmp_path))
        result = EvaluationResult(
            accuracy=0.5, total_spikes=10, spikes_per_sample=1.0, coding="ttfs",
            deletion=0.2, jitter=0.0, weight_scaling_factor=1.0, num_samples=10,
        )
        fingerprint = "ab" + "0" * 62
        path = store.put(fingerprint, result, {"note": "layout"})
        assert path == os.path.join(str(tmp_path), "cells", "ab", f"{fingerprint}.json")
        assert fingerprint in store
        assert store.get(fingerprint) == result


# ---------------------------------------------------------------------------
# Multi-sweep batches (tables) and failure reporting
# ---------------------------------------------------------------------------
class TestEngine:
    def test_run_sweeps_flattens_multiple_configs(self, tiny_workload):
        configs = [tiny_config(), tiny_config(noise_kind="jitter", levels=(0.0, 1.0))]
        counting = CountingExecutor()
        sweeps = run_sweeps(
            configs, workloads={"mnist": tiny_workload}, eval_size=10,
            executor=counting,
        )
        assert len(sweeps) == 2
        assert counting.evaluated == 8  # one flat dispatch for both sweeps
        assert sweeps[0].config.noise_kind == "deletion"
        assert sweeps[1].config.noise_kind == "jitter"
        for sweep in sweeps:
            assert sweep.stats.total_cells == 8

    def test_provided_workload_must_match_config(self, tiny_workload):
        import logging

        from repro.experiments.config import BENCH_SCALE

        assert tiny_workload.seed == 0
        mismatched_scale = tiny_config(scale=BENCH_SCALE)
        with pytest.raises(ValueError, match="scale"):
            run_sweeps([mismatched_scale], workloads={"mnist": tiny_workload},
                       eval_size=8)
        # A seed mismatch is a legitimate pattern (evaluate a given network
        # under a different noise seed): warned about, not rejected.  The
        # repro root logger does not propagate, so capture directly.
        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record)

        logger = logging.getLogger("repro.experiments.runner")
        handler = Capture(level=logging.WARNING)
        logger.addHandler(handler)
        try:
            result = run_sweeps(
                [tiny_config(seed=3)], workloads={"mnist": tiny_workload},
                eval_size=8,
            )[0]
        finally:
            logger.removeHandler(handler)
        assert len(result.curves) == 2
        assert any("seed" in record.getMessage() for record in records)

    def test_cell_error_carries_identity(self, tiny_workload):
        # Deletion probability > 1 passes config validation but fails inside
        # the cell; the engine must say which cell died.
        config = tiny_config(levels=(0.0, 1.5))
        with pytest.raises(CellEvaluationError) as excinfo:
            run_sweep(config, workload=tiny_workload, eval_size=10)
        error = excinfo.value
        assert error.dataset == "mnist"
        assert error.method == "TTFS"
        assert error.noise_kind == "deletion"
        assert error.level == 1.5
        assert "deletion" in str(error)

    def test_cell_error_survives_process_boundary(self, tiny_workload):
        config = tiny_config(levels=(1.5,))
        with pytest.raises(CellEvaluationError) as excinfo:
            run_sweep(
                config, workload=tiny_workload, eval_size=10,
                executor="process", max_workers=2,
            )
        assert excinfo.value.dataset == "mnist"
        assert excinfo.value.level == 1.5

    def test_cell_error_pickle_roundtrip(self):
        error = CellEvaluationError("mnist", "TTFS", "deletion", 0.5, "boom")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.dataset == "mnist"
        assert clone.method == "TTFS"
        assert clone.level == 0.5
        assert "boom" in str(clone)

    def test_workload_registry_round_trip(self, tiny_workload):
        from repro.execution import workload_for

        ref = WorkloadRef(dataset="mnist", scale=TEST_SCALE, seed=0, use_cache=False)
        register_workload(ref, tiny_workload)
        assert workload_for(ref) is tiny_workload

    def test_workload_registry_is_bounded(self, tiny_workload):
        from repro.execution.engine import (
            _WORKLOAD_REGISTRY,
            WORKLOAD_REGISTRY_LIMIT,
        )

        for seed in range(WORKLOAD_REGISTRY_LIMIT + 5):
            ref = WorkloadRef(dataset="mnist", scale=TEST_SCALE, seed=1000 + seed)
            register_workload(ref, tiny_workload)
        assert len(_WORKLOAD_REGISTRY) <= WORKLOAD_REGISTRY_LIMIT

    def test_batch_size_override_reflected_in_config(self, tiny_workload):
        result = run_sweep(
            tiny_config(batch_size=4), workload=tiny_workload, eval_size=12
        )
        assert result.config.batch_size == 4
        assert result.stats.evaluated_cells == 4

    def test_batch_workloads_bypass_registry(self, tiny_workload, monkeypatch):
        # A batch's pinned workloads must be used directly -- no registry
        # lookups that could evict-and-re-prepare members of a large batch.
        import repro.experiments.workloads as workloads_module
        from repro.execution.engine import _WORKLOAD_REGISTRY

        def forbidden(*args, **kwargs):
            raise AssertionError("prepare_workload must not be called")

        monkeypatch.setattr(workloads_module, "prepare_workload", forbidden)
        saved = dict(_WORKLOAD_REGISTRY)
        _WORKLOAD_REGISTRY.clear()
        try:
            config = tiny_config()
            ref = WorkloadRef.from_sweep_config(config, use_cache=False)
            plans = build_sweep_plans(config, eval_size=10, use_cache=False)
            evaluation = evaluate_plans(plans, workloads={ref: tiny_workload})
            assert evaluation.stats.evaluated_cells == len(plans)
        finally:
            _WORKLOAD_REGISTRY.update(saved)

    def test_unwritable_store_degrades_to_warning(self, tiny_workload, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path))
        monkeypatch.setattr(
            ResultStore, "put",
            lambda self, *a, **k: (_ for _ in ()).throw(OSError("disk full")),
        )
        result = run_sweep(
            tiny_config(), workload=tiny_workload, eval_size=12, store=store
        )
        assert result.stats.evaluated_cells == 4
        assert result.stats.store_writes == 0
        assert len(result.curves) == 2

    def test_evaluate_plans_empty(self):
        evaluation = evaluate_plans([])
        assert evaluation.results == []
        assert evaluation.stats.total_cells == 0


# ---------------------------------------------------------------------------
# Hardware-fault sweeps: executor / worker-count determinism
# ---------------------------------------------------------------------------
class TestFaultSweepDeterminism:
    """Fault masks draw from per-cell RNG streams keyed exactly like the
    existing noise models, so fault sweeps must be bit-identical across
    every executor backend."""

    @pytest.mark.parametrize("noise_kind", ["dead", "stuck", "burst_error"])
    def test_fault_sweep_identical_across_executors(self, tiny_workload, noise_kind):
        levels = (0.0, 0.75) if noise_kind == "burst_error" else (0.0, 0.3)
        config = tiny_config(noise_kind=noise_kind, levels=levels)
        reference = run_sweep(
            config, workload=tiny_workload, eval_size=12, executor="serial"
        )
        for executor in ("thread", "process"):
            candidate = run_sweep(
                config, workload=tiny_workload, eval_size=12,
                executor=executor, max_workers=2,
            )
            for ref_curve, cand_curve in zip(reference.curves, candidate.curves):
                assert cand_curve.accuracies == ref_curve.accuracies
                assert cand_curve.spike_counts == ref_curve.spike_counts

    def test_retries_enabled_bit_identical_when_nothing_fails(self, tiny_workload):
        # The fault-tolerant dispatch path must not perturb results: a sweep
        # with a retry budget (and no failures) matches the plain path.
        config = tiny_config(noise_kind="stuck", levels=(0.0, 0.2))
        plain = run_sweep(config, workload=tiny_workload, eval_size=12)
        ref = WorkloadRef.from_sweep_config(config, use_cache=False)
        plans = build_sweep_plans(config, eval_size=12, use_cache=False)
        tolerant = evaluate_plans(
            plans, workloads={ref: tiny_workload}, retries=2, cell_timeout=60.0
        )
        assert tolerant.stats.failed_cells == 0
        accuracies = [r.accuracy for r in tolerant.results]
        assert accuracies == [a for c in plain.curves for a in c.accuracies]


# ---------------------------------------------------------------------------
# Float-tolerant level lookups (satellite fix)
# ---------------------------------------------------------------------------
class TestLevelLookups:
    def test_level_index_tolerates_arithmetic_floats(self):
        levels = list(np.linspace(0.0, 0.9, 10))  # 0.30000000000000004 etc.
        assert level_index(levels, 0.3) == 3
        assert level_index(levels, levels[7]) == 7
        with pytest.raises(KeyError):
            level_index(levels, 0.35)
        with pytest.raises(KeyError):
            level_index([], 0.0)

    def test_accuracy_at_linspace_levels(self):
        levels = list(np.linspace(0.0, 0.9, 10))
        curve = MethodCurve(
            method=MethodSpec(coding="rate"),
            levels=levels,
            accuracies=[1.0 - 0.1 * i for i in range(10)],
            spike_counts=[100] * 10,
            spikes_per_sample=[10.0] * 10,
        )
        assert curve.accuracy_at(0.3) == pytest.approx(0.7)
        with pytest.raises(KeyError):
            curve.accuracy_at(0.33)

    def test_degradation_at_linspace_levels(self):
        levels = list(np.linspace(0.0, 2.0, 5))  # includes 0.5000000000000001-style
        summary = RobustnessSummary(
            levels=levels,
            accuracies=[0.9, 0.8, 0.6, 0.4, 0.2],
            average=0.5,
            clean_accuracy=0.9,
        )
        assert summary.degradation_at(0.5) == pytest.approx(0.1)
        assert summary.degradation_at(2.0) == pytest.approx(0.7)
        with pytest.raises(KeyError):
            summary.degradation_at(0.75)


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------
class TestCliPlumbing:
    def test_figure_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "figure", "--name", "fig2", "--executor", "process",
            "--batch-size", "8", "--result-store", "/tmp/cells",
        ])
        assert args.executor == "process"
        assert args.batch_size == 8
        assert args.result_store == "/tmp/cells"

    def test_table_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "table", "--name", "table1", "--executor", "thread",
            "--batch-size", "4",
        ])
        assert args.executor == "thread"
        assert args.batch_size == 4
        assert args.result_store is None
        # Neither the analog engine nor the spike representation is a CLI
        # option.
        for flag, value in (("--analog-backend", "loop"),
                            ("--spike-backend", "dense")):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["table", "--name", "table1", flag, value]
                )

    def test_evaluate_batch_size_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["evaluate", "--dataset", "mnist", "--batch-size", "4"]
        )
        assert args.batch_size == 4

    def test_backends_flow_into_sweep_config(self, tiny_workload):
        config = tiny_config(batch_size=8)
        plans = build_sweep_plans(config)
        assert all(p.batch_size == 8 for p in plans)
        result = run_sweep(config, workload=tiny_workload, eval_size=8)
        assert result.config.batch_size == 8

    @pytest.mark.parametrize("command,name,flag,value", [
        pytest.param("figure", "adv-delete", "--batch-size", "8", id="figure"),
        pytest.param("table", "adv-delete", "--batch-size", "8", id="table"),
        ("figure", "fig2", "--budgets", "2"),
        ("table", "table1", "--budgets", "2"),
        ("figure", "fault-dead", "--attack-search", "beam"),
        ("table", "table2", "--attack-search", "greedy"),
    ])
    def test_adversarial_names_reject_batch_size(
        self, command, name, flag, value, capsys
    ):
        # Every family flag is rejected, by name, on an entry of the other
        # family: attack cells run per sample, noise cells have no attack.
        from repro.cli import main

        with pytest.raises(SystemExit) as raised:
            main([command, "--name", name, flag, value])
        assert raised.value.code == 2
        assert f"{flag} does not apply to {name}" in capsys.readouterr().err


def _square(value: int) -> int:
    """Module-level so the process executor can pickle it by reference."""
    return value * value


def _slow_first(value: int) -> int:
    """Sleep on item 0 only; exposes completion-vs-submission ordering."""
    if value == 0:
        import time

        time.sleep(0.3)
    return value * value
