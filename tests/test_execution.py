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
from repro.experiments import prepare_workload, run_sweep, run_sweeps
from repro.experiments.config import (
    TEST_SCALE,
    AttackSweepConfig,
    MethodSpec,
    SweepConfig,
)
from repro.experiments.runner import MethodCurve
from repro.experiments.tables import table2_jitter
from repro.utils.validation import level_index
from tests.conftest import stored_fingerprints


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

    def test_retired_knobs_keep_the_stored_payload(self):
        # scaling_mode was a plan field (always "inverse") and quant_bits
        # was dropped from the payload when unset; stored cells hash both
        # that way.
        payload = build_sweep_plans(tiny_config())[0].describe()
        assert payload["scaling_mode"] == "inverse"
        assert "quant_bits" not in payload

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
                "851927ea13432069c1a389f7b55b356e9bac73e91e29a49d9c7bc0a35e60d9e0",
            sweep_cell("timestep"):
                "0122dc4ef347301aefd92a252b74d359b7bf9a9d2a1afc4853b2bf337391f00d",
            attack_cell("transport"):
                "937a5cbb69797c081ed7bde84c981e1ae32476e288e82a2f0964ab9b8ba180e4",
            attack_cell("timestep"):
                "e2e47404d80d341a4b1c7f6a0ea4b50e5c5e71e05c2ab4f1c9eb0d0f80704d47",
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
            "2f07c9dbac121a7899a344679d21b75f91196eba3581c01bdbcb3e532a89c575"
        )
        assert attack_shard.fingerprint("0" * 64) == (
            "e5b8e81aaaeda2e53981873edb39ce2ea3d4eb5c5018b157cfcecadd8ff9f7ae"
        )

    def test_plans_reject_malformed_axes(self, tiny_workload):
        # A typo'd noise kind would otherwise run as a clean cell (every
        # level falls to 0.0) stored under the typo's fingerprint.
        plan = build_sweep_plans(tiny_config())[0]
        with pytest.raises(ValueError, match="noise_kind"):
            replace(plan, noise_kind="deleton")
        # batch_size=0 would otherwise only fail in shards() with a
        # ZeroDivisionError.
        with pytest.raises(ValueError, match="batch_size"):
            replace(plan, batch_size=0)
        for size in (0, -3):
            with pytest.raises(ValueError, match="eval_size must be >= 1"):
                replace(plan, eval_size=size)
            with pytest.raises(ValueError, match="eval size must be >= 1"):
                tiny_workload.evaluation_slice(size)

    def test_network_fingerprint_covers_conversion(self, tiny_workload):
        # The same trained model converted differently must not alias in
        # the store: the fingerprint hashes the converted network.
        import dataclasses

        from repro.conversion.converter import convert_dnn_to_snn

        calibration = tiny_workload.data.train.x[:64]
        other = dataclasses.replace(
            tiny_workload,
            network=convert_dnn_to_snn(
                tiny_workload.model, calibration, percentile=99.0
            ),
        )
        assert network_fingerprint(other) != network_fingerprint(tiny_workload)

    def test_network_fingerprint_pinned(self):
        # A hand-built network (fixed arrays, no training) hashes to the
        # digest stored fingerprints were written with, ``bn_fused=True``
        # literal included.
        from types import SimpleNamespace

        from repro.conversion.converter import ConvertedSNN, NetworkSegment
        from repro.nn.layers import Dense, ReLU

        hidden, head = Dense(4, 3, rng=0), Dense(3, 2, rng=0)
        hidden.params["weight"] = np.arange(12, dtype=np.float32).reshape(4, 3) / 16
        hidden.params["bias"] = np.array([0.25, -0.5, 0.125], dtype=np.float32)
        head.params["weight"] = -np.arange(6, dtype=np.float32).reshape(3, 2) / 8
        head.params["bias"] = np.zeros(2, dtype=np.float32)
        network = ConvertedSNN(
            segments=[
                NetworkSegment([hidden, ReLU()], ends_with_spikes=True,
                               activation_scale=1.5, index=0),
                NetworkSegment([head], ends_with_spikes=False, index=1),
            ],
            input_scale=2.0,
            source_name="hand-built",
        )
        workload = SimpleNamespace(dataset_name="mnist", scale=TEST_SCALE, network=network)
        assert network_fingerprint(workload) == (
            "44d4e79c2cc9faa0b7b9d9e1f8cb0dd71be13d152c4a098e78f55878a88aea8f"
        )

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
        "56ec8171df8d601dd1047ca013e3c8ae889ebf786a780c03fcfe8f271541bb3e"
    ),
    ("figure", "adv-insert"): (
        "5445c4c5bb988b6e40647850bc07288e379fcaefc5681baf808561a345a79e8e"
    ),
    ("figure", "adv-shift"): (
        "2c2f31a393abb31245aa0379087de01bb683ccc8e4847403aff45b58b2e8ebdd"
    ),
    ("figure", "fault-burst"): (
        "e8e63de455ca2af49dde58d1a0c60090814a37849b5a7f969f0000a331de7351"
    ),
    ("figure", "fault-dead"): (
        "46de34dded54846c379df1e348c1d84ae2d776aa2884c55a34bda965f7172cc6"
    ),
    ("figure", "fault-stuck"): (
        "402c750ed01375bc4eb7f199c969b79430fd331d5eb9aadfa371346d149f7eb2"
    ),
    ("figure", "fig2"): (
        "a7af2e5251b0c5caccfe73a9f89193f61551b3e931887c952dffb3862715721d"
    ),
    ("figure", "fig3"): (
        "48e9bd16cd80bcae7ad1367e1f79f5ba84d327073e5ca233023e2569661c08c5"
    ),
    ("figure", "fig4"): (
        "d17701e32693fd1b011f4fc954e27bef0d4b4c3e41e9482b54749de7a26cb765"
    ),
    ("figure", "fig6"): (
        "607c286c7486fc2d61f4534fb3c463b97df18fa102c5ddb1c59d3b66dae52dd8"
    ),
    ("figure", "fig7"): (
        "c50cec3176a8c05d78b082f44b8527ad5a24d81d0ba4e33ee90c5cc5da7ea748"
    ),
    ("figure", "fig8"): (
        "59c6b285fb8106d4b34af996cbe11dd2942a31c255d2eedf539adf3a7212e0fd"
    ),
    ("table", "adv-delete"): (
        "56ec8171df8d601dd1047ca013e3c8ae889ebf786a780c03fcfe8f271541bb3e"
    ),
    ("table", "adv-insert"): (
        "5445c4c5bb988b6e40647850bc07288e379fcaefc5681baf808561a345a79e8e"
    ),
    ("table", "adv-shift"): (
        "2c2f31a393abb31245aa0379087de01bb683ccc8e4847403aff45b58b2e8ebdd"
    ),
    ("table", "table1"): (
        "4b7c16e7effa8d53e0f7221157204db172bae48798206f0669a8afdb95aae880"
    ),
    ("table", "table2"): (
        "6c78e5e2884ea06f6d429edd1529e11a04d9b78cc8cd64ec884242515e60c330"
    ),
    ("table", "table3-burst"): (
        "d20becc38c9f5140f843ad4f28e7111d7b06eec4f8f3ce4b5f6a59615ed334b4"
    ),
    ("table", "table3-dead"): (
        "6ce91152e35bec1a824a2862f0690132216f48f6beff5e7deb159680455b4ea0"
    ),
    ("table", "table3-stuck"): (
        "4aedbb5defb7d416b85ab448ba9cad1b90b7ada87376eccc92dfc3d8fc4dc052"
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


#: The entries whose methods do not fit the TEST_SCALE windows: TTAS(10)
#: needs 10 steps and the test scale's TTFS/TTAS window has 8.
TEST_SCALE_REFUSED = {("figure", "fig6"), ("figure", "fig8"), ("table", "table2")}


@pytest.mark.parametrize("command,name", sorted(PINNED_CATALOGUE_DIGESTS))
def test_catalogue_entry_plans_or_refuses_at_test_scale(command, name, monkeypatch):
    import repro.experiments.runner as runner_module
    from repro.experiments import FIGURES, TABLES
    from repro.experiments.config import TEST_SCALE, ScaleWindowError

    def plan_only(batch, **_):
        # run_sweeps's window check, then every config's plans.
        for config in batch:
            runner_module.check_scale_windows(config.methods, config.scale)
        for config in batch:
            assert config.build_plans()
        raise _Compiled

    monkeypatch.setattr(runner_module, "run_sweeps", plan_only)
    spec = (FIGURES if command == "figure" else TABLES)[name]
    if (command, name) not in TEST_SCALE_REFUSED:
        with pytest.raises(_Compiled):
            runner_module.run_spec(spec, ("mnist",), scale=TEST_SCALE)
        return
    with pytest.raises(ScaleWindowError) as raised:
        runner_module.run_spec(spec, ("mnist",), scale=TEST_SCALE)
    message = str(raised.value)
    assert message.startswith(f"{spec.title}: TTAS(10) ")
    assert "target_duration (10) cannot exceed num_steps (8)" in message


def test_cli_refuses_a_method_beyond_the_scale_window(tmp_path, monkeypatch, capsys):
    import repro.experiments.runner as runner_module
    from repro.cli import main

    def no_workload(*_, **__):
        raise AssertionError("a refused sweep must not prepare a workload")

    monkeypatch.setattr(runner_module, "prepare_workload", no_workload)
    store = tmp_path / "store"
    code = main([
        "table", "--name", "table2", "--datasets", "mnist", "--scale", "test",
        "--result-store", str(store),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: Table II (spike jitter): TTAS(10) ")
    assert not store.exists()
    # Filtering the method away lets the same entry through the check.
    with pytest.raises(AssertionError, match="must not prepare"):
        main([
            "table", "--name", "table2", "--datasets", "mnist", "--scale", "test",
            "--result-store", str(store), "--methods", "Phase",
        ])


def test_cli_refuses_an_unknown_method_label(tmp_path, monkeypatch, capsys):
    import repro.experiments.runner as runner_module
    from repro.cli import main

    def no_workload(*_, **__):
        raise AssertionError("a refused sweep must not prepare a workload")

    monkeypatch.setattr(runner_module, "prepare_workload", no_workload)
    store = tmp_path / "store"
    code = main([
        "figure", "--name", "fig4", "--dataset", "mnist", "--scale", "test",
        "--methods", "TTFS", "--result-store", str(store),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: unknown method label(s) ['TTFS']; available: ")
    assert "'TTFS+WS'" in lines[0]
    assert not store.exists()


def test_cli_refuses_bad_counts_before_preparing_a_workload(monkeypatch, capsys):
    import repro.experiments.runner as runner_module
    from repro.cli import main

    def no_workload(*_, **__):
        raise AssertionError("a refused sweep must not prepare a workload")

    monkeypatch.setattr(runner_module, "prepare_workload", no_workload)
    entries = (
        ["table", "--name", "table1", "--datasets", "mnist"],
        ["figure", "--name", "fig2", "--dataset", "mnist"],
    )
    counts = (
        (["--shards", "0"], "--shards must be >= 1, got 0"),
        (["--retries", "-1"], "--retries must be >= 0, got -1"),
        (["--max-workers", "-1"], "--max-workers must be >= 0, got -1"),
    )
    for entry in entries:
        for flags, message in counts:
            with pytest.raises(SystemExit) as raised:
                main([*entry, "--scale", "test", *flags])
            assert raised.value.code == 2
            assert message in capsys.readouterr().err


def test_cli_retries_fill_a_cell_that_fails_once(tiny_workload, monkeypatch, capsys):
    import repro.experiments.runner as runner_module
    from repro.cli import main

    monkeypatch.setattr(runner_module, "prepare_workload", lambda *_, **__: tiny_workload)

    def fail_first(times):
        # The deletion-0.5 cell raises on its first ``times`` evaluations.
        calls = {"count": 0}

        def evaluate(plan, workload):
            if plan.level == 0.5:
                calls["count"] += 1
                if calls["count"] <= times:
                    raise ValueError("transient failure")
            return evaluate_plan(plan, workload)

        return evaluate

    def ttfs_accuracies(output):
        row = next(line for line in output.splitlines() if line.startswith("| TTFS"))
        return [cell.strip() for cell in row.strip("|").split("|")][1:]

    argv = [
        "figure", "--name", "fig2", "--dataset", "mnist", "--scale", "test",
        "--eval-size", "8", "--methods", "TTFS",
    ]
    monkeypatch.setattr(EvaluationPlan, "evaluate", fail_first(1))
    assert main(argv + ["--retries", "1"]) == 0
    filled = ttfs_accuracies(capsys.readouterr().out)
    assert "--" not in filled
    # Without a retry budget the same failure aborts the sweep ...
    monkeypatch.setattr(EvaluationPlan, "evaluate", fail_first(1))
    with pytest.raises(CellEvaluationError, match="transient failure"):
        main(argv)
    # ... and a cell that outlasts the budget becomes a hole.
    monkeypatch.setattr(EvaluationPlan, "evaluate", fail_first(2))
    assert main(argv + ["--retries", "1"]) == 0
    holed = ttfs_accuracies(capsys.readouterr().out)
    assert holed[2] == "--"
    assert holed[:2] + holed[3:] == filled[:2] + filled[3:]


#: The run settings that used to fall back to an environment variable.
FORMER_ENV_SETTINGS = (
    "REPRO_SWEEP_EXECUTOR", "REPRO_SWEEP_WORKERS", "REPRO_CELL_RETRIES",
    "REPRO_CELL_TIMEOUT", "REPRO_SWEEP_SHARDS", "REPRO_RESULT_STORE",
    "REPRO_SERVE_MAX_BYTES", "REPRO_SERVE_MAX_BATCH", "REPRO_SERVE_MAX_DELAY_MS",
)


def test_run_settings_ignore_the_environment(tiny_workload, tmp_path, monkeypatch):
    from repro.serving import MicroBatchScheduler, ModelRegistry

    for name in FORMER_ENV_SETTINGS:
        monkeypatch.setenv(name, "banana")
    bogus_store = tmp_path / "bogus-store"
    monkeypatch.setenv("REPRO_RESULT_STORE", str(bogus_store))

    assert resolve_executor().name == "serial"
    assert resolve_store(None) is None
    config = tiny_config(methods=(MethodSpec(coding="ttfs"),))
    ref = WorkloadRef.from_sweep_config(config, use_cache=False)
    plans = build_sweep_plans(config, eval_size=8, use_cache=False)
    evaluation = evaluate_plans(plans, workloads={ref: tiny_workload})
    assert evaluation.stats.executor == "serial"
    assert evaluation.stats.evaluated_cells == len(plans)
    assert evaluation.stats.store_writes == 0
    assert evaluation.stats.sharded_cells == 0
    registry = ModelRegistry()
    assert registry._store is None
    with MicroBatchScheduler(registry, max_workers=1) as scheduler:
        assert scheduler.max_batch == 8
        assert scheduler.max_workers == 1
    assert not bogus_store.exists()


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------
class TestExecutors:
    def test_resolve_executor_defaults(self):
        assert resolve_executor().name == "serial"
        assert resolve_executor(None, None).name == "serial"
        assert resolve_executor(None, 4).name == "thread"
        assert resolve_executor("process", 2).name == "process"
        existing = ThreadExecutor(2)
        assert resolve_executor(executor=existing) is existing

    def test_resolve_executor_by_name(self):
        # A named backend wins over the worker-count heuristic.
        assert resolve_executor("process").name == "process"
        assert resolve_executor(" Thread ", 1).name == "thread"
        assert resolve_executor("serial", 8).name == "serial"

    def test_resolve_executor_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("gpu")

    def test_map_unordered_yields_on_completion(self):
        # Item 0 sleeps; every other item is instant, so with >1 worker the
        # slow item must come back last -- completion order, not submission.
        pairs = list(ThreadExecutor(4).map_unordered(_slow_first, range(8)))
        assert sorted(pairs) == [(i, i * i) for i in range(8)]
        assert pairs[-1][0] == 0

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_empty_dispatch_starts_no_pool(self, backend):
        executor = resolve_executor(backend, 2)
        assert list(executor.map_unordered(_square, [])) == []
        assert executor._pool is None

    def test_one_thread_pool_runs_in_the_calling_thread(self):
        import threading

        executor = ThreadExecutor(1)
        threads = list(executor.map_unordered(_thread_id, range(3)))
        assert threads == [(i, threading.get_ident()) for i in range(3)]
        assert executor._pool is None

    def test_submit_replaces_a_broken_pool(self):
        with ThreadExecutor(2) as executor:
            first = executor.submit(_square, 3)
            assert first.result(timeout=30) == 9
            broken = executor._pool
            broken._broken = "a worker died"  # what a killed worker leaves
            assert executor.submit(_square, 4).result(timeout=30) == 16
            assert executor._pool is not broken

    def test_map_unordered_salvages_results_finished_before_a_break(
        self, monkeypatch
    ):
        # A break surfaces before a future that had already finished: that
        # result is still handed back once, and only the broken item is
        # resubmitted (until the respawn budget runs out).
        from concurrent.futures import BrokenExecutor, wait

        import repro.execution.executors as executors_module

        def in_submission_order(futures):
            futures = list(futures)
            wait(futures)
            yield from futures

        calls = []

        def breaking(value):
            calls.append(value)
            if value is None:
                raise BrokenExecutor("a worker died")
            return value * value

        monkeypatch.setattr(executors_module, "as_completed", in_submission_order)
        results = []
        with ThreadExecutor(2) as executor:
            with pytest.raises(BrokenExecutor, match="a worker died"):
                for index, value in executor.map_unordered(breaking, [None, 3]):
                    results.append((index, value))
        assert results == [(1, 9)]
        assert calls.count(3) == 1
        assert calls.count(None) == 1 + executor.max_pool_respawns

    def test_submit_replaces_a_pool_shut_down_under_it(self):
        with ThreadExecutor(2) as executor:
            executor.submit(_square, 1).result(timeout=30)
            stale = executor._pool
            stale.shutdown(wait=True)
            assert executor.submit(_square, 5).result(timeout=30) == 25
            assert executor._pool is not stale

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
            assert [c.label for c in candidate.curves] == [c.label for c in reference.curves]
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
        fingerprints = stored_fingerprints(store)
        assert len(fingerprints) == 4

        # Simulate an interrupted run: drop two of the four cell documents.
        for fingerprint in fingerprints[:2]:
            os.unlink(store._path("cells", fingerprint))
        counting = CountingExecutor()
        resumed = run_sweep(
            config, workload=tiny_workload, eval_size=12, store=store,
            executor=counting,
        )
        assert counting.evaluated == 2
        assert resumed.stats.store_hits == 2
        assert resumed.stats.evaluated_cells == 2
        assert stored_fingerprints(store) == sorted(fingerprints)

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
        assert len(stored_fingerprints(store)) == 8

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
        victim = store._path("cells", stored_fingerprints(store)[0])
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
        assert len(stored_fingerprints(store)) == 3  # the three fast cells

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
        assert len(stored_fingerprints(store)) == 8  # nothing re-stored twice

    def test_resolve_store(self, tmp_path):
        assert resolve_store(None) is None
        assert resolve_store(False) is None
        assert resolve_store(str(tmp_path)).root == str(tmp_path)
        store = ResultStore(str(tmp_path))
        assert resolve_store(store) is store
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
        assert store.get(fingerprint) is not None
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

    def test_workload_for_prepares_a_missing_workload_once(
        self, tiny_workload, monkeypatch
    ):
        import repro.experiments.workloads as workloads_module
        from repro.execution import workload_for

        calls = []

        def counting(dataset, **kwargs):
            calls.append((dataset, kwargs))
            return tiny_workload

        monkeypatch.setattr(workloads_module, "prepare_workload", counting)
        ref = WorkloadRef(dataset="mnist", scale=TEST_SCALE, seed=4321,
                          cache_dir="/nonexistent", use_cache=False)
        assert workload_for(ref) is tiny_workload
        assert workload_for(ref) is tiny_workload
        assert calls == [("mnist", dict(scale=TEST_SCALE, seed=4321,
                                        cache_dir="/nonexistent", use_cache=False))]

    def test_a_cell_error_raised_by_the_plan_is_not_rewrapped(self, tiny_workload):
        from types import SimpleNamespace

        from repro.execution.engine import execute_cell

        ref = WorkloadRef(dataset="mnist", scale=TEST_SCALE, seed=0, use_cache=False)
        register_workload(ref, tiny_workload)
        original = CellEvaluationError("mnist", "TTFS", "deletion", 0.5, "inner")

        def evaluate(workload):
            raise original

        plan = SimpleNamespace(
            workload=ref, evaluate=evaluate, dataset="other",
            method_label="RATE", noise_kind="jitter", level=1.0,
        )
        with pytest.raises(CellEvaluationError) as excinfo:
            execute_cell(plan)
        assert excinfo.value is original

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
            plans, workloads={ref: tiny_workload}, retries=2
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

    def test_store_gc_requires_a_result_store(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as raised:
            main(["store", "gc"])
        assert raised.value.code == 2
        assert "--result-store" in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv,options", [
        (["figure", "--name", "fig2", "--batch-size", "8"], {"batch_size": 8}),
        (["table", "--name", "table1", "--batch-size", "4"], {"batch_size": 4}),
        (["figure", "--name", "adv-delete", "--budgets", "0", "2"], {"budgets": [0, 2]}),
        (["table", "--name", "adv-shift", "--attack-search", "beam", "--budgets", "1"],
         {"budgets": [1], "search": "beam"}),
        (["figure", "--name", "fig2"], {}),
    ])
    def test_family_flags_reach_the_sweep_options(self, argv, options):
        from repro.cli import _family_options, build_parser

        parser = build_parser()
        assert _family_options(parser, parser.parse_args(argv)) == options

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


def _thread_id(value: int) -> int:
    import threading

    return threading.get_ident()


def _slow_first(value: int) -> int:
    """Sleep on item 0 only; exposes completion-vs-submission ordering."""
    if value == 0:
        import time

        time.sleep(0.3)
    return value * value
