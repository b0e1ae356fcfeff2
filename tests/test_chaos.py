"""Chaos harness: fault-tolerant sweep execution under injected failures.

Injects the failure modes a long sweep actually meets -- worker processes
killed mid-cell, transiently failing cells, corrupt store documents -- and
asserts the engine's recovery guarantees: completed cells are never lost or
re-run, transient failures succeed within the retry budget, and exhausted
cells degrade to explicit holes instead of aborting the sweep.
"""

import logging
import multiprocessing
import os
import pickle
import signal

import numpy as np
import pytest

from repro.core.pipeline import EvaluationResult
from repro.execution import (
    CellEvaluationError,
    CellFailure,
    EvaluationPlan,
    ProcessExecutor,
    ResultStore,
    ThreadExecutor,
    WorkloadRef,
    build_sweep_plans,
    evaluate_plans,
)
from repro.execution.plan import evaluate_plan as real_evaluate_plan
from repro.experiments import prepare_workload
from repro.experiments.config import TEST_SCALE, MethodSpec, SweepConfig
from tests.conftest import stored_fingerprints

pytestmark = pytest.mark.usefixtures("fast_retries")

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker-kill chaos relies on fork inheriting the monkeypatched engine",
)


@pytest.fixture(scope="module")
def chaos_workload():
    return prepare_workload("mnist", scale=TEST_SCALE, seed=0, use_cache=False)


def chaos_config(**overrides):
    defaults = dict(
        dataset="mnist",
        methods=(MethodSpec(coding="ttfs"),
                 MethodSpec(coding="ttas", target_duration=3)),
        noise_kind="dead",
        levels=(0.0, 0.3),
        scale=TEST_SCALE,
        seed=0,
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


def _compile(config, workload, eval_size=10):
    ref = WorkloadRef.from_sweep_config(config, use_cache=False)
    plans = build_sweep_plans(config, eval_size=eval_size, use_cache=False)
    return ref, plans



def _failures(evaluation):
    """The failed cells of ``evaluation``, as (plan index, failure) pairs."""
    return [(i, r) for i, r in enumerate(evaluation.results) if isinstance(r, CellFailure)]


# ---------------------------------------------------------------------------
# Worker kills: broken-pool recovery + zero-loss resume
# ---------------------------------------------------------------------------
@fork_only
class TestWorkerKill:
    def test_killed_worker_sweep_completes_and_resumes_clean(
        self, chaos_workload, tmp_path, monkeypatch
    ):
        """SIGKILL a worker mid-cell: the sweep must still finish with every
        cell evaluated, and a resume must re-run zero cells."""
        sentinel = tmp_path / "already-died"

        def killer_evaluate_plan(plan, workload):
            if (plan.method_label == "TTFS" and plan.level == 0.3
                    and not sentinel.exists()):
                sentinel.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return real_evaluate_plan(plan, workload)

        monkeypatch.setattr(EvaluationPlan, "evaluate", killer_evaluate_plan)
        store = ResultStore(str(tmp_path / "store"))
        config = chaos_config()
        ref, plans = _compile(config, chaos_workload)
        executor = ProcessExecutor(2)
        try:
            evaluation = evaluate_plans(
                plans, executor=executor, store=store,
                workloads={ref: chaos_workload},
            )
        finally:
            executor.close()
        assert sentinel.exists()  # the kill actually happened
        assert evaluation.stats.failed_cells == 0
        assert all(isinstance(r, EvaluationResult) for r in evaluation.results)
        assert len(stored_fingerprints(store)) == len(plans)

        # Resume: every cell must be served from the store, none re-run.
        monkeypatch.setattr(EvaluationPlan, "evaluate", real_evaluate_plan)
        resumed = evaluate_plans(
            plans, store=store, workloads={ref: chaos_workload}
        )
        assert resumed.stats.store_hits == len(plans)
        assert resumed.stats.evaluated_cells == 0
        assert resumed.results == evaluation.results

    def test_killed_worker_mid_shard_sweep_completes_and_resumes(
        self, chaos_workload, tmp_path, monkeypatch
    ):
        """SIGKILL a worker while it evaluates one *sample shard* of a
        sharded cell: the broken-pool recovery must finish the sweep with
        every shard merged, and a resume must re-run zero shards."""
        sentinel = tmp_path / "already-died"

        def killer_evaluate_plan(plan, workload):
            if (plan.method_label == "TTFS" and plan.level == 0.3
                    and plan.is_shard and plan.sample_range()[0] > 0
                    and not sentinel.exists()):
                sentinel.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return real_evaluate_plan(plan, workload)

        monkeypatch.setattr(EvaluationPlan, "evaluate", killer_evaluate_plan)
        store = ResultStore(str(tmp_path / "store"))
        config = chaos_config(batch_size=4)
        ref = WorkloadRef.from_sweep_config(config, use_cache=False)
        plans = build_sweep_plans(config, eval_size=10, use_cache=False)
        executor = ProcessExecutor(2)
        try:
            evaluation = evaluate_plans(
                plans, executor=executor, store=store,
                workloads={ref: chaos_workload}, shards=2,
            )
        finally:
            executor.close()
        assert sentinel.exists()  # the kill actually happened, mid-shard
        assert evaluation.stats.failed_cells == 0
        assert evaluation.stats.sharded_cells == len(plans)
        assert all(isinstance(r, EvaluationResult) for r in evaluation.results)
        # Every cell merged and persisted; no shard documents left behind.
        assert len(stored_fingerprints(store)) == len(plans)
        assert store.gc()["shard_docs"] == 0

        # Resume: merged cell documents serve everything, no shard re-runs.
        monkeypatch.setattr(EvaluationPlan, "evaluate", real_evaluate_plan)
        resumed = evaluate_plans(
            plans, store=store, workloads={ref: chaos_workload}, shards=2,
        )
        assert resumed.stats.store_hits == len(plans)
        assert resumed.stats.evaluated_cells == 0
        assert resumed.stats.evaluated_shards == 0
        assert resumed.results == evaluation.results

        # The chaos-interrupted sharded run still matches the unsharded
        # ground truth bit-exactly.
        unsharded = evaluate_plans(
            plans, store=False, workloads={ref: chaos_workload}
        )
        assert unsharded.results == evaluation.results

    def test_repeated_kills_exhaust_the_respawn_budget(
        self, chaos_workload, monkeypatch
    ):
        """A cell that kills its worker on *every* attempt must eventually
        surface the broken pool instead of respawning forever."""

        def always_kill(plan, workload):
            if plan.method_label == "TTFS" and plan.level == 0.3:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_evaluate_plan(plan, workload)

        monkeypatch.setattr(EvaluationPlan, "evaluate", always_kill)
        monkeypatch.setattr(ProcessExecutor, "max_pool_respawns", 1)
        config = chaos_config()
        ref, plans = _compile(config, chaos_workload, eval_size=8)
        executor = ProcessExecutor(2)
        try:
            with pytest.raises(Exception) as excinfo:
                evaluate_plans(
                    plans, executor=executor, workloads={ref: chaos_workload}
                )
        finally:
            executor.close()
        assert "process pool" in str(excinfo.value).lower() or "terminated" in str(
            excinfo.value
        ).lower() or "broken" in str(excinfo.value).lower()


# ---------------------------------------------------------------------------
# Transient failures: retry with backoff
# ---------------------------------------------------------------------------
class TestTransientFailures:
    def test_transient_cell_succeeds_within_retry_budget(
        self, chaos_workload, monkeypatch
    ):
        attempts = {"count": 0}

        def flaky(plan, workload):
            if plan.method_label == "TTFS" and plan.level == 0.3:
                attempts["count"] += 1
                if attempts["count"] <= 2:
                    raise RuntimeError("transient glitch")
            return real_evaluate_plan(plan, workload)

        monkeypatch.setattr(EvaluationPlan, "evaluate", flaky)
        config = chaos_config()
        ref, plans = _compile(config, chaos_workload)
        evaluation = evaluate_plans(
            plans, workloads={ref: chaos_workload},
            retries=3,
        )
        assert attempts["count"] == 3  # two failures, then success
        assert evaluation.stats.failed_cells == 0
        assert all(isinstance(r, EvaluationResult) for r in evaluation.results)

    def test_exhausted_retries_degrade_to_a_hole(self, chaos_workload, monkeypatch):
        def doomed(plan, workload):
            if plan.method_label == "TTFS" and plan.level == 0.3:
                raise ValueError("permanently broken cell")
            return real_evaluate_plan(plan, workload)

        monkeypatch.setattr(EvaluationPlan, "evaluate", doomed)
        config = chaos_config()
        ref, plans = _compile(config, chaos_workload)
        evaluation = evaluate_plans(
            plans, workloads={ref: chaos_workload},
            retries=2,
        )
        assert evaluation.stats.failed_cells == 1
        assert evaluation.stats.evaluated_cells == len(plans) - 1
        failures = _failures(evaluation)
        assert len(failures) == 1
        index, failure = failures[0]
        assert plans[index].method_label == "TTFS"
        assert failure.attempts == 3
        assert "permanently broken cell" in failure.message
        # The formatted remote traceback crossed the boundary intact.
        assert "Traceback" in failure.remote_traceback
        assert "ValueError" in failure.remote_traceback

    def test_holes_render_explicitly_in_reports(self, chaos_workload, monkeypatch):
        from repro.experiments import run_sweep
        from repro.experiments.reporting import format_figure_series

        def doomed(plan, workload):
            if plan.method_label == "TTFS" and plan.level == 0.3:
                raise ValueError("dead on arrival")
            return real_evaluate_plan(plan, workload)

        monkeypatch.setattr(EvaluationPlan, "evaluate", doomed)
        result = run_sweep(
            chaos_config(), workload=chaos_workload, eval_size=10, retries=1
        )
        curve = result.curve("TTFS")
        assert np.isnan(curve.accuracy_at(0.3))
        assert not np.isnan(curve.accuracy_at(0.0))
        # The only noisy level is the hole, so the noisy average is NaN.
        assert np.isnan(curve.average_accuracy())
        rendered = format_figure_series(result)
        assert "--" in rendered

    def test_failed_cells_are_not_persisted(self, chaos_workload, tmp_path, monkeypatch):
        # A hole must stay a miss: the next run with the bug fixed re-runs
        # exactly the failed cell, not the whole sweep.
        def doomed(plan, workload):
            if plan.method_label == "TTFS" and plan.level == 0.3:
                raise ValueError("doomed")
            return real_evaluate_plan(plan, workload)

        monkeypatch.setattr(EvaluationPlan, "evaluate", doomed)
        store = ResultStore(str(tmp_path))
        config = chaos_config()
        ref, plans = _compile(config, chaos_workload)
        first = evaluate_plans(
            plans, store=store, workloads={ref: chaos_workload},
            retries=1,
        )
        assert first.stats.failed_cells == 1
        assert len(stored_fingerprints(store)) == len(plans) - 1

        monkeypatch.setattr(EvaluationPlan, "evaluate", real_evaluate_plan)
        healed = evaluate_plans(
            plans, store=store, workloads={ref: chaos_workload},
            retries=1,
        )
        assert healed.stats.store_hits == len(plans) - 1
        assert healed.stats.evaluated_cells == 1
        assert healed.stats.failed_cells == 0

    def test_errors_propagate_when_fault_tolerance_is_off(
        self, chaos_workload, monkeypatch
    ):
        def doomed(plan, workload):
            raise ValueError("boom")

        monkeypatch.setattr(EvaluationPlan, "evaluate", doomed)
        config = chaos_config()
        ref, plans = _compile(config, chaos_workload)
        with pytest.raises(CellEvaluationError):
            evaluate_plans(plans, workloads={ref: chaos_workload})


# ---------------------------------------------------------------------------
# Corrupt store documents degrade to misses (satellite verification)
# ---------------------------------------------------------------------------
class TestCorruptStore:
    def test_truncated_document_warns_with_the_file_name(
        self, chaos_workload, tmp_path
    ):
        store = ResultStore(str(tmp_path))
        config = chaos_config()
        ref, plans = _compile(config, chaos_workload)
        evaluate_plans(plans, store=store, workloads={ref: chaos_workload})
        victim = store._path("cells", stored_fingerprints(store)[0])
        with open(victim, "w", encoding="utf-8") as handle:
            handle.write('{"version": 1, "result": {"accur')  # truncated write

        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record)

        logger = logging.getLogger("repro.execution.store")
        handler = Capture(level=logging.WARNING)
        logger.addHandler(handler)
        try:
            rerun = evaluate_plans(plans, store=store, workloads={ref: chaos_workload})
        finally:
            logger.removeHandler(handler)
        assert rerun.stats.store_hits == len(plans) - 1
        assert rerun.stats.evaluated_cells == 1
        warned = [r.getMessage() for r in records]
        assert any(victim in message for message in warned)


# ---------------------------------------------------------------------------
# Knob resolution + failure-object plumbing
# ---------------------------------------------------------------------------
class TestFaultToleranceKnobs:
    def test_retry_budget_comes_from_the_argument(self, chaos_workload, monkeypatch):
        def doomed(plan, workload):
            raise ValueError("boom")

        monkeypatch.setattr(EvaluationPlan, "evaluate", doomed)
        config = chaos_config(methods=(MethodSpec(coding="ttfs"),), levels=(0.3,))
        ref, plans = _compile(config, chaos_workload)
        # None, 0 and a negative budget all mean "no retries": errors propagate.
        for retries in (None, 0, -2):
            with pytest.raises(CellEvaluationError):
                evaluate_plans(plans, workloads={ref: chaos_workload}, retries=retries)
        evaluation = evaluate_plans(
            plans, workloads={ref: chaos_workload}, retries=3,
        )
        (_, failure), = _failures(evaluation)
        assert failure.attempts == 4

    def test_cell_failure_is_picklable(self):
        failure = CellFailure(
            dataset="mnist", method="TTFS", noise_kind="dead", level=0.3,
            message="boom", remote_traceback="Traceback ...", attempts=4,
        )
        clone = pickle.loads(pickle.dumps(failure))
        assert clone == failure

    def test_cell_error_pickle_keeps_traceback_and_attempts(self):
        error = CellEvaluationError(
            "mnist", "TTFS", "dead", 0.3, "boom",
            "Traceback (most recent call last): ...", 3,
        )
        clone = pickle.loads(pickle.dumps(error))
        assert clone.remote_traceback.startswith("Traceback")
        assert clone.attempts == 3
        assert "after 3 attempts" in str(clone)

    def test_thread_pool_also_recovers_results(self, chaos_workload):
        # Sanity: the fault-tolerant dispatch composes with the thread pool.
        config = chaos_config()
        ref, plans = _compile(config, chaos_workload, eval_size=8)
        executor = ThreadExecutor(2)
        try:
            evaluation = evaluate_plans(
                plans, executor=executor, workloads={ref: chaos_workload},
                retries=1,
            )
        finally:
            executor.close()
        assert evaluation.stats.failed_cells == 0
        assert len(evaluation.results) == len(plans)
