"""Intra-cell sample sharding: splitting, bit-identity, store resume, holes.

The engine can split one sweep cell across workers along the sample axis
(:meth:`EvaluationPlan.shards`).  These tests pin the contract:

* shards are contiguous, batch-aligned and validated,
* a sharded evaluation is bit-identical to the unsharded one at every
  tested (shard count x executor x simulator) combination -- per-batch
  noise streams are keyed by absolute sample offsets, so scheduling cannot
  change results,
* shard results persist individually and an interrupted run resumes at
  shard granularity with zero re-evaluated shards,
* a failing shard degrades its whole cell to the same explicit ``--`` hole
  a failing cell does, without losing its completed siblings,
* shard documents are garbage-collected once their cell merges, and the
  store reports (and can collect) orphaned leftovers.
"""

import logging
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.core.pipeline import EvaluationResult
from repro.execution import (
    EvaluationPlan,
    ResultStore,
    SerialExecutor,
    WorkloadRef,
    build_sweep_plans,
    evaluate_plan,
    evaluate_plans,
    merge_shard_results,
    shard_fingerprint,
)
from repro.execution import engine as engine_module
from repro.execution.engine import network_hash_for
from repro.execution.plan import evaluate_plan as real_evaluate_plan
from repro.experiments import prepare_workload, run_sweep
from repro.experiments.config import TEST_SCALE, MethodSpec, SweepConfig


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


def _compile(config, eval_size=12, batch_size=4):
    config = replace(config, batch_size=batch_size)
    ref = WorkloadRef.from_sweep_config(config, use_cache=False)
    plans = build_sweep_plans(config, eval_size=eval_size, use_cache=False)
    return ref, plans


class CountingExecutor(SerialExecutor):
    """Serial executor that records how many work items it evaluated."""

    def __init__(self):
        self.evaluated = 0

    def map(self, fn, items):
        for item in items:
            self.evaluated += 1
            yield fn(item)


def _same_results(a, b):
    return all(
        x.accuracy == y.accuracy
        and x.total_spikes == y.total_spikes
        and x.spikes_per_sample == y.spikes_per_sample
        and x.num_samples == y.num_samples
        for x, y in zip(a, b)
    )


# ---------------------------------------------------------------------------
# Shard plans: splitting, validation, fingerprints
# ---------------------------------------------------------------------------
class TestShardPlans:
    def test_shards_cover_the_cell_batch_aligned(self):
        plan = _compile(tiny_config(), eval_size=10, batch_size=3)[1][0]
        shards = plan.shards(2)
        assert [s.sample_range() for s in shards] == [(0, 6), (6, 10)]
        assert all(s.is_shard for s in shards)
        assert sum(s.sample_stop - s.sample_start for s in shards) == 10
        # Every boundary except the tail is a whole batch.
        assert all(s.sample_start % 3 == 0 for s in shards)

    def test_shard_count_clamps_to_batches(self):
        plan = _compile(tiny_config(), eval_size=10, batch_size=4)[1][0]
        shards = plan.shards(16)  # only ceil(10/4) = 3 batches exist
        assert len(shards) == 3
        assert [s.sample_range() for s in shards] == [(0, 4), (4, 8), (8, 10)]

    def test_one_shard_is_the_plan_itself(self):
        plan = _compile(tiny_config())[1][0]
        assert plan.shards(1) == [plan]
        assert not plan.is_shard
        assert plan.cell_plan() is plan

    def test_resharding_and_bad_counts_are_rejected(self):
        plan = _compile(tiny_config())[1][0]
        shard = plan.shards(2)[0]
        with pytest.raises(ValueError, match="re-shard"):
            shard.shards(2)
        with pytest.raises(ValueError, match="num_shards"):
            plan.shards(0)

    def test_shard_bounds_are_validated(self):
        from dataclasses import replace

        plan = _compile(tiny_config(), eval_size=12, batch_size=4)[1][0]
        with pytest.raises(ValueError):  # one-sided
            replace(plan, sample_start=0)
        with pytest.raises(ValueError):  # empty range
            replace(plan, sample_start=4, sample_stop=4)
        with pytest.raises(ValueError):  # past the evaluation
            replace(plan, sample_start=0, sample_stop=16)
        with pytest.raises(ValueError):  # not batch-aligned
            replace(plan, sample_start=2, sample_stop=8)

    def test_shard_round_trip_to_cell(self):
        plan = _compile(tiny_config())[1][0]
        shard = plan.shards(3)[1]
        assert shard.cell_plan() == plan
        assert "samples[" in shard.cell_id()
        assert shard.cell_id() != plan.cell_id()

    def test_fingerprints_are_shard_specific_but_cell_canonical(self, tiny_workload):
        config = tiny_config()
        ref, plans = _compile(config)
        engine_module.register_workload(ref, tiny_workload)
        network_hash = network_hash_for(ref)
        plan = plans[0]
        shards = plan.shards(3)
        cell_fp = plan.fingerprint(network_hash)
        # The description (and hence the cell fingerprint) excludes shard
        # bounds: every shard belongs to the same stored cell.
        for shard in shards:
            assert shard.describe() == plan.describe()
            assert shard.cell_fingerprint(network_hash) == cell_fp
        # But each shard's own fingerprint is unique and derived.
        shard_fps = [s.fingerprint(network_hash) for s in shards]
        assert len(set(shard_fps)) == len(shards)
        assert cell_fp not in shard_fps
        total = plan.effective_eval_size()
        assert shard_fps[0] == shard_fingerprint(
            cell_fp, *shards[0].sample_range(), total
        )

    def test_merge_is_exact(self):
        def result(accuracy, spikes, samples):
            return EvaluationResult(
                accuracy=accuracy, total_spikes=spikes,
                spikes_per_sample=spikes / samples if samples else float("nan"),
                coding="ttfs", deletion=0.5, jitter=0.0,
                weight_scaling_factor=1.0, num_samples=samples,
            )

        merged = merge_shard_results(
            [result(3 / 4, 100, 4), result(5 / 8, 260, 8)]
        )
        assert merged.accuracy == 8 / 12
        assert merged.total_spikes == 360
        assert merged.spikes_per_sample == 360 / 12
        assert merged.num_samples == 12
        assert merged.coding == "ttfs" and merged.deletion == 0.5

    def test_merge_propagates_nan_and_rejects_empty(self):
        unlabelled = EvaluationResult(
            accuracy=float("nan"), total_spikes=10, spikes_per_sample=2.5,
            coding="rate", deletion=0.0, jitter=0.0,
            weight_scaling_factor=1.0, num_samples=4,
        )
        merged = merge_shard_results([unlabelled, unlabelled])
        assert math.isnan(merged.accuracy)
        assert merged.total_spikes == 20 and merged.num_samples == 8
        with pytest.raises(ValueError, match="zero shard"):
            merge_shard_results([])


# ---------------------------------------------------------------------------
# Bit-identity: shard count x executor x simulator
# ---------------------------------------------------------------------------
class TestShardBitIdentity:
    @pytest.mark.parametrize("shards", [2, 3])
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_transport_matrix(self, tiny_workload, shards, executor):
        config = tiny_config(
            methods=(MethodSpec(coding="rate"),
                     MethodSpec(coding="ttfs"),
                     MethodSpec(coding="ttas", target_duration=3)),
        )
        ref, plans = _compile(config)
        reference = evaluate_plans(
            plans, executor="serial", store=False,
            workloads={ref: tiny_workload},
        )
        candidate = evaluate_plans(
            plans, executor=executor, max_workers=2, store=False,
            workloads={ref: tiny_workload}, shards=shards,
        )
        assert candidate.stats.sharded_cells == len(plans)
        assert candidate.stats.evaluated_cells == len(plans)
        assert _same_results(reference.results, candidate.results)

    @pytest.mark.parametrize("shards", [2, 3])
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_timestep_matrix(self, tiny_workload, shards, executor):
        config = tiny_config(
            methods=(MethodSpec(coding="rate"),
                     MethodSpec(coding="ttfs")),
            levels=(0.0, 0.3),
            simulator="timestep",
        )
        ref, plans = _compile(config, eval_size=8)
        reference = evaluate_plans(
            plans, executor="serial", store=False,
            workloads={ref: tiny_workload},
        )
        candidate = evaluate_plans(
            plans, executor=executor, max_workers=2, store=False,
            workloads={ref: tiny_workload}, shards=shards,
        )
        assert candidate.stats.sharded_cells == len(plans)
        assert _same_results(reference.results, candidate.results)

    def test_sharding_composes_with_fault_tolerance(self, tiny_workload):
        config = tiny_config()
        ref, plans = _compile(config)
        reference = evaluate_plans(
            plans, executor="serial", store=False,
            workloads={ref: tiny_workload},
        )
        tolerant = evaluate_plans(
            plans, executor="thread", max_workers=2, store=False,
            workloads={ref: tiny_workload}, shards=2,
            retries=2, retry_backoff=0.001,
        )
        assert tolerant.stats.failed_cells == 0
        assert _same_results(reference.results, tolerant.results)


# ---------------------------------------------------------------------------
# Store: per-shard persistence, resume, garbage collection
# ---------------------------------------------------------------------------
class TestShardStore:
    def test_sharded_run_writes_cells_and_collects_shards(
        self, tiny_workload, tmp_path
    ):
        config = tiny_config()
        ref, plans = _compile(config)
        store = ResultStore(str(tmp_path))
        first = evaluate_plans(
            plans, store=store, workloads={ref: tiny_workload}, shards=3,
        )
        assert first.stats.sharded_cells == len(plans)
        assert first.stats.evaluated_shards == 3 * len(plans)
        # Every cell merged and persisted; no shard documents remain.
        assert len(list(store.fingerprints())) == len(plans)
        assert store.shard_stats() == {
            "shard_cells": 0, "shard_docs": 0, "orphaned_shard_docs": 0,
        }

        # An unsharded re-run is served entirely from the merged cell docs.
        counting = CountingExecutor()
        second = evaluate_plans(
            plans, store=store, workloads={ref: tiny_workload},
            executor=counting,
        )
        assert counting.evaluated == 0
        assert second.stats.store_hits == len(plans)
        assert _same_results(first.results, second.results)

    def test_partial_shard_resume_reruns_no_completed_shard(
        self, tiny_workload, tmp_path
    ):
        config = tiny_config(methods=(MethodSpec(coding="ttfs"),),
                             levels=(0.5,))
        ref, plans = _compile(config)
        engine_module.register_workload(ref, tiny_workload)
        plan = plans[0]
        cell_fp = plan.fingerprint(network_hash_for(ref))
        total = plan.effective_eval_size()
        store = ResultStore(str(tmp_path))
        # Simulate a run killed after two of three shards landed.
        shard_plans = plan.shards(3)
        for shard in shard_plans[:2]:
            store.put_shard(
                cell_fp,
                shard_fingerprint(cell_fp, *shard.sample_range(), total),
                evaluate_plan(shard, tiny_workload),
            )
        counting = CountingExecutor()
        resumed = evaluate_plans(
            plans, store=store, workloads={ref: tiny_workload},
            executor=counting, shards=3,
        )
        assert counting.evaluated == 1  # only the missing shard ran
        assert resumed.stats.shard_store_hits == 2
        assert resumed.stats.evaluated_shards == 1
        assert resumed.stats.evaluated_cells == 1
        # Merged result matches the unsharded evaluation bit-exactly, the
        # cell document exists, and the shard documents were collected.
        unsharded = evaluate_plans(
            plans, store=False, workloads={ref: tiny_workload}
        )
        assert _same_results(unsharded.results, resumed.results)
        assert cell_fp in store
        assert store.shard_stats()["shard_docs"] == 0

    def test_fully_cached_shards_merge_without_evaluating(
        self, tiny_workload, tmp_path
    ):
        config = tiny_config(methods=(MethodSpec(coding="ttfs"),),
                             levels=(0.5,))
        ref, plans = _compile(config)
        engine_module.register_workload(ref, tiny_workload)
        plan = plans[0]
        cell_fp = plan.fingerprint(network_hash_for(ref))
        total = plan.effective_eval_size()
        store = ResultStore(str(tmp_path))
        for shard in plan.shards(3):
            store.put_shard(
                cell_fp,
                shard_fingerprint(cell_fp, *shard.sample_range(), total),
                evaluate_plan(shard, tiny_workload),
            )
        counting = CountingExecutor()
        evaluation = evaluate_plans(
            plans, store=store, workloads={ref: tiny_workload},
            executor=counting, shards=3,
        )
        assert counting.evaluated == 0
        assert evaluation.stats.store_hits == 1
        assert evaluation.stats.evaluated_cells == 0
        assert evaluation.stats.shard_store_hits == 3
        assert cell_fp in store
        assert store.shard_stats()["shard_docs"] == 0

    def test_orphaned_shard_docs_are_reported_and_collected(
        self, tiny_workload, tmp_path
    ):
        config = tiny_config(methods=(MethodSpec(coding="ttfs"),),
                             levels=(0.5,))
        ref, plans = _compile(config)
        engine_module.register_workload(ref, tiny_workload)
        plan = plans[0]
        cell_fp = plan.fingerprint(network_hash_for(ref))
        total = plan.effective_eval_size()
        store = ResultStore(str(tmp_path))
        evaluate_plans(plans, store=store, workloads={ref: tiny_workload})
        # Simulate a run killed between the cell write and the shard GC.
        shard_plans = plan.shards(3)
        for shard in shard_plans[:2]:
            store.put_shard(
                cell_fp,
                shard_fingerprint(cell_fp, *shard.sample_range(), total),
                evaluate_plan(shard, tiny_workload),
            )
        assert store.shard_stats() == {
            "shard_cells": 1, "shard_docs": 2, "orphaned_shard_docs": 2,
        }
        assert store.gc_orphaned_shards() == 2
        assert store.shard_stats() == {
            "shard_cells": 0, "shard_docs": 0, "orphaned_shard_docs": 0,
        }
        # Live (un-merged) shard docs are inventory, not orphans.
        os.unlink(store.path_for(cell_fp))
        store.put_shard(
            cell_fp,
            shard_fingerprint(cell_fp, *shard_plans[0].sample_range(), total),
            evaluate_plan(shard_plans[0], tiny_workload),
        )
        assert store.shard_stats() == {
            "shard_cells": 1, "shard_docs": 1, "orphaned_shard_docs": 0,
        }
        assert store.gc_orphaned_shards() == 0

    def test_delete_shards_of_unknown_cell_is_a_noop(self, tmp_path):
        store = ResultStore(str(tmp_path))
        assert store.delete_shards("f" * 64) == 0


# ---------------------------------------------------------------------------
# Failures: a bad shard degrades its cell to the same explicit hole
# ---------------------------------------------------------------------------
class TestShardFailures:
    def test_failing_shard_records_one_cell_hole(
        self, tiny_workload, tmp_path, monkeypatch
    ):
        def doomed(plan, workload):
            if plan.method_label == "TTFS" and plan.sample_range()[0] == 4:
                raise ValueError("bad shard")
            return real_evaluate_plan(plan, workload)

        monkeypatch.setattr(EvaluationPlan, "evaluate", doomed)
        config = tiny_config(levels=(0.5,))
        ref, plans = _compile(config)
        store = ResultStore(str(tmp_path))
        evaluation = evaluate_plans(
            plans, store=store, workloads={ref: tiny_workload},
            shards=3, retries=1, retry_backoff=0.001,
        )
        # One hole for the TTFS cell, the TTAS cell unharmed.
        assert evaluation.stats.failed_cells == 1
        assert len(evaluation.failures) == 1
        index, failure = evaluation.failures[0]
        assert plans[index].method_label == "TTFS"
        assert "bad shard" in failure.message
        assert isinstance(evaluation.results[1 - index], EvaluationResult)
        # The failed cell has no merged document, but its completed sibling
        # shards persisted for resume; the healthy cell merged and GC'd.
        cell_fp = plans[index].fingerprint(network_hash_for(ref))
        assert cell_fp not in store
        assert store.shard_stats() == {
            "shard_cells": 1, "shard_docs": 2, "orphaned_shard_docs": 0,
        }

        # Healed re-run: the two surviving shards are hits, one re-runs.
        monkeypatch.setattr(EvaluationPlan, "evaluate", real_evaluate_plan)
        healed = evaluate_plans(
            plans, store=store, workloads={ref: tiny_workload},
            shards=3, retries=1, retry_backoff=0.001,
        )
        assert healed.stats.failed_cells == 0
        assert healed.stats.store_hits == 1  # the healthy cell's document
        assert healed.stats.shard_store_hits == 2
        assert healed.stats.evaluated_shards == 1
        unsharded = evaluate_plans(
            plans, store=False, workloads={ref: tiny_workload}
        )
        assert _same_results(unsharded.results, healed.results)

    def test_shard_hole_renders_like_a_cell_hole(
        self, tiny_workload, monkeypatch
    ):
        from repro.experiments.reporting import format_figure_series

        def doomed(plan, workload):
            if plan.method_label == "TTFS" and plan.level == 0.5:
                raise ValueError("dead shard")
            return real_evaluate_plan(plan, workload)

        monkeypatch.setattr(EvaluationPlan, "evaluate", doomed)
        result = run_sweep(
            tiny_config(), workload=tiny_workload, eval_size=12, shards=3,
            retries=1,
        )
        curve = result.curve("TTFS")
        assert np.isnan(curve.accuracy_at(0.5))
        assert not np.isnan(curve.accuracy_at(0.0))
        assert "--" in format_figure_series(result)

    def test_shard_errors_propagate_without_fault_tolerance(
        self, tiny_workload, monkeypatch
    ):
        from repro.execution import CellEvaluationError

        def doomed(plan, workload):
            if plan.sample_range()[0] == 4:
                raise ValueError("bad shard")
            return real_evaluate_plan(plan, workload)

        monkeypatch.setattr(EvaluationPlan, "evaluate", doomed)
        config = tiny_config(methods=(MethodSpec(coding="ttfs"),),
                             levels=(0.5,))
        ref, plans = _compile(config)
        with pytest.raises(CellEvaluationError, match="bad shard"):
            evaluate_plans(
                plans, store=False, workloads={ref: tiny_workload}, shards=3,
            )


# ---------------------------------------------------------------------------
# Auto-sharding heuristic + knob resolution
# ---------------------------------------------------------------------------
class TestAutoShard:
    def _capture_engine_info(self):
        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record)

        logger = logging.getLogger("repro.execution.engine")
        handler = Capture(level=logging.INFO)
        return logger, handler, records

    def test_idle_pool_triggers_auto_sharding_and_logs(self, tiny_workload):
        config = tiny_config(methods=(MethodSpec(coding="ttfs"),),
                             levels=(0.5,))
        ref, plans = _compile(config)
        reference = evaluate_plans(
            plans, executor="serial", store=False,
            workloads={ref: tiny_workload},
        )
        logger, handler, records = self._capture_engine_info()
        logger.addHandler(handler)
        previous = logger.level
        logger.setLevel(logging.INFO)
        try:
            auto = evaluate_plans(
                plans, executor="thread", max_workers=3, store=False,
                workloads={ref: tiny_workload},
            )
        finally:
            logger.setLevel(previous)
            logger.removeHandler(handler)
        # 1 cell on 3 workers -> 3 shards per cell, decision logged.
        assert auto.stats.sharded_cells == 1
        assert auto.stats.evaluated_shards == 3
        messages = [record.getMessage() for record in records]
        assert any(
            "auto-shard" in message
            and "1 pending cell(s)" in message
            and "3 thread worker(s)" in message
            and "3 sample shard(s)" in message
            for message in messages
        )
        assert _same_results(reference.results, auto.results)

    def test_serial_and_saturated_dispatches_do_not_shard(self, tiny_workload):
        config = tiny_config()  # 4 cells
        ref, plans = _compile(config)
        serial = evaluate_plans(
            plans, executor="serial", store=False,
            workloads={ref: tiny_workload},
        )
        assert serial.stats.sharded_cells == 0
        # 4 cells on 2 workers: the pool is already saturated.
        saturated = evaluate_plans(
            plans, executor="thread", max_workers=2, store=False,
            workloads={ref: tiny_workload},
        )
        assert saturated.stats.sharded_cells == 0

    def test_explicit_one_disables_auto_sharding(self, tiny_workload):
        config = tiny_config(methods=(MethodSpec(coding="ttfs"),),
                             levels=(0.5,))
        ref, plans = _compile(config)
        forced_off = evaluate_plans(
            plans, executor="thread", max_workers=3, store=False,
            workloads={ref: tiny_workload}, shards=1,
        )
        assert forced_off.stats.sharded_cells == 0
        assert forced_off.stats.evaluated_shards == 0

    def test_shard_count_below_one_is_refused(self, tiny_workload):
        config = tiny_config(methods=(MethodSpec(coding="ttfs"),), levels=(0.5,))
        ref, plans = _compile(config)
        for shards in (0, -2):
            with pytest.raises(ValueError, match=">= 1"):
                evaluate_plans(
                    plans, store=False, workloads={ref: tiny_workload},
                    shards=shards,
                )

    def test_shards_flow_through_run_sweep(self, tiny_workload):
        config = tiny_config(methods=(MethodSpec(coding="ttfs"),),
                             levels=(0.5,), batch_size=4)
        reference = run_sweep(config, workload=tiny_workload, eval_size=12)
        sharded = run_sweep(config, workload=tiny_workload, eval_size=12, shards=3)
        assert sharded.stats.sharded_cells == 1
        assert sharded.stats.evaluated_shards == 3
        for ref_curve, cand_curve in zip(reference.curves, sharded.curves):
            assert cand_curve.accuracies == ref_curve.accuracies
            assert cand_curve.spike_counts == ref_curve.spike_counts
