"""Compiled evaluation plans, pluggable executors and the result store.

The execution subsystem turns one sweep cell -- a (dataset, method, noise
level) point of a figure or table -- into a declarative, picklable
:class:`~repro.execution.plan.CellPlan` that evaluates itself purely,
and runs batches of plans through a pluggable :class:`Executor` backend
(serial / thread / process) with an optional content-addressed on-disk
:class:`ResultStore` for resumable, incremental sweeps.

* :mod:`repro.execution.plan`      -- plans, workload references, fingerprints,
* :mod:`repro.execution.executors` -- the executor protocol and backends,
* :mod:`repro.execution.store`     -- the content-addressed result store,
* :mod:`repro.execution.engine`    -- the evaluate_plans orchestration core.
"""

from repro.execution.engine import (
    CellEvaluationError,
    CellFailure,
    ExecutionStats,
    PlanEvaluation,
    evaluate_cell_tolerant,
    evaluate_plans,
    execute_cell,
    network_hash_for,
    register_workload,
    workload_for,
)
from repro.execution.executors import (
    EXECUTOR_NAMES,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    resolve_executor,
    resolve_worker_count,
)
from repro.execution.attack import (
    ATTACK_FINGERPRINT_SCHEMA,
    AttackPlan,
    build_attack_plans,
    evaluate_attack_plan,
    find_attack_train,
)
from repro.execution.plan import (
    CellPlan,
    EvaluationPlan,
    WorkloadRef,
    build_sweep_plans,
    evaluate_plan,
    merge_shard_results,
    network_fingerprint,
    shard_fingerprint,
)
from repro.execution.store import (
    ResultStore,
    StoreStats,
    resolve_store,
)

__all__ = [
    "AttackPlan",
    "ATTACK_FINGERPRINT_SCHEMA",
    "build_attack_plans",
    "evaluate_attack_plan",
    "find_attack_train",
    "CellPlan",
    "EvaluationPlan",
    "WorkloadRef",
    "build_sweep_plans",
    "evaluate_plan",
    "merge_shard_results",
    "network_fingerprint",
    "shard_fingerprint",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "resolve_executor",
    "resolve_worker_count",
    "EXECUTOR_NAMES",
    "ResultStore",
    "StoreStats",
    "resolve_store",
    "CellEvaluationError",
    "CellFailure",
    "ExecutionStats",
    "PlanEvaluation",
    "evaluate_plans",
    "evaluate_cell_tolerant",
    "execute_cell",
    "register_workload",
    "workload_for",
    "network_hash_for",
]
