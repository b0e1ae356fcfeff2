"""The plan-evaluation engine: executors x result store x workload registry.

:func:`evaluate_plans` is the single entry point every sweep (figures,
tables, benchmarks, CLI) funnels through.  Given a list of
:class:`~repro.execution.plan.CellPlan` cells it

1. resolves each plan's workload (preparing and memoising it per process),
2. computes the plan fingerprints and serves store hits without evaluating,
3. optionally splits each pending cell into **sample shards** (whole
   batches for noise cells, single samples for attack cells; explicit
   ``shards=``, or automatically when a dispatch has fewer cells than pool
   workers), so a single cell can use the whole pool,
4. fans the resulting work items out over the selected executor backend,
5. completes every pending cell through one loop: a cell is a list of
   1..n shard plans (a whole cell is a one-shard cell), each shard of a
   multi-shard cell is persisted to the store *as it completes*, and a
   cell whose last shard lands is merged (bit-identical to the unsharded
   evaluation; see :mod:`repro.execution.plan`) and persisted through
   :meth:`~repro.execution.store.ResultStore.put`, so an interrupted run
   resumes from the cells (and shards) already done,
6. returns the results in plan order together with execution statistics.

Worker processes do not share the parent's memory (unless forked): the
module-level :func:`execute_cell` rebuilds workloads from the plans'
workload references on first use and memoises them per process, so a
process evaluating many cells of one dataset prepares it once.  On
fork-based platforms (Linux) children inherit the registry as it stood when
their (possibly warm, reused) pool first started and skip even that for
workloads already known then.
"""

from __future__ import annotations

import math
import threading
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.pipeline import EvaluationResult
from repro.execution.executors import Executor, resolve_executor
from repro.execution.plan import (
    CellPlan,
    WorkloadRef,
    merge_shard_results,
    network_fingerprint,
    shard_fingerprint,
)
from repro.execution.store import ResultStore, resolve_store
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - cycle guard (experiments -> execution)
    from repro.experiments.workloads import PreparedWorkload

logger = get_logger("execution.engine")

#: Per-process registry of prepared workloads, keyed by workload reference.
#: Seeded by the parent before dispatch; inherited by forked workers; filled
#: on demand (from the on-disk weight cache, or by retraining -- both
#: deterministic) everywhere else.  Bounded: long-lived sessions sweeping
#: many (dataset, scale, seed) combinations evict the oldest entries instead
#: of growing without limit (re-preparation is deterministic and cached on
#: disk, so eviction only costs time, never correctness).
_WORKLOAD_REGISTRY: Dict[WorkloadRef, "PreparedWorkload"] = {}

#: Maximum workloads kept in the per-process registry.
WORKLOAD_REGISTRY_LIMIT = 8

#: Workloads of the batch currently inside :func:`evaluate_plans`.  Unlike
#: the bounded registry this mapping is exact for the batch's lifetime, so a
#: batch spanning more than ``WORKLOAD_REGISTRY_LIMIT`` distinct workloads
#: never evicts-and-re-prepares its own members.  Process workers forked
#: when a pool first starts inherit the mapping as populated at that
#: moment; workers of a *warm* pool serving a later batch (or spawn-started
#: workers) do not see entries pinned afterwards and fall back to
#: :func:`workload_for`, which rebuilds deterministically from the
#: reference (weights and conversion served from the trained-weight cache)
#: and memoises per process -- slower on first touch, never different.
_BATCH_WORKLOADS: Dict[WorkloadRef, "PreparedWorkload"] = {}

#: Cached network fingerprints, keyed by workload reference (hashing the
#: trained weights is cheap but not free; once per workload is enough).
_NETWORK_HASHES: Dict[WorkloadRef, str] = {}

#: Guards the registry/hash caches: thread-executor workers resolve
#: workloads concurrently, and preparation must happen at most once per
#: reference (an RLock because register_workload runs inside workload_for).
_REGISTRY_LOCK = threading.RLock()


class CellEvaluationError(RuntimeError):
    """A sweep cell failed; carries the cell identity across workers.

    A bare exception surfacing out of a worker pool gives no clue *which*
    (dataset, method, level) cell died.  This wrapper names the cell, the
    original error, the formatted remote traceback (``remote_traceback``,
    captured where the cell actually ran) and how many attempts were made --
    and, because it reconstructs from positional ``args``, survives pickling
    across process boundaries intact.
    """

    def __init__(self, dataset: str, method: str, noise_kind: str,
                 level: float, cause: str, remote_traceback: str = "",
                 attempts: int = 1):
        super().__init__(dataset, method, noise_kind, level, cause,
                         remote_traceback, attempts)
        self.dataset = dataset
        self.method = method
        self.noise_kind = noise_kind
        self.level = level
        self.cause = cause
        self.remote_traceback = remote_traceback
        self.attempts = attempts

    def __str__(self) -> str:
        suffix = f" (after {self.attempts} attempts)" if self.attempts > 1 else ""
        return (
            f"sweep cell {self.dataset}/{self.method} "
            f"{self.noise_kind}={self.level:g} failed: {self.cause}{suffix}"
        )


@dataclass(frozen=True)
class CellFailure:
    """A cell that exhausted its retry budget, recorded instead of raised.

    Under fault-tolerant execution a failed cell degrades the sweep instead
    of aborting it: the failure takes the cell's slot in
    :attr:`PlanEvaluation.results` and downstream assembly renders it as an
    explicit hole (NaN accuracy).  Plain data, hence trivially picklable on
    the way back from a worker.
    """

    dataset: str
    method: str
    noise_kind: str
    level: float
    message: str
    remote_traceback: str = ""
    attempts: int = 1


@dataclass
class ExecutionStats:
    """What one :func:`evaluate_plans` call actually did.

    ``evaluated_cells`` and ``store_hits`` stay cell-granular regardless of
    sharding: a cell assembled from freshly evaluated shards counts as one
    evaluated cell, a cell merged entirely from stored shard documents
    counts as one store hit.  The shard-level traffic is reported
    separately (``sharded_cells``, ``evaluated_shards``,
    ``shard_store_hits``).
    """

    executor: str
    total_cells: int = 0
    evaluated_cells: int = 0
    store_hits: int = 0
    store_writes: int = 0
    failed_cells: int = 0
    sharded_cells: int = 0
    evaluated_shards: int = 0
    shard_store_hits: int = 0


@dataclass
class PlanEvaluation:
    """Results of a batch of plans, in plan order, plus statistics.

    Under fault-tolerant execution a slot may hold a :class:`CellFailure`
    instead of an :class:`~repro.core.pipeline.EvaluationResult`.
    """

    results: List[Union[EvaluationResult, CellFailure]]
    stats: ExecutionStats = field(default_factory=lambda: ExecutionStats("serial"))


def register_workload(ref: WorkloadRef, workload: "PreparedWorkload") -> None:
    """Seed the process-local registry with an already prepared workload.

    Re-registering an existing reference refreshes its recency; when the
    registry is full the least recently registered workload is evicted.
    """
    with _REGISTRY_LOCK:
        _WORKLOAD_REGISTRY.pop(ref, None)
        _WORKLOAD_REGISTRY[ref] = workload
        _NETWORK_HASHES.pop(ref, None)
        while len(_WORKLOAD_REGISTRY) > WORKLOAD_REGISTRY_LIMIT:
            evicted = next(iter(_WORKLOAD_REGISTRY))
            del _WORKLOAD_REGISTRY[evicted]
            _NETWORK_HASHES.pop(evicted, None)


def workload_for(ref: WorkloadRef) -> "PreparedWorkload":
    """Resolve a workload reference, preparing and memoising on first use."""
    # Imported here, not at module scope: repro.experiments is built on top
    # of this engine, so the dependency must stay one-way at import time.
    from repro.experiments.workloads import prepare_workload

    workload = _BATCH_WORKLOADS.get(ref)
    if workload is not None:
        return workload
    with _REGISTRY_LOCK:
        # Double-checked under the lock: concurrent thread workers must
        # prepare a missing workload exactly once, not once per thread.
        workload = _WORKLOAD_REGISTRY.get(ref)
        if workload is None:
            logger.info(
                "preparing workload %s/%s (seed %d) in process",
                ref.dataset, ref.scale.name, ref.seed,
            )
            workload = prepare_workload(
                ref.dataset,
                scale=ref.scale,
                seed=ref.seed,
                cache_dir=ref.cache_dir,
                use_cache=ref.use_cache,
            )
            register_workload(ref, workload)
    return workload


def network_hash_for(ref: WorkloadRef) -> str:
    """Fingerprint of the converted network behind a workload reference."""
    with _REGISTRY_LOCK:
        cached = _NETWORK_HASHES.get(ref)
        if cached is None:
            cached = network_fingerprint(workload_for(ref))
            _NETWORK_HASHES[ref] = cached
            while len(_NETWORK_HASHES) > 4 * WORKLOAD_REGISTRY_LIMIT:
                del _NETWORK_HASHES[next(iter(_NETWORK_HASHES))]
    return cached


def execute_cell(plan: CellPlan) -> EvaluationResult:
    """Evaluate one plan in the current process (the executor work item).

    Module-level (hence picklable by reference) so the process backend can
    ship it; failures are re-raised as :class:`CellEvaluationError` carrying
    the cell identity, which survives the trip back through the pool.  The
    plan evaluates itself (:meth:`~repro.execution.plan.CellPlan.evaluate`),
    which keeps the engine -- executors, store, retries, sharding --
    agnostic of what a cell computes.
    """
    try:
        result = plan.evaluate(workload_for(plan.workload))
    except CellEvaluationError:
        raise
    except Exception as error:
        raise CellEvaluationError(
            plan.dataset, plan.method_label, plan.noise_kind, float(plan.level),
            f"{type(error).__name__}: {error}", traceback.format_exc(),
        ) from error
    logger.info(
        "%s | %s %s=%.2f -> acc=%.3f spikes/sample=%.0f",
        plan.dataset, plan.method_label, plan.noise_kind, plan.level,
        result.accuracy, result.spikes_per_sample,
    )
    return result


#: First retry delay in seconds; doubles per attempt up to the cap.
RETRY_BACKOFF_BASE = 0.1
RETRY_BACKOFF_CAP = 5.0


def evaluate_cell_tolerant(
    plan: CellPlan, retries: int = 0
) -> Union[EvaluationResult, CellFailure]:
    """Fault-tolerant work item: retry with capped exponential backoff.

    Transient failures are retried up to ``retries`` times, the first after
    :data:`RETRY_BACKOFF_BASE` seconds; a cell that exhausts the budget
    returns a :class:`CellFailure` instead of raising, so one bad cell
    degrades the sweep to an explicit hole rather than aborting the whole
    run.  Module-level and configured via :func:`functools.partial`, hence
    picklable for the process backend.
    """
    attempts = max(int(retries), 0) + 1
    delay = RETRY_BACKOFF_BASE
    last: Optional[CellEvaluationError] = None
    for attempt in range(1, attempts + 1):
        try:
            return execute_cell(plan)
        except CellEvaluationError as error:
            last = error
            if attempt < attempts:
                sleep = min(delay, RETRY_BACKOFF_CAP)
                logger.warning(
                    "cell %s failed (attempt %d/%d), retrying in %.2gs: %s",
                    plan.cell_id(), attempt, attempts, sleep, error.cause,
                )
                time.sleep(sleep)
                delay *= 2
    return CellFailure(
        dataset=last.dataset,
        method=last.method,
        noise_kind=last.noise_kind,
        level=last.level,
        message=last.cause,
        remote_traceback=last.remote_traceback,
        attempts=attempts,
    )


def _auto_shard_count(backend: Executor, pending: int) -> int:
    """Pick a shards-per-cell count for a dispatch, when not set explicitly.

    Sharding pays off exactly when the dispatch cannot fill the pool:
    ``pending`` cells on ``workers`` workers leaves ``workers - pending``
    of them idle, so each cell is split into ``ceil(workers / pending)``
    sample shards.  Off (1) on the serial backend, on one-worker pools,
    and whenever there are at least as many cells as workers.
    """
    workers = int(getattr(backend, "max_workers", 1) or 1)
    if backend.name == "serial" or workers <= 1 or pending <= 0 or pending >= workers:
        return 1
    count = math.ceil(workers / pending)
    logger.info(
        "auto-shard: %d pending cell(s) on %d %s worker(s) -> "
        "%d sample shard(s) per cell",
        pending, workers, backend.name, count,
    )
    return count


@dataclass
class _PendingCell:
    """In-flight bookkeeping of one pending cell: 1..n shard plans.

    A whole cell is a one-shard cell whose only plan is the cell itself;
    ``fingerprint`` is the cell's (``None`` without a store) and
    ``shard_fingerprints`` are set only for a multi-shard cell with a
    store.
    """

    index: int
    plan: CellPlan
    shards: List[CellPlan]
    fingerprint: Optional[str] = None
    shard_fingerprints: Optional[List[str]] = None
    results: List[Optional[EvaluationResult]] = field(init=False)
    failed: bool = False

    def __post_init__(self) -> None:
        self.results = [None] * len(self.shards)

    @property
    def sharded(self) -> bool:
        return len(self.shards) > 1

    def merged(self) -> Optional[EvaluationResult]:
        """The cell result once every shard landed, else ``None``."""
        if any(result is None for result in self.results):
            return None
        if not self.sharded:
            return self.results[0]
        return merge_shard_results(self.results)


def evaluate_plans(
    plans: Sequence[CellPlan],
    executor: Union[str, Executor, None] = None,
    max_workers: Optional[int] = 1,
    store: Union[ResultStore, str, None, bool] = None,
    workloads: Optional[Dict[WorkloadRef, "PreparedWorkload"]] = None,
    retries: Optional[int] = 0,
    shards: Optional[int] = None,
) -> PlanEvaluation:
    """Evaluate a batch of plans through the executor + store machinery.

    Parameters
    ----------
    plans:
        The cells to evaluate; results come back in the same order.
    executor:
        Executor instance, backend name, or ``None`` to pick one from
        ``max_workers`` (see :func:`repro.execution.executors.resolve_executor`).
    max_workers:
        Worker count for the pooled backends.
    store:
        Result store (instance, directory path, or ``None`` / ``False``
        for off).  Cells whose fingerprint is already stored are served
        from disk without being evaluated; fresh results are persisted as
        they complete.
    workloads:
        Already prepared workloads for (some of) the plans' references,
        pinned for the duration of this call -- exact regardless of the
        bounded registry, so arbitrarily large batches never re-prepare
        workloads the caller is still holding.
    retries:
        Per-cell retry budget (``None`` = 0).  At 0 -- the default -- cell
        errors propagate.  Above 0, failing cells are retried with capped
        exponential backoff and a cell exhausting the budget comes back as
        a :class:`CellFailure` slot (counted in ``stats.failed_cells``)
        instead of aborting the batch.
    shards:
        Sample shards per pending cell (``None`` = the automatic
        heuristic: shard only when a pooled dispatch has fewer cells than
        workers; an explicit count must be >= 1, and 1 turns sharding off).
        Sharded cells evaluate their batch-aligned sample ranges as
        independent work items -- per-batch noise streams are keyed by
        absolute sample offsets, so the merged result is bit-identical to
        the unsharded evaluation at any shard count and on any executor.
        With a store, each shard is persisted as it completes and an
        interrupted run resumes at shard granularity; once a cell merges,
        its shard documents are garbage-collected.  Fault tolerance
        degrades per shard: a shard exhausting its retry budget records a
        hole for its whole cell, but sibling shards that finished are still
        persisted for resume.
    """
    plans = list(plans)
    retries = max(int(retries or 0), 0)
    if shards is not None and int(shards) < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    backend = resolve_executor(executor, max_workers)
    # Close a backend resolved here (the caller cannot reuse it); leave a
    # caller-provided instance warm for its next dispatch.
    owns_backend = not isinstance(executor, Executor)
    result_store = resolve_store(store)
    stats = ExecutionStats(executor=backend.name, total_cells=len(plans))
    results: List[Optional[EvaluationResult]] = [None] * len(plans)

    pinned = dict(workloads or {})
    _BATCH_WORKLOADS.update(pinned)
    try:
        pending: List[Tuple[int, Optional[str]]] = []
        for index, plan in enumerate(plans):
            fingerprint = None
            if result_store is not None:
                fingerprint = plan.fingerprint(network_hash_for(plan.workload))
                cached = result_store.get(fingerprint)
                if cached is not None:
                    results[index] = cached
                    stats.store_hits += 1
                    continue
            pending.append((index, fingerprint))
        if stats.store_hits:
            logger.info(
                "result store: %d/%d cells served from %s",
                stats.store_hits, len(plans), result_store.root,
            )

        shard_count = (
            int(shards) if shards is not None
            else _auto_shard_count(backend, len(pending))
        )
        # Every pending cell is a list of 1..n shard plans; the work items
        # are the shards not yet stored, and ``work_targets`` maps each back
        # to its (cell, shard slot).  Fault tolerance wraps whatever the
        # work item is, so a sharded cell retries and fails per shard.
        work_plans: List[CellPlan] = []
        work_targets: List[Tuple[_PendingCell, int]] = []
        for index, fingerprint in pending:
            plan = plans[index]
            cell = _PendingCell(index, plan, plan.shards(shard_count), fingerprint)
            if cell.sharded:
                stats.sharded_cells += 1
                if fingerprint is not None:
                    total = plan.effective_eval_size()
                    cell.shard_fingerprints = [
                        shard_fingerprint(fingerprint, *shard.sample_range(), total)
                        for shard in cell.shards
                    ]
                    # Resume at shard granularity: shards persisted by an
                    # interrupted earlier run are served from disk.
                    for slot, key in enumerate(cell.shard_fingerprints):
                        cell.results[slot] = result_store.get_shard(fingerprint, key)
                        stats.shard_store_hits += cell.results[slot] is not None
            merged = cell.merged()
            if merged is not None:
                # Every shard was already stored: a store hit assembled
                # from shard documents.
                results[index] = merged
                stats.store_hits += 1
                stats.store_writes += _persist(result_store, cell, merged)
                continue
            for slot, shard in enumerate(cell.shards):
                if cell.results[slot] is None:
                    work_plans.append(shard)
                    work_targets.append((cell, slot))

        # Completion order, not submission order: each finished shard (and
        # each cell it completes) is persisted the moment it exists, so a
        # run killed while a slow item is in flight never loses faster
        # items that already finished.
        work = partial(evaluate_cell_tolerant, retries=retries) if retries else execute_cell
        for position, result in backend.map_unordered(work, work_plans):
            cell, slot = work_targets[position]
            if isinstance(result, CellFailure):
                # The first failing shard takes the whole cell's slot;
                # siblings still run (and persist, for resume) but the cell
                # renders as one hole.
                if not cell.failed:
                    cell.failed = True
                    stats.failed_cells += 1
                    results[cell.index] = result
                    logger.warning(
                        "%s failed after %d attempt(s); recording a hole for "
                        "the cell: %s", cell.shards[slot].cell_id(),
                        result.attempts, result.message,
                    )
                continue
            cell.results[slot] = result
            if cell.sharded:
                stats.evaluated_shards += 1
                stats.store_writes += _persist(result_store, cell, result, slot)
            merged = None if cell.failed else cell.merged()
            if merged is not None:
                results[cell.index] = merged
                stats.evaluated_cells += 1
                stats.store_writes += _persist(result_store, cell, merged)
    finally:
        for ref in pinned:
            _BATCH_WORKLOADS.pop(ref, None)
        if owns_backend:
            backend.close()
    return PlanEvaluation(results=list(results), stats=stats)


def _persist(
    result_store: Optional[ResultStore],
    cell: _PendingCell,
    result: EvaluationResult,
    slot: Optional[int] = None,
) -> int:
    """Persist one shard (``slot``) or the whole cell; 1 when written.

    A merged multi-shard cell then deletes its shard documents.  The store
    is an accelerator, never a correctness dependency: a full disk or
    read-only mount degrades to a warning and must not abort a sweep whose
    results already exist in memory (the read path likewise degrades
    unreadable documents to misses).  A cell write that fails keeps its
    shard documents, so the next run still resumes from them.
    """
    if result_store is None:
        return 0
    plan = cell.plan if slot is None else cell.shards[slot]
    try:
        if slot is None:
            result_store.put(cell.fingerprint, result, plan.describe())
        else:
            result_store.put_shard(
                cell.fingerprint, cell.shard_fingerprints[slot], result,
                dict(plan.describe(), shard=list(plan.sample_range())),
            )
    except OSError as error:
        logger.warning(
            "result store write failed for %s (%s); continuing without "
            "persisting it", plan.cell_id(), error,
        )
        return 0
    if slot is None and cell.sharded:
        result_store.delete_shards(cell.fingerprint)
    return 1
