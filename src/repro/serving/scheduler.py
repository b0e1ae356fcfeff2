"""Work-conserving micro-batching scheduler over the warm executor tier.

Concurrent single-sample :meth:`MicroBatchScheduler.submit` calls are
served by a fixed number of workers on a warm
:class:`~repro.execution.executors.ThreadExecutor` pool (the numpy
encode/GEMM hot paths release the GIL), and batches form only while
every worker is busy (pull batching):

* **on submit**, if a worker is idle the request is dispatched at once as
  a batch of one -- no timer, no waiting for company;
* **while every worker is busy**, requests pile up in one queue per
  ``(model fingerprint, RequestSpec, sample shape)`` -- so every batch is
  homogeneous in model, evaluator, temporal protocol and input shape, and
  a malformed sample fails only the batch of its own shape;
* **when a worker finishes a batch**, it takes up to ``max_batch``
  requests from the queue whose first request is oldest, and marks itself
  idle only once every queue is empty.  An emptied queue is dropped.

Each batch is evaluated via :func:`~repro.serving.inference.serve_batch`
and its per-sample results are demultiplexed back onto each request's
future.  A request therefore waits only while it would have waited anyway,
and the batch cap (``max_batch=8``) bounds how much one dispatch takes
under load.  Because serving is clean deterministic inference at fixed
compute lanes (see :mod:`repro.serving.inference`), batching is invisible
in the results -- a coalesced request returns exactly the bits a solo
evaluation would.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.execution.executors import ThreadExecutor
from repro.serving.inference import RequestSpec, ServeResult, serve_batch
from repro.serving.registry import ModelRegistry


@dataclass
class SchedulerStats:
    """Counters of one scheduler instance."""

    requests: int = 0
    batches: int = 0
    batched_samples: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average samples per dispatched batch (1.0 = no coalescing)."""
        if self.batches == 0:
            return 0.0
        return self.batched_samples / self.batches


class _Queue:
    """Requests of one (model fingerprint, spec, sample shape), in arrival order.

    Each item is ``(ticket, sample, future)``; tickets increase with
    arrival, so the queue whose head has the smallest ticket is the one
    whose first request is oldest.
    """

    __slots__ = ("key", "spec", "items")

    def __init__(self, key: str, spec: RequestSpec, items=None):
        self.key = key
        self.spec = spec
        self.items: List[Tuple[int, np.ndarray, Future]] = items or []


class MicroBatchScheduler:
    """Serve single-sample submissions, batching them while workers are busy.

    Parameters
    ----------
    registry:
        The :class:`~repro.serving.registry.ModelRegistry` models are
        resolved from at dispatch time.
    max_batch:
        Samples per batch cap (default 8).
        ``max_batch=1`` disables coalescing -- the sequential-singles
        baseline of the serving benchmark.
    max_workers:
        Worker count of the scheduler's own warm thread tier (0 = one per
        CPU, the default).
    """

    def __init__(
        self,
        registry: ModelRegistry,
        max_batch: int = 8,
        max_workers: Optional[int] = 0,
    ):
        if int(max_batch) < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.registry = registry
        self.max_batch = int(max_batch)
        self._executor = ThreadExecutor(max_workers)
        self.max_workers = self._executor.max_workers
        self.stats = SchedulerStats()
        self._lock = threading.Lock()
        self._queues: Dict[Tuple[str, RequestSpec, Tuple[int, ...]], _Queue] = {}
        self._tickets = itertools.count()
        self._idle = self.max_workers
        self._closed = False

    # -- submission ----------------------------------------------------------------
    def submit(
        self,
        key: str,
        sample: np.ndarray,
        spec: Optional[RequestSpec] = None,
        evaluator: str = "transport",
        **spec_kwargs,
    ) -> "Future[ServeResult]":
        """Submit one sample; returns a future resolving to its result.

        ``spec`` pins the batch-compatibility axes explicitly; without one,
        a spec is built from ``evaluator`` plus any :meth:`RequestSpec.create`
        keywords (``coding``, ``num_steps``, ...).  The model fingerprint
        must be known to the registry (see
        :meth:`~repro.serving.registry.ModelRegistry.register`).
        """
        if spec is None:
            spec = RequestSpec.create(evaluator=evaluator, **spec_kwargs)
        sample = np.asarray(sample, dtype=np.float32)
        future: "Future[ServeResult]" = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            self.stats.requests += 1
            item = (next(self._tickets), sample, future)
            if self._idle:
                # An idle worker means every queue is empty: run this one now.
                self._idle -= 1
                self._executor.submit(self._work, self._count(_Queue(key, spec, [item])))
            else:
                queue_key = (key, spec, sample.shape)
                queue = self._queues.get(queue_key)
                if queue is None:
                    queue = self._queues[queue_key] = _Queue(key, spec)
                queue.items.append(item)
        return future

    # -- workers -------------------------------------------------------------------
    def _count(self, batch: _Queue) -> _Queue:
        """Record one dispatched batch (caller holds the lock)."""
        self.stats.batches += 1
        self.stats.batched_samples += len(batch.items)
        return batch

    def _next_batch(self) -> Optional[_Queue]:
        """Up to ``max_batch`` requests of the oldest queue, or ``None``
        after marking the calling worker idle when every queue is empty."""
        with self._lock:
            if not self._queues:
                self._idle += 1
                return None
            queue_key, queue = min(
                self._queues.items(), key=lambda entry: entry[1].items[0][0]
            )
            batch = _Queue(queue.key, queue.spec, queue.items[: self.max_batch])
            queue.items = queue.items[self.max_batch:]
            if not queue.items:
                del self._queues[queue_key]
            return self._count(batch)

    def _work(self, batch: _Queue) -> None:
        """One worker: run batches until every queue is empty."""
        while batch is not None:
            self._run_batch(batch)
            batch = self._next_batch()

    def _run_batch(self, batch: _Queue) -> None:
        """Evaluate one batch and demultiplex results onto the futures.

        Never raises: an error is delivered on every unresolved future of
        the batch, so the worker always goes on to the next one.  Futures
        cancelled while queued are left out.
        """
        items = [
            (sample, future) for _, sample, future in batch.items
            if future.set_running_or_notify_cancel()
        ]
        if not items:
            return
        try:
            servable = self.registry.get(batch.key)
            stacked = np.stack([sample for sample, _ in items])
            results = serve_batch(servable, batch.spec, stacked)
            for (_, future), result in zip(items, results):
                future.set_result(result)
        except BaseException as error:  # noqa: BLE001 - delivered per future
            for _, future in items:
                if not future.done():
                    future.set_exception(error)

    # -- lifecycle -----------------------------------------------------------------
    def close(self) -> None:
        """Refuse new work, let the workers empty the queues, shut the tier down."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        # Every busy worker is a running pool task that only returns once
        # the queues are empty, so shutting the pool down waits for them.
        self._executor.close()

    def __enter__(self) -> "MicroBatchScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MicroBatchScheduler(max_batch={self.max_batch}, "
            f"max_workers={self.max_workers}, "
            f"stats={self.stats})"
        )
