"""Async micro-batching scheduler over the warm executor tier.

Concurrent single-sample :meth:`MicroBatchScheduler.submit` calls coalesce
into batches before they touch an evaluator: requests land in one queue per
``(model fingerprint, RequestSpec)`` -- so every batch is homogeneous in
model, evaluator and temporal protocol -- and a queue flushes when it
reaches ``max_batch`` samples or when its oldest request has waited
``max_delay_ms``.  Flushed batches are dispatched onto the warm
:class:`~repro.execution.executors.ThreadExecutor` pool (the PR-4 worker
tier; the numpy encode/GEMM hot paths release the GIL), evaluated via
:func:`~repro.serving.inference.serve_batch`, and the per-sample results
are demultiplexed back onto each request's future.

The defaults are ``max_batch=8`` and ``max_delay_ms=2.0``: the batch cap
bounds tail latency under load, the deadline bounds latency when traffic
is sparse.  Because serving
is clean deterministic inference (see :mod:`repro.serving.inference`),
batching is invisible in the results -- a coalesced request returns exactly
the bits a solo evaluation would.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.execution.executors import Executor, ThreadExecutor
from repro.serving.inference import RequestSpec, ServeResult, serve_batch
from repro.serving.registry import ModelRegistry
from repro.utils.logging import get_logger

logger = get_logger("serving.scheduler")

@dataclass
class SchedulerStats:
    """Counters of one scheduler instance."""

    requests: int = 0
    batches: int = 0
    batched_samples: int = 0
    full_flushes: int = 0
    deadline_flushes: int = 0
    drain_flushes: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average samples per dispatched batch (1.0 = no coalescing)."""
        if self.batches == 0:
            return 0.0
        return self.batched_samples / self.batches

    def as_dict(self) -> Dict[str, float]:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "batched_samples": self.batched_samples,
            "full_flushes": self.full_flushes,
            "deadline_flushes": self.deadline_flushes,
            "drain_flushes": self.drain_flushes,
            "mean_batch_size": self.mean_batch_size,
        }


class _Queue:
    """Pending requests of one (model fingerprint, spec) pair."""

    __slots__ = ("key", "spec", "items", "deadline")

    def __init__(self, key: str, spec: RequestSpec):
        self.key = key
        self.spec = spec
        self.items: List[Tuple[np.ndarray, Future]] = []
        self.deadline: Optional[float] = None


class MicroBatchScheduler:
    """Coalesce concurrent single-sample submissions into homogeneous batches.

    Parameters
    ----------
    registry:
        The :class:`~repro.serving.registry.ModelRegistry` models are
        resolved from at dispatch time (keeping a hot model's LRU slot
        warm with every batch).
    max_batch:
        Samples per batch cap (default 8).
        ``max_batch=1`` disables coalescing -- the sequential-singles
        baseline of the serving benchmark.
    max_delay_ms:
        Deadline flush: the oldest request of a queue waits at most this
        long before its (possibly partial) batch dispatches (default 2.0).
    executor:
        Worker tier for batch evaluation; default a warm
        :class:`ThreadExecutor` owned (and closed) by the scheduler.
        Thread-based tiers share the resident artifacts zero-copy; a
        process tier would have to re-pickle models per batch.
    max_workers:
        Worker count when the scheduler builds its own executor
        (0 = one per CPU, the default).
    """

    def __init__(
        self,
        registry: ModelRegistry,
        max_batch: int = 8,
        max_delay_ms: float = 2.0,
        executor: Optional[Executor] = None,
        max_workers: Optional[int] = 0,
    ):
        if int(max_batch) < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if float(max_delay_ms) < 0:
            raise ValueError(f"max_delay_ms must be >= 0, got {max_delay_ms}")
        self.registry = registry
        self.max_batch = int(max_batch)
        self.max_delay = float(max_delay_ms) / 1000.0
        self._owns_executor = executor is None
        self._executor = executor or ThreadExecutor(max_workers)
        self.stats = SchedulerStats()
        self._cond = threading.Condition()
        self._queues: Dict[Tuple[str, RequestSpec], _Queue] = {}
        self._closed = False
        self._flusher = threading.Thread(
            target=self._flush_loop, name="serve-flusher", daemon=True
        )
        self._flusher.start()

    # -- submission ----------------------------------------------------------------
    def submit(
        self,
        key: str,
        sample: np.ndarray,
        spec: Optional[RequestSpec] = None,
        evaluator: str = "transport",
        **spec_kwargs,
    ) -> "Future[ServeResult]":
        """Enqueue one sample; returns a future resolving to its result.

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
        ready: Optional[_Queue] = None
        with self._cond:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            self.stats.requests += 1
            queue_key = (key, spec)
            queue = self._queues.get(queue_key)
            if queue is None:
                queue = self._queues[queue_key] = _Queue(key, spec)
            queue.items.append((sample, future))
            if len(queue.items) == 1:
                queue.deadline = time.monotonic() + self.max_delay
                self._cond.notify_all()
            if len(queue.items) >= self.max_batch:
                # Full batch: dispatch from the submitting thread instead of
                # waking the flusher -- one less context switch on the hot
                # path, and the deadline timer never fires for full batches.
                ready = self._take(queue)
                self.stats.full_flushes += 1
        if ready is not None:
            self._dispatch(ready)
        return future

    # -- flushing ------------------------------------------------------------------
    def _take(self, queue: _Queue) -> _Queue:
        """Detach a queue's pending items for dispatch (caller holds lock)."""
        taken = _Queue(queue.key, queue.spec)
        taken.items = queue.items[: self.max_batch]
        queue.items = queue.items[self.max_batch:]
        if queue.items:
            # Leftovers (burst larger than max_batch) restart the clock.
            queue.deadline = time.monotonic() + self.max_delay
        else:
            queue.deadline = None
        return taken

    def _flush_loop(self) -> None:
        """Deadline watcher: dispatch queues whose oldest request expired."""
        while True:
            batches: List[_Queue] = []
            with self._cond:
                if self._closed and not any(
                    q.items for q in self._queues.values()
                ):
                    return
                now = time.monotonic()
                deadlines = [
                    q.deadline for q in self._queues.values()
                    if q.items and q.deadline is not None
                ]
                if not deadlines:
                    self._cond.wait(timeout=0.5)
                    continue
                soonest = min(deadlines)
                if soonest > now:
                    self._cond.wait(timeout=soonest - now)
                    continue
                for queue in self._queues.values():
                    if queue.items and queue.deadline is not None \
                            and queue.deadline <= now:
                        batches.append(self._take(queue))
                        self.stats.deadline_flushes += 1
            for batch in batches:
                self._dispatch(batch)

    def _dispatch(self, batch: _Queue) -> None:
        """Hand one detached batch to the worker tier."""
        with self._cond:
            self.stats.batches += 1
            self.stats.batched_samples += len(batch.items)
        self._executor.submit(self._run_batch, batch)

    def _run_batch(self, batch: _Queue) -> None:
        """Evaluate one batch and demultiplex results onto the futures."""
        futures = [future for _, future in batch.items]
        try:
            servable = self.registry.get(batch.key)
            stacked = np.stack([sample for sample, _ in batch.items])
            results = serve_batch(servable, batch.spec, stacked)
            for future, result in zip(futures, results):
                future.set_result(result)
        except BaseException as error:  # noqa: BLE001 - delivered per future
            for future in futures:
                if not future.done():
                    future.set_exception(error)

    # -- lifecycle -----------------------------------------------------------------
    def drain(self) -> None:
        """Dispatch every pending queue immediately (partial batches too)."""
        batches: List[_Queue] = []
        with self._cond:
            for queue in self._queues.values():
                while queue.items:
                    batches.append(self._take(queue))
                    self.stats.drain_flushes += 1
            self._cond.notify_all()
        for batch in batches:
            self._dispatch(batch)

    def close(self) -> None:
        """Drain pending requests, stop the flusher, release owned workers."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self.drain()
        self._flusher.join(timeout=5.0)
        if self._owns_executor:
            self._executor.close()

    def __enter__(self) -> "MicroBatchScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MicroBatchScheduler(max_batch={self.max_batch}, "
            f"max_delay_ms={self.max_delay * 1000:.1f}, "
            f"stats={self.stats.as_dict()})"
        )
