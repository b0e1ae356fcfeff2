"""Pluggable executor backends for sweep-cell evaluation.

An :class:`Executor` maps a picklable function over a sequence of items and
yields the results *in submission order*.  Three backends are provided:

* :class:`SerialExecutor`  -- plain in-process loop (the reference),
* :class:`ThreadExecutor`  -- thread pool; the numpy hot paths release the
  GIL, so this scales on multi-core machines without pickling anything,
* :class:`ProcessExecutor` -- process pool; sidesteps the GIL entirely and
  shards cells (and whole datasets, for tables) across worker processes.
  Requires the mapped function and items to be picklable, which is exactly
  what :class:`repro.execution.plan.EvaluationPlan` guarantees.

Because every sweep cell derives its RNG stream from the plan alone, all
three backends produce bit-identical results; the choice is purely a
throughput/latency decision.  Select one explicitly with the ``--executor``
CLI flag or the ``executor=`` argument of
:func:`repro.experiments.runner.run_sweeps`.

The pooled backends keep their worker pool **warm** across dispatches, so
one executor instance reused over the many ``evaluate_plans`` /
``run_sweeps`` calls of a figure or table run pays the fork/startup tax
once; call :meth:`Executor.close` (or use the executor as a context
manager) to release the workers.
"""

from __future__ import annotations

import os
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
    wait,
)
from typing import Callable, Iterator, Optional, Sequence, Tuple, TypeVar, Union

from repro.utils.logging import get_logger

T = TypeVar("T")
R = TypeVar("R")

logger = get_logger("execution.executors")

#: Names accepted by :func:`resolve_executor`.
EXECUTOR_NAMES = ("serial", "thread", "process")


def resolve_worker_count(max_workers: Optional[int] = 1) -> int:
    """Resolve a worker count for the pooled executors.

    ``None`` means 1 (serial); 0 or a negative value means "one worker per
    CPU".  Explicit values are honoured as given -- note that the sweep is
    CPU-bound numpy, so more workers than physical cores oversubscribes and
    can *slow the sweep down*; prefer 0 over guessing a count.
    """
    max_workers = 1 if max_workers is None else int(max_workers)
    if max_workers <= 0:
        max_workers = os.cpu_count() or 1
    return max_workers


class Executor:
    """Protocol for sweep executors: map with bounded parallelism.

    The engine consumes :meth:`map_unordered`.  The serial backend provides
    an in-order ``map``, which the default ``map_unordered`` wraps; the
    pooled backends provide completion-ordered ``map_unordered`` directly.

    Executors are reusable across dispatches: the pooled backends keep their
    worker pool warm between ``map``/``map_unordered`` calls (amortising the
    per-sweep fork/startup tax across the many sweeps of a figure or table
    run) until :meth:`close` is called -- use the executor as a context
    manager, or rely on interpreter shutdown for one-shot scripts.
    """

    #: Backend name ("serial", "thread", "process").
    name: str = "abstract"

    def close(self) -> None:
        """Release pooled resources; the executor stays usable afterwards
        (the next dispatch simply starts a fresh pool)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def map_unordered(
        self, fn: Callable[[T], R], items: Sequence[T]
    ) -> Iterator[Tuple[int, R]]:
        """Yield ``(index, fn(item))`` pairs *as items complete*.

        This is the API the engine consumes: results are handed back the
        moment they exist (not head-of-line blocked behind slower items), so
        every finished cell can be persisted to the result store immediately
        and an interrupted run never loses completed work.  The default
        wraps a subclass's in-order ``map``; the pooled backends override it
        with true completion order.
        """
        for index, result in enumerate(self.map(fn, items)):
            yield index, result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialExecutor(Executor):
    """Evaluate cells one after the other in the calling thread."""

    name = "serial"

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
        for item in items:
            yield fn(item)


class _PoolExecutor(Executor):
    """Shared submit/collect logic of the thread and process backends.

    The pool is created lazily on the first dispatch and then kept **warm**
    across ``map``/``map_unordered`` calls: repeated ``evaluate_plans`` /
    ``run_sweeps`` batches on one executor instance pay the pool
    startup/fork tax once, not per sweep.  :meth:`close` (or the context
    manager) shuts the pool down; the next dispatch starts a fresh one.
    """

    #: Broken-pool recovery budget: how many times one dispatch may respawn
    #: its pool (a worker killed mid-cell breaks the whole stdlib pool)
    #: before giving up and propagating the break.
    max_pool_respawns = 3

    def __init__(self, max_workers: Optional[int] = 1):
        self.max_workers = resolve_worker_count(max_workers)
        self._pool = None

    def _make_pool(self, workers: int):
        raise NotImplementedError

    def _warm_pool(self):
        """The live worker pool, created on first use with ``max_workers``
        workers (both stdlib pools spawn workers on demand, so a small
        dispatch on a wide pool does not fork idle processes)."""
        if self._pool is None:
            self._pool = self._make_pool(self.max_workers)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def submit(self, fn: Callable[..., R], *args, **kwargs) -> "Future[R]":
        """Submit one call onto the warm pool and return its future.

        A pool broken by an earlier dispatch (killed worker) is discarded
        and respawned before submitting, so a long-lived serving scheduler
        keeps accepting work across worker crashes -- the same recovery
        contract :meth:`map_unordered` gives sweeps.
        """
        pool = self._warm_pool()
        if getattr(pool, "_broken", False):
            self.close()
            pool = self._warm_pool()
        try:
            return pool.submit(fn, *args, **kwargs)
        except (BrokenExecutor, RuntimeError):
            # Broke (or shut down under us) between the check and the
            # submit: respawn once and retry; a second failure propagates.
            self.close()
            return self._warm_pool().submit(fn, *args, **kwargs)

    def map_unordered(
        self, fn: Callable[[T], R], items: Sequence[T]
    ) -> Iterator[Tuple[int, R]]:
        items = list(items)
        if not items:
            return
        if self.max_workers <= 1 and self.name == "thread":
            # A one-thread pool is pure overhead; degrade to the serial path.
            yield from SerialExecutor().map_unordered(fn, items)
            return
        # A killed worker breaks the whole stdlib pool (every in-flight and
        # queued future errors with BrokenExecutor).  Recovery: salvage the
        # results that completed before the break, respawn the pool, and
        # resubmit only the unfinished items -- results already yielded (and
        # hence persisted by the engine) are never re-run.
        remaining = dict(enumerate(items))
        respawns = 0
        while remaining:
            pool = self._warm_pool()
            indices = {}
            broken: Optional[BaseException] = None
            try:
                for index, item in remaining.items():
                    indices[pool.submit(fn, item)] = index
                for future in as_completed(indices):
                    index = indices[future]
                    try:
                        result = future.result()
                    except BrokenExecutor as error:
                        broken = error
                        break
                    del remaining[index]
                    yield index, result
            finally:
                # Abandon queued work on error/interrupt so the generator's
                # close does not block behind cells nobody will consume, but
                # wait for cells already *running*: callers must be free to
                # e.g. delete a result store the moment an error surfaces
                # without racing late writes from in-flight workers.  The
                # pool itself stays warm for the next dispatch -- unless it
                # is *broken*, in which case it cannot serve further work
                # and is discarded.
                for future in indices:
                    future.cancel()
                wait(indices)
                if broken is not None or getattr(pool, "_broken", False):
                    self.close()
            if broken is None:
                return
            # Salvage cells that finished before the pool broke but had not
            # been handed back by as_completed yet.
            for future, index in indices.items():
                if index not in remaining or not future.done() or future.cancelled():
                    continue
                try:
                    result = future.result()
                except BaseException:  # noqa: BLE001 - resubmitted below
                    continue
                del remaining[index]
                yield index, result
            respawns += 1
            if respawns > self.max_pool_respawns:
                raise broken
            logger.warning(
                "%s pool broke (%s); respawn %d/%d, requeueing %d "
                "unfinished item(s)", self.name, broken, respawns,
                self.max_pool_respawns, len(remaining),
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(max_workers={self.max_workers})"


class ThreadExecutor(_PoolExecutor):
    """Evaluate cells on a thread pool (today's PR-1 behaviour, extracted).

    The numpy encode/noise/GEMM hot paths release the GIL, so threads scale
    on real cores while sharing the prepared workloads without any
    serialisation cost.
    """

    name = "thread"

    def _make_pool(self, workers: int):
        return ThreadPoolExecutor(max_workers=workers)


class ProcessExecutor(_PoolExecutor):
    """Evaluate cells on a process pool.

    Workers rebuild (or, on fork-based platforms, inherit) the prepared
    workloads from the plans' workload references, memoised per process --
    see :mod:`repro.execution.engine`.  Results are bit-identical to the
    serial path because every cell's RNG derives from its plan alone.
    """

    name = "process"

    def _make_pool(self, workers: int):
        return ProcessPoolExecutor(max_workers=workers)


def resolve_executor(
    executor: Union[str, Executor, None] = None,
    max_workers: Optional[int] = 1,
) -> Executor:
    """Resolve an executor selection into a backend instance.

    Parameters
    ----------
    executor:
        A ready :class:`Executor` (returned unchanged), a backend name
        ("serial", "thread", "process"), or ``None`` to let the worker
        count decide: >1 workers selects the thread backend, otherwise
        serial.
    max_workers:
        Worker count for the pooled backends; see
        :func:`resolve_worker_count` for the ``None``/0 conventions.
    """
    if isinstance(executor, Executor):
        return executor
    if executor is None:
        return (
            ThreadExecutor(max_workers)
            if resolve_worker_count(max_workers) > 1
            else SerialExecutor()
        )
    name = str(executor).strip().lower()
    if name == "serial":
        return SerialExecutor()
    if name == "thread":
        return ThreadExecutor(max_workers)
    if name == "process":
        return ProcessExecutor(max_workers)
    raise ValueError(
        f"unknown executor {executor!r}; choose from {EXECUTOR_NAMES}"
    )
