"""Span recorder and per-layer wrappers, installed from outside the program.

The benchmark never edits ``src/``.  :func:`install` wraps the public calls
of each layer (coders, noise, analog segments, simulators, engine, store,
serving) in place -- on every class that defines the method and in every
``repro`` module that imported the function by name -- so the program runs
its normal code paths while spans are recorded around them.

A span holds its name, start, end, parent span and process.  Spans nest
(a coder's ``decode`` may call the base ``decode``), so every reported
number is a *self* time: the span's duration minus the time covered by its
direct children.  Work done to count spikes is recorded as a ``trace.count``
child, which keeps it out of every layer's self time.

Recording is switched on and off per pass through one byte of a shared
file mapping, so pool workers forked after :func:`install` follow the parent.  A worker
appends its spans to ``<spill_dir>/worker-<pid>.jsonl`` after each cell, and
the parent reads those files back at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import mmap
import os
import pkgutil
import sys
import threading
from time import perf_counter, sleep
from typing import Callable, Dict, List, Optional

#: Span tuple layout: (pid, span id, parent id, name, start, end, self_s, tag).
PID, SID, PARENT, NAME, START, END, SELF, TAG = range(8)


class SpanRecorder:
    """In-memory span and counter store of one process (plus spilled workers)."""

    def __init__(self, work_dir: str):
        self.spill_dir = os.path.join(work_dir, "spill")
        self.owner_pid = os.getpid()
        # One shared byte, mapped from a file of the run's own directory.
        with open(os.path.join(work_dir, "trace.flag"), "wb+") as handle:
            handle.write(b"\0")
            handle.flush()
            self._active = mmap.mmap(handle.fileno(), 1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = {}
        # A forked worker starts empty: spans recorded in the parent before
        # the fork are the parent's to report.
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        self._lock = threading.Lock()
        self.spans = []
        self.counters = {}

    # -- switching ------------------------------------------------------------
    @property
    def active(self) -> bool:
        return bool(self._active[0])

    def set_active(self, value: bool) -> None:
        self._active[0] = 1 if value else 0

    def clear(self) -> None:
        with self._lock:
            self.spans = []
            self.counters = {}

    # -- recording ------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def emit(self, name, start, end, self_s=None, parent=None, tag=None) -> int:
        """Record a finished span; returns its id."""
        sid = self._new_id()
        record = (
            os.getpid(), sid, parent, name, start, end,
            end - start if self_s is None else self_s, tag,
        )
        with self._lock:
            self.spans.append(record)
        return sid

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each active call records a span called ``name``.

        ``count(recorder, args, result)`` runs after the span closes, inside
        a ``trace.count`` span charged to nobody's self time.  ``after`` runs
        last with ``(recorder, span id, start, end, args)``.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder._active[0]:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            frame = [recorder._new_id(), 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                record = (
                    os.getpid(), frame[0], parent[0] if parent else None, name,
                    start, end, duration - frame[1], None,
                )
                with recorder._lock:
                    recorder.spans.append(record)
            if count is not None:
                count_start = perf_counter()
                count(recorder, args, result)
                count_end = perf_counter()
                if parent is not None:
                    parent[1] += count_end - count_start
                recorder.emit(
                    "trace.count", count_start, count_end,
                    parent=parent[0] if parent else None,
                )
            if after is not None:
                after(recorder, frame[0], start, end, args)
            return result

        return wrapper

    # -- worker spill -----------------------------------------------------------
    def spill(self) -> None:
        """Append this worker's spans and counters to its spill file."""
        with self._lock:
            spans, counters = self.spans, self.counters
            self.spans, self.counters = [], {}
        if not spans and not counters:
            return
        os.makedirs(self.spill_dir, exist_ok=True)
        path = os.path.join(self.spill_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"spans": spans, "counters": counters}) + "\n")

    def collect_workers(self) -> int:
        """Merge every spill file into this recorder; returns files read."""
        if not os.path.isdir(self.spill_dir):
            return 0
        files = 0
        for name in sorted(os.listdir(self.spill_dir)):
            if not name.startswith("worker-"):
                continue
            path = os.path.join(self.spill_dir, name)
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    chunk = json.loads(line)
                    self.spans.extend(tuple(span) for span in chunk["spans"])
                    for key, value in chunk["counters"].items():
                        self.add(key, value)
            os.remove(path)
            files += 1
        return files

    def write(self, path: str) -> None:
        """Write every span as one JSON line (name, start, end, parent, ...)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(
                    ("pid", "id", "parent", "name", "start", "end", "self_s", "tag"),
                    span,
                ))) + "\n")


# -- installation -----------------------------------------------------------------
def _import_all() -> None:
    """Import every ``repro`` module so name-imported copies can be patched."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _patch_function(module: str, attr: str, wrapper_for: Callable) -> None:
    original = getattr(importlib.import_module(module), attr)
    wrapped = wrapper_for(original)
    for loaded in list(sys.modules.values()):
        if not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapped)


def _subclasses(cls) -> list:
    """``cls`` and its subclasses defined by the program (not the harness)."""
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in seen and current.__module__.startswith("repro"):
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


def _patch_method(module: str, cls_name: str, method: str, wrapper_for: Callable) -> None:
    base = getattr(importlib.import_module(module), cls_name)
    for cls in _subclasses(base):
        if method in vars(cls):
            setattr(cls, method, wrapper_for(vars(cls)[method]))


def _train_spikes(train) -> int:
    return int(train.total_spikes())


def install(recorder: SpanRecorder, slow: Optional[str] = None) -> None:
    """Wrap every layer boundary the per-layer report reads.

    ``slow`` names one span (for example ``"noise.apply"``) whose calls are
    made twice as slow by sleeping for the call's own duration after it --
    the harness-side delay of the mapping self-check.  It applies whether
    or not recording is active.
    """
    _import_all()

    def count_encode(rec, args, result):
        rec.add("coding.spikes", _train_spikes(result))

    def count_noise(rec, args, result):
        rec.add("noise.spikes_in", _train_spikes(args[1]))
        rec.add("noise.spikes_out", _train_spikes(result))

    def count_advance(rec, args, result):
        rec.add("snn.spikes", int(result.sum(dtype="int64")))

    def count_hit(rec, args, result):
        rec.add("store.hits", result is not None)

    def spill_after_cell(rec, sid, start, end, args):
        if os.getpid() != rec.owner_pid:
            rec.spill()

    def make(name, count=None, after=None):
        def wrapper_for(fn):
            wrapped = recorder.wrap(name, fn, count=count, after=after)
            if slow != name:
                return wrapped
            return _slowed(wrapped)
        return wrapper_for

    _patch_function("repro.experiments.workloads", "prepare_workload", make("workloads.prepare"))
    _patch_function("repro.conversion.converter", "convert_dnn_to_snn", make("conversion.convert"))
    _patch_method("repro.coding.base", "NeuralCoder", "encode", make("coding.encode", count_encode))
    _patch_method("repro.coding.base", "NeuralCoder", "decode", make("coding.decode"))
    _patch_method("repro.noise.injector", "NoiseInjector", "apply", make("noise.apply", count_noise))
    _patch_method("repro.conversion.converter", "NetworkSegment", "forward", make("analog.forward"))
    _patch_method("repro.core.transport", "ActivationTransportSimulator", "forward", make("transport.forward"))
    _patch_method("repro.core.timestep", "_SegmentTransform", "__call__", make("snn.transform"))
    _patch_method("repro.snn.neurons", "SpikingNeuron", "advance", make("snn.advance", count_advance))
    _patch_method("repro.snn.simulator", "TimeSteppedSimulator", "run", make("snn.run"))
    _patch_function("repro.core.timestep", "build_time_stepped_simulator", make("timestep.build"))
    _patch_function("repro.execution.engine", "evaluate_plans", make("engine.evaluate"))
    _patch_function("repro.execution.engine", "execute_cell", make("engine.cell", after=spill_after_cell))
    _patch_method("repro.execution.store", "ResultStore", "get", make("store.get", count_hit))
    _patch_method("repro.execution.store", "ResultStore", "put", make("store.put"))
    _patch_function("repro.serving.inference", "serve_batch", make("inference.serve_batch", after=_note_batch))
    _patch_method("repro.serving.registry", "ModelRegistry", "get", make("registry.get"))
    _patch_dispatch_wall(recorder)


def _slowed(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def slowed(*args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        sleep(perf_counter() - start)
        return result

    return slowed


#: Last ``serve_batch`` span finished on this thread: (span id, seconds).
_LAST_BATCH = threading.local()


def _note_batch(rec, sid, start, end, args):
    batch = args[2]
    spec = args[1]
    rows = int(len(batch))
    lanes = int(spec.lanes)
    _LAST_BATCH.value = (sid, end - start)
    rec.add("inference.rows", rows)
    rec.add("inference.padded_rows", -(-rows // lanes) * lanes)


def last_batch():
    """The ``serve_batch`` span that just finished on this thread, if any.

    Future callbacks run on the thread that set the result, right after the
    batch returned, so a request's done-callback reads its own batch here.
    """
    return getattr(_LAST_BATCH, "value", None)


def _patch_dispatch_wall(recorder: SpanRecorder) -> None:
    """Time each ``Executor.map_unordered`` from first item to exhaustion.

    Recorded as a detached ``engine.dispatch`` interval (not on the span
    stack, since the generator is suspended while the engine persists
    results), tagged with the pool's worker count for the busy fraction.
    """
    from repro.execution.executors import Executor

    for cls in _subclasses(Executor):
        if "map_unordered" not in vars(cls):
            continue
        original = vars(cls)["map_unordered"]

        def wrapped(self, fn, items, _original=original):
            if not recorder.active:
                yield from _original(self, fn, items)
                return
            start = perf_counter()
            try:
                yield from _original(self, fn, items)
            finally:
                recorder.emit(
                    "engine.dispatch", start, perf_counter(),
                    tag=int(getattr(self, "max_workers", 1) or 1),
                )

        functools.update_wrapper(wrapped, original)
        setattr(cls, "map_unordered", wrapped)
