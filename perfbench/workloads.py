"""The four benchmark workloads.

Each workload has a timed ``setup`` (repeated by the harness), a ``run_pass``
that does one fixed unit of work and returns a :class:`PassResult`, and a
``check`` that compares outputs with reference values.  Inputs come from the
workload seed only: a seeded choice of evaluation images out of the trained
workload's test split, the noise seeds, and for serving the request mix and
the Poisson arrivals.  Every pass of one run repeats the same inputs, so the
first pass is the reference the later ones must equal bit for bit.

Besides, every run evaluates a small fixed check input (chosen with
:data:`REFERENCE_SEED`, whatever the workload seed) through the same code
path and compares it with ``reference.json``, the outputs of the program
this benchmark was written against.  A change that breaks the program the
same way on every pass is caught there.

The repo's modules are reached through module attributes (never imported by
name) so the wrappers of :mod:`tracing` see every call.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import statistics
import threading
import time
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

import repro.coding.registry as coding_registry
import repro.core.transport as transport
import repro.execution.engine as engine
import repro.execution.executors as executors
import repro.execution.plan as plan_mod
import repro.execution.store as store_mod
import repro.experiments.config as config
import repro.experiments.figures as figures
import repro.experiments.tables as tables
import repro.experiments.workloads as workloads_mod
import repro.metrics.latency as latency_metrics
import repro.noise.injector as injector
import repro.serving.inference as inference
import repro.serving.registry as serving_registry
import repro.serving.scheduler as scheduler_mod
import tracing

SCALE = config.BENCH_SCALE
#: Seed of the trained networks; the workload seed varies everything else.
TRAIN_SEED = 0
NPROC = os.cpu_count() or 1

#: Committed outputs of the fixed check inputs (``run.py --write-reference``).
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
#: Seed that picks the check inputs and their noise.
REFERENCE_SEED = 0
#: Images per check cell.
REFERENCE_SIZE = 16
#: Tolerances of the reference check.  Noise draws may change with a
#: distribution-equal RNG backend (the deletion exception of the noise
#: layer), so a noisy cell's accuracy may move by a few samples while its
#: spike total (a sum over many draws) stays within 2%; a noise-free cell
#: may differ by one sample (float rounding at a decision boundary).
ACCURACY_TOL_NOISY = 0.3
ACCURACY_TOL_CLEAN = 1.0 / REFERENCE_SIZE
SPIKE_RTOL = 0.02
LOGIT_RTOL = 1e-4


@dataclasses.dataclass
class PassResult:
    """One pass: how much work, how long, and how long each unit took."""

    samples: int
    wall_s: float
    #: Seconds per unit the program returns: a cell's evaluation on the
    #: sweeps, one method's batch on the paper window, a request (from its
    #: due time) when serving.
    latencies: List[float]
    #: Comparable outputs of the pass, keyed by cell.
    outputs: Dict[str, dict]
    extra: Dict[str, object] = dataclasses.field(default_factory=dict)


class Checks:
    """Counts checked outputs and mismatches (every mismatch is a failure)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def compare(self, reference: Dict[str, dict], observed: Dict[str, dict], what: str) -> None:
        for key, expected in reference.items():
            self.attempted += 1
            got = observed.get(key)
            if got != expected:
                self.failed += 1
                if len(self.notes) < 10:
                    self.notes.append(f"{what}: {key}: expected {expected}, got {got}")

    def expect(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(note)

    def against_reference(self, workload: str, observed: Dict[str, dict]) -> None:
        """Compare check-input outputs with the committed reference values."""
        with open(REFERENCE_FILE, encoding="utf-8") as handle:
            reference = json.load(handle)["workloads"][workload]
        for key, expected in reference.items():
            got = observed.get(key)
            self.expect(
                got is not None and _matches(expected, got),
                f"reference {workload}: {key}: expected {expected}, got {got}",
            )


def _matches(expected: dict, got: dict) -> bool:
    """One check output against its reference, within the stated tolerances."""
    if "logits" in expected:
        want = np.asarray(expected["logits"], dtype=np.float64)
        have = np.asarray(got["logits"], dtype=np.float64)
        return (
            want.shape == have.shape
            and int(want.argmax()) == int(have.argmax())
            and bool(np.allclose(have, want, rtol=LOGIT_RTOL, atol=LOGIT_RTOL * np.abs(want).max()))
        )
    tolerance = ACCURACY_TOL_NOISY if expected["level"] else ACCURACY_TOL_CLEAN
    # Written as "not within" so that a NaN (a hole) never passes.
    if not abs(got["accuracy"] - expected["accuracy"]) <= tolerance + 1e-9:
        return False
    if expected["spikes"] is None:
        return got["spikes"] is None
    return abs(got["spikes"] - expected["spikes"]) <= SPIKE_RTOL * expected["spikes"]


def cell_output(level: float, accuracy: float, spikes) -> dict:
    return {
        "level": float(level),
        "accuracy": float(accuracy),
        "spikes": None if spikes is None else float(spikes),
    }


def load_workload(dataset: str, cache_dir: str):
    return workloads_mod.prepare_workload(
        dataset, scale=SCALE, seed=TRAIN_SEED, cache_dir=cache_dir
    )


def seeded_subset(workload, seed: int, size: int):
    """The workload with its test split cut to a seeded choice of images."""
    test = workload.data.test
    rng = np.random.default_rng([seed, len(test)])
    index = np.sort(rng.choice(len(test), size=size, replace=False))
    subset = dataclasses.replace(test, x=test.x[index], y=test.y[index])
    data = dataclasses.replace(workload.data, test=subset)
    return dataclasses.replace(workload, data=data)


class _TimedCall:
    """Picklable wrapper of a work function: returns ``(seconds, fn(item))``."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, item):
        start = perf_counter()
        result = self.fn(item)
        return perf_counter() - start, result


class TimedExecutor(executors.Executor):
    """Pass-through executor that times each work item where it runs."""

    def __init__(self, inner: executors.Executor):
        self.inner = inner
        self.name = inner.name
        self.max_workers = getattr(inner, "max_workers", 1)
        self.item_s: List[float] = []

    def map_unordered(self, fn, items):
        for index, (seconds, result) in self.inner.map_unordered(_TimedCall(fn), items):
            self.item_s.append(seconds)
            yield index, result


# -- sweep-transport -----------------------------------------------------------
class SweepTransport:
    """Table I + Table II on mnist and cifar10, transport evaluator, serial.

    A pass is one cold run of both tables into a fresh result store, then
    ``resume_repeats`` resume runs against that store.
    """

    name = "sweep-transport"
    min_passes = 2
    datasets = ("mnist", "cifar10")
    resume_repeats = 10

    def __init__(self, seed: int, work: str, cache: str):
        self.seed = seed
        self.work = work
        self.cache = cache

    def setup(self) -> None:
        self.workloads = {
            name: seeded_subset(load_workload(name, self.cache), self.seed, SCALE.eval_size)
            for name in self.datasets
        }

    def _tables(self, executor, store, workloads, seed, eval_size=None, levels=None):
        kwargs = dict(
            datasets=self.datasets, scale=SCALE, seed=seed, workloads=workloads,
            executor=executor, store=store, eval_size=eval_size,
        )
        if levels is None:
            return [tables.table1_deletion(**kwargs), tables.table2_jitter(**kwargs)]
        return [
            tables.table1_deletion(levels=levels[0], **kwargs),
            tables.table2_jitter(levels=levels[1], **kwargs),
        ]

    @staticmethod
    def _outputs(results) -> Dict[str, dict]:
        """Accuracy and spikes per sample of every cell of both tables."""
        outputs = {}
        for table in results:
            for row in table.rows:
                spikes = row.spike_counts or [None] * len(row.levels)
                for level, acc, sps in zip(row.levels, row.accuracies, spikes):
                    outputs[f"{table.name}|{row.dataset}|{row.method}|{level:g}"] = cell_output(level, acc, sps)
        return outputs

    def run_pass(self) -> PassResult:
        root = os.path.join(self.work, "store")
        shutil.rmtree(root, ignore_errors=True)
        store = store_mod.ResultStore(root)
        executor = TimedExecutor(executors.SerialExecutor())
        start = perf_counter()
        results = self._tables(executor, store, self.workloads, self.seed)
        wall = perf_counter() - start
        cold = self._outputs(results)
        resumes = []
        resumed = None
        for _ in range(self.resume_repeats):
            t0 = perf_counter()
            resumed = self._tables(executors.SerialExecutor(), store, self.workloads, self.seed)
            resumes.append(perf_counter() - t0)
        resumed = self._outputs(resumed)
        cells = len(cold)
        return PassResult(
            samples=cells * SCALE.eval_size,
            wall_s=wall,
            latencies=executor.item_s,
            outputs=cold,
            extra={
                "resume_s": statistics.median(resumes),
                "resumed": resumed,
                "cells": cells,
            },
        )

    def reference_outputs(self) -> Dict[str, dict]:
        """Table I at deletion 0 and 0.8 and Table II at jitter 2 on the check input."""
        workloads = {
            name: seeded_subset(load_workload(name, self.cache), REFERENCE_SEED, REFERENCE_SIZE)
            for name in self.datasets
        }
        results = self._tables(
            "serial", False, workloads, REFERENCE_SEED,
            eval_size=REFERENCE_SIZE, levels=((0.0, 0.8), (2.0,)),
        )
        return self._outputs(results)

    def check(self, passes: List[PassResult], checks: Checks) -> None:
        reference = passes[0].outputs
        for result in passes:
            checks.compare(reference, result.outputs, "repeat pass")
            checks.compare(result.outputs, result.extra["resumed"], "resume vs cold")
            for key, cell in result.outputs.items():
                spikes = cell["spikes"]
                checks.expect(
                    0.0 <= cell["accuracy"] <= 1.0 and (spikes is None or spikes > 0),
                    f"{key}: implausible output {cell}",
                )
        checks.against_reference(self.name, self.reference_outputs())

    def teardown(self) -> None:
        pass


# -- sweep-timestep ------------------------------------------------------------
class SweepTimestep:
    """Fig. 2 deletion on cifar10 with the faithful simulator, process pool."""

    name = "sweep-timestep"
    min_passes = 2
    methods = ("Rate", "Phase", "TTFS")

    def __init__(self, seed: int, work: str, cache: str):
        self.seed = seed
        self.work = work
        self.cache = cache
        self.executor: Optional[executors.Executor] = None

    def setup(self) -> None:
        self.workload = seeded_subset(load_workload("cifar10", self.cache), self.seed, SCALE.eval_size)
        ref = plan_mod.WorkloadRef(dataset="cifar10", scale=SCALE, seed=TRAIN_SEED)
        # Registered before the pool forks, so the workers inherit it.
        engine.register_workload(ref, self.workload)
        self.executor = executors.ProcessExecutor(NPROC)
        # Start every worker now: pool start is part of set-up.
        for future in [self.executor.submit(os.getpid) for _ in range(2 * NPROC)]:
            future.result(timeout=60)
        self.worker_pids = sorted(self.executor._pool._processes)
        self.worker_start_mb = {pid: self._status_mb(pid, "VmRSS") for pid in self.worker_pids}

    def _figure(self, executor, workload, seed, levels=None, methods=None):
        return figures.figure2_deletion(
            dataset="cifar10", levels=levels, scale=SCALE, seed=seed, workload=workload,
            executor=executor, store=False, simulator="timestep",
            method_filter=list(methods or self.methods),
        )

    @staticmethod
    def _outputs(sweep) -> Dict[str, dict]:
        """Accuracy and total spikes of every cell of the figure."""
        return {
            f"{curve.label}|{level:g}": cell_output(level, acc, spikes)
            for curve in sweep.curves
            for level, acc, spikes in zip(curve.levels, curve.accuracies, curve.spike_counts)
        }

    def run_pass(self) -> PassResult:
        executor = TimedExecutor(self.executor)
        start = perf_counter()
        sweep = self._figure(executor, self.workload, self.seed)
        wall = perf_counter() - start
        outputs = self._outputs(sweep)
        return PassResult(
            samples=len(outputs) * SCALE.eval_size,
            wall_s=wall,
            latencies=executor.item_s,
            outputs=outputs,
            extra={
                "cells": sweep.stats.evaluated_cells,
                "failed_cells": sweep.stats.failed_cells,
            },
        )

    def reference_outputs(self) -> Dict[str, dict]:
        """Every method at deletion 0 and 0.5 on the check input, in this process.

        The pool's workers hold the measured subset (registered before they
        forked), so the check input runs serially; the pool path itself is
        checked against the serial path in :meth:`check`.
        """
        workload = seeded_subset(load_workload("cifar10", self.cache), REFERENCE_SEED, REFERENCE_SIZE)
        sweep = self._figure("serial", workload, REFERENCE_SEED, levels=[0.0, 0.5])
        return self._outputs(sweep)

    def check(self, passes: List[PassResult], checks: Checks) -> None:
        reference = passes[0].outputs
        for result in passes:
            checks.compare(reference, result.outputs, "repeat pass")
        # One seeded cell again, serially in this process: the pool must
        # return exactly what the in-process path computes.
        rng = np.random.default_rng([self.seed, 2])
        method = self.methods[int(rng.integers(len(self.methods)))]
        level = config.BENCH_DELETION_LEVELS[int(rng.integers(len(config.BENCH_DELETION_LEVELS)))]
        serial = self._outputs(self._figure("serial", self.workload, self.seed, [level], [method]))
        checks.compare(serial, reference, "serial vs pool")
        checks.against_reference(self.name, self.reference_outputs())

    @staticmethod
    def _status_mb(pid: int, field: str) -> float:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def worker_growth_mb(self) -> List[float]:
        """Peak memory each pool worker added beyond what it had at start.

        A forked worker's resident set starts as the pages it shares with
        the parent; counting only its growth keeps those pages from being
        counted once per process.
        """
        return [
            self._status_mb(pid, "VmHWM") - self.worker_start_mb[pid]
            for pid in self.worker_pids
        ]

    def teardown(self) -> None:
        if self.executor is not None:
            self.executor.close()
            self.executor = None


# -- paper-window --------------------------------------------------------------
class PaperWindow:
    """cifar10 bench net, one 16-image batch per method at paper windows.

    Deletion 0.5 on the transport evaluator; rate and phase at T=1000, TTFS
    and TTAS(5) at T=108.
    """

    name = "paper-window"
    min_passes = 2
    batch = 16
    deletion = 0.5
    methods = (
        ("rate", 1000, {}),
        ("phase", 1000, {}),
        ("ttfs", 108, {}),
        ("ttas", 108, {"target_duration": 5}),
    )

    def __init__(self, seed: int, work: str, cache: str):
        self.seed = seed
        self.cache = cache

    def setup(self) -> None:
        self.workload = load_workload("cifar10", self.cache)
        subset = seeded_subset(self.workload, self.seed, self.batch)
        self.x, self.y = subset.data.test.x, subset.data.test.y
        self.coders = [
            coding_registry.create_coder(name, num_steps=steps, **kwargs)
            for name, steps, kwargs in self.methods
        ]

    def _evaluate(self, x, y, seed, coder) -> dict:
        noise = injector.NoiseInjector.from_levels(deletion_probability=self.deletion)
        result = transport.evaluate_transport(
            self.workload.network, coder, x, y, noise=noise, batch_size=self.batch, rng=seed,
        )
        return cell_output(self.deletion, result.accuracy, result.total_spikes)

    def run_pass(self) -> PassResult:
        outputs = {}
        latencies = []
        start = perf_counter()
        for (name, steps, _), coder in zip(self.methods, self.coders):
            t0 = perf_counter()
            outputs[f"{name}|T={steps}"] = self._evaluate(self.x, self.y, self.seed, coder)
            latencies.append(perf_counter() - t0)
        wall = perf_counter() - start
        return PassResult(
            samples=len(self.methods) * len(self.x), wall_s=wall,
            latencies=latencies, outputs=outputs,
        )

    def reference_outputs(self) -> Dict[str, dict]:
        """Every method on the check input: 4 images at T=1000, 16 at T=108."""
        subset = seeded_subset(self.workload, REFERENCE_SEED, REFERENCE_SIZE)
        x, y = subset.data.test.x, subset.data.test.y
        outputs = {}
        for (name, steps, _), coder in zip(self.methods, self.coders):
            size = 4 if steps > 108 else REFERENCE_SIZE
            outputs[f"{name}|T={steps}"] = self._evaluate(x[:size], y[:size], REFERENCE_SEED, coder)
        return outputs

    def check(self, passes: List[PassResult], checks: Checks) -> None:
        reference = passes[0].outputs
        for result in passes:
            checks.compare(reference, result.outputs, "repeat pass")
            for key, cell in result.outputs.items():
                checks.expect(0.0 <= cell["accuracy"] <= 1.0 and cell["spikes"] > 0, f"{key}: implausible output")
        checks.against_reference(self.name, self.reference_outputs())

    def teardown(self) -> None:
        pass


# -- serve-mixed ---------------------------------------------------------------
class ServeMixed:
    """Open-loop Poisson requests into the micro-batching scheduler.

    One generator thread sends seeded Poisson arrivals: a nominal-rate rung
    for latency, floods for throughput and, in traced runs, a rate ladder for
    capacity.  Each request is timed from its due time.
    """

    name = "serve-mixed"
    min_passes = 1
    #: Set-up already sends one request per spec; a traced run needs no
    #: extra warm-up pass.
    warm_pass = False
    #: Distinct input images per dataset the requests draw from.
    pool_size = 64
    #: Check-input requests per request kind.
    reference_per_spec = 4

    def __init__(self, seed: int, work: str, cache: str, serving: dict, recorder=None):
        self.seed = seed
        self.cache = cache
        self.serving = serving
        self.recorder = recorder
        self.scheduler = None
        self.mix = [
            (float(entry["share"]), entry["dataset"], inference.RequestSpec.create(
                evaluator=entry["evaluator"], coding=entry["coding"],
                num_steps=int(entry["num_steps"]), **entry.get("coder_kwargs", {}),
            ))
            for entry in serving["mix"]
        ]

    def prepare_inputs(self) -> None:
        self.inputs, self.check_inputs = {}, {}
        for dataset in sorted({dataset for _, dataset, _ in self.mix}):
            data = load_workload(dataset, self.cache).data.test.x
            for seed, size, into in ((self.seed, self.pool_size, self.inputs),
                                     (REFERENCE_SEED, self.reference_per_spec, self.check_inputs)):
                rng = np.random.default_rng([seed, len(dataset)])
                into[dataset] = data[np.sort(rng.choice(len(data), size=size, replace=False))]

    def setup(self) -> None:
        self.registry = serving_registry.ModelRegistry(store=False)
        self.keys = {
            dataset: self.registry.register(dataset, scale=SCALE, seed=TRAIN_SEED, cache_dir=self.cache)
            for dataset in sorted(self.inputs)
        }
        self.scheduler = scheduler_mod.MicroBatchScheduler(self.registry, max_workers=NPROC)
        self.max_batch = self.scheduler.max_batch
        for _, dataset, spec in self.mix:
            self.scheduler.submit(self.keys[dataset], self.inputs[dataset][0], spec=spec).result(timeout=60)

    def _rung(self, rate: float, count: int, rng) -> dict:
        shares = np.array([share for share, _, _ in self.mix])
        kinds = rng.choice(len(self.mix), size=count, p=shares / shares.sum())
        picks = rng.integers(0, self.pool_size, size=count)
        due = np.cumsum(rng.exponential(1.0 / rate, size=count))
        sent = np.zeros(count)
        done = np.full(count, np.nan)
        compute = np.full(count, np.nan)
        errors = [None] * count
        futures = [None] * count
        outstanding = [count]
        all_done = threading.Event()
        lock = threading.Lock()

        def settle():
            with lock:
                outstanding[0] -= 1
                if outstanding[0] == 0:
                    all_done.set()

        def finish(index, future):
            done[index] = perf_counter()
            if self.recorder is not None and self.recorder.active:
                batch = tracing.last_batch()
                if batch is not None:
                    compute[index] = batch[1]
                # One span per request, from its due time, under the batch
                # span that served it.
                self.recorder.emit(
                    "serve.request", due[index], done[index],
                    parent=None if batch is None else batch[0],
                    tag=f"{rate:g}/{index}",
                )
            if future.exception() is not None:
                errors[index] = repr(future.exception())
            settle()

        start = perf_counter() + 0.02
        due = due + start
        for index in range(count):
            while True:
                now = perf_counter()
                if now >= due[index]:
                    break
                time.sleep(min(due[index] - now, 0.01))
            _, dataset, spec = self.mix[kinds[index]]
            sample = self.inputs[dataset][picks[index]]
            try:
                future = self.scheduler.submit(self.keys[dataset], sample, spec=spec)
            except RuntimeError as error:  # refused: counts as failed
                errors[index] = repr(error)
                done[index] = perf_counter()
                settle()
                continue
            sent[index] = perf_counter()
            futures[index] = future
            future.add_done_callback(lambda f, i=index: finish(i, f))
        backlog = int(np.sum(np.isnan(done)))
        if count and not all_done.wait(timeout=60):
            raise RuntimeError(f"rung at {rate} req/s did not drain within 60 s")
        latency = done - due
        return {
            "rate": rate,
            "count": count,
            "kinds": kinds,
            "picks": picks,
            "futures": futures,
            "errors": errors,
            "latency": latency,
            "done": done,
            "late": np.where(sent > 0, sent - due, 0.0),
            "compute": compute,
            "backlog": backlog,
        }

    def _passes(self, rung: dict) -> bool:
        limit = float(self.serving["p99_limit_ms"]) / 1000.0
        failures = sum(error is not None for error in rung["errors"])
        allowed_backlog = rung["rate"] * limit + self.max_batch * NPROC
        return (
            failures == 0
            and latency_metrics.latency_summary(rung["latency"]).p99 <= limit
            and rung["backlog"] <= allowed_backlog
        )

    def rung_summary(self, rung: dict) -> dict:
        summary = latency_metrics.latency_summary(rung["latency"])
        return {
            "rate_rps": rung["rate"],
            "requests": rung["count"],
            "p50_ms": summary.p50 * 1000.0,
            "p99_ms": summary.p99 * 1000.0,
            "late_p99_ms": latency_metrics.latency_summary(rung["late"]).p99 * 1000.0,
            "backlog_at_last_send": rung["backlog"],
            "failed": sum(error is not None for error in rung["errors"]),
            "meets_limit": self._passes(rung),
        }

    def run_pass(self) -> PassResult:
        """Nominal rung, then the ladder above it, then the floods.

        Latency percentiles come from the nominal rung; throughput from the
        floods, while every queue is full; the ladder gives the highest rate
        that meets the p99 limit.
        """
        serving = self.serving
        rng = np.random.default_rng([self.seed, 7])
        nominal = float(serving["nominal_rps"])
        start = perf_counter()
        rungs = [self._rung(nominal, int(serving["nominal_requests"]), rng)]
        capacity = nominal if self._passes(rungs[0]) else 0.0
        # The ladder runs in traced runs only: it reports capacity_rps as a
        # per-layer number and would double the length of every timed run.
        for rate in serving["ladder_rps"] if self.recorder is not None else ():
            if not capacity:
                break
            rungs.append(self._rung(float(rate), int(serving["ladder_requests"]), rng))
            if not self._passes(rungs[-1]):
                break
            capacity = float(rate)
        # Throughput: repeated floods that fill every queue at once; each
        # counts completions between its 10th and 90th percentile, where the
        # queues are full, and the median flood is reported.
        floods = []
        for _ in range(int(serving["floods"])):
            flood = self._rung(float(serving["flood_rps"]), int(serving["flood_requests"]), rng)
            rungs.append(flood)
            first, last = np.percentile(flood["done"], [10, 90])
            floods.append(0.8 * flood["count"] / (last - first))
        return PassResult(
            samples=sum(r["count"] for r in rungs),
            wall_s=perf_counter() - start,
            latencies=list(rungs[0]["latency"]),
            outputs={},
            extra=dict(
                throughput_rps=statistics.median(floods),
                rungs=rungs,
                **({"capacity_rps": capacity} if self.recorder is not None else {}),
            ),
        )

    def reference_outputs(self) -> Dict[str, dict]:
        """Logits of the check-input requests, all sent at once through the scheduler."""
        futures = {
            f"{index}|{dataset}|{spec.evaluator}|{spec.coding}|T={spec.num_steps}|{image}":
                self.scheduler.submit(self.keys[dataset], sample, spec=spec)
            for index, (_, dataset, spec) in enumerate(self.mix)
            for image, sample in enumerate(self.check_inputs[dataset])
        }
        return {key: {"logits": future.result(timeout=60).logits.tolist()} for key, future in futures.items()}

    def check(self, passes: List[PassResult], checks: Checks) -> None:
        checks.against_reference(self.name, self.reference_outputs())
        # Every request's logits against serve_single on the same input, for
        # a seeded sample of the requests of each pass.
        rng = np.random.default_rng([self.seed, 11])
        for result in passes:
            for rung in result.extra["rungs"]:
                for error in rung["errors"]:
                    checks.expect(error is None, f"request failed: {error}")
                count = min(int(self.serving["checked_per_rung"]), rung["count"])
                for index in rng.choice(rung["count"], size=count, replace=False):
                    future = rung["futures"][index]
                    if future is None or future.exception() is not None:
                        continue
                    _, dataset, spec = self.mix[rung["kinds"][index]]
                    sample = self.inputs[dataset][rung["picks"][index]]
                    servable = self.registry.get(self.keys[dataset])
                    reference = inference.serve_single(servable, spec, sample)
                    got = future.result()
                    checks.expect(
                        np.array_equal(reference.logits, got.logits),
                        f"request {index} at {rung['rate']} req/s: logits differ from serve_single",
                    )

    def teardown(self) -> None:
        if self.scheduler is not None:
            self.scheduler.close()
            self.scheduler = None


WORKLOADS = {
    cls.name: cls for cls in (SweepTransport, SweepTimestep, PaperWindow, ServeMixed)
}
