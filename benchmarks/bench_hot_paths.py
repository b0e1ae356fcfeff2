"""Micro-benchmark of the evaluation hot paths.

Two sections, both written to ``BENCH_hot_paths.json`` at the repository root
so the performance trajectory is tracked across PRs (and gated by the CI
``bench-regression`` job, see ``benchmarks/check_bench_regression.py``):

* **spike paths** -- encode / delete / jitter / decode (and the full
  delete -> jitter -> decode corruption chain every sweep cell runs) at the
  sparsity levels the temporal codes actually produce -- TTFS (<= 1 spike per
  neuron) and TTAS (<= t_a spikes per neuron) at T=64 -- on both spike-train
  backends,
* **analog paths** -- the convolutional segment forward/backward at a
  VGG-ish shape (N=8, C=64, 32x32, k=3), plus an end-to-end
  conv->relu->pool->dense segment pass (rows keyed ``strided``),
* **timestep simulator** -- the faithful time-stepped simulator (rows keyed
  ``fused``): end-to-end runs of a deep VGG-style conv stack and a batched
  MLP over a T=64 rate-coded window, plus the first layer's folded
  synaptic-transform and neuron-scan costs in isolation.  Temporal-coder
  rows (``mlp_phase``, ``mlp_ttfs``, ``mlp_ttas3``) run the same batched
  MLP through the coder-aware per-layer-window protocols (longer global
  windows, windowed/scheduled neurons, sparse off-window drive), and the
  deep 12-hidden-layer TTAS stack (``mlp_deep_ttas3``) covers the regime
  where protocol-window scheduling skips most of the grid,
* **sweep orchestration** -- the fixed cost the execution engine adds per
  sweep cell: dispatch overhead of the serial / thread / process executor
  backends on no-op cells, and the result store's put / hit / miss cost.
  These micro-latencies are scheduler-, fork- and filesystem-bound, which
  the GEMM/memcpy machine calibration cannot normalise, so the regression
  gate records them for trend tracking but does not judge them (see
  ``_NON_TIMING_KEYS`` in ``check_bench_regression.py``),
* **cell sharding** -- one faithful-simulator sweep cell (TTAS(3) on the
  test-scale mnist MLP) evaluated end to end through ``evaluate_plans`` at
  1 / 2 / 4 / 8 sample shards on a matching process pool.  The wall-clock
  numbers are core-count-bound (``cpu_count`` is recorded in the section
  config), so the section sits under ``_NON_TIMING_KEYS`` for trend
  tracking only; the *same-run* 1-shard/4-shard ratio is exported as
  ``summary.cell_sharding_speedup`` and gated by CI via
  ``--min-shard-speedup``,
* **serving** -- the request-shaped serving path: sequential-singles vs
  micro-batched evaluation of the same request set under 32 concurrent
  clients, per evaluator (transport and timestep), with p50/p99 latency
  and requests-per-second from the shared latency-histogram helper.  The
  absolutes are core-count-bound (trend-only); the same-run transport
  throughput ratio is exported as ``summary.serving_speedup`` and gated
  by CI via ``--min-serving-speedup``,
* **adversarial search** -- the greedy spike-deletion attack
  (:mod:`repro.noise.adversarial`) on the test-scale mnist MLP through the
  batched transport scorer: per-sample search seconds (gated like any hot
  path) and the throughput in candidates scored per second
  (``candidates_per_sec``, a higher-is-better rate under
  ``_NON_TIMING_KEYS`` for trend tracking).

A small machine calibration (fixed-size GEMM + memcpy) is also recorded so
the CI regression gate can normalise away absolute machine-speed differences.

Run it as a plain script (pytest naming conventions skip ``bench_*`` files)::

    PYTHONPATH=src python benchmarks/bench_hot_paths.py

Knobs: ``--population`` (default 4096), ``--batch`` (default 16),
``--repeats`` (default 15).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import threading
import time
from typing import Callable, Dict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.environ.get("PYTHONPATH") or "repro" not in sys.modules:
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import numpy as np

from repro.coding.registry import create_coder
from repro.metrics.spikes import spike_train_sparsity
from repro.nn.layers import AvgPool2D, Conv2D, Dense, Flatten, ReLU

#: Output file, at the repository root so it is versioned with the code.
OUTPUT_PATH = os.path.join(REPO_ROOT, "BENCH_hot_paths.json")

#: Noise levels of the timed corruption chain (paper's mid-range).
DELETION_P = 0.2
JITTER_SIGMA = 1.5

#: Shape of the analog conv benchmark (the ISSUE-2 acceptance shape):
#: batch 8, 64 channels in/out, 32x32 feature maps, 3x3 kernel.
ANALOG_SHAPE = {"batch": 8, "channels": 64, "size": 32, "kernel": 3}

#: Shape of the faithful-simulator benchmark: a deep VGG-style conv stack
#: (vgg9: 6 convs + pools + dense head) simulated per sample (batch 1 --
#: the streaming/latency regime the faithful path validates) over a T=64
#: rate-coded window.  A secondary MLP shape covers the batched
#: mnist-style timestep sweep cells.
TIMESTEP_SHAPE = {
    "config": "vgg9", "image": 8, "channels": 3, "batch": 1,
    "num_steps": 64, "threshold": 0.1,
}
TIMESTEP_MLP_SHAPE = {
    "image": 28, "hidden": (256, 128), "batch": 8,
    "num_steps": 64, "threshold": 0.1,
}

#: Temporal coders benchmarked on the faithful simulator via their
#: per-layer-window protocols (same batched MLP as TIMESTEP_MLP_SHAPE;
#: window lengths follow the paper's temporal/rate ratio).  ``threshold``
#: None = the coder's empirical default.
TIMESTEP_TEMPORAL_CODERS = {
    "mlp_phase": {"coding": "phase", "num_steps": 64, "threshold": None},
    "mlp_ttfs": {"coding": "ttfs", "num_steps": 32, "threshold": None},
    "mlp_ttas3": {"coding": "ttas", "num_steps": 32, "threshold": None,
                  "kwargs": {"target_duration": 3}},
}

#: Deep temporal stack: a 12-hidden-layer MLP under the TTAS
#: sequential-window protocol, where each layer fires in its own window and
#: the per-layer active fraction of the global grid shrinks with depth
#: (~2/(L+1)) -- the regime protocol-window scheduling targets.
TIMESTEP_DEEP_SHAPE = {
    "image": 28,
    "hidden": (256, 224, 192, 192, 160, 160, 128, 128, 96, 96, 80, 64),
    "batch": 8, "coding": "ttas", "num_steps": 32, "target_duration": 3,
}

#: No-op cells per executor dispatch in the orchestration benchmark; large
#: enough that per-cell overhead dominates one-off pool startup noise.
DISPATCH_CELLS = 64

#: Store operations per timing sample in the orchestration benchmark.
STORE_OPS = 16

#: Shard counts of the cell-sharding benchmark (1 = unsharded reference;
#: each count gets a process pool with that many workers).
SHARD_COUNTS = (1, 2, 4, 8)

#: Shape of the cell-sharding benchmark cell: eval_size / batch_size = 8
#: whole batches, so every count in :data:`SHARD_COUNTS` divides into
#: batch-aligned shards.
SHARD_CELL = {"eval_size": 64, "batch_size": 8}

#: Shape of the adversarial-search benchmark: greedy spike-deletion attacks
#: on the test-scale mnist MLP, scored through the batched transport
#: evaluator.  Budget and candidate cap match the acceptance-scale sweeps.
ADVERSARIAL_SHAPE = {"budget": 8, "max_candidates": 48, "samples": 4}

#: Shape of the serving benchmark: concurrent single-sample clients against
#: the micro-batching scheduler vs a sequential-singles loop over the same
#: requests.  ``requests`` counts per measurement pass and evaluator
#: (timestep runs the slower faithful simulator, so it gets fewer).
SERVING_SHAPE = {
    "clients": 32, "max_batch": 8, "max_delay_ms": 2.0,
    "transport_requests": 64, "timestep_requests": 32, "num_steps": 16,
}


def _time(fn: Callable[[], object], repeats: int) -> float:
    """Median wall-clock seconds of ``fn`` over ``repeats`` runs (1 warm-up)."""
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def bench_coder(
    name: str, coder, values: np.ndarray, repeats: int
) -> Dict[str, Dict[str, float]]:
    """Time every hot-path op on both backends for one coder."""
    results: Dict[str, Dict[str, float]] = {}
    trains = {
        "dense": coder.encode(values, backend="dense"),
        "events": coder.encode(values, backend="events"),
    }
    results["sparsity"] = {
        backend: spike_train_sparsity(train) for backend, train in trains.items()
    }
    for backend, train in trains.items():
        deleted = train.delete_spikes(DELETION_P, rng=0)
        timings = {
            "encode": _time(lambda: coder.encode(values, backend=backend), repeats),
            "delete": _time(lambda: train.delete_spikes(DELETION_P, rng=1), repeats),
            "jitter": _time(
                lambda: deleted.jitter_spikes(JITTER_SIGMA, rng=2), repeats
            ),
            "decode": _time(lambda: coder.decode(train), repeats),
            "delete_jitter_decode": _time(
                lambda: coder.decode(
                    train.delete_spikes(DELETION_P, rng=3)
                    .jitter_spikes(JITTER_SIGMA, rng=4)
                ),
                repeats,
            ),
        }
        results[backend] = timings
    results["speedup_dense_over_events"] = {
        op: results["dense"][op] / results["events"][op]
        for op in results["dense"]
    }
    print(f"\n{name} (T={coder.num_steps}, "
          f"sparsity={results['sparsity']['events']:.3f})")
    header = f"  {'op':<22}{'dense':>12}{'events':>12}{'speedup':>10}"
    print(header)
    for op in results["dense"]:
        dense_ms = results["dense"][op] * 1e3
        events_ms = results["events"][op] * 1e3
        ratio = results["speedup_dense_over_events"][op]
        print(f"  {op:<22}{dense_ms:>10.2f}ms{events_ms:>10.2f}ms{ratio:>9.1f}x")
    return results


def bench_machine_calibration(repeats: int) -> Dict[str, float]:
    """Fixed-size reference ops used to normalise cross-machine comparisons.

    The CI regression gate divides every timing by the ratio of these
    calibration numbers so a slower/faster runner does not register as a
    code-level regression/improvement.
    """
    rng = np.random.default_rng(0)
    a = rng.random((512, 512), dtype=np.float32)
    b = rng.random((512, 512), dtype=np.float32)
    buf = rng.random(4_000_000, dtype=np.float32)
    return {
        "gemm_512": _time(lambda: a @ b, repeats),
        "memcpy_16mb": _time(lambda: buf.copy(), repeats),
    }


def bench_analog_forward(repeats: int) -> Dict[str, Dict[str, float]]:
    """Time the conv forward/backward and a conv segment forward."""
    cfg = ANALOG_SHAPE
    n, c, size, k = cfg["batch"], cfg["channels"], cfg["size"], cfg["kernel"]
    rng = np.random.default_rng(0)
    x = rng.random((n, c, size, size), dtype=np.float32)
    conv = Conv2D(c, c, kernel_size=k, stride=1, padding=1, rng=0)
    grad = rng.random((n, c, size, size), dtype=np.float32)

    segment = [
        Conv2D(c, c, kernel_size=k, stride=1, padding=1, rng=1),
        ReLU(),
        AvgPool2D(2),
        Flatten(),
        Dense(c * (size // 2) * (size // 2), 10, rng=2),
    ]

    def run_segment(values):
        out = values
        for layer in segment:
            out = layer.forward(out, training=False)
        return out

    results: Dict[str, Dict[str, float]] = {"config": dict(cfg)}
    results["conv_forward"] = {"strided": _time(lambda: conv.forward(x), repeats)}
    conv.forward(x, training=True)  # lay down the backward cache
    results["conv_backward"] = {
        "strided": _time(lambda: conv.backward(grad), repeats)
    }
    results["segment_forward"] = {
        "strided": _time(lambda: run_segment(x), repeats)
    }

    print(f"\nanalog forward (N={n}, C={c}, {size}x{size}, k={k})")
    for case in ("conv_forward", "conv_backward", "segment_forward"):
        print(f"  {case:<18}{results[case]['strided'] * 1e3:>10.2f}ms")
    return results


def bench_timestep_sim(repeats: int) -> Dict[str, Dict[str, float]]:
    """Time the faithful time-stepped simulator.

    End-to-end runs of a deep VGG-style conv stack (per-sample streaming)
    and a batched MLP, plus the first conv layer's folded synaptic-transform
    and neuron-scan costs in isolation.
    """
    from repro.coding.rate import RateCoder
    from repro.coding.registry import create_coder
    from repro.conversion.converter import convert_dnn_to_snn
    from repro.core.timestep import build_time_stepped_simulator
    from repro.nn.vgg import build_mlp, build_vgg

    rng = np.random.default_rng(0)
    results: Dict[str, Dict[str, float]] = {
        "config": {**TIMESTEP_SHAPE,
                   "mlp": dict(TIMESTEP_MLP_SHAPE,
                               hidden=list(TIMESTEP_MLP_SHAPE["hidden"])),
                   "deep": dict(TIMESTEP_DEEP_SHAPE,
                                hidden=list(TIMESTEP_DEEP_SHAPE["hidden"])),
                   "temporal": {name: dict(spec, kwargs=dict(spec.get("kwargs", {})))
                                for name, spec in TIMESTEP_TEMPORAL_CODERS.items()}},
    }

    def build(model, shape, batch, coder, threshold):
        network = convert_dnn_to_snn(
            model, rng.random((32,) + shape, dtype=np.float32)
        )
        return network, *instantiate(network, shape, batch, coder, threshold)

    def instantiate(network, shape, batch, coder, threshold):
        simulator = build_time_stepped_simulator(
            network, coder, batch_input_shape=(batch,) + shape,
            threshold=threshold,
        )
        x = rng.random((batch,) + shape, dtype=np.float32)
        train = coder.encode(x / network.input_scale)
        return simulator, train

    cfg = TIMESTEP_SHAPE
    conv_shape = (cfg["channels"], cfg["image"], cfg["image"])
    _, conv_sim, conv_train = build(
        build_vgg(cfg["config"], input_shape=conv_shape, num_classes=10, rng=0),
        conv_shape, cfg["batch"], RateCoder(num_steps=cfg["num_steps"]),
        cfg["threshold"],
    )
    mlp_cfg = TIMESTEP_MLP_SHAPE
    mlp_shape = (1, mlp_cfg["image"], mlp_cfg["image"])
    mlp_network, mlp_sim, mlp_train = build(
        build_mlp(int(np.prod(mlp_shape)), hidden_units=mlp_cfg["hidden"],
                  num_classes=10, rng=0),
        mlp_shape, mlp_cfg["batch"],
        RateCoder(num_steps=mlp_cfg["num_steps"]), mlp_cfg["threshold"],
    )

    cases = [
        ("conv_stack", conv_sim, conv_train),
        ("mlp", mlp_sim, mlp_train),
    ]
    # Temporal coders on the same converted MLP: the per-layer-window
    # protocols extend the global window (one window per layer for
    # TTFS/TTAS, one oscillator period of lag per layer for phase), so
    # these rows track the simulator on the temporal workloads.
    for name, spec in TIMESTEP_TEMPORAL_CODERS.items():
        coder = create_coder(spec["coding"], num_steps=spec["num_steps"],
                             **spec.get("kwargs", {}))
        cases.append((
            name,
            *instantiate(mlp_network, mlp_shape, mlp_cfg["batch"], coder,
                         spec["threshold"]),
        ))

    # Deep temporal stack: one TTAS window per layer, so occupancy per layer
    # shrinks with depth and protocol-window scheduling skips more of it.
    deep_cfg = TIMESTEP_DEEP_SHAPE
    deep_shape = (1, deep_cfg["image"], deep_cfg["image"])
    deep_coder = create_coder(deep_cfg["coding"],
                              num_steps=deep_cfg["num_steps"],
                              target_duration=deep_cfg["target_duration"])
    _, deep_sim, deep_train = build(
        build_mlp(int(np.prod(deep_shape)), hidden_units=deep_cfg["hidden"],
                  num_classes=10, rng=0),
        deep_shape, deep_cfg["batch"], deep_coder, None,
    )
    cases.append(("mlp_deep_ttas3", deep_sim, deep_train))

    for name, simulator, train in cases:
        results[name] = {"fused": _time(lambda: simulator.run(train), repeats)}

    # First conv layer in isolation: the folded synaptic transform and the
    # vectorised neuron scan.
    layer = conv_sim.layers[0]
    counts = conv_train.to_dense().counts
    results["layer0_transform"] = {
        "fused": _time(
            lambda: conv_sim._fused_layer_drive(layer, counts,
                                                conv_sim.input_kernel),
            repeats,
        ),
    }

    drive = conv_sim._fused_layer_drive(layer, counts, conv_sim.input_kernel)

    def fused_scan():
        state = layer.neuron.init_state(drive.shape[1:])
        layer.neuron.advance(state, drive)

    results["layer0_neuron_scan"] = {"fused": _time(fused_scan, repeats)}

    print(f"\ntimestep simulator ({cfg['config']} @{cfg['image']}px batch "
          f"{cfg['batch']}, T={cfg['num_steps']}; mlp batch {mlp_cfg['batch']})")
    for case in ("conv_stack", "mlp", *TIMESTEP_TEMPORAL_CODERS,
                 "mlp_deep_ttas3", "layer0_transform", "layer0_neuron_scan"):
        print(f"  {case:<22}{results[case]['fused'] * 1e3:>10.2f}ms")
    return results


def _noop_cell(index: int) -> int:
    """Stand-in sweep cell; module-level so the process backend can pickle it."""
    return index


def bench_sweep_orchestration(repeats: int) -> Dict[str, Dict[str, float]]:
    """Time the execution engine's fixed per-cell costs.

    Dispatch overhead is measured with no-op cells, so the numbers are the
    pure engine tax a real sweep cell pays on top of its numpy work:
    submission + result collection per cell for the serial and thread
    backends, plus pickling/IPC for the process backend.  The pooled
    executors keep their worker pool warm across dispatches, so -- like a
    figure/table run reusing one executor over many sweeps -- the timed
    dispatches pay the fork/startup tax once (in the untimed warm-up), not
    per dispatch.  Store costs cover writing a cell document, re-reading it
    (hit) and probing an absent key (miss).
    """
    import shutil
    import tempfile

    from repro.core.pipeline import EvaluationResult
    from repro.execution import (
        ProcessExecutor,
        ResultStore,
        SerialExecutor,
        ThreadExecutor,
    )

    cells = list(range(DISPATCH_CELLS))
    executors = {
        "serial": SerialExecutor(),
        "thread": ThreadExecutor(max_workers=4),
        "process": ProcessExecutor(max_workers=2),
    }
    dispatch: Dict[str, float] = {}
    for name, executor in executors.items():
        # map_unordered is the path the sweep engine actually dispatches on.
        try:
            total = _time(
                lambda: list(executor.map_unordered(_noop_cell, cells)), repeats
            )
        finally:
            executor.close()
        dispatch[name] = total / DISPATCH_CELLS

    result = EvaluationResult(
        accuracy=0.5, total_spikes=1000, spikes_per_sample=25.0, coding="ttas",
        deletion=0.2, jitter=0.0, weight_scaling_factor=1.25, num_samples=40,
    )
    plan_note = {"bench": "sweep_orchestration"}
    store_dir = tempfile.mkdtemp(prefix="repro-bench-store-")
    counter = iter(range(10**9))

    def run_puts():
        store = ResultStore(store_dir)
        base = next(counter)
        for op in range(STORE_OPS):
            store.put(f"{base:032x}{op:032x}", result, plan_note)

    def run_hits():
        store = ResultStore(store_dir)
        for op in range(STORE_OPS):
            assert store.get(f"{0:032x}{op:032x}") is not None

    def run_misses():
        store = ResultStore(store_dir)
        for op in range(STORE_OPS):
            assert store.get(f"{'f' * 32}{op:032x}") is None

    try:
        # Seed documents for the hit path (run_puts with base 0 fills them).
        store_costs = {
            "put": _time(run_puts, repeats) / STORE_OPS,
            "get_hit": _time(run_hits, repeats) / STORE_OPS,
            "get_miss": _time(run_misses, repeats) / STORE_OPS,
        }
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    results = {
        "config": {"dispatch_cells": DISPATCH_CELLS, "store_ops": STORE_OPS},
        "dispatch_per_cell": dispatch,
        "store": store_costs,
    }
    print(f"\nsweep orchestration ({DISPATCH_CELLS} no-op cells, "
          f"{STORE_OPS} store ops)")
    print(f"  {'path':<26}{'per op':>12}")
    for name, seconds in dispatch.items():
        print(f"  {'dispatch[' + name + ']':<26}{seconds * 1e6:>10.1f}us")
    for name, seconds in store_costs.items():
        print(f"  {'store[' + name + ']':<26}{seconds * 1e6:>10.1f}us")
    return results


def bench_cell_sharding(repeats: int) -> Dict[str, Dict[str, float]]:
    """Time one faithful-simulator sweep cell at increasing shard counts.

    A single TTAS(3) deletion cell on the test-scale mnist MLP is evaluated
    end to end through ``evaluate_plans`` -- the timestep simulator, the
    noise corruption and the accuracy readout included -- once unsharded and
    once per shard count, each on a process pool sized to the shard count.
    Results are bit-identical at every count (asserted below), so the only
    thing that varies is the wall clock.

    The absolute timings scale with the machine's core count (recorded as
    ``config.cpu_count``), which the GEMM calibration cannot normalise, so
    the section is trend-only for the regression gate; the same-run
    1-shard/4-shard ratio becomes ``summary.cell_sharding_speedup``.
    """
    from repro.execution import (
        ProcessExecutor,
        WorkloadRef,
        build_sweep_plans,
        evaluate_plans,
        register_workload,
    )
    from repro.experiments.config import TEST_SCALE, MethodSpec, SweepConfig
    from repro.experiments.workloads import prepare_workload

    config = SweepConfig(
        dataset="mnist",
        methods=(MethodSpec(coding="ttas", target_duration=3),),
        noise_kind="deletion",
        levels=(0.3,),
        scale=TEST_SCALE,
        seed=0,
        batch_size=SHARD_CELL["batch_size"],
        simulator="timestep",
    )
    workload = prepare_workload("mnist", scale=TEST_SCALE, seed=0,
                                use_cache=False)
    ref = WorkloadRef.from_sweep_config(config, use_cache=False)
    plans = build_sweep_plans(config, eval_size=SHARD_CELL["eval_size"],
                              use_cache=False)
    # The process backend forks; registering in the parent hands every
    # worker the trained workload through copy-on-write memory.
    register_workload(ref, workload)

    # The cell takes seconds, not microseconds -- a third of the micro-op
    # repeats is plenty for a stable median.
    shard_repeats = max(3, repeats // 3)
    seconds: Dict[str, float] = {}
    accuracies = {}
    for count in SHARD_COUNTS:
        executor = ProcessExecutor(max_workers=count)
        try:
            # Warm the pool so the timed runs exclude fork/startup costs.
            list(executor.map_unordered(_noop_cell, [0]))

            def run():
                return evaluate_plans(plans, executor=executor, store=False,
                                      workloads={ref: workload}, shards=count)

            seconds[f"shards_{count}"] = _time(run, shard_repeats)
            accuracies[count] = [r.accuracy for r in run().results]
        finally:
            executor.close()
    reference = accuracies[SHARD_COUNTS[0]]
    assert all(acc == reference for acc in accuracies.values()), \
        "sharded cell results diverged from the unsharded reference"

    base = seconds["shards_1"]
    results = {
        "config": {
            "dataset": config.dataset,
            "scale": TEST_SCALE.name,
            "simulator": config.simulator,
            "coding": "ttas(3)",
            "eval_size": SHARD_CELL["eval_size"],
            "batch_size": SHARD_CELL["batch_size"],
            "cpu_count": os.cpu_count() or 1,
            "repeats": shard_repeats,
        },
        "cell_seconds": seconds,
        "speedup_over_unsharded": {
            key: base / value for key, value in seconds.items()
        },
    }
    print(f"\ncell sharding (mnist {TEST_SCALE.name}-scale ttas(3) timestep "
          f"cell, {SHARD_CELL['eval_size']} samples / batch "
          f"{SHARD_CELL['batch_size']}, {os.cpu_count() or 1} cpu(s))")
    print(f"  {'shards':<10}{'cell':>12}{'speedup':>10}")
    for count in SHARD_COUNTS:
        key = f"shards_{count}"
        print(f"  {count:<10}{seconds[key] * 1e3:>10.0f}ms"
              f"{results['speedup_over_unsharded'][key]:>9.2f}x")
    return results


def bench_adversarial_search(repeats: int) -> Dict[str, Dict[str, float]]:
    """Time the greedy attack search on the test-scale mnist workload.

    Per coder: the end-to-end per-sample search cost (encode + ``budget``
    rounds of batched transport scoring, the path every attack-sweep cell
    pays per sample) and the resulting throughput in candidates scored per
    second.  The seconds are gated like any hot path; ``candidates_per_sec``
    is a higher-is-better rate, listed under ``_NON_TIMING_KEYS`` so the
    gate tracks it without judging it by the lower-is-better rule.
    """
    from repro.execution.attack import AttackPlan, find_attack_train
    from repro.execution.plan import WorkloadRef
    from repro.experiments.config import TEST_SCALE, MethodSpec
    from repro.experiments.workloads import prepare_workload

    cfg = ADVERSARIAL_SHAPE
    workload = prepare_workload("mnist", scale=TEST_SCALE, seed=0,
                                use_cache=False)
    ref = WorkloadRef(dataset="mnist", scale=TEST_SCALE, seed=0,
                      use_cache=False)
    cases = {
        "ttfs": MethodSpec(coding="ttfs"),
        "ttas3": MethodSpec(coding="ttas", target_duration=3),
    }
    # A whole search takes milliseconds-to-seconds; a third of the micro-op
    # repeats gives a stable median without dominating the bench run.
    search_repeats = max(3, repeats // 3)
    results: Dict[str, Dict[str, float]] = {
        "config": dict(cfg, scale=TEST_SCALE.name, search="greedy",
                       attack_kind="delete"),
    }
    for name, method in cases.items():
        plan = AttackPlan(
            workload=ref, method=method, attack_kind="delete",
            budget=cfg["budget"], seed=0,
            num_steps=TEST_SCALE.time_steps_for(method.coding),
            max_candidates=cfg["max_candidates"],
        )

        def run():
            return [
                find_attack_train(plan, workload, index)
                for index in range(cfg["samples"])
            ]

        seconds = _time(run, search_repeats)
        outcomes = run()
        scored = sum(outcome.candidates_scored for outcome in outcomes)
        results[name] = {
            "search_seconds_per_sample": seconds / cfg["samples"],
            "candidates_per_sec": scored / seconds,
        }
        results["config"][f"{name}_candidates_scored"] = scored
        results["config"][f"{name}_moves"] = sum(o.moves for o in outcomes)

    print(f"\nadversarial search (mnist {TEST_SCALE.name}-scale greedy "
          f"delete, budget {cfg['budget']}, {cfg['max_candidates']} "
          f"candidates/round, {cfg['samples']} samples)")
    print(f"  {'coder':<10}{'per sample':>14}{'cands/sec':>12}")
    for name in cases:
        row = results[name]
        print(f"  {name:<10}{row['search_seconds_per_sample'] * 1e3:>12.1f}ms"
              f"{row['candidates_per_sec']:>12.0f}")
    return results


def bench_serving(repeats: int) -> Dict[str, Dict[str, float]]:
    """Time request-shaped serving: sequential singles vs micro-batching.

    One test-scale mnist model behind a :class:`ModelRegistry`; per
    evaluator, the same request set is measured twice:

    * **sequential singles** -- one client thread calling ``serve_single``
      request after request, the no-scheduler baseline,
    * **micro-batched** -- ``clients`` concurrent threads submitting through
      the :class:`MicroBatchScheduler` at ``max_batch``/``max_delay_ms``,
      per-request latency measured submit-to-result.

    Both paths produce bit-identical logits (asserted below), so the only
    difference is scheduling.  Latency pools across all measurement passes
    feed the shared :func:`repro.metrics.latency_summary` helper (p50 / p90
    / p99); throughput is the median requests-per-second across passes.
    The absolute numbers are core-count-bound (``config.cpu_count``), so
    the section is trend-only for the regression gate; the same-run
    transport batched/sequential throughput ratio is exported as
    ``summary.serving_speedup`` and gated via ``--min-serving-speedup``.
    """
    from repro.data.synthetic import load_dataset
    from repro.experiments.config import TEST_SCALE
    from repro.metrics import latency_summary
    from repro.serving import (
        MicroBatchScheduler,
        ModelRegistry,
        RequestSpec,
        serve_single,
    )

    cfg = SERVING_SHAPE
    registry = ModelRegistry(store=False)
    key = registry.register("mnist", scale=TEST_SCALE, seed=0, use_cache=False)
    servable = registry.get(key)
    images = load_dataset("mnist", rng=0).test.x

    specs = {
        "transport": RequestSpec.create(
            evaluator="transport", coding="rate", num_steps=cfg["num_steps"]
        ),
        "timestep": RequestSpec.create(
            evaluator="timestep", coding="rate", num_steps=cfg["num_steps"],
            threshold=0.1,
        ),
    }
    # A measurement pass runs dozens of requests; a third of the micro-op
    # repeats keeps the bench bounded while pooling enough latencies for
    # stable tail percentiles.
    passes = max(3, repeats // 3)
    results: Dict[str, Dict[str, float]] = {
        "config": dict(cfg, scale=TEST_SCALE.name,
                       cpu_count=os.cpu_count() or 1, passes=passes),
    }
    for name, spec in specs.items():
        count = cfg[f"{name}_requests"]
        samples = [np.asarray(images[i % len(images)], dtype=np.float32)
                   for i in range(count)]
        references = [serve_single(servable, spec, sample)
                      for sample in samples]

        sequential_latencies: list = []
        sequential_seconds: list = []
        for _ in range(passes):
            start = time.perf_counter()
            pass_latencies = []
            for sample in samples:
                t0 = time.perf_counter()
                serve_single(servable, spec, sample)
                pass_latencies.append(time.perf_counter() - t0)
            sequential_seconds.append(time.perf_counter() - start)
            sequential_latencies.append(pass_latencies)

        batched_latencies: list = []
        batched_seconds: list = []
        per_client = count // cfg["clients"] or 1
        for _ in range(passes):
            with MicroBatchScheduler(
                registry, max_batch=cfg["max_batch"],
                max_delay_ms=cfg["max_delay_ms"],
            ) as scheduler:
                pass_latencies = []
                outcomes: Dict[int, object] = {}
                lock = threading.Lock()

                def client(indices):
                    for index in indices:
                        t0 = time.perf_counter()
                        result = scheduler.submit(
                            key, samples[index], spec=spec
                        ).result(timeout=120)
                        elapsed = time.perf_counter() - t0
                        with lock:
                            pass_latencies.append(elapsed)
                            outcomes[index] = result
                start = time.perf_counter()
                threads = [
                    threading.Thread(
                        target=client,
                        args=(range(c, count, cfg["clients"]),),
                    )
                    for c in range(cfg["clients"])
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                batched_seconds.append(time.perf_counter() - start)
                batched_latencies.append(pass_latencies)
            for index, reference in enumerate(references):
                assert np.array_equal(
                    outcomes[index].logits, reference.logits
                ), "micro-batched logits diverged from sequential singles"

        sequential = latency_summary(sequential_latencies)
        batched = latency_summary(batched_latencies)
        sequential_rps = count / statistics.median(sequential_seconds)
        batched_rps = count / statistics.median(batched_seconds)
        results[name] = {
            "requests": count,
            "per_client": per_client,
            "sequential_p50": sequential.p50,
            "sequential_p99": sequential.p99,
            "sequential_requests_per_sec": sequential_rps,
            "batched_p50": batched.p50,
            "batched_p99": batched.p99,
            "batched_requests_per_sec": batched_rps,
            "throughput_speedup": batched_rps / sequential_rps,
        }

    print(f"\nserving (mnist {TEST_SCALE.name}-scale, {cfg['clients']} "
          f"clients, max_batch {cfg['max_batch']}, "
          f"max_delay {cfg['max_delay_ms']}ms, {os.cpu_count() or 1} cpu(s))")
    print(f"  {'evaluator':<12}{'seq p50':>10}{'bat p50':>10}"
          f"{'seq rps':>10}{'bat rps':>10}{'speedup':>9}")
    for name in specs:
        row = results[name]
        print(f"  {name:<12}{row['sequential_p50'] * 1e3:>8.1f}ms"
              f"{row['batched_p50'] * 1e3:>8.1f}ms"
              f"{row['sequential_requests_per_sec']:>10.0f}"
              f"{row['batched_requests_per_sec']:>10.0f}"
              f"{row['throughput_speedup']:>8.2f}x")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--population", type=int, default=4096,
                        help="neurons per sample (default 4096)")
    parser.add_argument("--batch", type=int, default=16,
                        help="samples per train (default 16)")
    parser.add_argument("--num-steps", type=int, default=64,
                        help="time window T (default 64)")
    parser.add_argument("--repeats", type=int, default=15,
                        help="timing repeats per op (default 15)")
    parser.add_argument("--output", default=OUTPUT_PATH,
                        help=f"JSON output path (default {OUTPUT_PATH})")
    args = parser.parse_args(argv)

    values = np.random.default_rng(0).random((args.batch, args.population))
    coders = {
        "ttfs": create_coder("ttfs", num_steps=args.num_steps),
        "ttas(3)": create_coder("ttas", num_steps=args.num_steps,
                                target_duration=3),
        "ttas(5)": create_coder("ttas", num_steps=args.num_steps,
                                target_duration=5),
    }
    report = {
        "config": {
            "population": args.population,
            "batch": args.batch,
            "num_steps": args.num_steps,
            "repeats": args.repeats,
            "deletion_p": DELETION_P,
            "jitter_sigma": JITTER_SIGMA,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "calibration": bench_machine_calibration(args.repeats),
        "results": {},
    }
    for name, coder in coders.items():
        report["results"][name] = bench_coder(name, coder, values, args.repeats)
    report["results"]["analog_forward"] = bench_analog_forward(args.repeats)
    report["results"]["timestep_sim"] = bench_timestep_sim(args.repeats)
    report["results"]["sweep_orchestration"] = bench_sweep_orchestration(args.repeats)
    report["results"]["cell_sharding"] = bench_cell_sharding(args.repeats)
    report["results"]["adversarial_search"] = bench_adversarial_search(args.repeats)
    report["results"]["serving"] = bench_serving(args.repeats)

    chain_speedups = {
        name: result["speedup_dense_over_events"]["delete_jitter_decode"]
        for name, result in report["results"].items()
        if "speedup_dense_over_events" in result
    }
    report["summary"] = {
        "chain_speedup_min": min(chain_speedups.values()),
        "chain_speedup_max": max(chain_speedups.values()),
        "cell_sharding_speedup": report["results"]["cell_sharding"][
            "speedup_over_unsharded"
        ]["shards_4"],
        "adversarial_candidates_per_sec": report["results"][
            "adversarial_search"
        ]["ttas3"]["candidates_per_sec"],
        "serving_speedup": report["results"]["serving"]["transport"][
            "throughput_speedup"
        ],
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.output}")
    print("delete->jitter->decode speedups (dense/events): "
          + ", ".join(f"{k}={v:.1f}x" for k, v in chain_speedups.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
