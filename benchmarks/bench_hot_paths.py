"""Micro-benchmark of what perfbench does not measure.

The end-to-end benchmark (``perfbench/run.py``) times the coders, the noise
layer, the analog segments, the faithful simulator and the serving tier
inside real workloads.  This script keeps two same-run speedup ratios that
CI holds to floors and the one path no perfbench workload runs:

* **cell sharding** -- one faithful-simulator sweep cell (TTAS(3) on the
  test-scale mnist MLP) evaluated end to end through ``evaluate_plans`` at
  1 / 2 / 4 / 8 sample shards on a matching process pool.  The wall clocks
  are core-count-bound (``cpu_count`` is recorded in the section config);
  the same-run 1-shard/4-shard ratio is exported as
  ``summary.cell_sharding_speedup`` and held to a floor by
  ``check_bench_regression.py --min-shard-speedup``,
* **serving** -- sequential singles vs micro-batched evaluation of the same
  request set under 32 concurrent clients, per evaluator (transport and
  timestep), with p50/p99 latency and requests per second.  The same-run
  transport throughput ratio is exported as ``summary.serving_speedup`` and
  held to a floor by ``--min-serving-speedup``,
* **adversarial search** -- the greedy spike-deletion attack
  (:mod:`repro.noise.adversarial`) on the test-scale mnist MLP through the
  batched transport scorer: seconds per sample (compared with the parent
  commit's report from the same runner) and candidates scored per second.

The script measures the tree it sits in: it puts that tree's ``src`` first
on ``sys.path`` whatever ``PYTHONPATH`` says.  Run it as a plain script
(pytest naming conventions skip ``bench_*`` files)::

    python benchmarks/bench_hot_paths.py --output /tmp/hot_paths.json

Knob: ``--repeats`` (default 15).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import threading
import time
from typing import Callable, Dict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(REPO_ROOT, "src")]

import numpy as np

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
    "clients": 32, "max_batch": 8,
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


def _noop_cell(index: int) -> int:
    """Stand-in sweep cell; module-level so the process backend can pickle it."""
    return index


def bench_cell_sharding(repeats: int) -> Dict[str, Dict[str, float]]:
    """Time one faithful-simulator sweep cell at increasing shard counts.

    A single TTAS(3) deletion cell on the test-scale mnist MLP is evaluated
    end to end through ``evaluate_plans`` -- the timestep simulator, the
    noise corruption and the accuracy readout included -- once unsharded and
    once per shard count, each on a process pool sized to the shard count.
    Results are bit-identical at every count (asserted below), so the only
    thing that varies is the wall clock.

    The absolute timings scale with the machine's core count (recorded as
    ``config.cpu_count``), so the regression gate does not compare them;
    the same-run 1-shard/4-shard ratio becomes
    ``summary.cell_sharding_speedup``.
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
    workload = prepare_workload("mnist", scale=TEST_SCALE, seed=0)
    ref = WorkloadRef.from_sweep_config(config)
    plans = build_sweep_plans(config, eval_size=SHARD_CELL["eval_size"])
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
    second.  The seconds are compared with the parent commit's report;
    ``candidates_per_sec`` is a higher-is-better rate, listed under
    ``_NON_TIMING_KEYS`` so the lower-is-better rule does not misread it.
    """
    from repro.execution.attack import AttackPlan, find_attack_train
    from repro.execution.plan import WorkloadRef
    from repro.experiments.config import TEST_SCALE, MethodSpec
    from repro.experiments.workloads import prepare_workload

    cfg = ADVERSARIAL_SHAPE
    workload = prepare_workload("mnist", scale=TEST_SCALE, seed=0)
    ref = WorkloadRef(dataset="mnist", scale=TEST_SCALE, seed=0)
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
      the :class:`MicroBatchScheduler` at ``max_batch``,
      per-request latency measured submit-to-result.

    Both paths produce bit-identical logits (asserted below), so the only
    difference is scheduling.  Latency pools across all measurement passes
    feed the shared :func:`repro.metrics.latency_summary` helper (p50 / p90
    / p99); throughput is the median requests-per-second across passes.
    The absolute numbers are core-count-bound (``config.cpu_count``), so
    the regression gate does not compare them; the same-run
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
    registry = ModelRegistry()
    key = registry.register("mnist", scale=TEST_SCALE, seed=0)
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
                registry, max_batch=cfg["max_batch"]
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
          f"{os.cpu_count() or 1} cpu(s))")
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
    parser.add_argument("--repeats", type=int, default=15,
                        help="timing repeats per op (default 15)")
    parser.add_argument("--output", required=True, help="JSON output path")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-hot-paths-") as cache:
        # A private weight cache: the workload is trained afresh and the
        # user's cache is neither read nor written.
        os.environ["REPRO_CACHE_DIR"] = cache
        report = {
            "config": {"repeats": args.repeats},
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "machine": platform.machine(),
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            },
            "results": {
                "cell_sharding": bench_cell_sharding(args.repeats),
                "adversarial_search": bench_adversarial_search(args.repeats),
                "serving": bench_serving(args.repeats),
            },
        }
    results = report["results"]
    report["summary"] = {
        "cell_sharding_speedup":
            results["cell_sharding"]["speedup_over_unsharded"]["shards_4"],
        "adversarial_candidates_per_sec":
            results["adversarial_search"]["ttas3"]["candidates_per_sec"],
        "serving_speedup":
            results["serving"]["transport"]["throughput_speedup"],
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
