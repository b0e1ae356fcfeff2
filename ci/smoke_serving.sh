#!/usr/bin/env bash
# Request-shaped serving smoke run.
#
# In-process service over a model registry with two registered test-scale
# mnist workloads (seeds 0 and 1) on a temporary result store + weight
# cache: 64 concurrent mixed-evaluator requests (transport and timestep)
# ride the micro-batching scheduler and every response must be
# bit-identical to its single-sample reference.  Then two "restarts": a
# fresh registry with no store over the same weight cache resolves both
# fingerprints through the conversion documents kept beside the weights,
# and, once the cache's copies are deleted, a fresh registry over the same
# store does so through the stored ones -- the calibration counter must not
# move, proving an eviction or process restart costs a weight load, never a
# re-conversion.
#
# Run from the repository root: bash ci/smoke_serving.sh
set -euo pipefail

export PYTHONPATH="${PYTHONPATH:-src}"
STORE="${REPRO_SMOKE_STORE:-/tmp/repro-ci-serving-store}"
CACHE="${REPRO_SMOKE_CACHE:-/tmp/repro-ci-serving-cache}"
rm -rf "$STORE" "$CACHE"

python - "$STORE" "$CACHE" <<'EOF'
import os
import shutil
import sys
import threading
import time

import numpy as np

from repro.conversion.converter import CONVERSION_COUNTERS
from repro.data.synthetic import load_dataset
from repro.execution.store import ResultStore
from repro.experiments.config import TEST_SCALE
from repro.metrics import latency_summary
from repro.serving import (
    MicroBatchScheduler,
    ModelRegistry,
    RequestSpec,
    serve_single,
)

store_dir, cache_dir = sys.argv[1], sys.argv[2]
REQUESTS = 64
CLIENTS = 16

registry = ModelRegistry(store=ResultStore(store_dir))
keys = [
    registry.register("mnist", scale=TEST_SCALE, seed=seed,
                      cache_dir=cache_dir)
    for seed in (0, 1)
]
assert len(set(keys)) == 2, "two workloads must fingerprint distinctly"
calibrations = CONVERSION_COUNTERS["calibrations"]
assert calibrations >= 2

specs = [
    RequestSpec.create(evaluator="transport", coding="rate", num_steps=16),
    RequestSpec.create(evaluator="timestep", coding="rate", num_steps=16,
                       threshold=0.1),
]
images = load_dataset("mnist", rng=0).test.x
requests = [
    (keys[i % 2], specs[(i // 2) % 2],
     np.asarray(images[i % len(images)], dtype=np.float32))
    for i in range(REQUESTS)
]
references = [
    serve_single(registry.get(key), spec, sample)
    for key, spec, sample in requests
]

results = [None] * REQUESTS
latencies = [None] * REQUESTS
errors = []
with MicroBatchScheduler(registry, max_batch=8) as scheduler:
    def client(indices):
        try:
            for i in indices:
                start = time.perf_counter()
                results[i] = scheduler.submit(
                    requests[i][0], requests[i][2], spec=requests[i][1]
                ).result(timeout=120)
                latencies[i] = time.perf_counter() - start
        except BaseException as error:  # pragma: no cover - surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=client, args=(range(c, REQUESTS, CLIENTS),))
        for c in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

assert not errors, errors
for result, reference, (key, spec, _) in zip(results, references, requests):
    assert result is not None
    assert result.model_key == key
    assert result.evaluator == spec.evaluator
    assert np.array_equal(result.logits, reference.logits), \
        "micro-batched response diverged from its single-sample reference"
assert scheduler.stats.requests == REQUESTS
assert scheduler.stats.mean_batch_size > 1.0, \
    "concurrent load should coalesce into multi-sample batches"

# Registry restart with no store: a fresh instance over the same weight
# cache must resolve both fingerprints from the conversion documents kept
# beside the weights, with zero new calibration passes.
storeless = ModelRegistry()
storeless_keys = [
    storeless.register("mnist", scale=TEST_SCALE, seed=seed,
                       cache_dir=cache_dir)
    for seed in (0, 1)
]
assert storeless_keys == keys, "a store-less restart must reproduce the fingerprints"
assert CONVERSION_COUNTERS["calibrations"] == calibrations, \
    "a store-less restart must read the conversion from the weight cache"

# Registry restart: a fresh instance over the same store must resolve both
# fingerprints from the stored conversion documents with zero new
# calibration passes.  The weight cache's copies are dropped first, so only
# the store can serve this restart.
shutil.rmtree(os.path.join(cache_dir, "workloads"))
restarted = ModelRegistry(store=ResultStore(store_dir))
restarted_keys = [
    restarted.register("mnist", scale=TEST_SCALE, seed=seed,
                       cache_dir=cache_dir)
    for seed in (0, 1)
]
assert restarted_keys == keys, "restart must reproduce the fingerprints"
assert CONVERSION_COUNTERS["calibrations"] == calibrations, \
    "restart load-through must not re-run calibration"
for key, spec, sample in requests[:4]:
    again = serve_single(restarted.get(key), spec, sample)
    reference = serve_single(registry.get(key), spec, sample)
    assert np.array_equal(again.logits, reference.logits), \
        "restarted registry serves different bits"

summary = latency_summary(latencies)
print(f"serving smoke: {REQUESTS} mixed-evaluator requests over 2 models "
      f"bit-identical (mean batch {scheduler.stats.mean_batch_size:.1f}, "
      f"p50 {summary.p50 * 1e3:.1f}ms / p90 {summary.p90 * 1e3:.1f}ms / "
      f"p99 {summary.p99 * 1e3:.1f}ms), "
      f"restart load-through with and without a store, 0 re-calibrations")
EOF
