#!/usr/bin/env bash
# Paper-window smoke run.
#
# Rate, phase and burst coding at the paper's T=1000 window, under spike
# deletion 0.5 and 10% dead neurons, through NoiseRobustSNN on 16 test-scale
# mnist images.  These evaluations run on per-class spike counts (the
# transport evaluator's class path), so two seeded runs must agree exactly
# and the evaluating process must peak below 150 MB RSS; the (T, batch, N)
# time grid of the time-resolved path needs about twice that.  The
# workload is trained in a separate process first, so the training peak
# stays out of the measurement.
#
# Run from the repository root: bash ci/smoke_paper_window.sh
set -euo pipefail

export PYTHONPATH="${PYTHONPATH:-src}"
CACHE="${REPRO_SMOKE_CACHE:-/tmp/repro-ci-paper-window-cache}"
rm -rf "$CACHE"

python - "$CACHE" <<'PY'
import sys

from repro.experiments import prepare_workload
from repro.experiments.config import TEST_SCALE

prepare_workload("mnist", scale=TEST_SCALE, seed=0, cache_dir=sys.argv[1])
PY

python - "$CACHE" <<'PY'
import resource
import sys

from repro.core.pipeline import NoiseRobustSNN
from repro.experiments import prepare_workload
from repro.experiments.config import TEST_SCALE

PEAK_LIMIT_MB = 150
workload = prepare_workload("mnist", scale=TEST_SCALE, seed=0, cache_dir=sys.argv[1])
x, y = workload.data.test.x[:16], workload.data.test.y[:16]
for coding in ("rate", "phase", "burst"):
    snn = NoiseRobustSNN(workload.network, coding=coding, num_steps=1000)
    first, second = (
        snn.evaluate(x, y, deletion=0.5, dead=0.1, rng=7).as_dict()
        for _ in range(2)
    )
    assert first == second, f"{coding}: seeded runs differ: {first} != {second}"
    assert first["total_spikes"] > 0, f"{coding}: no spike survived"
    print(f"{coding} T=1000: accuracy {first['accuracy']:.3f}, "
          f"{first['spikes_per_sample']:.0f} spikes/sample")

# ru_maxrss is in KiB on Linux.
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"paper-window smoke: peak RSS {peak_mb:.0f} MB (limit {PEAK_LIMIT_MB} MB)")
assert peak_mb < PEAK_LIMIT_MB, f"peak RSS {peak_mb:.0f} MB >= {PEAK_LIMIT_MB} MB"
PY
