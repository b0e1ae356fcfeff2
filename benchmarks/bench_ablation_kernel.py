"""Ablation: PSC kernel resolution for TTFS/TTAS coding.

The paper notes that TTAS applied to the exponentially decreasing PSC kernel
(as in T2FSNN) concentrates the noisy activation around 0 and A.  The kernel
decay is set by the coder's dynamic range (``min_value``): a finer resolution
(smaller min_value, slower decay) tolerates jitter better but needs a longer
window.  This bench sweeps the resolution and reports the clean accuracy and
jitter robustness trade-off for TTAS(5).
"""

import numpy as np

from benchmarks.conftest import EVAL_SIZE, SEED, run_once
from repro.coding import TTASCoder
from repro.core import ActivationTransportSimulator
from repro.experiments.config import BENCH_SCALE
from repro.experiments.reporting import render_markdown_table
from repro.noise import NoiseInjector

MIN_VALUES = (0.2, 0.05, 0.02, 0.005)


def test_ablation_ttas_kernel_resolution(benchmark, workloads):
    """Sweep the TTAS kernel dynamic range (min_value) under jitter."""
    workload = workloads.get("cifar10")
    x, y = workload.evaluation_slice(EVAL_SIZE)

    def run():
        results = {}
        for min_value in MIN_VALUES:
            coder = TTASCoder(
                num_steps=BENCH_SCALE.ttfs_time_steps,
                target_duration=5,
                min_value=min_value,
            )
            clean = ActivationTransportSimulator(workload.network, coder).evaluate(
                x, y, rng=SEED
            ).accuracy
            noisy = ActivationTransportSimulator(
                workload.network, coder, noise=NoiseInjector(jitter=2.0)
            ).evaluate(x, y, rng=SEED).accuracy
            results[min_value] = (clean, noisy, coder.tau)
        return results

    results = run_once(benchmark, run)
    print()
    header = ["min_value", "tau (steps)", "clean accuracy", "jitter sigma=2"]
    rows = [
        [f"{mv:g}", f"{tau:.2f}", f"{clean * 100:5.1f}%", f"{noisy * 100:5.1f}%"]
        for mv, (clean, noisy, tau) in results.items()
    ]
    print(render_markdown_table(header, rows))

    # A wider dynamic range (smaller min_value) compresses the same window
    # into a faster-decaying kernel, i.e. tau shrinks.
    taus = [results[mv][2] for mv in MIN_VALUES]
    assert all(b < a for a, b in zip(taus, taus[1:])), "tau must shrink with dynamic range"
    # Some configuration must remain usable under jitter.
    assert max(noisy for _, noisy, _ in results.values()) > 0.2
