"""Ablation: weight-scaling factor rule (inverse vs proportional).

DESIGN.md calls out the choice of scale-factor rule as worth ablating: the
paper only states that C is "proportional to the deletion probability".  This
bench compares ``C = 1/(1-p)`` (exact expectation inverse) against
``C = 1 + p`` (linear rule) for rate coding under deletion, and verifies the
inverse rule compensates at least as well at high deletion rates.
"""

import numpy as np

from benchmarks.conftest import EVAL_SIZE, SEED, run_once
from repro.coding import RateCoder
from repro.core import ActivationTransportSimulator, WeightScaling
from repro.experiments.config import BENCH_SCALE
from repro.experiments.reporting import render_markdown_table
from repro.noise import NoiseInjector

LEVELS = (0.2, 0.5, 0.8)


def _accuracy(workload, scaling, level):
    x, y = workload.evaluation_slice(EVAL_SIZE)
    simulator = ActivationTransportSimulator(
        workload.network,
        RateCoder(num_steps=BENCH_SCALE.rate_time_steps),
        noise=NoiseInjector(deletion=level),
        weight_scaling=scaling,
    )
    return simulator.evaluate(x, y, rng=SEED).accuracy


def test_ablation_weight_scaling_factor(benchmark, workloads):
    """Compare the two weight-scaling factor rules under deletion."""
    workload = workloads.get("cifar10")

    def run():
        policies = {
            "none": WeightScaling.disabled(),
            "proportional (C = 1 + p)": WeightScaling(mode="proportional"),
            "inverse (C = 1/(1-p))": WeightScaling(mode="inverse"),
        }
        return {
            name: [_accuracy(workload, policy, level) for level in LEVELS]
            for name, policy in policies.items()
        }

    results = run_once(benchmark, run)
    print()
    header = ["policy"] + [f"p={level:g}" for level in LEVELS]
    rows = [
        [name] + [f"{acc * 100:5.1f}%" for acc in accs]
        for name, accs in results.items()
    ]
    print(render_markdown_table(header, rows))

    mean = {name: float(np.mean(accs)) for name, accs in results.items()}
    assert mean["inverse (C = 1/(1-p))"] >= mean["none"] - 0.02
    # At p=0.8 the exact inverse must compensate at least as well as 1 + p.
    assert results["inverse (C = 1/(1-p))"][-1] >= results["proportional (C = 1 + p)"][-1] - 0.05
