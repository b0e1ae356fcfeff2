#!/usr/bin/env python
"""Deletion-robustness study on the CIFAR-10 stand-in (paper Figs. 2, 4, 7).

The scenario the paper motivates: a converted deep SNN is deployed on analog
neuromorphic hardware whose synapses drop spikes.  This example trains a
VGG-style CNN, converts it once, and then compares how every neural coding
scheme -- with and without weight scaling, and with the proposed TTAS coding
-- degrades as the deletion probability grows.

Run with::

    python examples/deletion_robustness_study.py            # quick defaults
    REPRO_EXAMPLE_FULL=1 python examples/deletion_robustness_study.py
"""

from __future__ import annotations

import os

from repro.experiments.config import BENCH_SCALE, MethodSpec, SweepConfig
from repro.experiments.reporting import format_figure_series
from repro.experiments.runner import run_sweep
from repro.experiments.workloads import prepare_workload


def main() -> None:
    full = bool(int(os.environ.get("REPRO_EXAMPLE_FULL", "0")))
    eval_size = 80 if full else 32
    levels = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9) if full else (0.0, 0.2, 0.5, 0.8)

    print("Preparing workload (synthetic CIFAR-10, scaled VGG)...")
    workload = prepare_workload("cifar10", scale=BENCH_SCALE, seed=0)
    print(f"analog DNN accuracy: {workload.dnn_accuracy * 100:.1f}%")

    methods = (
        MethodSpec(coding="rate"),
        MethodSpec(coding="ttfs"),
        MethodSpec(coding="rate", weight_scaling=True),
        MethodSpec(coding="ttfs", weight_scaling=True),
        MethodSpec(coding="ttas", weight_scaling=True, target_duration=5),
    )
    config = SweepConfig(
        dataset="cifar10",
        methods=methods,
        noise_kind="deletion",
        levels=levels,
        scale=BENCH_SCALE,
        seed=0,
    )
    print("Sweeping deletion probabilities; this runs the full spiking "
          "transport evaluation per method and level...")
    result = run_sweep(config, workload=workload, eval_size=eval_size)
    print()
    print(format_figure_series(result, "Deletion robustness study"))

    print()
    proposed = result.curve("TTAS(5)+WS")
    ttfs_ws = result.curve("TTFS+WS")
    print("Noisy-average accuracy (excluding the clean column):")
    for curve in result.curves:
        print(f"  {curve.label:<12} {curve.average_accuracy() * 100:5.1f}%")
    print()
    print(f"TTAS(5)+WS improves the noisy average over TTFS+WS by "
          f"{(proposed.average_accuracy() - ttfs_ws.average_accuracy()) * 100:+.1f} "
          f"accuracy points while using "
          f"{proposed.spikes_per_sample[0] / max(result.curve('Rate').spikes_per_sample[0], 1):.1%} "
          f"of rate coding's spikes.")


if __name__ == "__main__":
    main()
