#!/usr/bin/env python
"""Jitter-robustness study and TTAS burst-duration sweep (paper Figs. 3, 6, 8).

Analog neuromorphic circuits also shift spike times (temporal variability).
This example measures how the coding schemes react to Gaussian spike jitter
and how the TTAS burst duration t_a trades spikes for jitter robustness --
the "time-to-average-spike" effect.

Run with::

    python examples/jitter_robustness_study.py
"""

from __future__ import annotations

from repro.experiments.config import BENCH_SCALE, MethodSpec, SweepConfig
from repro.experiments.reporting import format_figure_series, render_markdown_table
from repro.experiments.runner import run_sweep
from repro.experiments.workloads import prepare_workload


def main() -> None:
    print("Preparing workload (synthetic CIFAR-10, scaled VGG)...")
    workload = prepare_workload("cifar10", scale=BENCH_SCALE, seed=0)
    print(f"analog DNN accuracy: {workload.dnn_accuracy * 100:.1f}%")

    # Part 1: coding schemes under jitter (Figs. 3 and 8).
    methods = (
        MethodSpec(coding="rate"),
        MethodSpec(coding="phase"),
        MethodSpec(coding="burst"),
        MethodSpec(coding="ttfs"),
        MethodSpec(coding="ttas", target_duration=10),
    )
    config = SweepConfig(
        dataset="cifar10", methods=methods, noise_kind="jitter",
        levels=(0.0, 1.0, 2.0, 3.0, 4.0), scale=BENCH_SCALE, seed=0,
    )
    result = run_sweep(config, workload=workload, eval_size=32)
    print()
    print(format_figure_series(result, "Jitter robustness by coding scheme"))

    # Part 2: TTAS burst-duration sweep at a fixed jitter level (Fig. 6).
    print()
    print("TTAS burst-duration sweep at jitter sigma = 2.0:")
    duration_methods = tuple(
        MethodSpec(coding="ttas", target_duration=d) for d in (1, 2, 3, 5, 10)
    )
    duration_config = SweepConfig(
        dataset="cifar10", methods=duration_methods, noise_kind="jitter",
        levels=(0.0, 2.0), scale=BENCH_SCALE, seed=0,
    )
    duration_result = run_sweep(duration_config, workload=workload, eval_size=32)
    rows = []
    for curve in duration_result.curves:
        rows.append([
            curve.label,
            f"{curve.accuracy_at(0.0) * 100:5.1f}%",
            f"{curve.accuracy_at(2.0) * 100:5.1f}%",
            f"{curve.spikes_per_sample[0]:,.0f}",
        ])
    print(render_markdown_table(
        ["method", "clean", "jitter sigma=2", "spikes/sample"], rows
    ))
    print()
    print("Longer bursts average out the per-spike jitter (time-to-AVERAGE-spike),")
    print("at the cost of proportionally more spikes -- the paper's Fig. 6 trade-off.")


if __name__ == "__main__":
    main()
