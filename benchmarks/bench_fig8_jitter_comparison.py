"""Figure 8: rate/phase/burst/TTFS/TTAS(10) under spike jitter.

Paper setting: VGG16 on CIFAR-10, no weight scaling.  Reported shape: rate
coding is unaffected, TTFS is the most susceptible temporal coding, and
TTAS(10) recovers robustness comparable to burst coding.
"""

from benchmarks.conftest import EVAL_SIZE, MAX_WORKERS, SEED, emit_report, run_once
from repro.experiments import figure8_jitter_comparison, format_figure_series
from repro.metrics import area_under_accuracy_curve


def test_fig8_full_jitter_comparison(benchmark, workloads):
    """Regenerate the Fig. 8 series."""
    workload = workloads.get("cifar10")

    def run():
        return figure8_jitter_comparison(
            dataset="cifar10", workload=workload, seed=SEED, eval_size=EVAL_SIZE,
            ttas_duration=10, max_workers=MAX_WORKERS,
        )

    result = run_once(benchmark, run)
    emit_report("fig8_jitter_comparison", format_figure_series(result, "Fig. 8 -- jitter robustness comparison (CIFAR-10 stand-in)"))

    def auc(label):
        curve = result.curve(label)
        return area_under_accuracy_curve(curve.levels, curve.accuracies)

    # Rate coding stays the most jitter-robust configuration.
    assert auc("Rate") >= max(auc("Phase"), auc("Burst"), auc("TTFS")) - 0.02
    # TTAS(10) recovers at least TTFS-level robustness (paper: close to burst).
    assert auc("TTAS(10)") >= auc("TTFS") - 0.02
