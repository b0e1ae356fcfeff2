"""Figure 6: TTFS vs TTAS(t_a) under spike jitter.

Paper setting: VGG16 on CIFAR-10, jitter sigma 0.5..4.0, TTFS compared with
TTAS for burst durations 1..5 and 10 (no weight scaling).  Reported shape:
TTAS overtakes TTFS as the burst duration grows, with diminishing returns.
"""

from benchmarks.conftest import EVAL_SIZE, MAX_WORKERS, SEED, emit_report, run_once
from repro.experiments import figure6_ttas_jitter, format_figure_series
from repro.metrics import area_under_accuracy_curve


def test_fig6_ttas_vs_ttfs_jitter(benchmark, workloads):
    """Regenerate the Fig. 6 series."""
    workload = workloads.get("cifar10")

    def run():
        return figure6_ttas_jitter(
            dataset="cifar10", workload=workload, seed=SEED, eval_size=EVAL_SIZE,
            ttas_durations=(1, 3, 5, 10), max_workers=MAX_WORKERS,
        )

    result = run_once(benchmark, run)
    emit_report("fig6_ttas_jitter", format_figure_series(result, "Fig. 6 -- TTFS vs TTAS under jitter (CIFAR-10 stand-in)"))

    def auc(label):
        curve = result.curve(label)
        return area_under_accuracy_curve(curve.levels, curve.accuracies)

    # A long burst averages the jitter out: TTAS(10) must beat plain TTFS.
    assert auc("TTAS(10)") >= auc("TTFS")
    # And must not be worse than the shortest burst.
    assert auc("TTAS(10)") >= auc("TTAS(1)") - 0.02
