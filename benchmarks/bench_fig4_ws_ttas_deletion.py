"""Figure 4: weight scaling (WS) and TTAS(t_a)+WS under spike deletion.

Paper setting: VGG16 on CIFAR-10, weight scaling applied to every coding,
plus TTAS with burst durations t_a = 1..5.  Reported shape: WS improves the
deletion robustness of every coding, TTFS+WS benefits the least (over-
activation from its all-or-none failures), and TTAS+WS improves monotonically
with t_a until it saturates.
"""

from benchmarks.conftest import EVAL_SIZE, MAX_WORKERS, SEED, emit_report, run_once
from repro.experiments import figure4_weight_scaling_ttas, format_figure_series
from repro.metrics import area_under_accuracy_curve


def test_fig4_weight_scaling_and_ttas(benchmark, workloads):
    """Regenerate the Fig. 4 series (all curves use weight scaling)."""
    workload = workloads.get("cifar10")

    def run():
        return figure4_weight_scaling_ttas(
            dataset="cifar10", workload=workload, seed=SEED, eval_size=EVAL_SIZE,
            ttas_durations=(1, 2, 3, 5), max_workers=MAX_WORKERS,
        )

    result = run_once(benchmark, run)
    emit_report("fig4_ws_ttas_deletion", format_figure_series(result, "Fig. 4 -- weight scaling + TTAS vs deletion (CIFAR-10 stand-in)"))

    def auc(label):
        curve = result.curve(label)
        return area_under_accuracy_curve(curve.levels, curve.accuracies)

    # TTAS(5)+WS should be at least as deletion-robust as TTFS+WS overall.
    assert auc("TTAS(5)+WS") >= auc("TTFS+WS") - 0.02
    # Longer bursts should not hurt robustness (monotone up to saturation).
    assert auc("TTAS(5)+WS") >= auc("TTAS(1)+WS") - 0.02
