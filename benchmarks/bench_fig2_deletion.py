"""Figure 2: accuracy and number of spikes vs spike-deletion probability.

Paper setting: VGG16 on CIFAR-10, deletion probability swept from 0.1 to
0.9, neural codings rate / phase / burst / TTFS, no weight scaling.
Reported shape: accuracy collapses for every coding as p grows (below 40%
for p > 0.4), TTFS degrades most gracefully among the unscaled codings, and
TTFS uses orders of magnitude fewer spikes.
"""

from benchmarks.conftest import EVAL_SIZE, MAX_WORKERS, SEED, emit_report, run_once
from repro.experiments import figure2_deletion, format_figure_series


def test_fig2_deletion_sweep(benchmark, workloads):
    """Regenerate the Fig. 2 accuracy/spike-count series."""
    workload = workloads.get("cifar10")

    def run():
        return figure2_deletion(
            dataset="cifar10", workload=workload, seed=SEED, eval_size=EVAL_SIZE,
            max_workers=MAX_WORKERS,
        )

    result = run_once(benchmark, run)
    emit_report("fig2_deletion", format_figure_series(result, "Fig. 2 -- deletion vs accuracy / spikes (CIFAR-10 stand-in)"))

    clean = {c.label: c.accuracy_at(0.0) for c in result.curves}
    worst = {c.label: c.accuracy_at(max(result.config.levels)) for c in result.curves}
    # Accuracy must collapse towards chance at p=0.9 for every coding.
    assert all(worst[label] <= clean[label] for label in clean)
    # TTFS must use far fewer spikes than rate coding (paper: ~100x).
    rate_spikes = result.curve("Rate").spikes_per_sample[0]
    ttfs_spikes = result.curve("TTFS").spikes_per_sample[0]
    assert ttfs_spikes * 3 < rate_spikes
