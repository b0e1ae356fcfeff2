"""Figure 3: accuracy and number of spikes vs spike-jitter intensity.

Paper setting: VGG16 on CIFAR-10, jitter sigma swept from 0.5 to 4.0,
codings rate / phase / burst / TTFS, no weight scaling.  Reported shape:
rate coding is essentially unaffected, the temporal codings degrade strongly,
TTFS is the most susceptible, and spike counts barely change with jitter.
"""

from benchmarks.conftest import EVAL_SIZE, MAX_WORKERS, SEED, emit_report, run_once
from repro.experiments import figure3_jitter, format_figure_series


def test_fig3_jitter_sweep(benchmark, workloads):
    """Regenerate the Fig. 3 accuracy/spike-count series."""
    workload = workloads.get("cifar10")

    def run():
        return figure3_jitter(
            dataset="cifar10", workload=workload, seed=SEED, eval_size=EVAL_SIZE,
            max_workers=MAX_WORKERS,
        )

    result = run_once(benchmark, run)
    emit_report("fig3_jitter", format_figure_series(result, "Fig. 3 -- jitter vs accuracy / spikes (CIFAR-10 stand-in)"))

    rate = result.curve("Rate")
    ttfs = result.curve("TTFS")
    max_level = max(result.config.levels)
    # Rate coding barely moves; TTFS loses clearly more accuracy than rate.
    rate_drop = rate.accuracy_at(0.0) - rate.accuracy_at(max_level)
    ttfs_drop = ttfs.accuracy_at(0.0) - ttfs.accuracy_at(max_level)
    assert rate_drop <= 0.15
    assert ttfs_drop >= rate_drop
    # Spike counts stay within a factor ~2 across the jitter sweep.
    for curve in result.curves:
        assert max(curve.spikes_per_sample) <= 2.5 * max(min(curve.spikes_per_sample), 1.0)
