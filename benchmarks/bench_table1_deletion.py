"""Table I: spike deletion on MNIST / CIFAR-10 / CIFAR-100 (all methods + WS).

Paper setting: accuracy and number of spikes at deletion probabilities
{clean, 0.2, 0.5, 0.8} and their average, for rate/phase/burst/TTFS with
weight scaling and the proposed TTAS with weight scaling, on all three
datasets.  Reported shape: TTAS+WS has the best noisy average among the
temporal codings on every dataset while using ~2 orders of magnitude fewer
spikes than the rate-like codings.
"""

from benchmarks.conftest import EVAL_SIZE, MAX_WORKERS, SEED, emit_report, run_once
from repro.experiments import format_table_rows, table1_deletion


def test_table1_deletion(benchmark, workloads):
    """Regenerate the Table I rows on the three synthetic stand-ins."""
    datasets = ("mnist", "cifar10", "cifar100")
    pool = {name: workloads.get(name) for name in datasets}

    def run():
        return table1_deletion(
            datasets=datasets, workloads=pool, seed=SEED, eval_size=EVAL_SIZE,
            ttas_duration=5, max_workers=MAX_WORKERS,
        )

    table = run_once(benchmark, run)
    emit_report("table1_deletion", format_table_rows(table, "Table I -- spike deletion (synthetic stand-ins)"))

    for dataset in datasets:
        rows = {row.method: row for row in table.rows_for(dataset)}
        # The proposed method beats TTFS+WS on the noisy average.
        assert rows["TTAS(5)+WS"].average_accuracy >= rows["TTFS+WS"].average_accuracy - 0.02
        # Temporal codings use far fewer spikes than rate coding.
        assert rows["TTFS+WS"].spike_counts[0] * 2 < rows["Rate+WS"].spike_counts[0]
        assert rows["TTAS(5)+WS"].spike_counts[0] < rows["Rate+WS"].spike_counts[0]
