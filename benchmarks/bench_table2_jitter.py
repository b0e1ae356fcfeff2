"""Table II: spike jitter on MNIST / CIFAR-10 / CIFAR-100 (no weight scaling).

Paper setting: accuracy at jitter sigma {clean, 1, 2, 3} and the noisy
average for phase/burst/TTFS/TTAS on all three datasets.  Reported shape:
TTAS has the best noisy average of the temporal codings on every dataset
(the burst averages the jitter out), while TTFS collapses fastest.
"""

from benchmarks.conftest import EVAL_SIZE, MAX_WORKERS, SEED, emit_report, run_once
from repro.experiments import format_table_rows, table2_jitter


def test_table2_jitter(benchmark, workloads):
    """Regenerate the Table II rows on the three synthetic stand-ins."""
    datasets = ("mnist", "cifar10", "cifar100")
    pool = {name: workloads.get(name) for name in datasets}

    def run():
        return table2_jitter(
            datasets=datasets, workloads=pool, seed=SEED, eval_size=EVAL_SIZE,
            ttas_duration=10, max_workers=MAX_WORKERS,
        )

    table = run_once(benchmark, run)
    emit_report("table2_jitter", format_table_rows(table, "Table II -- spike jitter (synthetic stand-ins)"))

    for dataset in datasets:
        rows = {row.method: row for row in table.rows_for(dataset)}
        # TTAS must not be less jitter-robust than TTFS on average.
        assert rows["TTAS(10)"].average_accuracy >= rows["TTFS"].average_accuracy - 0.02
