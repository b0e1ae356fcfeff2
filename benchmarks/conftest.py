"""Shared fixtures for the benchmark harness.

Each ``bench_*.py`` file regenerates one table or figure of the paper.  The
expensive part -- generating data, training the DNN, converting it -- is done
once per dataset and shared across all benchmarks through the session-scoped
``workloads`` fixture (plus an on-disk weight cache at
``$REPRO_CACHE_DIR`` / ``~/.cache/repro-snn``).

Environment knobs:

* ``REPRO_BENCH_EVAL``    -- evaluation images per noise level (default 32),
* ``REPRO_BENCH_SEED``    -- seed for training/noise (default 0),
* ``REPRO_BENCH_WORKERS`` -- sweep worker threads per figure/table (default
  serial; 0 = one per CPU).  Results are bit-identical at any worker count.
"""

from __future__ import annotations

import os
from typing import Dict

import pytest

from repro.experiments.config import BENCH_SCALE
from repro.experiments.workloads import PreparedWorkload, prepare_workload

#: Evaluation images per noise level used by every benchmark.
EVAL_SIZE = int(os.environ.get("REPRO_BENCH_EVAL", "32"))
#: Seed shared by every benchmark.
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))
#: Sweep worker threads per benchmark, passed as ``max_workers=`` to every
#: figure/table sweep in the harness.
MAX_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "").strip() or 1)


class WorkloadPool:
    """Lazily prepared, session-cached workloads keyed by dataset name."""

    def __init__(self) -> None:
        self._pool: Dict[str, PreparedWorkload] = {}

    def get(self, dataset: str) -> PreparedWorkload:
        if dataset not in self._pool:
            self._pool[dataset] = prepare_workload(
                dataset, scale=BENCH_SCALE, seed=SEED
            )
        return self._pool[dataset]


@pytest.fixture(scope="session")
def workloads() -> WorkloadPool:
    """Session-wide pool of trained + converted workloads."""
    return WorkloadPool()


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing.

    Figure sweeps are far too heavy for statistical repetition; one round per
    benchmark keeps the harness honest about cost while still recording the
    wall-clock time in the benchmark report.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


#: Directory the rendered figure/table reports are written to.
REPORT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "reports")


def emit_report(name: str, text: str) -> None:
    """Print a rendered report and persist it under ``reports/``.

    pytest captures stdout of passing tests, so the persisted copy is what a
    user reads after ``pytest benchmarks/ --benchmark-only``; EXPERIMENTS.md
    points at these files.
    """
    print()
    print(text)
    os.makedirs(REPORT_DIR, exist_ok=True)
    path = os.path.join(REPORT_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
