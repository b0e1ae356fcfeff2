"""Reproduction of Tables I and II, plus the fault and attack tables.

Table I reports, per dataset (MNIST, CIFAR-10, CIFAR-100) and per method
(rate/phase/burst/TTFS with weight scaling, TTAS with weight scaling), the
accuracy and spike counts at deletion probabilities {clean, 0.2, 0.5, 0.8}
plus their average.  Table II reports accuracy under jitter sigma
{clean, 1, 2, 3} for phase/burst/TTFS/TTAS without weight scaling.  The
``table3-*`` entries extend the layout to the hardware-fault models (dead
neurons / stuck-at-firing / burst errors) of :mod:`repro.noise.faults`, and
the ``adv-*`` entries hold two rows per coding: a budgeted attacker's worst
case and the matched random baseline, over attack-budget columns.

Each table is a :class:`~repro.experiments.runner.SweepSpec` of
:data:`TABLES`, run by :func:`run_table`: the cells of *all* datasets are
compiled into one flat plan batch and dispatched through the executor
engine together, so a process pool shards whole datasets across workers
instead of sweeping them strictly serially.  :func:`table1_deletion` and
:func:`table2_jitter` are bindings onto it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.experiments.config import (
    BENCH_ATTACK_BUDGETS,
    TABLE1_DELETION_LEVELS,
    TABLE2_JITTER_LEVELS,
    TABLE3_FAULT_LEVELS,
    all_codings,
    all_codings_ws,
    coding_methods,
)
from repro.experiments.runner import MethodCurve, SweepSpec, noisy_level_mean, run_spec
from repro.experiments.workloads import PreparedWorkload


@dataclass
class TableRow:
    """One method's row of a results table.

    Attributes
    ----------
    dataset / method:
        Row identity.
    levels:
        Noise levels of the columns (0.0 is the "Clean" column).
    accuracies:
        Accuracy (%) per column, plus ``average_accuracy`` for "Avg.".
    spike_counts:
        Spikes per sample per column (Table I only), plus ``average_spikes``.
    """

    dataset: str
    method: str
    levels: List[float]
    accuracies: List[float]
    average_accuracy: float
    spike_counts: List[float] = field(default_factory=list)
    average_spikes: float = float("nan")


@dataclass
class TableResult:
    """A full table: rows grouped by dataset, plus provenance."""

    name: str
    rows: List[TableRow]
    noise_kind: str
    levels: List[float]

    def rows_for(self, dataset: str) -> List[TableRow]:
        return [row for row in self.rows if row.dataset == dataset]


def _curve_to_row(dataset: str, curve: MethodCurve, include_spikes: bool) -> TableRow:
    row = TableRow(
        dataset=dataset,
        method=curve.label,
        levels=list(curve.levels),
        accuracies=list(curve.accuracies),
        average_accuracy=curve.average_accuracy(),
    )
    if include_spikes:
        row.spike_counts = list(curve.spikes_per_sample)
        row.average_spikes = noisy_level_mean(curve.levels, curve.spikes_per_sample)
    return row


TABLES: Dict[str, SweepSpec] = {
    "table1": SweepSpec(
        "Table I (spike deletion)", all_codings_ws, "deletion",
        TABLE1_DELETION_LEVELS,
    ),
    "table2": SweepSpec(
        "Table II (spike jitter)",
        lambda ttas_duration=10: coding_methods(
            ("phase", "burst", "ttfs"), (ttas_duration,)
        ),
        "jitter", TABLE2_JITTER_LEVELS, spikes=False,
    ),
    **{
        f"table3-{name}": SweepSpec(
            f"Table III ({title})", all_codings_ws, kind, TABLE3_FAULT_LEVELS,
        )
        for name, kind, title in (
            ("dead", "dead", "dead neurons"),
            ("stuck", "stuck", "stuck-at-firing"),
            ("burst", "burst_error", "burst errors"),
        )
    },
    **{
        f"adv-{kind}": SweepSpec(
            f"Adversarial robustness (adv-{kind}, {{evaluator}})", all_codings,
            f"adv-{kind}", BENCH_ATTACK_BUDGETS, ("mnist",),
        )
        for kind in ("delete", "shift", "insert")
    },
}


def run_table(
    name: str,
    datasets: Optional[Sequence[str]] = None,
    *,
    workloads: Optional[Dict[str, PreparedWorkload]] = None,
    **kwargs,
) -> TableResult:
    """Run the :data:`TABLES` entry ``name``; one row per (dataset, curve).

    ``datasets`` defaults to the entry's, and all of them dispatch as one
    flat cell batch.  ``workloads`` reuses already prepared workloads keyed
    by dataset name.  Every other keyword argument is
    :func:`~repro.experiments.runner.run_spec`'s.
    """
    spec = TABLES[name]
    datasets = tuple(spec.datasets if datasets is None else datasets)
    sweeps = run_spec(spec, datasets, workloads=workloads, **kwargs)
    rows = [
        _curve_to_row(dataset, curve, spec.spikes)
        for dataset, sweep in zip(datasets, sweeps)
        for curve in sweep.curves
    ]
    return TableResult(
        name=spec.title.format(evaluator=kwargs.get("simulator") or "transport"),
        rows=rows,
        noise_kind=spec.axis,
        levels=list(sweeps[0].config.levels),
    )


table1_deletion = partial(run_table, "table1")
table2_jitter = partial(run_table, "table2")
