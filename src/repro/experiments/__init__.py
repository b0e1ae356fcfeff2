"""Experiment harness reproducing the paper's figures and tables.

* :mod:`repro.experiments.config`    -- experiment presets (datasets, models,
  time steps, noise sweeps) at paper scale and at CPU-friendly bench scale,
* :mod:`repro.experiments.workloads` -- trained-model / converted-network
  preparation and caching,
* :mod:`repro.experiments.runner`    -- the generic (coding x noise) sweep
  runner and the catalogue entry type (:class:`SweepSpec`) every figure and
  table is,
* :mod:`repro.experiments.figures`   -- the figure catalogue
  (:data:`FIGURES`: Figs. 2, 3, 4, 6, 7, 8 plus the fault and attack
  sweeps) and its runner, plus Fig. 5B,
* :mod:`repro.experiments.tables`    -- the table catalogue
  (:data:`TABLES`: Tables I and II plus the fault and attack tables) and
  its runner,
* :mod:`repro.experiments.reporting` -- plain-text rendering of the series
  and table rows the paper reports.
"""

from repro.experiments.config import (
    BENCH_ATTACK_BUDGETS,
    BENCH_SCALE,
    BURST_ERROR_LEVELS,
    FAULT_LEVELS,
    FAULT_NOISE_KINDS,
    NOISE_KINDS,
    PAPER_SCALE,
    TABLE3_FAULT_LEVELS,
    AttackSweepConfig,
    DatasetConfig,
    ExperimentScale,
    MethodSpec,
    SweepConfig,
    dataset_config,
)
from repro.experiments.workloads import PreparedWorkload, prepare_workload
from repro.experiments.runner import (
    SweepResult,
    SweepSpec,
    run_sweep,
    run_sweeps,
)
from repro.experiments.figures import (
    FIGURES,
    run_figure,
    figure2_deletion,
    figure3_jitter,
    figure4_weight_scaling_ttas,
    figure5_activation_distribution,
    figure6_ttas_jitter,
    figure7_deletion_comparison,
    figure8_jitter_comparison,
)
from repro.experiments.tables import (
    TABLES,
    run_table,
    table1_deletion,
    table2_jitter,
)
from repro.experiments.reporting import (
    format_activation_distributions,
    format_figure_series,
    format_table_rows,
    render_markdown_table,
)

__all__ = [
    "ExperimentScale",
    "PAPER_SCALE",
    "BENCH_SCALE",
    "DatasetConfig",
    "dataset_config",
    "MethodSpec",
    "SweepConfig",
    "AttackSweepConfig",
    "BENCH_ATTACK_BUDGETS",
    "PreparedWorkload",
    "prepare_workload",
    "SweepResult",
    "SweepSpec",
    "run_sweep",
    "run_sweeps",
    "FIGURES",
    "run_figure",
    "TABLES",
    "run_table",
    "figure2_deletion",
    "figure3_jitter",
    "figure4_weight_scaling_ttas",
    "figure5_activation_distribution",
    "figure6_ttas_jitter",
    "figure7_deletion_comparison",
    "figure8_jitter_comparison",
    "table1_deletion",
    "table2_jitter",
    "FAULT_NOISE_KINDS",
    "NOISE_KINDS",
    "FAULT_LEVELS",
    "BURST_ERROR_LEVELS",
    "TABLE3_FAULT_LEVELS",
    "format_figure_series",
    "format_table_rows",
    "format_activation_distributions",
    "render_markdown_table",
]
