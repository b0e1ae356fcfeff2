"""Experiment harness reproducing the paper's figures and tables.

* :mod:`repro.experiments.config`    -- experiment presets (datasets, models,
  time steps, noise sweeps) at paper scale and at CPU-friendly bench scale,
* :mod:`repro.experiments.workloads` -- trained-model / converted-network
  preparation and caching,
* :mod:`repro.experiments.runner`    -- the generic (coding x noise) sweep
  runner all figures are built from,
* :mod:`repro.experiments.figures`   -- one entry point per paper figure
  (Figs. 2, 3, 4, 5B, 6, 7, 8) plus the hardware-fault robustness sweep,
* :mod:`repro.experiments.tables`    -- Tables I and II plus the
  hardware-fault table,
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
    run_noise_sweep,
    run_sweeps,
)
from repro.experiments.figures import (
    figure2_deletion,
    figure3_jitter,
    figure4_weight_scaling_ttas,
    figure5_activation_distribution,
    figure6_ttas_jitter,
    figure7_deletion_comparison,
    figure8_jitter_comparison,
    figure_adversarial,
    figure_fault_robustness,
)
from repro.experiments.tables import (
    table1_deletion,
    table2_jitter,
    table3_faults,
    table_adversarial,
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
    "run_noise_sweep",
    "run_sweeps",
    "figure2_deletion",
    "figure3_jitter",
    "figure4_weight_scaling_ttas",
    "figure5_activation_distribution",
    "figure6_ttas_jitter",
    "figure7_deletion_comparison",
    "figure8_jitter_comparison",
    "figure_adversarial",
    "figure_fault_robustness",
    "table1_deletion",
    "table2_jitter",
    "table3_faults",
    "table_adversarial",
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
