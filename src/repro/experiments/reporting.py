"""Plain-text rendering of figure series and table rows.

The benchmark harness prints the same rows/series the paper reports so the
measured shape can be compared against the published numbers (EXPERIMENTS.md
records that comparison).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.analysis import ActivationDistribution
from repro.experiments.runner import SweepResult
from repro.experiments.tables import TableResult


def render_markdown_table(
    header: Sequence[str], rows: Sequence[Sequence[str]]
) -> str:
    """Render a simple GitHub-flavoured markdown table."""
    if not header:
        raise ValueError("header must contain at least one column")
    widths = [len(str(h)) for h in header]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"row has {len(row)} cells but the header has {len(header)}"
            )
        widths = [max(w, len(str(cell))) for w, cell in zip(widths, row)]
    def fmt(cells: Sequence[str]) -> str:
        return "| " + " | ".join(str(c).ljust(w) for c, w in zip(cells, widths)) + " |"
    lines = [fmt(header), "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def _accuracy_cell(accuracy: float) -> str:
    """One accuracy cell; NaN (a failed-cell hole) renders as an explicit
    ``--`` so holes are visible rather than silently blank or interpolated."""
    if np.isnan(accuracy):
        return "   -- "
    return f"{accuracy * 100:5.1f}%"


def _spikes_cell(spikes: float) -> str:
    """One spikes-per-sample cell; NaN holes render as ``--``."""
    if np.isnan(spikes):
        return "--"
    return f"{spikes:,.0f}"


def format_figure_series(result: SweepResult, title: str = "") -> str:
    """Render a sweep as an accuracy table plus a spikes-per-sample table.

    Failed cells (holes from fault-tolerant execution) appear as ``--``.
    """
    levels = list(result.config.levels)
    noise = result.config.noise_kind
    header = [f"{noise} level"] + [f"{level:g}" for level in levels]
    accuracy_rows = []
    spike_rows = []
    for curve in result.curves:
        accuracy_rows.append(
            [curve.label] + [_accuracy_cell(acc) for acc in curve.accuracies]
        )
        spike_rows.append(
            [curve.label] + [_spikes_cell(sps) for sps in curve.spikes_per_sample]
        )
    parts = []
    if title:
        parts.append(f"# {title}")
    parts.append(
        f"dataset={result.dataset_name}  DNN accuracy={result.dnn_accuracy * 100:.1f}%  "
        f"scale={result.config.scale.name}"
    )
    parts.append("Accuracy:")
    parts.append(render_markdown_table(header, accuracy_rows))
    parts.append("Spikes per sample (after noise):")
    parts.append(render_markdown_table(header, spike_rows))
    return "\n".join(parts)


def format_table_rows(table: TableResult, title: str = "") -> str:
    """Render a Table I / Table II reproduction in the paper's layout.

    Failed cells (holes from fault-tolerant execution) appear as ``--``;
    averages are taken over the cells that did evaluate.
    """
    levels = table.levels
    level_labels = ["Clean" if level == 0.0 else f"{level:g}" for level in levels]
    header = ["Dataset", "Method"] + level_labels + ["Avg."]

    def pct(acc: float) -> str:
        return "   --" if np.isnan(acc) else f"{acc * 100:5.2f}"

    rows: List[List[str]] = []
    for row in table.rows:
        cells = [row.dataset, row.method]
        cells.extend(pct(acc) for acc in row.accuracies)
        cells.append(pct(row.average_accuracy))
        rows.append(cells)
    parts = []
    if title:
        parts.append(f"# {title}")
    parts.append(f"{table.name} -- accuracy (%)")
    parts.append(render_markdown_table(header, rows))
    if any(row.spike_counts for row in table.rows):
        spike_header = ["Dataset", "Method"] + level_labels + ["Avg."]
        spike_rows = []
        for row in table.rows:
            if not row.spike_counts:
                continue
            cells = [row.dataset, row.method]
            cells.extend(f"{count:,.0f}" for count in row.spike_counts)
            cells.append(f"{row.average_spikes:,.0f}")
            spike_rows.append(cells)
        parts.append("Spikes per sample:")
        parts.append(render_markdown_table(spike_header, spike_rows))
    return "\n".join(parts)


def format_activation_distributions(
    distributions: Dict[str, ActivationDistribution], title: str = ""
) -> str:
    """Render Fig. 5B-style activation histograms as text bars."""
    parts = []
    if title:
        parts.append(f"# {title}")
    for name, dist in distributions.items():
        probabilities = dist.probabilities
        bars = []
        for edge, probability in zip(dist.bin_edges[:-1], probabilities):
            bar = "#" * int(round(probability * 40))
            bars.append(f"  {edge:5.2f} | {bar} {probability * 100:4.1f}%")
        parts.append(
            f"{name}: clean A={dist.clean_value:.2f} "
            f"mean A'={dist.mean:.3f} std={dist.std:.3f}"
        )
        parts.extend(bars)
    return "\n".join(parts)
