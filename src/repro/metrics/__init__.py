"""Evaluation metrics: the energy proxy, a robustness summary and latencies."""

from repro.metrics.spikes import energy_proxy
from repro.metrics.robustness import area_under_accuracy_curve
from repro.metrics.latency import (
    LatencySummary,
    latency_summary,
    pool_latencies,
)

__all__ = [
    "LatencySummary",
    "latency_summary",
    "pool_latencies",
    "energy_proxy",
    "area_under_accuracy_curve",
]
