"""Robustness figure of merit over a noise sweep.

:func:`area_under_accuracy_curve` summarises an accuracy-vs-noise curve in
one scalar, which the ablation benches use to rank variants.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def area_under_accuracy_curve(
    levels: Sequence[float], accuracies: Sequence[float]
) -> float:
    """Trapezoidal area under the accuracy-vs-noise curve, normalised by range.

    A single scalar that rewards both high clean accuracy and slow decay; used
    by the ablation benches to rank weight-scaling variants.
    """
    levels = np.asarray(levels, dtype=np.float64)
    accuracies = np.asarray(accuracies, dtype=np.float64)
    if levels.shape != accuracies.shape or levels.size < 2:
        raise ValueError("need at least two (level, accuracy) pairs of equal length")
    order = np.argsort(levels)
    levels = levels[order]
    accuracies = accuracies[order]
    span = levels[-1] - levels[0]
    if span <= 0:
        return float(accuracies.mean())
    trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy 2.x rename
    return float(trapezoid(accuracies, levels) / span)
