"""Conversion-time activation statistics.

:func:`collect_activation_statistics` runs the trained network on a
calibration batch and records the post-ReLU activation distribution of every
spiking point; the resulting robust maxima are the activation scales (lambda)
the coders normalise against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.nn.layers import ReLU
from repro.nn.model import Sequential
from repro.utils.validation import check_positive, check_probability

#: Lower bound on every activation scale, so dead units cannot yield zero.
MINIMUM_SCALE = 1e-3


@dataclass
class ActivationStatistics:
    """Per-spiking-point activation statistics collected on calibration data.

    Attributes
    ----------
    scales:
        Robust maximum activation per spiking point (the lambda used for
        normalisation).
    percentile:
        Percentile used to compute the robust maxima.
    means / maxima:
        Additional summary statistics kept for analysis and reporting.
    sample_size:
        Number of calibration images used.
    """

    scales: List[float]
    percentile: float
    means: List[float] = field(default_factory=list)
    maxima: List[float] = field(default_factory=list)
    sample_size: int = 0


def spiking_point_indices(model: Sequential) -> List[int]:
    """Indices of layers whose outputs become spiking populations (the ReLUs)."""
    return [index for index, layer in enumerate(model.layers) if isinstance(layer, ReLU)]


def collect_activation_statistics(
    model: Sequential,
    calibration_inputs: np.ndarray,
    percentile: float = 99.9,
    batch_size: int = 64,
) -> ActivationStatistics:
    """Collect post-ReLU activation statistics on calibration data.

    Parameters
    ----------
    model:
        Trained network, run in inference mode.
    calibration_inputs:
        Image tensor ``(N, C, H, W)`` -- a slice of the training set.
    percentile:
        Robust-maximum percentile used as the activation scale.
    batch_size:
        Calibration is run in batches of this size to bound memory.

    Every scale is at least :data:`MINIMUM_SCALE`, so dead units cannot
    yield zero.
    """
    check_probability("percentile/100", percentile / 100.0)
    check_positive("batch_size", batch_size)
    calibration_inputs = np.asarray(calibration_inputs, dtype=np.float32)
    if calibration_inputs.ndim < 2:
        raise ValueError("calibration inputs must be a batch of samples")

    relu_indices = spiking_point_indices(model)
    collected: Dict[int, List[np.ndarray]] = {index: [] for index in relu_indices}
    for start in range(0, calibration_inputs.shape[0], int(batch_size)):
        batch = calibration_inputs[start:start + int(batch_size)]
        out = batch
        for index, layer in enumerate(model.layers):
            out = layer.forward(out, training=False)
            if index in collected:
                collected[index].append(out.reshape(-1))

    scales: List[float] = []
    means: List[float] = []
    maxima: List[float] = []
    for index in relu_indices:
        values = np.concatenate(collected[index]) if collected[index] else np.zeros(1)
        scales.append(max(float(np.percentile(values, percentile)), MINIMUM_SCALE))
        means.append(float(values.mean()))
        maxima.append(float(values.max()))
    return ActivationStatistics(
        scales=scales,
        percentile=percentile,
        means=means,
        maxima=maxima,
        sample_size=int(calibration_inputs.shape[0]),
    )
