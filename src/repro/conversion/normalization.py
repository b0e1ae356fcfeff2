"""Conversion-time network surgery and activation statistics.

Two pieces of the standard DNN-to-SNN conversion recipe live here:

* :func:`fold_batch_norm` -- absorb inference-mode batch normalisation into
  the preceding convolution/dense layer so the spiking network only consists
  of weighted sums and ReLU-equivalent spiking populations,
* :func:`collect_activation_statistics` -- run the trained network on a
  calibration batch and record the post-ReLU activation distribution of every
  spiking point; the resulting robust maxima are the activation scales
  (lambda) the coders normalise against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.layers import Conv2D, Dense, Identity, ReLU
from repro.nn.model import Sequential
from repro.nn.norm import BatchNorm2D
from repro.utils.logging import get_logger
from repro.utils.validation import check_positive, check_probability

logger = get_logger("conversion")


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

    def __len__(self) -> int:
        return len(self.scales)


def fused_batch_norm_params(
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fuse inference-mode batch-norm statistics into a weighted layer.

    Returns the ``(weight, bias)`` pair such that ``W'x + b'`` equals
    ``BN(Wx + b)`` with the given running statistics.  ``weight`` may be a
    convolution kernel ``(out_channels, in_channels, kh, kw)`` or a dense
    matrix ``(in_features, out_features)``; the normalised axis is inferred
    from the layout.  ``bias=None`` is treated as zero.
    """
    scale = gamma / np.sqrt(var + eps)
    if weight.ndim == 4:
        # Conv weight layout: (out_channels, in_channels, kh, kw).
        fused_weight = weight * scale[:, None, None, None]
    elif weight.ndim == 2:
        # Dense weight layout: (in_features, out_features).
        fused_weight = weight * scale[None, :]
    else:
        raise ValueError(
            f"cannot fuse batch norm into a weight of shape {weight.shape}"
        )
    if bias is None:
        bias = np.zeros(scale.shape[0], dtype=weight.dtype)
    fused_bias = (bias - mean) * scale + beta
    return fused_weight.astype(np.float32), fused_bias.astype(np.float32)


def fold_batch_norm(model: Sequential) -> Sequential:
    """Return a copy of ``model`` with batch normalisation folded away.

    Every ``BatchNorm2D`` directly following a ``Conv2D`` (optionally with the
    batch-norm placed before the ReLU, which is how the builders arrange it)
    is absorbed into the convolution's weight and bias; the batch-norm layer
    itself is replaced by an :class:`repro.nn.layers.Identity`.

    Raises
    ------
    ValueError
        If a batch-norm layer is not preceded by a foldable layer.
    """
    folded = model.copy()
    layers = folded.layers
    for index, layer in enumerate(layers):
        if not isinstance(layer, BatchNorm2D):
            continue
        if index == 0:
            raise ValueError("batch norm cannot be the first layer of the network")
        previous = layers[index - 1]
        if not isinstance(previous, (Conv2D, Dense)):
            raise ValueError(
                f"cannot fold {layer.name}: preceding layer "
                f"{type(previous).__name__} has no weights"
            )
        weight, bias = fused_batch_norm_params(
            previous.params["weight"],
            previous.params.get("bias"),
            layer.params["gamma"],
            layer.params["beta"],
            layer.running_mean,
            layer.running_var,
            layer.eps,
        )
        previous.params["weight"] = weight
        previous.params["bias"] = bias
        previous.use_bias = True
        layers[index] = Identity(name=f"{layer.name}_folded")
        logger.debug("folded %s into %s", layer.name, previous.name)
    return folded


def spiking_point_indices(model: Sequential) -> List[int]:
    """Indices of layers whose outputs become spiking populations (the ReLUs)."""
    return [index for index, layer in enumerate(model.layers) if isinstance(layer, ReLU)]


def collect_activation_statistics(
    model: Sequential,
    calibration_inputs: np.ndarray,
    percentile: float = 99.9,
    batch_size: int = 64,
    minimum_scale: float = 1e-3,
) -> ActivationStatistics:
    """Collect post-ReLU activation statistics on calibration data.

    Parameters
    ----------
    model:
        Trained (and batch-norm-folded) network, run in inference mode.
    calibration_inputs:
        Image tensor ``(N, C, H, W)`` -- a slice of the training set.
    percentile:
        Robust-maximum percentile used as the activation scale.
    batch_size:
        Calibration is run in batches of this size to bound memory.
    minimum_scale:
        Lower bound on every scale so dead units cannot yield zero.
    """
    check_probability("percentile/100", percentile / 100.0)
    check_positive("batch_size", batch_size)
    check_positive("minimum_scale", minimum_scale)
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
        scales.append(max(float(np.percentile(values, percentile)), minimum_scale))
        means.append(float(values.mean()))
        maxima.append(float(values.max()))
    return ActivationStatistics(
        scales=scales,
        percentile=percentile,
        means=means,
        maxima=maxima,
        sample_size=int(calibration_inputs.shape[0]),
    )
