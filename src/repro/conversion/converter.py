"""DNN-to-SNN converter.

:func:`convert_dnn_to_snn` turns a trained :class:`repro.nn.model.Sequential`
classifier into a :class:`ConvertedSNN`:

* dropout becomes inert (inference mode),
* the network is cut into *segments* at every ReLU: the output of each
  segment is a non-negative activation map that a spiking population
  transmits to the next segment as a spike train,
* per-segment activation scales (lambda) are collected on calibration data so
  coders can work on normalised values in [0, 1].

The :class:`ConvertedSNN` is a passive description -- the actual evaluation
is done either by the fast activation-transport evaluator
(:mod:`repro.core.transport`) or the faithful time-stepped simulator
(:mod:`repro.snn.simulator`), both of which consume this object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.conversion.normalization import (
    ActivationStatistics,
    collect_activation_statistics,
    spiking_point_indices,
)
from repro.nn.layers import Dropout, Layer
from repro.nn.model import Sequential
from repro.utils.logging import get_logger
from repro.utils.validation import check_positive

logger = get_logger("conversion")

#: Process-wide conversion counters: ``conversions`` counts every
#: :func:`convert_dnn_to_snn` call, ``calibrations`` only the ones that had
#: to run the calibration forward passes (no pre-collected statistics).
#: The serving smoke/tests assert "zero re-conversions" on registry
#: restart by diffing ``calibrations`` around a store load-through.
CONVERSION_COUNTERS = {"conversions": 0, "calibrations": 0}


class ConversionError(RuntimeError):
    """Raised when a DNN cannot be converted into a spiking network."""


@dataclass
class NetworkSegment:
    """A run of analog layers between two spiking populations.

    Attributes
    ----------
    layers:
        The DNN layers executed between the previous spiking population's
        decoded PSC and this segment's output.
    ends_with_spikes:
        True for every segment except the last one (the classifier head reads
        out accumulated membrane potential instead of spiking).
    activation_scale:
        The lambda used to normalise this segment's output into [0, 1] before
        spike encoding (undefined for the final segment).
    index:
        Position of the segment in the network.
    """

    layers: List[Layer]
    ends_with_spikes: bool
    activation_scale: float = 1.0
    index: int = 0

    def inference_layers(self) -> List[Layer]:
        """Segment layers with inference-inert ops removed (cached).

        ``Dropout`` (inert outside training) is skipped, so the per-step hot
        path touches only layers that actually transform the activations.
        """
        compiled = getattr(self, "_compiled_layers", None)
        if compiled is None:
            compiled = [
                layer
                for layer in self.layers
                if not isinstance(layer, Dropout)
            ]
            self._compiled_layers = compiled
        return compiled

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Run the analog layers of this segment in inference mode."""
        out = values
        for layer in self.inference_layers():
            out = layer.forward(out, training=False)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(type(l).__name__ for l in self.layers)
        return (
            f"NetworkSegment(index={self.index}, layers=[{names}], "
            f"spiking={self.ends_with_spikes}, scale={self.activation_scale:.4f})"
        )


@dataclass
class ConvertedSNN:
    """A DNN cut into spiking segments with calibrated activation scales.

    Attributes
    ----------
    segments:
        The analog segments; all but the last feed a spiking population.
    input_scale:
        Scale of the (non-negative) network input; inputs are divided by this
        before being spike encoded.
    statistics:
        The calibration statistics the scales came from.
    source_name:
        Name of the DNN this network was converted from.
    """

    segments: List[NetworkSegment]
    input_scale: float
    statistics: Optional[ActivationStatistics] = None
    source_name: str = "model"

    def forward_analog(self, x: np.ndarray) -> np.ndarray:
        """Reference analog forward pass (equivalent to the source DNN)."""
        out = x
        for segment in self.segments:
            out = segment.forward(out)
        return out

    def analog_accuracy(self, x: np.ndarray, labels: np.ndarray, batch_size: int = 128) -> float:
        """Accuracy of the analog reference network (upper bound for the SNN)."""
        correct = 0
        for start in range(0, x.shape[0], int(batch_size)):
            logits = self.forward_analog(x[start:start + int(batch_size)])
            correct += int((logits.argmax(axis=1) == labels[start:start + int(batch_size)]).sum())
        return correct / max(x.shape[0], 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ConvertedSNN(source={self.source_name!r}, "
            f"segments={len(self.segments)}, "
            f"spiking_segments={sum(s.ends_with_spikes for s in self.segments)})"
        )


def convert_dnn_to_snn(
    model: Sequential,
    calibration_inputs: Optional[np.ndarray],
    percentile: float = 99.9,
    input_scale: Optional[float] = None,
    statistics: Optional[ActivationStatistics] = None,
) -> ConvertedSNN:
    """Convert a trained DNN classifier into a :class:`ConvertedSNN`.

    Parameters
    ----------
    model:
        Trained network of Conv2D, Dense, ReLU, AvgPool2D, Flatten and
        Dropout (ignored at inference) layers.
    calibration_inputs:
        Non-negative input batch used for activation-scale calibration;
        ``None`` when both ``statistics`` and ``input_scale`` are given,
        which need no calibration data.
    percentile:
        Robust-maximum percentile for the activation scales.
    input_scale:
        Override for the input scale; by default the robust maximum of the
        calibration inputs (at least 1.0 for [0, 1] images).
    statistics:
        Pre-collected :class:`ActivationStatistics` (e.g. loaded from the
        conversion document beside the trained weights).  When given, the
        calibration forward passes are skipped and the provided scales are
        used verbatim -- the caller is responsible for the statistics
        matching the trained model; a spiking-point count mismatch
        is rejected.
    """
    check_positive("percentile", percentile)
    if calibration_inputs is None:
        if statistics is None or input_scale is None:
            raise ConversionError(
                "conversion without calibration data needs both statistics "
                "and input_scale"
            )
    else:
        calibration_inputs = np.asarray(calibration_inputs, dtype=np.float32)
        if calibration_inputs.size == 0:
            raise ConversionError("calibration data must contain at least one sample")
        if float(calibration_inputs.min()) < 0.0:
            raise ConversionError(
                "network inputs must be non-negative for spike encoding; "
                "rescale the data to [0, 1] instead of mean/std normalisation"
            )

    dnn = model.copy()

    relu_indices = spiking_point_indices(dnn)
    if not relu_indices:
        raise ConversionError("the network has no ReLU layers to convert into spikes")

    CONVERSION_COUNTERS["conversions"] += 1
    if statistics is None:
        CONVERSION_COUNTERS["calibrations"] += 1
        statistics = collect_activation_statistics(
            dnn, calibration_inputs, percentile=percentile
        )
    elif len(statistics.scales) != len(relu_indices):
        raise ConversionError(
            f"provided activation statistics cover {len(statistics.scales)} "
            f"spiking points but the network has {len(relu_indices)}"
        )

    segments: List[NetworkSegment] = []
    start = 0
    for segment_index, relu_index in enumerate(relu_indices):
        segment_layers = dnn.layers[start:relu_index + 1]
        segments.append(
            NetworkSegment(
                layers=segment_layers,
                ends_with_spikes=True,
                activation_scale=statistics.scales[segment_index],
                index=segment_index,
            )
        )
        start = relu_index + 1
    tail_layers = dnn.layers[start:]
    if tail_layers:
        segments.append(
            NetworkSegment(
                layers=tail_layers,
                ends_with_spikes=False,
                activation_scale=1.0,
                index=len(segments),
            )
        )
    else:
        # The network ends with a ReLU: the last spiking population is read
        # out directly, so the final segment still must not encode spikes.
        segments[-1].ends_with_spikes = False

    if input_scale is None:
        input_scale = max(float(np.percentile(calibration_inputs, percentile)), 1.0)
    check_positive("input_scale", input_scale)

    converted = ConvertedSNN(
        segments=segments,
        input_scale=float(input_scale),
        statistics=statistics,
        source_name=model.name,
    )
    logger.debug("converted %s: %s", model.name, converted)
    return converted
