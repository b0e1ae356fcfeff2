"""DNN-to-SNN conversion.

The paper configures deep SNNs by converting trained DNNs (Sec. III): the
DNN's weights are reused as synaptic weights, per-layer activation scales are
collected on calibration data and the ReLU activations become spiking
populations.

* :mod:`repro.conversion.normalization` -- activation collection and scale
  estimation,
* :mod:`repro.conversion.converter` -- the :class:`ConvertedSNN` object that
  the transport and time-stepped evaluators consume.
"""

from repro.conversion.normalization import (
    ActivationStatistics,
    collect_activation_statistics,
)
from repro.conversion.converter import (
    ConversionError,
    ConvertedSNN,
    NetworkSegment,
    convert_dnn_to_snn,
)

__all__ = [
    "ActivationStatistics",
    "collect_activation_statistics",
    "ConversionError",
    "ConvertedSNN",
    "NetworkSegment",
    "convert_dnn_to_snn",
]
