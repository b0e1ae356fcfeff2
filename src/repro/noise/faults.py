"""Finite-precision synapses: weight quantisation.

The hardware faults that corrupt spikes in flight (dead neurons,
stuck-at-fire neurons, burst errors) are levels of
:class:`~repro.noise.injector.NoiseInjector`.  This module holds the one
fault that lives in the stored parameters instead: fixed-point synapse
storage, modelled as uniform symmetric quantisation of every weight tensor
(``repro evaluate --quant-bits``).
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING

import numpy as np

from repro.utils.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - cycle guard (conversion -> noise)
    from repro.conversion.converter import ConvertedSNN


def quantize_network(network: "ConvertedSNN", bits: int) -> "ConvertedSNN":
    """A copy of ``network`` with every weight tensor quantised to ``bits``.

    Each tensor is quantised onto the grid ``step * k`` with
    ``step = max|w| / 2**(bits - 1)``, the standard model of fixed-point
    synapse storage; an all-zero tensor stays zero.  The transform is
    deterministic and draws no random numbers.

    Biases and activation scales are untouched (fixed-point synapse storage
    quantises the weight matrices; accumulators are wider), and the input
    network is never mutated: weighted layers are shallow-copied with a fresh
    ``params`` dict, and segments are rebuilt so no stale per-segment caches
    survive.  Both evaluators consume the result like any other network.
    """
    from repro.conversion.converter import ConvertedSNN, NetworkSegment

    check_positive("bits", bits)
    levels = float(2 ** (int(bits) - 1))
    segments = []
    for segment in network.segments:
        layers = []
        for layer in segment.layers:
            weight = layer.params.get("weight") if layer.params else None
            if weight is None:
                layers.append(layer)
                continue
            clone = copy.copy(layer)
            clone.params = dict(layer.params)
            step = (float(np.max(np.abs(weight))) if weight.size else 0.0) / levels
            clone.params["weight"] = (
                (np.round(weight / step) * step).astype(weight.dtype)
                if step > 0.0 else weight.copy()
            )
            layers.append(clone)
        segments.append(
            NetworkSegment(
                layers=layers,
                ends_with_spikes=segment.ends_with_spikes,
                activation_scale=segment.activation_scale,
                index=segment.index,
            )
        )
    return ConvertedSNN(
        segments=segments,
        input_scale=network.input_scale,
        statistics=network.statistics,
        source_name=network.source_name,
    )
