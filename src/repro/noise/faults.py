"""Hardware-fault noise models.

The deletion/jitter models of the paper are i.i.d. per spike; real
neuromorphic substrates additionally fail in *structured* ways.  This module
mirrors the common fault classes of analog/digital spiking hardware:

* :class:`DeadNeuronNoise` -- stuck-at-silent circuits: a random subset of
  neurons never emits a spike.  The mask is drawn once per application over
  the feature axes (a leading batch axis shares it) and therefore persists
  across every timestep, unlike i.i.d. deletion.
* :class:`StuckAtFireNoise` -- stuck-at-fire circuits: a random subset of
  neurons emits a spike at every step of its firing window regardless of
  input.
* :class:`BurstErrorNoise` -- correlated transmission loss: one contiguous
  time window of the train is dropped wholesale (link/router brown-out), the
  non-i.i.d. counterpart of :class:`~repro.noise.deletion.DeletionNoise`.
* :class:`WeightQuantizationNoise` -- finite-precision synapses: weights are
  uniformly quantised to ``bits`` bits, composing with the Gaussian
  weight-noise ablation via the shared ``perturb`` interface.

All spike-level models go through the shared train protocol
(``mask_neurons`` / ``force_firing`` / ``drop_window``), so the dense and
event backends produce bit-identical corrupted trains.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.noise.base import SpikeNoise
from repro.snn.spikes import SpikeTrain
from repro.utils.rng import RngLike, default_rng
from repro.utils.validation import check_positive, check_probability

if TYPE_CHECKING:  # pragma: no cover - cycle guard (conversion -> noise)
    from repro.conversion.converter import ConvertedSNN


def _feature_shape(train: SpikeTrain) -> Tuple[int, ...]:
    """Axes a persistent fault mask is drawn over.

    Multi-dimensional populations carry the batch on axis 0 (the transport
    evaluator's interface trains are ``(batch, *features)``), and a hardware
    fault hits the same physical neuron for every sample; 1-D populations
    are a bare feature vector.
    """
    population = train.population_shape
    return population[1:] if len(population) > 1 else population


class DeadNeuronNoise(SpikeNoise):
    """Stuck-at-silent fault: a fraction of neurons never spikes.

    Each neuron is dead with probability ``fraction``; the realisation is
    drawn once per train over the feature axes, so it is persistent across
    timesteps and shared across a leading batch axis.
    """

    name = "dead"
    time_free = True

    def __init__(self, fraction: float):
        check_probability("fraction", fraction)
        self.fraction = float(fraction)

    def apply(self, train: SpikeTrain, rng: RngLike = None) -> SpikeTrain:
        if self.fraction == 0.0:
            return train.view()
        generator = default_rng(rng)
        dead = generator.random(size=_feature_shape(train)) < self.fraction
        return train.mask_neurons(~dead)


class StuckAtFireNoise(SpikeNoise):
    """Stuck-at-fire fault: a fraction of neurons spikes at every step.

    Each neuron is stuck with probability ``fraction``; stuck neurons emit
    exactly one spike per step of ``window`` (default: the whole train)
    regardless of their input, overriding their original activity there.
    """

    name = "stuck"

    def __init__(
        self,
        fraction: float,
        window: Optional[Tuple[int, Optional[int]]] = None,
    ):
        check_probability("fraction", fraction)
        self.fraction = float(fraction)
        self.window = window

    def apply(self, train: SpikeTrain, rng: RngLike = None) -> SpikeTrain:
        if self.fraction == 0.0:
            return train.view()
        generator = default_rng(rng)
        stuck = generator.random(size=_feature_shape(train)) < self.fraction
        return train.force_firing(stuck, window=self.window)


class BurstErrorNoise(SpikeNoise):
    """Correlated burst error: one contiguous time window is dropped.

    ``fraction`` is the fraction of the train's window that is lost
    (``width = round(fraction * T)`` steps); the window start is uniform over
    the valid range.  At the same expected spike loss this is far more
    damaging to temporal codes than i.i.d. deletion, because the information
    carried by the dropped steps cannot be recovered from neighbours.
    """

    name = "burst_error"

    def __init__(self, fraction: float):
        check_probability("fraction", fraction)
        self.fraction = float(fraction)

    def apply(self, train: SpikeTrain, rng: RngLike = None) -> SpikeTrain:
        num_steps = train.num_steps
        width = int(round(self.fraction * num_steps))
        if width <= 0:
            return train.view()
        generator = default_rng(rng)
        start = int(generator.integers(0, num_steps - width + 1))
        return train.drop_window(start, start + width)


class WeightQuantizationNoise:
    """Uniform symmetric quantization of synaptic weights to ``bits`` bits.

    Each tensor is quantised onto the grid ``step * k`` with
    ``step = max|w| / 2**(bits - 1)``, the standard model of fixed-point
    synapse storage.  The ``perturb`` interface matches
    :class:`~repro.noise.weights.GaussianWeightNoise`, so quantization
    composes with the mismatch ablation (quantise first, then perturb).
    The transform is deterministic; ``rng`` is accepted for interface
    compatibility and ignored.
    """

    name = "quantization"

    def __init__(self, bits: int):
        check_positive("bits", bits)
        self.bits = int(bits)

    def perturb(self, weights: np.ndarray, key: int = 0, rng: RngLike = None) -> np.ndarray:
        weights = np.asarray(weights)
        limit = float(np.max(np.abs(weights))) if weights.size else 0.0
        if limit == 0.0:
            return weights.copy()
        step = limit / float(2 ** (self.bits - 1))
        return (np.round(weights / step) * step).astype(weights.dtype)


def quantize_network(network: "ConvertedSNN", bits: int) -> "ConvertedSNN":
    """A copy of ``network`` with every weight tensor quantised to ``bits``.

    Biases and activation scales are untouched (fixed-point synapse storage
    quantises the weight matrices; accumulators are wider), and the input
    network is never mutated: weighted layers are shallow-copied with a fresh
    ``params`` dict, and segments are rebuilt so no stale per-segment caches
    survive.  Both evaluators consume the result like any other network.
    """
    from repro.conversion.converter import ConvertedSNN, NetworkSegment

    model = WeightQuantizationNoise(bits)
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
            clone.params["weight"] = model.perturb(weight)
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
