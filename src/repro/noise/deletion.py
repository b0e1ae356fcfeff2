"""Spike-deletion noise.

Every spike in the train is dropped independently with probability ``p``
(implemented with a uniformly distributed random variable per spike, as in
Sec. III of the paper).  The expected post-synaptic current of an activation
``A`` becomes ``(1 - p) * A`` -- the information loss that weight scaling is
designed to compensate.
"""

from __future__ import annotations

from repro.noise.base import SpikeNoise
from repro.snn.spikes import SpikeTrain
from repro.utils.rng import RngLike
from repro.utils.validation import check_probability


class DeletionNoise(SpikeNoise):
    """Delete each spike independently with probability ``probability``."""

    name = "deletion"
    time_free = True

    def __init__(self, probability: float):
        self.probability = check_probability("probability", probability)

    def apply(self, train: SpikeTrain, rng: RngLike = None) -> SpikeTrain:
        return train.delete_spikes(self.probability, rng=rng)

    def expected_survival(self) -> float:
        """Expected fraction of spikes (and hence PSC) that survives."""
        return 1.0 - self.probability

    def describe(self) -> str:
        return f"deletion(p={self.probability:g})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DeletionNoise(probability={self.probability})"
