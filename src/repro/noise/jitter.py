"""Spike-jitter noise.

Each spike time is shifted by Gaussian noise with zero mean and standard
deviation ``sigma``, quantised to an integer number of time steps before
being added to the spike time (Sec. III of the paper).  Spikes pushed outside
the window are clamped to the window edge.
"""

from __future__ import annotations

from repro.noise.base import SpikeNoise
from repro.snn.spikes import SpikeTrain
from repro.utils.rng import RngLike
from repro.utils.validation import check_non_negative


class JitterNoise(SpikeNoise):
    """Shift every spike by quantised Gaussian noise.

    Parameters
    ----------
    sigma:
        Standard deviation of the Gaussian time shift (in time steps); the
        paper sweeps 0.5 to 4.0.
    """

    name = "jitter"

    #: Clipping keeps every spike, so where a class count's spikes land
    #: follows from their known steps alone.
    acts_on_classes = True

    def __init__(self, sigma: float):
        check_non_negative("sigma", sigma)
        self.sigma = float(sigma)

    def apply(self, train: SpikeTrain, rng: RngLike = None) -> SpikeTrain:
        return train.jitter_spikes(self.sigma, rng=rng)

    def describe(self) -> str:
        return f"jitter(sigma={self.sigma:g})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JitterNoise(sigma={self.sigma})"
