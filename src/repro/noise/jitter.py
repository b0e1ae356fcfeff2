"""Spike-jitter noise.

Each spike time is shifted by Gaussian noise with zero mean and standard
deviation ``sigma``, quantised to an integer number of time steps before
being added to the spike time (Sec. III of the paper).  Spikes pushed outside
the window are clamped to the window edge by default; ``mode="drop"`` removes
them instead.
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
    mode:
        ``"clip"`` (default) clamps shifted spikes to the window;
        ``"drop"`` discards spikes that leave the window.
    """

    name = "jitter"

    def __init__(self, sigma: float, mode: str = "clip"):
        check_non_negative("sigma", sigma)
        if mode not in ("clip", "drop"):
            raise ValueError(f"mode must be 'clip' or 'drop', got {mode!r}")
        self.sigma = float(sigma)
        self.mode = mode

    @property
    def acts_on_classes(self) -> bool:
        # Clipping keeps every spike, so where a class count's spikes land
        # follows from their known steps alone; drop mode keeps the grid.
        return self.mode == "clip"

    def apply(self, train: SpikeTrain, rng: RngLike = None) -> SpikeTrain:
        return train.jitter_spikes(self.sigma, rng=rng, mode=self.mode)

    def describe(self) -> str:
        return f"jitter(sigma={self.sigma:g})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JitterNoise(sigma={self.sigma}, mode={self.mode!r})"
