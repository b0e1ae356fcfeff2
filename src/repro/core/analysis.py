"""Noise-effect analysis (Sec. III and Fig. 5B of the paper).

These helpers quantify *why* the coding schemes react differently to noise:
:func:`activation_distribution` reproduces Fig. 5B -- the distribution of the
noisy activation ``A'``: continuous around ``(1 - p) A`` for rate/phase/burst,
all-or-none (two spikes at 0 and ``A``) for TTFS, and bimodal-with-mass-near-
the-ends for TTAS.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.coding.base import NeuralCoder
from repro.noise.injector import NoiseInjector
from repro.utils.rng import RngLike, default_rng, derive_rng
from repro.utils.validation import check_positive


@dataclass
class ActivationDistribution:
    """Histogram of decoded activations under noise (one value, many trials).

    Attributes
    ----------
    bin_edges / counts:
        Histogram of the decoded activation ``A'`` relative to the clean
        value ``A`` (the x-axis of Fig. 5B runs from 0 to A).
    clean_value:
        The clean activation ``A`` that was encoded.
    mean / std:
        Moments of the decoded values.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    clean_value: float
    mean: float
    std: float

    @property
    def probabilities(self) -> np.ndarray:
        """Normalised histogram (sums to 1)."""
        total = self.counts.sum()
        return self.counts / total if total else self.counts.astype(float)


def decoded_samples(
    coder: NeuralCoder,
    value: float,
    noise: NoiseInjector,
    trials: int = 200,
    rng: RngLike = None,
) -> np.ndarray:
    """Draw ``trials`` independent noisy decodings of a single activation."""
    check_positive("trials", trials)
    generator = default_rng(rng)
    values = np.full((int(trials),), float(value))
    train = coder.encode(values, rng=derive_rng(generator, "encode"))
    noisy = noise.apply(train, rng=derive_rng(generator, "noise"))
    return np.asarray(coder.decode(noisy), dtype=np.float64)


def activation_distribution(
    coder: NeuralCoder,
    value: float,
    noise: NoiseInjector,
    trials: int = 500,
    bins: int = 20,
    rng: RngLike = None,
) -> ActivationDistribution:
    """Distribution of the noisy activation ``A'`` for one clean value ``A``.

    This is the quantity sketched in Fig. 5B of the paper.
    """
    check_positive("bins", bins)
    samples = decoded_samples(coder, value, noise, trials=trials, rng=rng)
    upper = max(float(value), float(samples.max()), 1e-9)
    counts, edges = np.histogram(samples, bins=int(bins), range=(0.0, upper))
    return ActivationDistribution(
        bin_edges=edges,
        counts=counts,
        clean_value=float(value),
        mean=float(samples.mean()),
        std=float(samples.std()),
    )
