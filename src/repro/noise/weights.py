"""Parametric (synaptic-weight) noise.

The paper's Sec. II-B distinguishes two ways of modelling hardware noise:
noisy parameters (weights, thresholds, time constants) and noisy output
spikes.  The paper adopts the latter; this module implements the former as an
extension so that the two approaches can be compared (ablation bench
``bench_ablation_weight_noise``).  Static fixed-pattern noise corresponds to
drawing the perturbation once per network; dynamic noise redraws it per
inference.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.utils.rng import RngLike, default_rng
from repro.utils.validation import check_non_negative


class GaussianWeightNoise:
    """Multiplicative Gaussian perturbation of synaptic weights.

    Each weight ``w`` becomes ``w * (1 + eps)`` with
    ``eps ~ N(0, relative_std)``, the standard model for device mismatch in
    analog synapse arrays.
    """

    name = "weight-noise"

    def __init__(self, relative_std: float, static: bool = True):
        check_non_negative("relative_std", relative_std)
        self.relative_std = float(relative_std)
        self.static = bool(static)
        self._cached: Dict[int, np.ndarray] = {}

    def perturb(self, weights: np.ndarray, key: int = 0, rng: RngLike = None) -> np.ndarray:
        """Return a noisy copy of ``weights``.

        ``key`` identifies the parameter tensor so that static noise reuses
        the same perturbation across calls (fixed-pattern noise), while
        dynamic noise redraws it every time.
        """
        weights = np.asarray(weights)
        if self.relative_std == 0.0:
            return weights.copy()
        if self.static and key in self._cached:
            factor = self._cached[key]
            if factor.shape != weights.shape:
                raise ValueError(
                    f"cached perturbation for key {key} has shape {factor.shape}, "
                    f"expected {weights.shape}"
                )
        else:
            generator = default_rng(rng)
            factor = 1.0 + generator.normal(0.0, self.relative_std, size=weights.shape)
            if self.static:
                self._cached[key] = factor
        return (weights * factor).astype(weights.dtype)

    def reset(self) -> None:
        """Discard cached fixed-pattern perturbations."""
        self._cached.clear()
