"""Weight initialisers.

All initialisers take an explicit shape and generator so that model
construction is deterministic for a given seed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.rng import RngLike, default_rng


def _fan_in_out(shape: Sequence[int]) -> tuple:
    """Compute (fan_in, fan_out) for dense and convolutional weight shapes.

    Dense weights have shape ``(in, out)``; convolutional weights have shape
    ``(out_channels, in_channels, kh, kw)``.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) == 2:
        fan_in, fan_out = shape[0], shape[1]
    elif len(shape) == 4:
        receptive = shape[2] * shape[3]
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    else:
        raise ValueError(f"unsupported weight shape {shape}")
    return fan_in, fan_out


def he_normal(shape: Sequence[int], rng: RngLike = None) -> np.ndarray:
    """He (Kaiming) normal initialisation, appropriate for ReLU networks."""
    generator = default_rng(rng)
    fan_in, _ = _fan_in_out(shape)
    std = np.sqrt(2.0 / fan_in)
    return generator.normal(0.0, std, size=shape).astype(np.float32)


def zeros_init(shape: Sequence[int], rng: RngLike = None) -> np.ndarray:
    """All-zero initialisation (biases)."""
    return np.zeros(shape, dtype=np.float32)
