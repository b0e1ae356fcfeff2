"""Argument validation helpers used across the library.

These helpers centralise the error messages for the most common kinds of
invalid input (negative sizes, out-of-range probabilities, unknown noise
levels) so that user-facing errors stay consistent.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

Number = Union[int, float]


def check_positive(name: str, value: Number) -> Number:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


def check_non_negative(name: str, value: Number) -> Number:
    """Raise ``ValueError`` unless ``value`` is >= 0 and finite."""
    if not np.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be a non-negative finite number, got {value!r}")
    return value


def check_probability(name: str, value: Number) -> float:
    """Raise ``ValueError`` unless ``value`` lies in the closed interval [0, 1]."""
    value = float(value)
    if not np.isfinite(value) or value < 0.0 or value > 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def level_index(
    levels: Sequence[Number], level: Number,
    rtol: float = 1e-9, atol: float = 1e-9,
) -> int:
    """Index of ``level`` in ``levels``, matched with a float tolerance.

    Noise levels produced by arithmetic (``np.linspace``, ``0.1 * i``) are
    rarely bit-equal to the literal a caller asks for, so an exact
    ``list.index`` lookup breaks; this matches the closest level within
    ``rtol``/``atol`` instead and raises ``KeyError`` when nothing is close.
    """
    values = np.asarray(levels, dtype=np.float64)
    if values.size == 0:
        raise KeyError(f"noise level {level} is not part of an empty sweep")
    target = float(level)
    distances = np.abs(values - target)
    index = int(distances.argmin())
    if not np.isclose(values[index], target, rtol=rtol, atol=atol):
        raise KeyError(
            f"noise level {level} is not part of this sweep "
            f"(levels: {[float(v) for v in values]})"
        )
    return index
