"""Threshold selection for converted SNNs.

Conversion-based deep SNNs need per-layer firing thresholds that trade off
latency (high thresholds fire late) against accuracy (low thresholds saturate
early).  The paper obtains them "empirically ... to reduce inference latency
and improve the efficiency" (Sec. V) and reports the resulting per-coding
values; :data:`EMPIRICAL_THRESHOLDS` reproduces that table.
"""

from __future__ import annotations

from typing import Dict

#: Per-coding thresholds reported in Sec. V of the paper
#: ("we set theta to 0.4, 0.4, 1.2, and 0.8 for rate, burst, phase, and TTFS").
EMPIRICAL_THRESHOLDS: Dict[str, float] = {
    "rate": 0.4,
    "burst": 0.4,
    "phase": 1.2,
    "ttfs": 0.8,
    # TTAS inherits the TTFS threshold: the first spike is generated exactly
    # like a TTFS spike, the burst that follows is handled by the IFB reset.
    "ttas": 0.8,
}


def empirical_threshold(coding: str) -> float:
    """Return the paper's empirical threshold for a coding scheme."""
    key = coding.lower()
    if key not in EMPIRICAL_THRESHOLDS:
        raise ValueError(
            f"no empirical threshold recorded for coding {coding!r}; "
            f"known: {sorted(EMPIRICAL_THRESHOLDS)}"
        )
    return EMPIRICAL_THRESHOLDS[key]
