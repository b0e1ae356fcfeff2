"""Burst coding.

Park et al. (DAC 2019) transmit an activation with a short *burst* of spikes
whose intra-burst position carries geometrically decreasing significance
(weight ``ratio^(k+1)`` for the k-th spike of the burst).  Compared to phase
coding the spikes of one burst are consecutive and anchored at the start of
each period, and the number of spikes per period is bounded by the burst
length, which is why the paper measures fewer spikes for burst than for rate
or phase coding while keeping similar accuracy.
"""

from __future__ import annotations

import numpy as np

from repro.coding.base import PeriodicCoder
from repro.snn.kernels import BurstKernel, PSCKernel


class BurstCoder(PeriodicCoder):
    """Burst coder with geometric intra-burst weights.

    Parameters
    ----------
    num_steps:
        Window length ``T``.
    period:
        Length of one burst window; the burst pattern repeats every period.
    burst_length:
        Maximum number of spikes per burst (the geometric weights are
        truncated after this many slots).
    ratio:
        Geometric ratio of successive spike weights (0 < ratio < 1).
    """

    name = "burst"

    #: Honest refusal, per capability: the defining constraint of burst
    #: coding (at most ``burst_length`` spikes per period, anchored at the
    #: period start with geometric significance) is enforced by the
    #: *encoder*, not by any neuron model in this repository -- the plain IF
    #: population the coder uses for thresholds has no burst counter and
    #: would emit a structurally different code, so a "faithful" burst
    #: simulation would silently simulate the wrong scheme.
    supports_timestep = False
    timestep_note = (
        "the bounded-burst constraint (<= burst_length spikes anchored at "
        "each period start) is enforced by the encoder, not by a neuron "
        "model; an IF population without a burst counter would emit a "
        "different code, so the bridge refuses rather than approximating"
    )

    def __init__(
        self,
        num_steps: int = 64,
        period: int = 16,
        burst_length: int = 5,
        ratio: float = 0.5,
    ):
        super().__init__(num_steps, period)
        self._kernel = BurstKernel(period=period, burst_length=burst_length, ratio=ratio)
        self.burst_length = int(burst_length)
        self.ratio = float(ratio)

    @property
    def kernel(self) -> PSCKernel:
        return self._kernel

    @property
    def max_value(self) -> float:
        """Largest activation representable by one burst (sum of slot weights)."""
        weights = self.ratio ** (np.arange(self.burst_length) + 1.0)
        return float(weights.sum())

    def pattern(self, values: np.ndarray) -> np.ndarray:
        """Greedy per-slot decomposition: shape (burst_length, *values.shape)."""
        values = self._normalise(values)
        slot_weights = self.ratio ** (np.arange(self.burst_length) + 1.0)
        pattern = np.zeros((self.burst_length,) + values.shape, dtype=np.int16)
        # Values are clipped to the representable maximum of a single burst.
        residual = np.minimum(values, self.max_value)
        for k in range(self.burst_length):
            # Greedy decomposition with a small tolerance against float error.
            emit = (residual >= slot_weights[k] - 1e-9).astype(np.int16)
            pattern[k] = emit
            residual = residual - emit * slot_weights[k]
        return pattern
