"""Post-synaptic-current (PSC) kernels.

A kernel assigns to every time step the post-synaptic contribution of a spike
arriving at that step (the ``epsilon`` spike-response kernel of Eq. 1 in the
paper, evaluated on the discrete simulation grid).  Neural coders pair a spike
*placement* rule with a kernel:

* rate coding      -- :class:`ConstantKernel` (every spike counts the same),
* phase coding     -- :class:`PhaseKernel` (weight ``2^-(1 + t mod K)``),
* burst coding     -- :class:`BurstKernel` (geometric weights within a burst
  window),
* TTFS / TTAS      -- :class:`ExponentialKernel` (exponentially decaying
  weight, earlier spikes carry more information).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive


class PSCKernel:
    """Base class: maps spike arrival step to post-synaptic weight."""

    def weights(self, num_steps: int) -> np.ndarray:
        """Return the length-``num_steps`` array of per-step spike weights."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class ConstantKernel(PSCKernel):
    """Every spike contributes the same amount (rate coding).

    Parameters
    ----------
    amplitude:
        Contribution of a single spike.  The rate coder sets this to ``1/T``
        so that a neuron firing on every step decodes to activation 1.
    """

    def __init__(self, amplitude: float = 1.0):
        check_positive("amplitude", amplitude)
        self.amplitude = float(amplitude)

    def weights(self, num_steps: int) -> np.ndarray:
        check_positive("num_steps", num_steps)
        return np.full(int(num_steps), self.amplitude, dtype=np.float64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConstantKernel(amplitude={self.amplitude})"


class PhaseKernel(PSCKernel):
    """Phase-coding kernel: weight ``2^-(1 + (t mod period))``.

    This reproduces the weighted-spike scheme of Kim et al. (2018): the phase
    of the global oscillator determines the significance of a spike, so a
    period of ``K`` phases gives a K-bit binary representation per period.
    """

    def __init__(self, period: int = 8):
        check_positive("period", period)
        self.period = int(period)

    def weights(self, num_steps: int) -> np.ndarray:
        check_positive("num_steps", num_steps)
        steps = np.arange(int(num_steps))
        return np.power(2.0, -(1.0 + (steps % self.period)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PhaseKernel(period={self.period})"


class BurstKernel(PSCKernel):
    """Burst-coding kernel: geometric weights inside each burst window.

    Park et al. (DAC 2019) transmit information with short bursts whose
    inter-spike interval encodes significance.  On a discrete grid this
    reduces to a window of ``burst_length`` steps, repeated every
    ``period`` steps, in which the ``k``-th slot carries weight
    ``ratio^k * scale``.  Slots past ``burst_length`` carry the smallest
    weight so that late (jittered) spikes still contribute.
    """

    def __init__(self, period: int = 16, burst_length: int = 5, ratio: float = 0.5):
        check_positive("period", period)
        check_positive("burst_length", burst_length)
        check_positive("ratio", ratio)
        if burst_length > period:
            raise ValueError(
                f"burst_length ({burst_length}) cannot exceed period ({period})"
            )
        if ratio >= 1.0:
            raise ValueError(f"ratio must be < 1, got {ratio}")
        self.period = int(period)
        self.burst_length = int(burst_length)
        self.ratio = float(ratio)

    def weights(self, num_steps: int) -> np.ndarray:
        check_positive("num_steps", num_steps)
        steps = np.arange(int(num_steps))
        slot = steps % self.period
        slot = np.minimum(slot, self.burst_length - 1)
        return np.power(self.ratio, slot + 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BurstKernel(period={self.period}, burst_length={self.burst_length}, "
            f"ratio={self.ratio})"
        )


class ExponentialKernel(PSCKernel):
    """Exponentially decaying kernel used by TTFS and TTAS coding.

    The weight of a spike at step ``t`` is ``exp(-t / tau)``: the earlier a
    neuron fires, the larger its post-synaptic contribution, exactly the
    dynamic-threshold formulation of T2FSNN (Park et al., DAC 2020) that this
    paper builds TTAS on.

    Parameters
    ----------
    tau:
        Decay constant in time steps.  When ``None`` the coder chooses
        ``tau = num_steps / dynamic_range_ln`` so the window covers a target
        dynamic range.
    """

    def __init__(self, tau: float):
        check_positive("tau", tau)
        self.tau = float(tau)

    def weights(self, num_steps: int) -> np.ndarray:
        check_positive("num_steps", num_steps)
        steps = np.arange(int(num_steps), dtype=np.float64)
        return np.exp(-steps / self.tau)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExponentialKernel(tau={self.tau})"
