"""Phase coding (weighted spikes).

Kim et al. (2018) attach a global oscillator of period ``K`` to the network:
a spike emitted at phase ``k`` carries weight ``2^-(1+k)``, so one period can
represent a K-bit binary fraction and the same pattern is repeated in every
period of the window.  Fewer spikes than rate coding are needed for the same
precision, but because the *phase* of a spike determines its significance the
code is sensitive to spike jitter -- the effect the paper quantifies in
Fig. 3 and Table II.
"""

from __future__ import annotations

import numpy as np

from repro.coding.base import PeriodicCoder
from repro.coding.protocol import (
    InterfaceProtocol,
    SimulationProtocol,
    windowed_kernel,
)
from repro.snn.kernels import PhaseKernel, PSCKernel
from repro.snn.neurons import IFNeuron, SpikingNeuron
from repro.utils.validation import check_non_negative, check_positive


class PhaseCoder(PeriodicCoder):
    """Phase (weighted-spike) coder.

    Parameters
    ----------
    num_steps:
        Window length ``T``; should be a multiple of ``period`` (remaining
        steps are simply unused).
    period:
        Number of phases ``K`` of the global oscillator, i.e. the bit width
        of the per-period binary representation.
    """

    name = "phase"

    supports_timestep = True
    timestep_note = (
        "phase-aligned IF dynamics: the threshold schedule "
        "theta * 2^-(1 + t mod K) with reset-by-subtraction performs the "
        "greedy binary decomposition in hardware form; each hidden layer "
        "fires one oscillator period later than its predecessor (pipeline "
        "fill), sharing the global oscillator"
    )

    def __init__(self, num_steps: int = 64, period: int = 8):
        super().__init__(num_steps, period)
        self._kernel = PhaseKernel(period=self.period)

    @property
    def kernel(self) -> PSCKernel:
        return self._kernel

    def pattern(self, values: np.ndarray) -> np.ndarray:
        """Binary-fraction decomposition of ``values``: shape (K, *values.shape)."""
        values = self._normalise(values)
        # Round to the representable grid first so encode/decode round-trips.
        scale = 2.0**self.period
        quantised = np.rint(values * scale)
        quantised = np.minimum(quantised, scale - 1)  # value 1.0 -> all ones
        bits = np.zeros((self.period,) + values.shape, dtype=np.int16)
        remainder = quantised
        for k in range(self.period):
            weight = 2.0 ** (self.period - 1 - k)
            bit = (remainder >= weight).astype(np.int16)
            remainder = remainder - bit * weight
            bits[k] = bit
        return bits

    def make_neuron(self, threshold: float) -> SpikingNeuron:
        return IFNeuron(threshold=threshold, reset="subtract")

    def simulation_protocol(
        self,
        num_hidden_interfaces: int,
        threshold: float,
        kernel_scale: float = 1.0,
    ) -> SimulationProtocol:
        """Phase protocol: one global oscillator, one period of lag per layer.

        The input interface carries the coder's decode weights
        (``2^-(1 + t mod K) / num_periods``, so the full window sums to the
        encoded activation).  Every hidden layer is an IF population driven
        by the *schedule* ``theta * 2^-(1 + t mod K)``: firing at phase
        ``k`` subtracts ``theta * 2^-(1+k)`` and delivers exactly that
        charge (times ``kernel_scale``) downstream -- the greedy binary
        decomposition of the membrane, which is what the phase encoder
        computes in closed form.  Layer ``l`` may only fire from
        ``l * period`` on (its value needs one oscillator period per depth
        to propagate) and gets the same number of complete periods of air
        time as the input window; the lag is a multiple of the period, so
        all layers stay phase-aligned on the shared oscillator.  The hidden
        layers deliver their accumulated total once (not once per period),
        hence no ``1/num_periods`` on their kernels.
        """
        check_positive("threshold", threshold)
        check_positive("kernel_scale", kernel_scale)
        check_non_negative("num_hidden_interfaces", num_hidden_interfaces)
        theta = float(threshold)
        scale = float(kernel_scale)
        num_hidden = int(num_hidden_interfaces)
        lag = self.period
        total = self.num_steps + num_hidden * lag
        weights = self.kernel.weights(total)
        layers = [
            InterfaceProtocol(
                kernel=windowed_kernel(
                    total, 0,
                    weights[: self.num_steps] * (scale / self.num_periods),
                ),
                neuron=None,
                window=(0, self.num_steps),
            )
        ]
        schedule = theta * self.kernel.weights(self.period)
        for index in range(1, num_hidden + 1):
            start = index * lag
            stop = start + self.num_steps
            layers.append(
                InterfaceProtocol(
                    kernel=windowed_kernel(
                        total, start,
                        weights[start:stop] * (theta * scale),
                    ),
                    neuron=IFNeuron(
                        threshold=theta,
                        reset="subtract",
                        threshold_schedule=schedule,
                        fire_start=start,
                        fire_stop=stop,
                    ),
                    window=(start, stop),
                    bias_steps=stop,
                )
            )
        return SimulationProtocol(
            num_steps=total, encode_steps=self.num_steps, layers=layers
        )
