"""Time-to-first-spike (TTFS) coding.

T2FSNN (Park et al., DAC 2020) represents an activation with a *single*
spike: the stronger the activation, the earlier the spike.  With the
exponentially decaying PSC kernel ``exp(-t / tau)`` the decoded value of a
spike at time ``t_f`` is ``exp(-t_f / tau)``, so encoding places the spike at
``t_f = round(-tau * ln(a))``.

The consequences the paper analyses follow directly from this design:

* the fewest spikes of all codings (at most one per activation),
* all-or-none behaviour under deletion -- losing the single spike erases the
  whole activation (but dropout-trained DNNs tolerate that reasonably well),
* extreme sensitivity to jitter -- shifting the single spike by ``d`` steps
  multiplies the decoded value by ``exp(-d / tau)``.
"""

from __future__ import annotations

import numpy as np

from repro.coding.base import NeuralCoder
from repro.coding.protocol import (
    SimulationProtocol,
    sequential_window_protocol,
)
from repro.snn.kernels import ExponentialKernel, PSCKernel
from repro.snn.neurons import SpikingNeuron, TTFSNeuron
from repro.snn.spikes import SpikeEvents
from repro.utils.rng import RngLike
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)


class TTFSCoder(NeuralCoder):
    """Time-to-first-spike coder with an exponentially decaying kernel.

    Parameters
    ----------
    num_steps:
        Window length ``T``.
    min_value:
        Smallest activation that still produces a spike; it is mapped to the
        last step of the window, which fixes the kernel decay constant to
        ``tau = (T - 1) / ln(1 / min_value)``.  Smaller activations produce no
        spike at all (they are below the code's resolution).
    """

    name = "ttfs"

    supports_timestep = True
    timestep_note = (
        "T2FSNN-style layer phases: each layer integrates its predecessor's "
        "window, then fires (at most once) against the threshold "
        "theta * exp(-dt/tau) decaying over its own window; the spike's "
        "kernel weight theta * exp(-dt/tau) decodes the membrane it crossed"
    )

    def __init__(self, num_steps: int = 64, min_value: float = 0.02):
        super().__init__(num_steps)
        check_probability("min_value", min_value)
        if min_value <= 0.0 or min_value >= 1.0:
            raise ValueError(f"min_value must lie strictly in (0, 1), got {min_value}")
        self.min_value = float(min_value)
        if num_steps == 1:
            self.tau = 1.0
        else:
            self.tau = (self.num_steps - 1) / float(np.log(1.0 / self.min_value))
        self._kernel = ExponentialKernel(tau=self.tau)

    @property
    def kernel(self) -> PSCKernel:
        return self._kernel

    def spike_times(self, values: np.ndarray) -> np.ndarray:
        """First-spike time per value (num_steps means "no spike")."""
        values = self._normalise(values)
        with np.errstate(divide="ignore"):
            times = np.where(
                values >= self.min_value,
                np.rint(-self.tau * np.log(np.maximum(values, 1e-12))),
                self.num_steps,
            )
        return np.clip(times, 0, self.num_steps).astype(np.int64)

    def encode(self, values: np.ndarray, rng: RngLike = None) -> SpikeEvents:
        # spike_times already gives one event per active neuron; emitting them
        # directly avoids building (and re-scanning) the dense (T, N) grid.
        values = self._normalise(values)
        times = self.spike_times(values).reshape(-1)
        active = np.flatnonzero(times < self.num_steps)
        return SpikeEvents(
            times[active], active, None, self.num_steps, values.shape
        )

    def make_neuron(self, threshold: float) -> SpikingNeuron:
        return TTFSNeuron(threshold=threshold, tau=self.tau)

    def simulation_protocol(
        self,
        num_hidden_interfaces: int,
        threshold: float,
        kernel_scale: float = 1.0,
    ) -> SimulationProtocol:
        """TTFS protocol: one full window per layer, laid out sequentially.

        Interface ``l`` lives in window ``[l*T, (l+1)*T)``.  A hidden neuron
        integrates its predecessor's window completely before its own window
        opens (the causality the shared-window formulation lacks), then
        fires once when the accumulated membrane ``u`` crosses the decaying
        threshold ``theta * exp(-dt/tau)``; the spike's emission weight is
        that same threshold value (times ``kernel_scale``), i.e. the largest
        decodable value not exceeding ``u`` -- activations above ``theta``
        saturate at ``theta``, the dynamic-threshold trade-off the paper
        discusses.  Each segment's bias is spread over the steps *before*
        the consuming layer's window, so the full analog bias has arrived
        when firing decisions start.
        """
        check_positive("threshold", threshold)
        check_positive("kernel_scale", kernel_scale)
        check_non_negative("num_hidden_interfaces", num_hidden_interfaces)
        theta = float(threshold)
        scale = float(kernel_scale)
        decay = self.step_weights()  # exp(-t / tau) on the window grid
        return sequential_window_protocol(
            self.num_steps,
            num_hidden_interfaces,
            input_weights=decay * scale,
            hidden_weights=lambda start, stop, total: decay * (theta * scale),
            hidden_neuron=lambda start, stop: TTFSNeuron(
                threshold=theta, tau=self.tau,
                fire_start=start, fire_stop=stop,
            ),
        )
