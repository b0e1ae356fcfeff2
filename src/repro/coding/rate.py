"""Rate coding.

The activation is carried by the *number* of spikes in the window: a
normalised value ``a`` produces ``round(a * T)`` spikes spread as evenly as
possible over the ``T`` steps, and decoding is simply the firing rate
``N / T``.  Rate coding is the baseline of conversion SNNs (Han et al. 2020);
it needs many spikes but -- because spike *timing* carries no information --
it is immune to jitter, which is exactly the behaviour the paper's Fig. 3
reports.
"""

from __future__ import annotations

import numpy as np

from repro.coding.base import ClassCounts, NeuralCoder
from repro.coding.protocol import InterfaceProtocol, SimulationProtocol
from repro.snn.kernels import ConstantKernel, PSCKernel
from repro.snn.neurons import IFNeuron, SpikingNeuron
from repro.snn.spikes import SpikeTrainArray
from repro.utils.rng import RngLike
from repro.utils.validation import check_non_negative, check_positive


class RateCoder(NeuralCoder):
    """Firing-rate coder.

    Parameters
    ----------
    num_steps:
        Time-window length ``T``; the rate resolution is ``1/T``.
    """

    name = "rate"

    supports_timestep = True
    timestep_note = (
        "exact: under reset-by-subtraction an IF layer's spike count times "
        "theta equals its accumulated drive, so constant kernels over one "
        "shared window transport activations faithfully"
    )

    #: A constant kernel is one weight class.
    has_class_encoding = True

    def __init__(self, num_steps: int = 64):
        super().__init__(num_steps)
        self._kernel = ConstantKernel(amplitude=1.0 / self.num_steps)

    @property
    def kernel(self) -> PSCKernel:
        return self._kernel

    def encode_classes(self, values: np.ndarray) -> ClassCounts:
        counts = np.rint(self._normalise(values) * self.num_steps).astype(np.int32)
        return ClassCounts(counts[None, ...], self)

    def jitter_classes(
        self, train: ClassCounts, sigma: float, rng: RngLike = None
    ) -> SpikeTrainArray:
        # Clipping keeps every spike and the constant kernel ignores its
        # step: the counts come back unchanged and nothing is drawn.
        check_non_negative("sigma", sigma)
        return train.view()

    def encode(self, values: np.ndarray, rng: RngLike = None) -> SpikeTrainArray:
        t = self.num_steps
        # Deterministic, evenly spaced placement: neuron with n target spikes
        # fires at step t whenever floor((t+1) * n / T) increments.  Integer
        # arithmetic keeps the temporaries small for large populations.
        target = self.encode_classes(values).counts[0]
        steps = np.arange(t + 1, dtype=np.int64)
        shape = (t + 1,) + (1,) * target.ndim
        boundaries = (steps.reshape(shape) * target[None, ...]) // t
        spikes = np.diff(boundaries, axis=0).astype(np.int16)
        return SpikeTrainArray(spikes, copy=False)

    def make_neuron(self, threshold: float) -> SpikingNeuron:
        return IFNeuron(threshold=threshold, reset="subtract")

    def simulation_protocol(
        self,
        num_hidden_interfaces: int,
        threshold: float,
        kernel_scale: float = 1.0,
    ) -> SimulationProtocol:
        """Rate protocol: one shared window, constant kernels.

        Reproduces the historical rate-only bridge exactly -- the same
        ``step_weights() * kernel_scale`` input kernel, the same constant
        ``theta * kernel_scale`` hidden kernel, the same subtract-reset IF
        neurons, biases spread over the whole window -- so results through
        the protocol are bit-identical to the pre-protocol builder.
        """
        check_positive("threshold", threshold)
        check_positive("kernel_scale", kernel_scale)
        check_non_negative("num_hidden_interfaces", num_hidden_interfaces)
        theta = float(threshold)
        steps = self.num_steps
        window = (0, steps)
        layers = [
            InterfaceProtocol(
                kernel=self.step_weights() * float(kernel_scale),
                neuron=None,
                window=window,
            )
        ]
        hidden_kernel = np.full(
            steps, theta * float(kernel_scale), dtype=np.float64
        )
        for _ in range(int(num_hidden_interfaces)):
            layers.append(
                InterfaceProtocol(
                    kernel=hidden_kernel,
                    neuron=self.make_neuron(theta),
                    window=window,
                    bias_steps=steps,
                )
            )
        return SimulationProtocol(
            num_steps=steps, encode_steps=steps, layers=layers
        )
