"""Time-to-average-spike (TTAS) coding -- the paper's proposed scheme.

TTAS keeps the temporal precision of TTFS but spreads the activation over a
short *phasic burst*: the simplified integrate-and-fire-or-burst neuron
(Eq. 4) emits ``target_duration`` consecutive spikes starting at the
time-to-first-spike ``t_1``.  With the exponential kernel the burst delivers

    Z_hat = sum_{k=0}^{t_a - 1} z(t_1 + k)              (Eq. 5)

instead of the single-spike value ``z(t_1)``, so the paper folds the scale
factor ``C_A = z(t_1) / Z_hat`` into the synaptic weights.  Because the
kernel is exponential, ``Z_hat = z(t_1) * G`` with the *constant*
``G = sum_k exp(-k / tau)``, hence ``C_A = 1 / G`` is independent of ``t_1``
and really can live inside the weights with no per-spike computation.

The payoff, measured in Figs. 4 and 6 of the paper:

* deletion of one spike removes only its share of ``Z_hat`` instead of the
  whole activation (graded instead of all-or-none), which also makes weight
  scaling effective again;
* jitter on individual spikes averages out over the burst, so the decoded
  value concentrates around the clean one (time-to-*average*-spike).
"""

from __future__ import annotations

import numpy as np

from repro.coding.base import NeuralCoder
from repro.coding.protocol import (
    SimulationProtocol,
    sequential_window_protocol,
)
from repro.coding.ttfs import TTFSCoder
from repro.snn.kernels import ExponentialKernel, PSCKernel
from repro.snn.neurons import IntegrateFireOrBurstNeuron, SpikingNeuron
from repro.snn.spikes import SpikeEvents
from repro.utils.rng import RngLike
from repro.utils.validation import check_non_negative, check_positive


class TTASCoder(NeuralCoder):
    """Time-to-average-spike coder.

    Parameters
    ----------
    num_steps:
        Window length ``T``.
    target_duration:
        Burst duration ``t_a`` (number of phasic burst spikes per
        activation).  ``target_duration=1`` degenerates to TTFS coding.
    min_value:
        Resolution floor shared with :class:`repro.coding.ttfs.TTFSCoder`.
    """

    name = "ttas"

    supports_timestep = True
    timestep_note = (
        "TTFS-style layer windows driven by the paper's IFB neuron (Eq. 4): "
        "a burst of t_a threshold-subtracting spikes starting at the "
        "time-to-first-spike, with the burst gain C_A = 1/G folded into the "
        "emission kernels exactly as the paper folds it into the weights"
    )

    def __init__(
        self,
        num_steps: int = 64,
        target_duration: int = 3,
        min_value: float = 0.02,
    ):
        super().__init__(num_steps)
        check_positive("target_duration", target_duration)
        if target_duration > num_steps:
            raise ValueError(
                f"target_duration ({target_duration}) cannot exceed "
                f"num_steps ({num_steps})"
            )
        self.target_duration = int(target_duration)
        # The first spike is a TTFS spike; reuse its timing machinery.
        self._ttfs = TTFSCoder(num_steps=num_steps, min_value=min_value)
        self.min_value = self._ttfs.min_value
        self.tau = self._ttfs.tau
        self._kernel = ExponentialKernel(tau=self.tau)

    @property
    def kernel(self) -> PSCKernel:
        return self._kernel

    @property
    def burst_gain(self) -> float:
        """``G = sum_{k<t_a} exp(-k / tau)``: clean burst PSC relative to one spike."""
        k = np.arange(self.target_duration, dtype=np.float64)
        return float(np.exp(-k / self.tau).sum())

    @property
    def scale_factor(self) -> float:
        """``C_A = z(t_1) / Z_hat = 1 / G`` -- folded into the synaptic weights."""
        return 1.0 / self.burst_gain

    def spike_times(self, values: np.ndarray) -> np.ndarray:
        """Time of the *first* spike of each burst (num_steps means "no spike")."""
        return self._ttfs.spike_times(values)

    def encode(self, values: np.ndarray, rng: RngLike = None) -> SpikeEvents:
        # The burst is t_a consecutive spikes from the TTFS time; emit the
        # (time, neuron) pairs directly instead of scattering into a dense
        # grid that is >= 95 % zeros for realistic T.
        values = self._normalise(values)
        first_times = self.spike_times(values).reshape(-1)
        active = np.flatnonzero(first_times < self.num_steps)
        base_times = first_times[active]
        offsets = np.arange(self.target_duration, dtype=np.int64)
        times = (base_times[:, None] + offsets[None, :]).reshape(-1)
        neurons = np.repeat(active, self.target_duration)
        inside = times < self.num_steps
        return SpikeEvents(
            times[inside], neurons[inside], None, self.num_steps, values.shape
        )

    def decode(self, train) -> np.ndarray:
        # C_A * sum over burst spikes of the exponential kernel value.
        return self.scale_factor * train.weighted_sum(self.decode_weights())

    def make_neuron(self, threshold: float) -> SpikingNeuron:
        return IntegrateFireOrBurstNeuron(
            threshold=threshold, target_duration=self.target_duration, tau=self.tau
        )

    def simulation_protocol(
        self,
        num_hidden_interfaces: int,
        threshold: float,
        kernel_scale: float = 1.0,
    ) -> SimulationProtocol:
        """TTAS protocol: TTFS layer windows with IFB burst dynamics.

        Same sequential per-layer windows as TTFS, but each hidden
        population is the paper's simplified IFB neuron: the first spike at
        ``t1`` (threshold ``theta * exp(-dt/tau)`` decaying over the layer's
        own window) is followed by ``t_a - 1`` further threshold-subtracting
        spikes.  Each emission kernel carries ``C_A = 1/G`` so the clean
        burst delivers ``theta * exp(-t1/tau)`` -- the same decoded value a
        single TTFS spike would -- matching the weight-folded ``C_A`` of
        Eq. 5.  A burst that starts near the window end keeps firing into
        the spill region (the kernel keeps decaying there); spikes that
        would fall past the end of the simulation are truncated, exactly as
        the encoder truncates bursts at the window boundary.
        """
        check_positive("threshold", threshold)
        check_positive("kernel_scale", kernel_scale)
        check_non_negative("num_hidden_interfaces", num_hidden_interfaces)
        theta = float(threshold)
        scale = float(kernel_scale)
        gain = self.scale_factor  # C_A = 1 / G
        spill = self.target_duration - 1

        def hidden_weights(start, stop, total):
            # Decayed weights extended into the spill region so a burst
            # starting near the window end keeps its per-spike charge
            # (truncated at the global end, like the encoder's window edge).
            span = min(stop + spill, total) - start
            decay = np.exp(-np.arange(span, dtype=np.float64) / self.tau)
            return decay * (theta * gain * scale)

        return sequential_window_protocol(
            self.num_steps,
            num_hidden_interfaces,
            input_weights=self.step_weights() * (gain * scale),
            hidden_weights=hidden_weights,
            hidden_neuron=lambda start, stop: IntegrateFireOrBurstNeuron(
                threshold=theta,
                target_duration=self.target_duration,
                tau=self.tau,
                fire_start=start,
                fire_stop=stop,
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TTASCoder(num_steps={self.num_steps}, "
            f"target_duration={self.target_duration})"
        )
