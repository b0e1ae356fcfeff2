"""Bridge from a converted network to the time-stepped simulator.

The time-stepped simulator (:mod:`repro.snn.simulator`) needs per-layer
synaptic transforms operating on instantaneous post-synaptic currents.  This
module builds those transforms from a :class:`ConvertedSNN`:

* the analog layers of each segment are applied per step, with the bias
  separated out and injected as a constant current over the coder's
  per-layer bias window,
* activations are expressed in normalised units (the calibration scales of
  the converted network are used to rescale between interfaces),
* the temporal layout -- each layer's firing window, the PSC kernel its
  spikes carry, its neuron dynamics, and the readout's decode rule -- comes
  from the coder's **per-layer simulation protocol**
  (:meth:`repro.coding.base.NeuralCoder.simulation_protocol`): rate coding
  keeps one shared window with constant kernels (bit-identical to the
  historical rate-only bridge), TTFS/TTAS lay one full window per layer
  (T2FSNN-style layer phases), and phase coding pipelines layers one
  oscillator period apart with the phase threshold schedule.

Coders whose scheme truly has no faithful correspondence -- burst coding,
whose bounded-burst constraint lives in the encoder, not in a neuron model
-- raise :class:`repro.coding.protocol.UnsupportedCoderError` (a
``TypeError``) from their protocol hook.  The refusal is per capability,
stated in the error message, which keeps the faithful simulator honest
without blanket-rejecting every non-rate scheme.

:class:`TimestepEvaluator` runs the built simulator behind the evaluator
contract both simulators share (:class:`repro.core.transport.BatchEvaluator`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.coding.base import NeuralCoder
from repro.conversion.converter import ConvertedSNN, NetworkSegment
from repro.core.transport import BatchEvaluator
from repro.core.weight_scaling import WeightScaling
from repro.nn.layers import Conv2D, Layer, ReLU
from repro.noise.injector import NoiseInjector
from repro.snn.simulator import LayerFaultMask, SimulatorLayer, TimeSteppedSimulator
from repro.snn.spikes import SpikeTrain
from repro.utils.rng import RngLike, default_rng, derive_rng
from repro.utils.validation import check_positive


class _SegmentTransform:
    """Per-step synaptic transform of one converted segment.

    Applies the segment's analog layers (minus the trailing ReLU) to an
    instantaneous PSC expressed in the previous interface's normalised units,
    and returns the drive in this interface's normalised units with the bias
    removed (the bias is injected separately as a constant step current).

    The transform is shape-polymorphic over the batch axis: the simulator
    calls it with time folded into the batch, ``(T * batch, ...)`` rows, and
    every row's result equals a per-step ``(batch, ...)`` call because every
    analog layer treats rows independently.

    Conv, dense and average pooling minus the bias are linear, and the
    zero-input output *is* the subtracted bias image: ``transform(0) == 0``,
    as the simulator requires of every transform.
    """

    def __init__(
        self,
        layers: List[Layer],
        input_scale: float,
        output_scale: float,
    ):
        self.layers = layers
        self.input_scale = float(input_scale)
        self.output_scale = float(output_scale)
        self._bias_cache: Dict[Tuple[int, ...], np.ndarray] = {}

    def _run(self, values: np.ndarray) -> np.ndarray:
        out = values
        for layer in self.layers:
            out = layer.forward(out, training=False)
        return out

    def bias_image(self, input_shape: Tuple[int, ...]) -> np.ndarray:
        """Segment output for an all-zero input (the bias contribution).

        Returned with a singleton batch axis: every analog layer maps a zero
        row to the same values regardless of how many rows ride along, so
        one ``(1, ...)`` image broadcasts over any batch -- including the
        final partial batch of an eval slice and the time-folded
        ``(T * batch, ...)`` rows of the simulator -- without ever
        re-running the zero-input forward for a new batch size.
        """
        key = tuple(int(s) for s in input_shape[1:])
        if key not in self._bias_cache:
            zeros = np.zeros((1,) + key, dtype=np.float32)
            self._bias_cache[key] = self._run(zeros)
        return self._bias_cache[key]

    def __call__(self, psc: np.ndarray) -> np.ndarray:
        scaled = np.multiply(psc, self.input_scale, dtype=np.float32)
        out = self._run(scaled)
        # ``out`` is this call's own array (the layers run on the fresh
        # ``scaled``), so the bias and the output scale come off in place.
        np.subtract(out, self.bias_image(scaled.shape), out=out)
        out /= self.output_scale
        return out

    def row_bytes(self, features: Tuple[int, ...]) -> int:
        """Bytes per input row of the widest array one call makes.

        The candidates are the float64 PSC row handed in, its float32 copy,
        each layer's output and a conv's padded image and im2col pack; the
        simulator sizes its transform calls by the widest
        (:attr:`~repro.snn.simulator.SimulatorLayer.row_bytes`).
        """
        row = np.zeros((1,) + tuple(features), dtype=np.float32)
        widest = 2 * row.nbytes  # the float64 PSC row
        for layer in self.layers:
            if isinstance(layer, Conv2D):
                widest = max(widest, layer.workspace_bytes(row.shape[1:], row.itemsize))
            row = layer.forward(row, training=False)
            widest = max(widest, row.nbytes)
        return widest

    def step_bias(self, input_shape: Tuple[int, ...], num_steps: int) -> np.ndarray:
        """Constant per-step bias current (singleton batch axis, broadcasts)."""
        return self.bias_image(input_shape) / (self.output_scale * num_steps)


def _strip_trailing_relu(segment: NetworkSegment) -> List[Layer]:
    # Inference-inert layers (Dropout) are dropped up front so the per-step
    # transform only runs real compute.
    layers = list(segment.inference_layers())
    if layers and isinstance(layers[-1], ReLU):
        layers = layers[:-1]
    return layers


def build_time_stepped_simulator(
    network: ConvertedSNN,
    coder: NeuralCoder,
    batch_input_shape: Tuple[int, ...],
    threshold: Optional[float] = None,
    kernel_scale: float = 1.0,
) -> TimeSteppedSimulator:
    """Build a :class:`TimeSteppedSimulator` for a converted network.

    Parameters
    ----------
    network:
        The converted network.
    coder:
        Any coder whose scheme has a faithful per-layer correspondence
        (``supports_timestep``): rate, phase, TTFS and TTAS.  Coders without
        one raise :class:`~repro.coding.protocol.UnsupportedCoderError`
        naming the capability gap (see module docstring).
    batch_input_shape:
        Shape of the input batches that will be simulated, e.g.
        ``(batch, channels, height, width)`` -- needed to pre-compute the
        per-step bias currents (any batch size may be simulated afterwards;
        the bias images broadcast).
    threshold:
        Firing threshold of the hidden neurons (defaults to the coder's
        empirical threshold).
    kernel_scale:
        Multiplier applied to every PSC kernel -- the faithful form of the
        paper's weight-scaling compensation ``W' = C W``: every spike
        (input and hidden) delivers ``C`` times its nominal charge, exactly
        as scaled synaptic weights would, while the bias currents and firing
        thresholds stay unscaled (matching the transport evaluator, which
        scales only the decoded activations).
    """
    check_positive("num_steps (coder)", coder.num_steps)
    check_positive("kernel_scale", kernel_scale)
    theta = float(threshold) if threshold is not None else coder.default_threshold()
    check_positive("threshold", theta)

    num_hidden = sum(
        1 for segment in network.segments if segment.ends_with_spikes
    )
    # The coder's per-layer temporal layout: windows, emission kernels,
    # neuron dynamics, bias horizons.  UnsupportedCoderError (a TypeError)
    # propagates for schemes with no faithful correspondence.
    protocol = coder.simulation_protocol(
        num_hidden, threshold=theta, kernel_scale=float(kernel_scale)
    )

    layers: List[SimulatorLayer] = []
    scales = [network.input_scale] + [
        segment.activation_scale
        for segment in network.segments
        if segment.ends_with_spikes
    ]
    current_shape = tuple(int(s) for s in batch_input_shape)
    interface = 0
    for segment in network.segments:
        input_scale = scales[interface]
        if segment.ends_with_spikes:
            output_scale = segment.activation_scale
        else:
            output_scale = 1.0
        transform = _SegmentTransform(
            _strip_trailing_relu(segment), input_scale, output_scale
        )
        bias_image = transform.bias_image(current_shape)
        if segment.ends_with_spikes:
            out_spec = protocol.layers[interface + 1]
            neuron = out_spec.neuron
            bias_steps = (
                out_spec.bias_steps
                if out_spec.bias_steps is not None
                else protocol.num_steps
            )
        else:
            neuron = None
            bias_steps = protocol.num_steps
        layers.append(
            SimulatorLayer(
                transform=transform,
                neuron=neuron,
                name=f"segment{segment.index}",
                step_bias=transform.step_bias(current_shape, bias_steps),
                in_kernel=protocol.layers[interface].kernel,
                bias_stop=bias_steps,
                row_bytes=transform.row_bytes(current_shape[1:]),
            )
        )
        current_shape = current_shape[:1] + bias_image.shape[1:]
        if segment.ends_with_spikes:
            interface += 1

    return TimeSteppedSimulator(
        layers=layers,
        num_steps=protocol.num_steps,
        input_kernel=protocol.layers[0].kernel,
        hidden_kernel=protocol.layers[-1].kernel,
        input_steps=protocol.encode_steps,
    )


class TimestepEvaluator(BatchEvaluator):
    """The faithful time-stepped simulator behind the evaluator contract.

    The step-by-step counterpart of
    :class:`~repro.core.transport.ActivationTransportSimulator`: every
    hidden layer is a population of spiking neurons (IF, phase-scheduled
    IF, TTFS or IFB, per the coder's protocol) advanced through real
    membrane/threshold/reset dynamics, not an activation transport.
    ``threshold`` overrides the hidden neurons' firing threshold (default:
    the coder's empirical one); the noise's ``dead`` / ``stuck`` levels are
    also the fractions of broken neuron circuits in every spiking layer.

    Faithfulness caveats, stated rather than hidden:

    * the coder must have a per-layer temporal protocol (rate, phase, TTFS,
      TTAS); schemes without one -- burst -- raise
      :class:`~repro.coding.protocol.UnsupportedCoderError` naming the gap,
    * noise corrupts the *input* spike train; the hidden-layer trains are
      generated by the neuron dynamics themselves, so per-interface
      re-encoding noise -- the transport model -- does not apply.  The
      exception is the persistent circuit faults (the noise's ``dead`` /
      ``stuck`` levels):
      a broken neuron circuit corrupts its *own* output spikes, so those
      masks are drawn per spiking layer and applied to the emitted spikes
      inside the simulator, gated by each layer's protocol fire window,
    * weight scaling enters as ``kernel_scale``: every spike delivers
      ``C`` times its nominal charge, the faithful reading of ``W' = C W``,
    * temporal protocols simulate a longer global window than the encode
      window (one window per layer for TTFS/TTAS, one oscillator period of
      pipeline lag per layer for phase) -- the honest latency cost of
      layer-sequential temporal codes.

    The simulator is built once per per-sample input shape, on the first
    batch of that shape and before its encode; its bias images carry a
    singleton batch axis, so one instance runs every batch size.  A
    simulator holds membrane state during a run: one evaluator must not
    run two batches at once.
    """

    def __init__(
        self,
        network: ConvertedSNN,
        coder: NeuralCoder,
        noise: NoiseInjector = NoiseInjector(),
        weight_scaling: Optional[WeightScaling] = None,
        threshold: Optional[float] = None,
    ):
        super().__init__(network, coder, noise, weight_scaling)
        self.threshold = threshold
        self._simulators: Dict[Tuple[int, ...], TimeSteppedSimulator] = {}

    def _simulator(self, sample_shape: Tuple[int, ...]) -> TimeSteppedSimulator:
        """The simulator of one per-sample input shape (built on first use)."""
        key = tuple(int(s) for s in sample_shape)
        if key not in self._simulators:
            self._simulators[key] = build_time_stepped_simulator(
                self.network,
                self.coder,
                batch_input_shape=(1,) + key,
                threshold=self.threshold,
                kernel_scale=self.scale_factor,
            )
        return self._simulators[key]

    def forward(
        self,
        x: Optional[np.ndarray],
        rng: RngLike = None,
        input_train: Optional[SpikeTrain] = None,
    ) -> "tuple[np.ndarray, Dict[int, int]]":
        """Simulate one batch; returns ``(logits, spikes_per_interface)``.

        Draws from ``rng`` in a fixed order: the input encode
        (``("encode", 0)``), the input noise (``("noise", 0)``, when a
        noise level is set), then one dead/stuck mask per spiking layer
        (``("fault", i)``, when a fault fraction is set).  An injected
        ``input_train`` skips the encode and the input noise.  The logits
        are the readout's output potentials; interface ``i`` counts the
        spikes layer ``i`` emitted (0 = the input train).
        """
        x = self._check_batch(x, input_train)
        generator = default_rng(rng)
        if input_train is None:
            simulator = self._simulator(x.shape[1:])
            train = self.coder.encode(
                x / self.network.input_scale,
                rng=derive_rng(generator, "encode", 0),
            )
            if not self.noise.is_clean:
                train = self.noise.apply(train, rng=derive_rng(generator, "noise", 0))
        else:
            simulator = self._simulator(input_train.population_shape[1:])
            train = input_train
        spiking_layers = [
            layer.name for layer in simulator.layers if layer.neuron is not None
        ]
        layer_faults = None
        if self.noise.dead > 0.0 or self.noise.stuck > 0.0:
            # One persistent mask per spiking layer per batch, on streams
            # keyed like the transport evaluator's per-interface noise.
            layer_faults = {
                name: LayerFaultMask(
                    dead_fraction=self.noise.dead,
                    stuck_fraction=self.noise.stuck,
                    rng=derive_rng(generator, "fault", interface),
                )
                for interface, name in enumerate(spiking_layers, start=1)
            }
        record = simulator.run(train, layer_faults=layer_faults)
        spikes_per_interface = {0: train.total_spikes()}
        for interface, name in enumerate(spiking_layers, start=1):
            spikes_per_interface[interface] = record.spike_counts[name]
        return np.asarray(record.output_potential), spikes_per_interface
