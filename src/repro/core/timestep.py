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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.coding.base import NeuralCoder
from repro.conversion.converter import ConvertedSNN, NetworkSegment
from repro.core.transport import TransportResult
from repro.core.weight_scaling import WeightScaling
from repro.nn.layers import Layer, ReLU
from repro.noise.base import SpikeNoise
from repro.snn.simulator import LayerFaultMask, SimulatorLayer, TimeSteppedSimulator
from repro.utils.rng import RngLike, derive_rng, derive_rng_at, stream_root
from repro.utils.validation import check_non_negative, check_positive


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
    """

    #: ``transform(0) == 0`` exactly: the zero-input output *is* the bias
    #: image that gets subtracted, so whole-silent time rows can be skipped.
    zero_preserving = True

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

    def step_bias(self, input_shape: Tuple[int, ...], num_steps: int) -> np.ndarray:
        """Constant per-step bias current (singleton batch axis, broadcasts)."""
        return self.bias_image(input_shape) / (self.output_scale * num_steps)


def _strip_trailing_relu(segment: NetworkSegment) -> List[Layer]:
    # Inference-inert layers (folded-BN Identity placeholders, Dropout) are
    # dropped up front so the per-step transform only runs real compute.
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


def evaluate_timestep(
    network: ConvertedSNN,
    coder: NeuralCoder,
    x: np.ndarray,
    labels: Optional[np.ndarray] = None,
    noise: Optional[SpikeNoise] = None,
    weight_scaling: Optional[WeightScaling] = None,
    expected_deletion: float = 0.0,
    threshold: Optional[float] = None,
    batch_size: int = 16,
    rng: RngLike = None,
    dead: float = 0.0,
    stuck: float = 0.0,
    sample_offset: int = 0,
    quant_bits: Optional[int] = None,
) -> TransportResult:
    """Evaluate a converted network with the faithful time-stepped simulator.

    The step-by-step counterpart of
    :func:`repro.core.transport.evaluate_transport`, with the same pure
    function shape so the plan-execution engine can dispatch faithful sweep
    cells to any worker: every hidden layer is a population of spiking
    neurons (IF, phase-scheduled IF, TTFS or IFB, per the coder's protocol)
    advanced through real membrane/threshold/reset dynamics, not an
    activation transport.

    Faithfulness caveats, stated rather than hidden:

    * the coder must have a per-layer temporal protocol (rate, phase, TTFS,
      TTAS); schemes without one -- burst -- raise
      :class:`~repro.coding.protocol.UnsupportedCoderError` naming the gap,
    * noise corrupts the *input* spike train; the hidden-layer trains are
      generated by the neuron dynamics themselves, so per-interface
      re-encoding noise -- the transport model -- does not apply.  The
      exception is the persistent circuit faults (``dead`` / ``stuck``):
      a broken neuron circuit corrupts its *own* output spikes, so those
      masks are drawn per spiking layer and applied to the emitted spikes
      inside the simulator, gated by each layer's protocol fire window,
    * weight scaling enters as ``kernel_scale``: every spike delivers
      ``C`` times its nominal charge, the faithful reading of ``W' = C W``,
    * temporal protocols simulate a longer global window than the encode
      window (one window per layer for TTFS/TTAS, one oscillator period of
      pipeline lag per layer for phase) -- the honest latency cost of
      layer-sequential temporal codes.
    """
    check_positive("batch_size", batch_size)
    check_non_negative("sample_offset", sample_offset)
    batch_size = int(batch_size)
    sample_offset = int(sample_offset)
    x = np.asarray(x, dtype=np.float32)
    labels = None if labels is None else np.asarray(labels)
    if np.any(x < 0):
        raise ValueError(
            "time-stepped simulation requires non-negative inputs "
            "(images in [0, 1]); got negative values"
        )
    scaling = weight_scaling or WeightScaling.disabled()
    factor = scaling.factor(float(expected_deletion))
    num_samples = int(x.shape[0])
    if quant_bits is not None:
        # Finite-precision synapses: quantise a *copy* of the network before
        # the simulator is built, so every per-step transform (and bias
        # image) runs on the fixed-point weights.  Deterministic -- no RNG
        # stream is consumed, so all noise realisations match the
        # full-precision run exactly.
        from repro.noise.faults import quantize_network

        network = quantize_network(network, int(quant_bits))
    simulator = build_time_stepped_simulator(
        network,
        coder,
        batch_input_shape=(min(batch_size, max(num_samples, 1)),) + x.shape[1:],
        threshold=threshold,
        kernel_scale=factor,
    )
    spiking_layers = [layer.name for layer in simulator.layers if layer.neuron is not None]
    # Per-batch noise streams derive statelessly from the cell root and the
    # batch's *absolute* sample offset (see
    # :meth:`ActivationTransportSimulator.evaluate` for the sharding
    # contract): a shard starting at a batch-aligned offset ``s0`` passes
    # ``sample_offset=s0`` and reproduces the unsharded run's streams.
    root = stream_root(rng)

    correct = 0
    total_spikes: Dict[int, int] = {}
    for start in range(0, num_samples, batch_size):
        stop = start + batch_size
        batch = x[start:stop]
        normalised = batch / network.input_scale
        generator = derive_rng_at(root, "batch", sample_offset + start)
        train = coder.encode(
            normalised,
            rng=derive_rng(generator, "encode", 0),
        )
        if noise is not None:
            train = noise.apply(train, rng=derive_rng(generator, "noise", 0))
        layer_faults = None
        if dead > 0.0 or stuck > 0.0:
            # One persistent mask per spiking layer per batch, on streams
            # keyed like the transport evaluator's per-interface noise.
            # The derivations only happen when a fault is enabled, so the
            # clean path consumes the exact same RNG sequence as before.
            layer_faults = {
                name: LayerFaultMask(
                    dead_fraction=dead,
                    stuck_fraction=stuck,
                    rng=derive_rng(generator, "fault", interface),
                )
                for interface, name in enumerate(spiking_layers, start=1)
            }
        record = simulator.run(train, layer_faults=layer_faults)
        if labels is not None:
            correct += int((record.predictions == labels[start:stop]).sum())
        total_spikes[0] = total_spikes.get(0, 0) + train.total_spikes()
        for interface, name in enumerate(spiking_layers, start=1):
            total_spikes[interface] = (
                total_spikes.get(interface, 0) + record.spike_counts[name]
            )

    accuracy = (
        correct / num_samples if labels is not None and num_samples else float("nan")
    )
    return TransportResult(
        accuracy=accuracy,
        total_spikes=int(sum(total_spikes.values())),
        spikes_per_interface=total_spikes,
        num_samples=num_samples,
    )
