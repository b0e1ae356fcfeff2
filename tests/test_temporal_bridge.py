"""Temporal-protocol bridge tests.

Covers the coder-aware layer-window refactor end to end:

* windowed / scheduled neuron dynamics (``fire_start``/``fire_stop``,
  ``threshold_schedule``) -- per-step vs vectorised-scan bit-identity,
* the per-layer simulation protocols of every coder (structure, kernels,
  per-capability refusal),
* rate coding through the protocol == the historical rate-only bridge,
  bit for bit,
* simulator == stepped oracle (:func:`oracles.run_stepped`) for every
  temporal coder the bridge accepts,
* transport-vs-timestep degradation-trend comparison per method.
"""

import numpy as np
import pytest
from oracles import run_stepped

from repro.coding import (
    BurstCoder,
    NeuralCoder,
    PhaseCoder,
    RateCoder,
    TTASCoder,
    TTFSCoder,
    UnsupportedCoderError,
    create_coder,
    timestep_support,
    windowed_kernel,
)
from repro.core.timestep import (
    TimestepEvaluator,
    _SegmentTransform,
    _strip_trailing_relu,
    build_time_stepped_simulator,
)
from repro.core.transport import evaluate_transport
from repro.noise.injector import NoiseInjector
from repro.snn.neurons import (
    IFNeuron,
    IntegrateFireOrBurstNeuron,
    TTFSNeuron,
)
from repro.snn.simulator import SimulatorLayer, TimeSteppedSimulator


WINDOWED_FACTORIES = {
    "ttfs-windowed": lambda: TTFSNeuron(0.6, tau=5.0, fire_start=8, fire_stop=16),
    "ttfs-static-window": lambda: TTFSNeuron(0.6, fire_start=4, fire_stop=12),
    "ifb-windowed": lambda: IntegrateFireOrBurstNeuron(
        0.4, target_duration=3, tau=5.0, fire_start=8, fire_stop=16
    ),
    "ifb-spill": lambda: IntegrateFireOrBurstNeuron(
        0.4, target_duration=4, fire_start=6, fire_stop=10
    ),
    "if-scheduled": lambda: IFNeuron(
        1.2, threshold_schedule=1.2 * 2.0 ** -(1.0 + np.arange(4)),
        fire_start=4, fire_stop=20,
    ),
}


class TestWindowedNeurons:
    @pytest.mark.parametrize("name", sorted(WINDOWED_FACTORIES))
    def test_advance_matches_step_loop(self, name, rng):
        make = WINDOWED_FACTORIES[name]
        drive = rng.normal(0.1, 0.35, size=(24, 5, 6)).astype(np.float32)
        reference, scanned = make(), make()
        ref_state = reference.init_state((5, 6))
        scan_state = scanned.init_state((5, 6))
        expected = np.stack(
            [reference.step(ref_state, drive[t]) for t in range(drive.shape[0])]
        )
        actual = scanned.advance(scan_state, drive)
        assert np.array_equal(expected, actual)
        assert np.array_equal(ref_state.fired, scan_state.fired)
        assert np.array_equal(ref_state.refractory, scan_state.refractory)
        assert np.array_equal(
            ref_state.burst_remaining, scan_state.burst_remaining
        )
        assert np.array_equal(ref_state.membrane, scan_state.membrane)

    @pytest.mark.parametrize("name", sorted(WINDOWED_FACTORIES))
    @pytest.mark.parametrize("split", [5, 9, 15])
    def test_advance_split_across_window_edges(self, name, split, rng):
        """Chunk seams falling before/inside/after the firing window."""
        make = WINDOWED_FACTORIES[name]
        drive = rng.normal(0.12, 0.3, size=(24, 4)).astype(np.float32)
        whole, chunked = make(), make()
        whole_state = whole.init_state((4,))
        chunk_state = chunked.init_state((4,))
        expected = whole.advance(whole_state, drive)
        actual = np.concatenate(
            [chunked.advance(chunk_state, drive[:split]),
             chunked.advance(chunk_state, drive[split:])]
        )
        assert np.array_equal(expected, actual)
        assert np.array_equal(whole_state.membrane, chunk_state.membrane)

    @pytest.mark.parametrize("name", sorted(WINDOWED_FACTORIES))
    def test_no_first_spike_outside_window(self, name):
        neuron = WINDOWED_FACTORIES[name]()
        state = neuron.init_state((3,))
        drive = np.full((24, 3), 10.0)  # would fire instantly if allowed
        spikes = neuron.advance(state, drive)
        start = neuron.fire_start
        assert spikes[:start].sum() == 0
        assert spikes[start:].sum() > 0

    def test_ifb_burst_spills_past_window_end(self):
        neuron = IntegrateFireOrBurstNeuron(
            1.0, target_duration=4, fire_start=2, fire_stop=6
        )
        state = neuron.init_state((1,))
        drive = np.zeros((12, 1))
        drive[5] = 1.5  # first (and only possible) crossing at step 5
        spikes = neuron.advance(state, drive)
        # Burst starts at step 5 (inside the window) and keeps firing for
        # target_duration steps, spilling past fire_stop.
        assert spikes[:, 0].tolist() == [0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0]

    def test_ttfs_window_threshold_decays_from_window_start(self):
        neuron = TTFSNeuron(1.0, tau=2.0, fire_start=10, fire_stop=20)
        assert neuron.threshold_at(9) == float("inf")
        assert neuron.threshold_at(10) == 1.0
        assert neuron.threshold_at(12) == pytest.approx(np.exp(-1.0))
        assert neuron.threshold_at(20) == float("inf")

    def test_if_schedule_validation(self):
        with pytest.raises(ValueError):
            IFNeuron(1.0, threshold_schedule=np.array([]))
        with pytest.raises(ValueError):
            IFNeuron(1.0, threshold_schedule=np.array([0.5, -0.1]))
        with pytest.raises(ValueError):
            IFNeuron(1.0, fire_start=-1)
        with pytest.raises(ValueError):
            TTFSNeuron(1.0, fire_start=5, fire_stop=5)

    def test_if_schedule_is_greedy_binary_decomposition(self):
        """One oscillator period decomposes a held membrane into its bits."""
        theta = 1.0
        schedule = theta * 2.0 ** -(1.0 + np.arange(4))
        neuron = IFNeuron(theta, threshold_schedule=schedule)
        state = neuron.init_state((1,))
        drive = np.zeros((4, 1))
        drive[0] = 0.8125 * theta  # binary 0.1101
        spikes = neuron.advance(state, drive)
        assert spikes[:, 0].tolist() == [1, 1, 0, 1]
        np.testing.assert_allclose(state.membrane, 0.0, atol=1e-12)


class TestSimulationProtocols:
    def test_support_flags(self):
        assert timestep_support("rate") == (True, RateCoder.timestep_note)
        assert timestep_support("ttas(5)")[0] is True
        supported, note = timestep_support("burst")
        assert not supported and "burst counter" in note  # note states the gap
        with pytest.raises(ValueError):
            timestep_support("morse")

    def test_base_coder_raises_per_capability(self):
        coder = NeuralCoder(num_steps=8)
        with pytest.raises(UnsupportedCoderError, match="abstract"):
            coder.simulation_protocol(2, threshold=1.0)

    def test_burst_refusal_names_the_gap(self):
        with pytest.raises(UnsupportedCoderError, match="burst counter"):
            BurstCoder(num_steps=16).simulation_protocol(2, threshold=0.4)

    def test_rate_protocol_matches_historical_kernels(self):
        coder = RateCoder(num_steps=32)
        protocol = coder.simulation_protocol(2, threshold=0.4, kernel_scale=1.5)
        assert protocol.num_steps == 32
        assert protocol.encode_steps == 32
        np.testing.assert_array_equal(
            protocol.layers[0].kernel, coder.step_weights() * 1.5
        )
        np.testing.assert_array_equal(
            protocol.layers[1].kernel, np.full(32, 0.4 * 1.5)
        )
        assert isinstance(protocol.layers[1].neuron, IFNeuron)
        assert protocol.layers[1].neuron.fire_start == 0
        assert protocol.layers[1].neuron.threshold_schedule is None

    def test_ttfs_protocol_layout(self):
        coder = TTFSCoder(num_steps=8)
        protocol = coder.simulation_protocol(2, threshold=0.8)
        assert protocol.num_steps == 24
        assert protocol.encode_steps == 8
        assert [spec.window for spec in protocol.layers] == [
            (0, 8), (8, 16), (16, 24)
        ]
        # Kernels live inside their windows only.
        for spec in protocol.layers:
            start, stop = spec.window
            kernel = spec.kernel
            assert np.all(kernel[:start] == 0) and np.all(kernel[stop:] == 0)
            assert kernel[start] > 0
        # Hidden kernel starts at theta and decays with the coder's tau.
        assert protocol.layers[1].kernel[8] == pytest.approx(0.8)
        assert protocol.layers[1].kernel[9] == pytest.approx(
            0.8 * np.exp(-1.0 / coder.tau)
        )
        # Bias fully delivered before each firing window opens.
        assert protocol.layers[1].bias_steps == 8
        assert protocol.layers[2].bias_steps == 16

    def test_ttas_protocol_burst_gain_and_spill(self):
        coder = TTASCoder(num_steps=8, target_duration=3)
        protocol = coder.simulation_protocol(2, threshold=0.8)
        assert protocol.num_steps == 24
        gain = coder.scale_factor
        # Input kernel carries C_A so a clean burst decodes to one spike's
        # worth of activation.
        assert protocol.layers[0].kernel[0] == pytest.approx(gain)
        # Hidden kernel of the middle layer spills past its window so a
        # burst starting at the last window step keeps its decayed weights.
        hidden = protocol.layers[1].kernel
        assert hidden[16] > 0 and hidden[17] > 0  # spill region
        assert np.all(hidden[18:] == 0)
        # The last layer's spill is truncated at the global end.
        last = protocol.layers[2].kernel
        assert last[23] > 0 and last.shape == (24,)

    def test_phase_protocol_alignment(self):
        coder = PhaseCoder(num_steps=16, period=4)
        protocol = coder.simulation_protocol(2, threshold=1.2)
        assert protocol.num_steps == 24  # 16 + 2 * one-period lag
        assert [spec.window for spec in protocol.layers] == [
            (0, 16), (4, 20), (8, 24)
        ]
        # Input kernel divides by the period count (the coder's decode).
        np.testing.assert_allclose(
            protocol.layers[0].kernel[:4],
            coder.kernel.weights(4) / coder.num_periods,
        )
        # Hidden kernel equals the threshold schedule inside the window:
        # what a spike subtracts is exactly what it delivers downstream.
        neuron = protocol.layers[1].neuron
        for t in range(4, 20):
            assert protocol.layers[1].kernel[t] == pytest.approx(
                neuron.threshold_at(t)
            )
        assert np.all(protocol.layers[1].kernel[:4] == 0)
        assert np.all(protocol.layers[1].kernel[20:] == 0)

    def test_windowed_kernel_truncates(self):
        kernel = windowed_kernel(6, 4, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(kernel, [0, 0, 0, 0, 1.0, 2.0])

    def test_protocol_validation(self):
        from repro.coding import InterfaceProtocol, SimulationProtocol

        with pytest.raises(ValueError):
            SimulationProtocol(num_steps=8, encode_steps=16, layers=[
                InterfaceProtocol(kernel=np.zeros(8))
            ])
        with pytest.raises(ValueError):
            SimulationProtocol(num_steps=8, encode_steps=8, layers=[])
        with pytest.raises(ValueError):
            SimulationProtocol(num_steps=8, encode_steps=8, layers=[
                InterfaceProtocol(kernel=np.zeros(4))
            ])
        with pytest.raises(ValueError):
            SimulationProtocol(num_steps=8, encode_steps=8, layers=[
                InterfaceProtocol(kernel=np.zeros(8)),
                InterfaceProtocol(kernel=np.zeros(8), neuron=None),
            ])


    @pytest.mark.parametrize("num_steps,encode_steps,input_neuron,message", [
        (0, 0, None, "must be positive"),
        (8, 0, None, "must be positive"),
        (8, 8, IFNeuron(1.0), "interface 0 is the input encoding"),
    ])
    def test_protocol_rejects_empty_windows_and_a_spiking_input(
        self, num_steps, encode_steps, input_neuron, message
    ):
        from repro.coding import InterfaceProtocol, SimulationProtocol

        with pytest.raises(ValueError, match=message):
            SimulationProtocol(num_steps=num_steps, encode_steps=encode_steps, layers=[
                InterfaceProtocol(kernel=np.zeros(8), neuron=input_neuron),
            ])


def old_style_rate_simulator(network, coder, batch_input_shape, threshold,
                             kernel_scale=1.0):
    """The pre-protocol rate-only bridge, reconstructed verbatim.

    This is the construction `build_time_stepped_simulator` used before the
    per-layer protocols: one shared window, simulator-wide constant kernels,
    biases spread over the whole window.  The golden reference for the
    bit-identity guarantee.
    """
    layers = []
    scales = [network.input_scale] + [
        segment.activation_scale for segment in network.segments
        if segment.ends_with_spikes
    ]
    current_shape = tuple(int(s) for s in batch_input_shape)
    interface = 0
    for segment in network.segments:
        input_scale = scales[interface]
        output_scale = (
            segment.activation_scale if segment.ends_with_spikes else 1.0
        )
        transform = _SegmentTransform(
            _strip_trailing_relu(segment), input_scale, output_scale
        )
        bias_image = transform.bias_image(current_shape)
        step_bias = transform.step_bias(current_shape, coder.num_steps)
        neuron = (
            IFNeuron(threshold=threshold)
            if segment.ends_with_spikes else None
        )
        layers.append(SimulatorLayer(
            transform=transform, neuron=neuron,
            name=f"segment{segment.index}", step_bias=step_bias,
        ))
        current_shape = current_shape[:1] + bias_image.shape[1:]
        if segment.ends_with_spikes:
            interface += 1
    return TimeSteppedSimulator(
        layers=layers,
        num_steps=coder.num_steps,
        input_kernel=coder.step_weights() * float(kernel_scale),
        hidden_kernel=np.full(coder.num_steps, threshold * float(kernel_scale)),
    )


class TestRateBitIdentity:
    @pytest.mark.parametrize("backend", ["stepped", "fused"])
    @pytest.mark.parametrize("kernel_scale", [1.0, 1.25])
    def test_protocol_bridge_reproduces_old_bridge(
        self, converted_mlp, mnist_split, backend, kernel_scale
    ):
        coder = RateCoder(num_steps=32)
        new = build_time_stepped_simulator(
            converted_mlp, coder, batch_input_shape=(8, 1, 28, 28),
            threshold=0.1, kernel_scale=kernel_scale,
        )
        old = old_style_rate_simulator(
            converted_mlp, coder, (8, 1, 28, 28), 0.1, kernel_scale
        )
        train = coder.encode(mnist_split.test.x[:8] / converted_mlp.input_scale)
        run = run_stepped if backend == "stepped" else TimeSteppedSimulator.run
        new_record = run(new, train, record_spikes=True)
        old_record = run(old, train, record_spikes=True)
        # Bit-identical, not merely close: same kernels, same ops, same order.
        assert np.array_equal(
            new_record.output_potential, old_record.output_potential
        )
        assert new_record.spike_counts == old_record.spike_counts
        for name in old_record.spike_trains:
            assert new_record.spike_trains[name] == old_record.spike_trains[name]


TEMPORAL_CODERS = {
    "rate": lambda: create_coder("rate", num_steps=24),
    "phase": lambda: create_coder("phase", num_steps=24, period=8),
    "ttfs": lambda: create_coder("ttfs", num_steps=12),
    "ttas(3)": lambda: create_coder("ttas", num_steps=12, target_duration=3),
}


def assert_engines_match(simulator, train):
    stepped = run_stepped(simulator, train, record_spikes=True)
    fused = simulator.run(train, record_spikes=True)
    assert stepped.spike_counts == fused.spike_counts
    np.testing.assert_array_equal(stepped.output_potential, fused.output_potential)
    assert set(stepped.spike_trains) == set(fused.spike_trains)
    for name in stepped.spike_trains:
        # Spike trains must be *bit-identical* to the oracle's.
        assert stepped.spike_trains[name] == fused.spike_trains[name]
    return stepped


class TestTemporalEngineEquivalence:
    @pytest.mark.parametrize("name", sorted(TEMPORAL_CODERS))
    @pytest.mark.parametrize("batch", [1, 6])
    def test_fused_equals_stepped_for_every_accepted_coder(
        self, converted_mlp, mnist_split, name, batch
    ):
        coder = TEMPORAL_CODERS[name]()
        simulator = build_time_stepped_simulator(
            converted_mlp, coder, batch_input_shape=(batch, 1, 28, 28),
        )
        train = coder.encode(
            mnist_split.test.x[:batch] / converted_mlp.input_scale
        )
        record = assert_engines_match(simulator, train)
        assert record.num_steps == simulator.num_steps
        # Spiking happens inside each layer's window.
        assert record.total_spikes() > 0

    @pytest.mark.parametrize("name", ["ttfs", "phase"])
    def test_noisy_input_keeps_engines_identical(
        self, converted_mlp, mnist_split, name
    ):
        coder = TEMPORAL_CODERS[name]()
        simulator = build_time_stepped_simulator(
            converted_mlp, coder, batch_input_shape=(4, 1, 28, 28),
        )
        train = coder.encode(
            mnist_split.test.x[:4] / converted_mlp.input_scale
        )
        noise = NoiseInjector.from_levels(
            deletion_probability=0.3, jitter_sigma=1.0
        )
        noisy = noise.apply(train, rng=np.random.default_rng(7))
        assert_engines_match(simulator, noisy)


class TestTransportVsTimestepTrend:
    """Per-method degradation trends: the faithful simulator and the
    transport evaluator must tell the same qualitative story."""

    CASES = {
        # (coder factory, threshold override, clean-accuracy slack vs
        #  transport).  Rate uses the low threshold the historical tests
        #  use; temporal coders run their empirical defaults.
        "rate": (lambda: create_coder("rate", num_steps=32), 0.1, 0.15),
        "phase": (lambda: create_coder("phase", num_steps=32), None, 0.15),
        "ttfs": (lambda: create_coder("ttfs", num_steps=16), None, 0.15),
        "ttas(3)": (
            lambda: create_coder("ttas", num_steps=16, target_duration=3),
            None, 0.15,
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_degradation_trend_matches_transport(
        self, converted_mlp, mnist_split, name
    ):
        make, threshold, slack = self.CASES[name]
        coder = make()
        x, y = mnist_split.test.x[:32], mnist_split.test.y[:32]
        heavy = NoiseInjector.from_levels(deletion_probability=0.8)

        faithful_clean = TimestepEvaluator(
            converted_mlp, coder, threshold=threshold
        ).evaluate(x, y, rng=0)
        faithful_noisy = TimestepEvaluator(
            converted_mlp, coder, noise=heavy, threshold=threshold
        ).evaluate(x, y, rng=0)
        transport_clean = evaluate_transport(converted_mlp, coder, x, y, rng=0)
        transport_noisy = evaluate_transport(
            converted_mlp, coder, x, y, noise=heavy, rng=0
        )

        # Clean faithful accuracy tracks the transport evaluator.
        assert abs(faithful_clean.accuracy - transport_clean.accuracy) <= slack
        # Heavy deletion degrades (or at worst holds) accuracy on both.
        assert faithful_noisy.accuracy <= faithful_clean.accuracy + 0.1
        assert transport_noisy.accuracy <= transport_clean.accuracy + 0.1
        # Deletion removes input charge, hence spikes, on the faithful path.
        assert faithful_noisy.total_spikes < faithful_clean.total_spikes
