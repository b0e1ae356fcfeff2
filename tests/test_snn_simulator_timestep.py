"""Tests for the time-stepped simulator and its converted-network builder."""

import numpy as np
import pytest

from repro.coding import RateCoder, TTFSCoder
from repro.core import build_time_stepped_simulator
from repro.snn.neurons import IFNeuron
from repro.snn.simulator import SimulatorLayer, TimeSteppedSimulator
from repro.snn.spikes import SpikeTrainArray


def two_layer_simulator(num_steps=32, threshold=0.25):
    """A hand-built 2-layer spiking network with known weights."""
    w1 = np.array([[1.0, 0.5], [0.0, 1.0], [0.5, 0.0]])  # 3 inputs -> 2 hidden
    w2 = np.array([[1.0], [-1.0]])                        # 2 hidden -> 1 output
    layers = [
        SimulatorLayer(transform=lambda psc: psc @ w1, neuron=IFNeuron(threshold),
                       name="hidden"),
        SimulatorLayer(transform=lambda psc: psc @ w2, neuron=None, name="readout"),
    ]
    kernel = np.full(num_steps, 1.0 / num_steps)
    hidden_kernel = np.full(num_steps, threshold)
    return TimeSteppedSimulator(layers, num_steps, kernel, hidden_kernel), (w1, w2)


class TestTimeSteppedSimulator:
    def test_validates_layer_structure(self):
        layer = SimulatorLayer(transform=lambda x: x, neuron=IFNeuron(1.0))
        with pytest.raises(ValueError):
            TimeSteppedSimulator([layer], 8, np.ones(8))
        with pytest.raises(ValueError):
            TimeSteppedSimulator([], 8, np.ones(8))

    def test_kernel_shape_validated(self):
        layer = SimulatorLayer(transform=lambda x: x, neuron=None)
        with pytest.raises(ValueError):
            TimeSteppedSimulator([layer], 8, np.ones(4))

    def test_input_step_mismatch_rejected(self):
        simulator, _ = two_layer_simulator(num_steps=16)
        train = SpikeTrainArray.zeros(8, (2, 3))
        with pytest.raises(ValueError):
            simulator.run(train)

    def test_input_steps_cannot_exceed_window(self):
        layer = SimulatorLayer(transform=lambda x: x, neuron=None)
        with pytest.raises(ValueError, match="cannot exceed"):
            TimeSteppedSimulator([layer], 8, np.ones(8), input_steps=12)

    def test_short_input_window_is_zero_padded(self):
        full, _ = two_layer_simulator(num_steps=16)
        short = TimeSteppedSimulator(
            full.layers, 16, full.input_kernel, full.hidden_kernel, input_steps=10
        )
        train = RateCoder(num_steps=10).encode(np.array([[0.9, 0.3, 0.6]]))
        padded = SpikeTrainArray(
            np.concatenate([train.counts, np.zeros((6, 1, 3), dtype=np.int16)])
        )
        expected = full.run(padded)
        actual = short.run(train)
        assert np.array_equal(actual.output_potential, expected.output_potential)
        assert actual.spike_counts == expected.spike_counts

    def test_output_approximates_analog_network(self):
        # Quantisation error per hidden neuron is bounded by the threshold,
        # so the readout error is bounded by ~2 * threshold here.
        simulator, (w1, w2) = two_layer_simulator(num_steps=200, threshold=0.1)
        coder = RateCoder(num_steps=200)
        x = np.array([[0.8, 0.2, 0.4], [0.1, 0.9, 0.3]])
        record = simulator.run(coder.encode(x))
        analog = np.maximum(x @ w1, 0.0) @ w2
        assert np.allclose(record.output_potential, analog, atol=0.25)

    def test_spike_counts_recorded(self):
        simulator, _ = two_layer_simulator(num_steps=32)
        coder = RateCoder(num_steps=32)
        record = simulator.run(coder.encode(np.array([[0.5, 0.5, 0.5]])))
        assert record.spike_counts["hidden"] > 0
        assert record.total_spikes() == record.spike_counts["hidden"]
        assert record.num_steps == 32

    def test_record_spike_trains(self):
        simulator, _ = two_layer_simulator(num_steps=16)
        coder = RateCoder(num_steps=16)
        record = simulator.run(coder.encode(np.array([[1.0, 0.0, 0.0]])),
                               record_spikes=True)
        assert "hidden" in record.spike_trains
        assert record.spike_trains["hidden"].num_steps == 16

    def test_predictions_property(self):
        simulator, _ = two_layer_simulator(num_steps=16)
        coder = RateCoder(num_steps=16)
        record = simulator.run(coder.encode(np.array([[0.5, 0.1, 0.9]])))
        assert record.predictions.shape == (1,)


class TestBuildTimeSteppedSimulator:
    def test_rejects_unfaithful_coders(self, converted_mlp):
        # Burst coding's bounded-burst constraint lives in the encoder, not
        # in a neuron model: no faithful correspondence, so the bridge
        # refuses (per capability, as a TypeError subclass).
        from repro.coding import BurstCoder

        with pytest.raises(TypeError):
            build_time_stepped_simulator(
                converted_mlp, BurstCoder(num_steps=16),
                batch_input_shape=(4, 1, 28, 28),
            )

    def test_accepts_temporal_coders(self, converted_mlp):
        simulator = build_time_stepped_simulator(
            converted_mlp, TTFSCoder(num_steps=16),
            batch_input_shape=(4, 1, 28, 28),
        )
        # One full window per layer: 2 hidden interfaces + the input window.
        assert simulator.num_steps == 48
        assert simulator.input_steps == 16

    def test_agrees_with_analog_predictions(self, converted_mlp, mnist_split):
        coder = RateCoder(num_steps=64)
        simulator = build_time_stepped_simulator(
            converted_mlp, coder, batch_input_shape=(16, 1, 28, 28), threshold=0.1
        )
        x = mnist_split.test.x[:16]
        record = simulator.run(coder.encode(x / converted_mlp.input_scale))
        analog_pred = converted_mlp.forward_analog(x).argmax(axis=1)
        agreement = float((record.predictions == analog_pred).mean())
        assert agreement >= 0.8

    def test_agrees_with_transport_evaluation(self, converted_mlp, mnist_split):
        from repro.core import ActivationTransportSimulator

        coder = RateCoder(num_steps=64)
        x, y = mnist_split.test.x[:32], mnist_split.test.y[:32]
        stepped = build_time_stepped_simulator(
            converted_mlp, coder, batch_input_shape=(32, 1, 28, 28), threshold=0.1
        )
        stepped_acc = float(
            (stepped.run(coder.encode(x / converted_mlp.input_scale)).predictions == y).mean()
        )
        transport_acc = ActivationTransportSimulator(converted_mlp, coder).evaluate(
            x, y, rng=0
        ).accuracy
        assert abs(stepped_acc - transport_acc) <= 0.15

    def test_spiking_activity_present_in_every_hidden_layer(self, converted_mlp, mnist_split):
        coder = RateCoder(num_steps=32)
        simulator = build_time_stepped_simulator(
            converted_mlp, coder, batch_input_shape=(8, 1, 28, 28), threshold=0.1
        )
        record = simulator.run(
            coder.encode(mnist_split.test.x[:8] / converted_mlp.input_scale)
        )
        hidden_counts = [count for name, count in record.spike_counts.items()
                         if not name.endswith(str(len(converted_mlp.segments) - 1))]
        assert all(count > 0 for count in hidden_counts)
