"""Tests for the transport evaluator and the NoiseRobustSNN pipeline."""

import numpy as np
import pytest

from repro.coding import RateCoder, TTASCoder, TTFSCoder
from repro.core import ActivationTransportSimulator, NoiseRobustSNN, WeightScaling
from repro.core.transport import TransportResult
from repro.noise import DeletionNoise, JitterNoise


class TestTransportSimulator:
    def test_clean_accuracy_close_to_analog(self, converted_mlp, mnist_split):
        simulator = ActivationTransportSimulator(
            converted_mlp, RateCoder(num_steps=64)
        )
        x, y = mnist_split.test.x[:60], mnist_split.test.y[:60]
        result = simulator.evaluate(x, y, rng=0)
        analog = converted_mlp.analog_accuracy(x, y)
        assert result.accuracy >= analog - 0.1

    def test_spike_counts_recorded_per_interface(self, converted_mlp, mnist_split):
        simulator = ActivationTransportSimulator(converted_mlp, RateCoder(num_steps=32))
        result = simulator.evaluate(mnist_split.test.x[:8], mnist_split.test.y[:8], rng=0)
        assert result.total_spikes > 0
        spiking = sum(s.ends_with_spikes for s in converted_mlp.segments)
        assert len(result.spikes_per_interface) == 1 + spiking
        assert sum(result.spikes_per_interface.values()) == result.total_spikes
        assert result.spikes_per_sample == result.total_spikes / 8

    def test_deletion_reduces_spikes_and_accuracy(self, converted_mlp, mnist_split):
        x, y = mnist_split.test.x[:40], mnist_split.test.y[:40]
        clean = ActivationTransportSimulator(
            converted_mlp, RateCoder(num_steps=32)
        ).evaluate(x, y, rng=0)
        noisy = ActivationTransportSimulator(
            converted_mlp, RateCoder(num_steps=32), noise=DeletionNoise(0.8)
        ).evaluate(x, y, rng=0)
        assert noisy.total_spikes < clean.total_spikes
        assert noisy.accuracy <= clean.accuracy

    def test_weight_scaling_restores_deletion_accuracy(self, converted_mlp, mnist_split):
        x, y = mnist_split.test.x[:60], mnist_split.test.y[:60]
        coder = RateCoder(num_steps=32)
        without = ActivationTransportSimulator(
            converted_mlp, coder, noise=DeletionNoise(0.7)
        ).evaluate(x, y, rng=0)
        with_ws = ActivationTransportSimulator(
            converted_mlp, coder, noise=DeletionNoise(0.7),
            weight_scaling=WeightScaling(), expected_deletion=0.7,
        ).evaluate(x, y, rng=0)
        assert with_ws.accuracy >= without.accuracy

    def test_scale_factor_property(self, converted_mlp):
        simulator = ActivationTransportSimulator(
            converted_mlp, RateCoder(16),
            weight_scaling=WeightScaling(), expected_deletion=0.5,
        )
        assert abs(simulator.scale_factor - 2.0) < 1e-12

    def test_negative_inputs_rejected(self, converted_mlp):
        simulator = ActivationTransportSimulator(converted_mlp, RateCoder(16))
        with pytest.raises(ValueError):
            simulator.forward(-np.ones((2, 1, 28, 28), dtype=np.float32))

    def test_forward_needs_an_input(self, converted_mlp):
        simulator = ActivationTransportSimulator(converted_mlp, RateCoder(16))
        with pytest.raises(ValueError, match="either x or input_train"):
            simulator.forward(None)

    def test_empty_result_has_zero_spikes_per_sample(self):
        assert TransportResult(accuracy=0.0, total_spikes=0).spikes_per_sample == 0.0
        assert TransportResult(
            accuracy=1.0, total_spikes=30, num_samples=4
        ).spikes_per_sample == 7.5

    def test_rate_insensitive_to_jitter(self, converted_mlp, mnist_split):
        x, y = mnist_split.test.x[:40], mnist_split.test.y[:40]
        coder = RateCoder(num_steps=32)
        clean = ActivationTransportSimulator(converted_mlp, coder).evaluate(x, y, rng=0)
        jitter = ActivationTransportSimulator(
            converted_mlp, coder, noise=JitterNoise(3.0)
        ).evaluate(x, y, rng=0)
        assert abs(jitter.accuracy - clean.accuracy) <= 0.05

    def test_keep_logits(self, converted_mlp, mnist_split):
        simulator = ActivationTransportSimulator(converted_mlp, RateCoder(16))
        result = simulator.evaluate(
            mnist_split.test.x[:6], mnist_split.test.y[:6], rng=0, keep_logits=True
        )
        assert result.logits.shape == (6, 10)

    def test_deterministic_given_seed(self, converted_mlp, mnist_split):
        simulator = ActivationTransportSimulator(
            converted_mlp, TTFSCoder(16), noise=DeletionNoise(0.5)
        )
        x, y = mnist_split.test.x[:20], mnist_split.test.y[:20]
        a = simulator.evaluate(x, y, rng=5)
        b = simulator.evaluate(x, y, rng=5)
        assert a.accuracy == b.accuracy
        assert a.total_spikes == b.total_spikes

    def test_ttfs_uses_far_fewer_spikes_than_rate(self, converted_mlp, mnist_split):
        x = mnist_split.test.x[:20]
        y = mnist_split.test.y[:20]
        rate = ActivationTransportSimulator(
            converted_mlp, RateCoder(num_steps=64)
        ).evaluate(x, y, rng=0)
        ttfs = ActivationTransportSimulator(
            converted_mlp, TTFSCoder(num_steps=16)
        ).evaluate(x, y, rng=0)
        assert ttfs.total_spikes * 5 < rate.total_spikes


class TestNoiseRobustSNNPipeline:
    def test_from_dnn_and_clean_eval(self, trained_mlp, mnist_split):
        snn = NoiseRobustSNN.from_dnn(
            trained_mlp, mnist_split.train.x[:32], coding="rate", num_steps=32,
        )
        result = snn.evaluate(mnist_split.test.x[:40], mnist_split.test.y[:40], rng=0)
        assert result.accuracy > 0.6
        assert result.coding == "rate"
        assert result.deletion == 0.0 and result.jitter == 0.0
        assert result.weight_scaling_factor == 1.0

    def test_weight_scaling_factor_reported(self, converted_mlp):
        snn = NoiseRobustSNN(converted_mlp, coding="rate", num_steps=16,
                             weight_scaling=True)
        x = np.zeros((4, 1, 28, 28), dtype=np.float32)
        result = snn.evaluate(x, np.zeros(4, dtype=np.int64), deletion=0.5, rng=0)
        assert abs(result.weight_scaling_factor - 2.0) < 1e-12

    def test_ttas_pipeline_with_duration(self, trained_mlp, mnist_split):
        snn = NoiseRobustSNN.from_dnn(
            trained_mlp, mnist_split.train.x[:32], coding="ttas",
            num_steps=16, target_duration=4, weight_scaling=True,
        )
        coder = snn.make_coder()
        assert isinstance(coder, TTASCoder)
        assert coder.target_duration == 4

    def test_invalid_noise_levels(self, converted_mlp):
        snn = NoiseRobustSNN(converted_mlp, coding="rate", num_steps=16)
        x = np.zeros((2, 1, 28, 28), dtype=np.float32)
        with pytest.raises(ValueError):
            snn.evaluate(x, None, deletion=1.5)
        with pytest.raises(ValueError):
            snn.evaluate(x, None, jitter=-1.0)

    def test_as_dict_round_trip(self, converted_mlp, mnist_split):
        snn = NoiseRobustSNN(converted_mlp, coding="ttfs", num_steps=16)
        result = snn.evaluate(mnist_split.test.x[:10], mnist_split.test.y[:10],
                              deletion=0.2, rng=0)
        payload = result.as_dict()
        assert payload["coding"] == "ttfs"
        assert payload["deletion"] == 0.2
        assert 0.0 <= payload["accuracy"] <= 1.0

    def test_paper_claim_ttas_ws_beats_ttfs_ws_under_deletion(
        self, converted_mlp, mnist_split
    ):
        """The paper's headline: TTAS+WS is more deletion-robust than TTFS+WS."""
        x, y = mnist_split.test.x[:80], mnist_split.test.y[:80]
        ttfs = NoiseRobustSNN(converted_mlp, coding="ttfs", num_steps=16,
                              weight_scaling=True)
        ttas = NoiseRobustSNN(converted_mlp, coding="ttas", num_steps=16,
                              weight_scaling=True, coder_kwargs={"target_duration": 5})
        acc_ttfs = ttfs.evaluate(x, y, deletion=0.6, rng=0).accuracy
        acc_ttas = ttas.evaluate(x, y, deletion=0.6, rng=0).accuracy
        assert acc_ttas >= acc_ttfs
