"""Tests for dense/activation/dropout layers, including numeric gradient checks."""

import numpy as np
import pytest

from repro.nn.layers import Dense, Dropout, Flatten, ReLU
from tests.conftest import numeric_gradient


class TestDense:
    def test_forward_shape(self):
        layer = Dense(4, 3, rng=0)
        out = layer.forward(np.ones((5, 4), dtype=np.float32))
        assert out.shape == (5, 3)

    def test_forward_matches_manual(self):
        layer = Dense(3, 2, rng=0)
        x = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
        expected = x @ layer.params["weight"] + layer.params["bias"]
        assert np.allclose(layer.forward(x), expected)

    def test_input_shape_validated(self):
        layer = Dense(4, 2, rng=0)
        with pytest.raises(ValueError):
            layer.forward(np.ones((3, 5), dtype=np.float32))

    def test_backward_requires_training_forward(self):
        layer = Dense(4, 2, rng=0)
        layer.forward(np.ones((2, 4), dtype=np.float32), training=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((2, 2), dtype=np.float32))

    def test_weight_gradient_numeric(self):
        rng = np.random.default_rng(0)
        layer = Dense(4, 3, rng=0)
        x = rng.random((5, 4)).astype(np.float32)
        target = rng.random((5, 3)).astype(np.float32)

        def loss():
            return float(((layer.forward(x, training=True) - target) ** 2).sum())

        loss()
        grad_out = 2 * (layer.forward(x, training=True) - target)
        layer.backward(grad_out)
        numeric = numeric_gradient(loss, layer.params["weight"])
        assert np.allclose(layer.grads["weight"], numeric, atol=1e-2)

    def test_input_gradient_numeric(self):
        rng = np.random.default_rng(1)
        layer = Dense(3, 2, rng=0)
        x = rng.random((4, 3)).astype(np.float64)
        target = rng.random((4, 2))

        def loss():
            return float(((layer.forward(x.astype(np.float32), training=True) - target) ** 2).sum())

        grad_out = 2 * (layer.forward(x.astype(np.float32), training=True) - target)
        grad_in = layer.backward(grad_out.astype(np.float32))
        numeric = numeric_gradient(loss, x)
        assert np.allclose(grad_in, numeric, atol=1e-2)

    def test_bias_gradient_is_column_sum(self):
        layer = Dense(3, 2, rng=0)
        x = np.random.default_rng(2).random((6, 3)).astype(np.float32)
        layer.forward(x, training=True)
        grad_out = np.ones((6, 2), dtype=np.float32)
        layer.backward(grad_out)
        assert np.allclose(layer.grads["bias"], 6.0)

    def test_no_bias_option(self):
        layer = Dense(3, 2, use_bias=False, rng=0)
        assert "bias" not in layer.params


class TestReLU:
    def test_clips_negative(self):
        out = ReLU().forward(np.array([[-1.0, 2.0, 0.0]]))
        assert np.allclose(out, [[0.0, 2.0, 0.0]])

    def test_backward_masks_gradient(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 2.0]]), training=True)
        grad = layer.backward(np.array([[5.0, 5.0]]))
        assert np.allclose(grad, [[0.0, 5.0]])

    def test_backward_requires_training(self):
        layer = ReLU()
        layer.forward(np.array([[1.0]]), training=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.array([[1.0]]))


class TestFlatten:
    def test_roundtrip(self):
        layer = Flatten()
        x = np.arange(24, dtype=np.float32).reshape(2, 3, 2, 2)
        out = layer.forward(x, training=True)
        assert out.shape == (2, 12)
        restored = layer.backward(out)
        assert restored.shape == x.shape
        assert np.allclose(restored, x)

    def test_backward_requires_forward(self):
        with pytest.raises(RuntimeError, match="before forward"):
            Flatten().backward(np.zeros((2, 12), dtype=np.float32))


class TestDropout:
    def test_inference_is_identity(self):
        x = np.ones((10, 10), dtype=np.float32)
        assert np.allclose(Dropout(0.5, rng=0).forward(x, training=False), x)

    def test_training_zeroes_and_rescales(self):
        x = np.ones((200, 50), dtype=np.float32)
        layer = Dropout(0.5, rng=0)
        out = layer.forward(x, training=True)
        zero_fraction = float(np.mean(out == 0))
        assert 0.4 < zero_fraction < 0.6
        surviving = out[out > 0]
        assert np.allclose(surviving, 2.0)

    def test_expected_value_preserved(self):
        x = np.ones((500, 40), dtype=np.float32)
        out = Dropout(0.3, rng=1).forward(x, training=True)
        assert abs(out.mean() - 1.0) < 0.05

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.5, rng=2)
        x = np.ones((20, 20), dtype=np.float32)
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(x))
        assert np.array_equal(grad == 0, out == 0)

    def test_zero_probability_is_identity(self):
        x = np.random.default_rng(0).random((5, 5)).astype(np.float32)
        assert np.allclose(Dropout(0.0).forward(x, training=True), x)

    def test_backward_after_inference_passes_gradient_through(self):
        layer = Dropout(0.5, rng=0)
        x = np.ones((4, 4), dtype=np.float32)
        layer.forward(x, training=False)
        grad = np.arange(16, dtype=np.float32).reshape(4, 4)
        assert layer.backward(grad) is grad

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)
