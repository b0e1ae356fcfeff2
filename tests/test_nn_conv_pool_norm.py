"""Tests for convolution and pooling."""

import numpy as np
import pytest

from repro.nn.layers import AvgPool2D, Conv2D, col2im
from tests.conftest import numeric_gradient
from oracles import im2col


def reference_conv(x, weight, bias, stride, padding):
    """Naive direct convolution used as ground truth."""
    n, c, h, w = x.shape
    f, _, kh, kw = weight.shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    padded = np.pad(x, [(0, 0), (0, 0), (padding, padding), (padding, padding)])
    out = np.zeros((n, f, out_h, out_w))
    for i in range(n):
        for j in range(f):
            for y in range(out_h):
                for z in range(out_w):
                    patch = padded[i, :, y * stride:y * stride + kh, z * stride:z * stride + kw]
                    out[i, j, y, z] = (patch * weight[j]).sum() + bias[j]
    return out


class TestIm2Col:
    def test_col2im_inverts_for_non_overlapping(self):
        x = np.random.default_rng(1).random((1, 2, 4, 4)).astype(np.float32)
        cols, _, _ = im2col(x, 2, 2, 2, 0)
        restored = col2im(cols, x.shape, 2, 2, 2, 0)
        assert np.allclose(restored, x)

    def test_kernel_too_large(self):
        with pytest.raises(ValueError):
            col2im(np.zeros((1, 25)), (1, 1, 3, 3), 5, 5, 1, 0)


@pytest.mark.parametrize("padding", [-1, -3])
def test_col2im_rejects_negative_padding(padding):
    with pytest.raises(ValueError, match="padding must be >= 0"):
        col2im(np.zeros((9, 4), dtype=np.float32), (1, 1, 4, 4), 2, 2, 1, padding)


class TestConv2D:
    def test_matches_reference_convolution(self):
        rng = np.random.default_rng(0)
        layer = Conv2D(2, 3, kernel_size=3, stride=1, padding=1, rng=0)
        x = rng.random((2, 2, 5, 5)).astype(np.float32)
        expected = reference_conv(
            x, layer.params["weight"], layer.params["bias"], 1, 1
        )
        assert np.allclose(layer.forward(x), expected, atol=1e-4)

    def test_stride_two(self):
        rng = np.random.default_rng(1)
        layer = Conv2D(1, 2, kernel_size=3, stride=2, padding=1, rng=0)
        x = rng.random((1, 1, 8, 8)).astype(np.float32)
        out = layer.forward(x)
        assert out.shape == (1, 2, 4, 4)
        expected = reference_conv(x, layer.params["weight"], layer.params["bias"], 2, 1)
        assert np.allclose(out, expected, atol=1e-4)

    def test_channel_mismatch_raises(self):
        layer = Conv2D(3, 4, rng=0)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 2, 8, 8), dtype=np.float32))

    def test_negative_padding_rejected(self):
        with pytest.raises(ValueError, match="padding must be >= 0"):
            Conv2D(1, 2, 3, padding=-1, rng=0)

    def test_backward_requires_training_forward(self):
        layer = Conv2D(1, 2, 3, padding=1, rng=0)
        layer.forward(np.zeros((1, 1, 4, 4), dtype=np.float32), training=False)
        with pytest.raises(RuntimeError, match="before forward"):
            layer.backward(np.zeros((1, 2, 4, 4), dtype=np.float32))

    def test_weight_gradient_numeric(self):
        rng = np.random.default_rng(2)
        layer = Conv2D(1, 2, kernel_size=3, stride=1, padding=1, rng=0)
        x = rng.random((2, 1, 4, 4)).astype(np.float32)
        target = rng.random((2, 2, 4, 4)).astype(np.float32)

        def loss():
            return float(((layer.forward(x, training=True) - target) ** 2).sum())

        grad_out = 2 * (layer.forward(x, training=True) - target)
        layer.backward(grad_out)
        numeric = numeric_gradient(loss, layer.params["weight"])
        # float32 forward passes limit the precision of the central difference
        assert np.allclose(layer.grads["weight"], numeric, rtol=5e-3, atol=0.1)

    def test_input_gradient_numeric(self):
        rng = np.random.default_rng(3)
        layer = Conv2D(1, 1, kernel_size=3, stride=1, padding=1, rng=0)
        x = rng.random((1, 1, 4, 4))
        target = rng.random((1, 1, 4, 4))

        def loss():
            return float(((layer.forward(x.astype(np.float32), training=True) - target) ** 2).sum())

        grad_out = 2 * (layer.forward(x.astype(np.float32), training=True) - target)
        grad_in = layer.backward(grad_out.astype(np.float32))
        numeric = numeric_gradient(loss, x)
        assert np.allclose(grad_in, numeric, atol=5e-2)


class TestPooling:
    def test_avg_pool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = AvgPool2D(2).forward(x)
        assert out.shape == (1, 1, 2, 2)
        assert np.allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_backward_distributes_evenly(self):
        layer = AvgPool2D(2)
        x = np.random.default_rng(0).random((1, 1, 4, 4)).astype(np.float32)
        layer.forward(x, training=True)
        grad = layer.backward(np.ones((1, 1, 2, 2), dtype=np.float32))
        assert np.allclose(grad, 0.25)

    def test_pool_larger_than_input_refused(self):
        x = np.zeros((1, 2, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="AvgPool2D: pool size 3 does not fit input 2x2"):
            AvgPool2D(3).forward(x)

    def test_backward_requires_training_forward(self):
        layer = AvgPool2D(2)
        layer.forward(np.zeros((1, 1, 4, 4), dtype=np.float32), training=False)
        with pytest.raises(RuntimeError, match="before forward"):
            layer.backward(np.zeros((1, 1, 2, 2), dtype=np.float32))
