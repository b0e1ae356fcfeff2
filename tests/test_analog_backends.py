"""Equivalence suite for the analog (conv/pooling) path.

Production must compute the same fold/convolution/pooling as the naive
oracles in :mod:`oracles`: a bit-identical fold-back, and forward/backward
conv outputs that agree to float-rounding (the fused channels-last path
reorders the GEMM reduction, which only moves the last bits).  Also covers
the converted segments' inference layers and the batched simulator readout.
"""

import numpy as np
import oracles
import pytest

from repro.conversion import convert_dnn_to_snn
from repro.nn import build_vgg
from repro.nn import layers as nn_layers
from repro.nn.layers import AvgPool2D, Conv2D, Dropout, col2im
from repro.snn.simulator import SimulatorLayer, TimeSteppedSimulator

# Odd shapes, padding variants, stride > 1 and non-square kernels.
UNFOLD_CASES = [
    # (n, c, h, w, kh, kw, stride, padding)
    (2, 3, 7, 5, 3, 3, 1, 1),
    (1, 2, 9, 9, 3, 3, 2, 2),
    (2, 1, 6, 8, 2, 4, 2, 0),
    (3, 4, 5, 5, 1, 1, 1, 0),
    (1, 3, 11, 7, 3, 2, 2, 1),
    (2, 2, 8, 8, 4, 4, 4, 0),
    (1, 1, 5, 9, 5, 3, 1, 2),
]


class TestIm2ColEquivalence:
    @pytest.mark.parametrize("case", UNFOLD_CASES)
    def test_fold_back_bit_identical(self, case, rng):
        n, c, h, w, kh, kw, stride, padding = case
        if stride > min(kh, kw):
            pytest.skip("fold-back rejects stride > kernel")
        x = rng.random((n, c, h, w)).astype(np.float32)
        cols, _, _ = oracles.im2col(x, kh, kw, stride, padding)
        grad = rng.random(cols.shape).astype(np.float32)
        folded_loop = oracles.col2im(grad, x.shape, kh, kw, stride, padding)
        folded_strided = col2im(grad, x.shape, kh, kw, stride, padding)
        assert np.array_equal(folded_loop, folded_strided)

    def test_kernel_too_large_raises_on_both(self):
        x = np.zeros((1, 1, 3, 3), dtype=np.float32)
        with pytest.raises(ValueError):
            oracles.im2col(x, 5, 5, 1, 0)
        with pytest.raises(ValueError):
            col2im(np.zeros((1, 25), dtype=np.float32), x.shape, 5, 5, 1, 0)


class TestCol2ImValidation:
    # "loop" is the per-offset oracle fold, "strided" the production fold:
    # both reject the geometry the stride-slack buffer cannot represent.
    @pytest.mark.parametrize("fold", [oracles.col2im, col2im],
                             ids=["loop", "strided"])
    def test_stride_larger_than_kernel_raises(self, fold):
        cols = np.zeros((4, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="stride"):
            fold(cols, (1, 1, 7, 7), 2, 2, 3, 0)

    def test_stride_equal_kernel_is_supported(self, rng):
        x = rng.random((1, 2, 4, 4)).astype(np.float32)
        cols, _, _ = oracles.im2col(x, 2, 2, 2, 0)
        restored = col2im(cols, x.shape, 2, 2, 2, 0)
        assert np.allclose(restored, x)

    def test_non_square_kernel_stride_check(self):
        # stride 3 > kw=2 must be rejected even though kh=4 would allow it.
        cols = np.zeros((4, 8), dtype=np.float32)
        with pytest.raises(ValueError):
            col2im(cols, (1, 1, 10, 10), 4, 2, 3, 0)


class TestConv2DEquivalence:
    CONV_CASES = [
        # (kernel, stride, padding, use_bias)
        (3, 1, 1, True),
        (3, 2, 1, True),
        (2, 1, 0, False),
        (2, 2, 0, True),
        (3, 3, 2, True),
        (1, 1, 0, True),
    ]

    @staticmethod
    def _float64_conv(kernel, stride, padding, use_bias):
        layer = Conv2D(3, 5, kernel_size=kernel, stride=stride, padding=padding,
                       use_bias=use_bias, rng=0)
        for key in layer.params:
            layer.params[key] = layer.params[key].astype(np.float64)
        return layer

    @pytest.mark.parametrize("case", CONV_CASES)
    def test_forward_backward_float64(self, case, rng):
        kernel, stride, padding, use_bias = case
        layer = self._float64_conv(kernel, stride, padding, use_bias)
        x = rng.random((2, 3, 9, 9))
        out = layer.forward(x, training=True)
        grad = rng.random(out.shape)
        grad_in = layer.backward(grad)
        expected_grads = oracles.conv2d_backward(layer, x, grad)
        assert np.allclose(out, oracles.conv2d(layer, x), rtol=1e-10, atol=1e-12)
        actual_grads = (grad_in, layer.grads["weight"], layer.grads.get("bias"))
        for a, b in zip(actual_grads, expected_grads):
            if a is None:  # no bias parameter, no bias gradient
                continue
            assert np.allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_forward_float32_tolerance(self, rng):
        # The acceptance-shape check: reordered float32 GEMM reductions must
        # stay within 1e-5 of the channels-first oracle at realistic scales.
        layer = Conv2D(64, 64, kernel_size=3, stride=1, padding=1, rng=0)
        x = rng.random((2, 64, 16, 16)).astype(np.float32)
        assert np.abs(oracles.conv2d(layer, x) - layer.forward(x)).max() <= 1e-5


class TestPoolingEquivalence:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [(9, 9), (16, 16), (13, 10)])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize(
        "pool,stride", [(2, 2), (2, 1), (3, 2), (3, 3), (4, 4), (5, 5)]
    )
    def test_avg_pool_forward_bitwise(self, pool, stride, batch, size, dtype, rng):
        """Strided-view sums in NumPy's pairwise order equal the unfolded
        mean bit for bit: plain left to right below 8 window terms, 8 running
        sums from the 3x3 window on."""
        x = rng.standard_normal((batch, 4) + size)
        x = (x * 10.0 ** rng.uniform(-3, 3, x.shape)).astype(dtype)
        out = AvgPool2D(pool, stride=stride).forward(x)
        expected = oracles.avg_pool2d(x, pool, stride)
        assert out.dtype == expected.dtype
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("pool,stride", [(2, None), (3, 2), (2, 2)])
    def test_avg_pool_backward_identical(self, pool, stride, rng, monkeypatch):
        layer = AvgPool2D(pool, stride=stride)
        x = rng.random((2, 3, 9, 9)).astype(np.float32)
        grads = []
        for fold in (None, oracles):
            if fold is not None:
                monkeypatch.setattr(nn_layers, "col2im", fold.col2im)
            out = layer.forward(x, training=True)
            grads.append(layer.backward(np.ones_like(out)))
        assert np.array_equal(grads[0], grads[1])


class TestInferenceLayers:
    def test_compiled_segments_skip_inert_layers(self, rng):
        model = build_vgg("vgg_micro", input_shape=(3, 8, 8), num_classes=4,
                          dropout=0.3, rng=0)
        assert any(isinstance(layer, Dropout) for layer in model.layers)
        calibration = rng.random((8, 3, 8, 8)).astype(np.float32)
        converted = convert_dnn_to_snn(model, calibration)
        for segment in converted.segments:
            compiled = segment.inference_layers()
            assert not any(isinstance(l, Dropout) for l in compiled)
        x = rng.random((2, 3, 8, 8)).astype(np.float32)
        assert converted.forward_analog(x).shape == (2, 4)


class TestBatchedReadout:
    def test_batched_readout_matches_per_step_sum(self, rng):
        # The readout transform runs once on the window's summed PSC; for a
        # linear readout that equals summing its per-step drives.
        from repro.coding import RateCoder
        from repro.snn.neurons import IFNeuron

        num_steps = 24
        w1 = np.array([[1.0, 0.5], [0.0, 1.0], [0.5, 0.0]])
        w2 = np.array([[1.0, -0.5], [-1.0, 0.75]])
        step_bias = np.array([0.01, -0.02]) / num_steps
        layers = [
            SimulatorLayer(transform=lambda psc: psc @ w1,
                           neuron=IFNeuron(0.25), name="hidden"),
            SimulatorLayer(transform=lambda psc: psc @ w2, neuron=None,
                           name="readout", step_bias=step_bias),
        ]
        simulator = TimeSteppedSimulator(
            layers, num_steps, np.full(num_steps, 1.0 / num_steps),
            np.full(num_steps, 0.25),
        )
        train = RateCoder(num_steps=num_steps).encode(rng.random((3, 3)))
        record = simulator.run(train, record_spikes=True)
        hidden = record.spike_trains["hidden"].to_dense().counts
        per_step = sum((hidden[t] * 0.25) @ w2 + step_bias for t in range(num_steps))
        assert np.allclose(record.output_potential, per_step,
                           rtol=1e-9, atol=1e-12)


class TestTransportAcrossBackends:
    def test_noisy_evaluation_agrees(self, converted_cnn, cifar_split,
                                     monkeypatch):
        from repro.coding import TTASCoder
        from repro.core import ActivationTransportSimulator

        x, y = cifar_split.test.x[:24], cifar_split.test.y[:24]
        simulator = ActivationTransportSimulator(
            converted_cnn, TTASCoder(num_steps=32, target_duration=3),
        )
        production = simulator.evaluate(x, y, rng=0)
        monkeypatch.setattr(
            Conv2D, "forward",
            lambda layer, x, training=False: oracles.conv2d(layer, x),
        )
        oracle = simulator.evaluate(x, y, rng=0)
        assert production.accuracy == oracle.accuracy
        assert production.total_spikes == oracle.total_spikes
