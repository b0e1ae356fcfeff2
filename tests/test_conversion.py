"""Tests for DNN-to-SNN conversion (batch-norm folding, calibration, segmentation)."""

import numpy as np
import pytest

from repro.conversion import (
    ActivationStatistics,
    ConversionError,
    collect_activation_statistics,
    convert_dnn_to_snn,
    fold_batch_norm,
)
from repro.conversion.converter import CONVERSION_COUNTERS
from repro.nn import Sequential, build_mlp, build_vgg
from repro.nn.layers import Dense, Flatten, Identity, ReLU
from repro.nn.norm import BatchNorm2D


class TestFoldBatchNorm:
    def _train_bn_model(self):
        model = build_vgg("vgg_micro", (1, 12, 12), 4, batch_norm=True, rng=0,
                          dropout=0.0)
        x = np.random.default_rng(0).random((32, 1, 12, 12)).astype(np.float32)
        # a few training-mode passes populate the running statistics
        for _ in range(5):
            model.forward(x, training=True)
        return model, x

    def test_folding_preserves_inference_output(self):
        model, x = self._train_bn_model()
        folded = fold_batch_norm(model)
        assert np.allclose(model.forward(x), folded.forward(x), atol=1e-3)

    def test_folded_model_has_no_batch_norm(self):
        model, _ = self._train_bn_model()
        folded = fold_batch_norm(model)
        assert not any(isinstance(layer, BatchNorm2D) for layer in folded.layers)
        assert any(isinstance(layer, Identity) for layer in folded.layers)

    def test_original_model_untouched(self):
        model, _ = self._train_bn_model()
        before = model.layers[0].params["weight"].copy()
        fold_batch_norm(model)
        assert np.allclose(model.layers[0].params["weight"], before)

    def test_model_without_bn_unchanged_output(self):
        model = build_mlp(16, [8], 3, rng=0)
        x = np.random.default_rng(0).random((4, 1, 4, 4)).astype(np.float32)
        folded = fold_batch_norm(model)
        assert np.allclose(model.forward(x), folded.forward(x))

    def test_unfoldable_bn_raises(self):
        model = Sequential([Flatten(), BatchNorm2D(4)])
        with pytest.raises(ValueError):
            fold_batch_norm(model)

    def test_leading_bn_raises(self):
        model = Sequential([BatchNorm2D(1), Flatten(), Dense(16, 4, rng=0)])
        with pytest.raises(ValueError, match="first layer"):
            fold_batch_norm(model)


class TestActivationStatistics:
    def test_unbatched_calibration_rejected(self, trained_mlp):
        with pytest.raises(ValueError, match="batch of samples"):
            collect_activation_statistics(trained_mlp, np.ones(784, dtype=np.float32))

    def test_one_scale_per_relu(self, trained_mlp, mnist_split):
        stats = collect_activation_statistics(trained_mlp, mnist_split.train.x[:64])
        relu_count = sum(isinstance(l, ReLU) for l in trained_mlp.layers)
        assert len(stats) == relu_count
        assert all(scale > 0 for scale in stats.scales)

    def test_percentile_monotonicity(self, trained_mlp, mnist_split):
        low = collect_activation_statistics(
            trained_mlp, mnist_split.train.x[:64], percentile=90.0
        )
        high = collect_activation_statistics(
            trained_mlp, mnist_split.train.x[:64], percentile=99.99
        )
        assert all(h >= l for h, l in zip(high.scales, low.scales))

    def test_maxima_bound_scales(self, trained_mlp, mnist_split):
        stats = collect_activation_statistics(trained_mlp, mnist_split.train.x[:64])
        assert all(m >= s for m, s in zip(stats.maxima, stats.scales))

    def test_sample_size_recorded(self, trained_mlp, mnist_split):
        stats = collect_activation_statistics(trained_mlp, mnist_split.train.x[:48])
        assert stats.sample_size == 48


class TestConvertDnnToSnn:
    def test_segments_structure(self, converted_mlp, trained_mlp):
        relu_count = sum(isinstance(l, ReLU) for l in trained_mlp.layers)
        spiking_segments = [s for s in converted_mlp.segments if s.ends_with_spikes]
        assert len(spiking_segments) == relu_count
        assert not converted_mlp.segments[-1].ends_with_spikes
        assert converted_mlp.num_spiking_populations == relu_count + 1

    def test_analog_forward_matches_dnn(self, converted_mlp, trained_mlp, mnist_split):
        x = mnist_split.test.x[:16]
        assert np.allclose(
            converted_mlp.forward_analog(x), trained_mlp.forward(x), atol=1e-4
        )

    def test_analog_accuracy_close_to_dnn(self, converted_mlp, trained_mlp, mnist_split):
        from repro.nn import evaluate_accuracy

        dnn_acc = evaluate_accuracy(trained_mlp, mnist_split.test)
        snn_acc = converted_mlp.analog_accuracy(mnist_split.test.x, mnist_split.test.y)
        assert abs(dnn_acc - snn_acc) < 1e-9

    def test_activation_scales_positive(self, converted_mlp):
        assert all(scale > 0 for scale in converted_mlp.activation_scales())
        assert len(converted_mlp.activation_scales()) == converted_mlp.num_spiking_populations

    def test_conv_network_conversion(self, converted_cnn, trained_cnn, cifar_split):
        x = cifar_split.test.x[:8]
        assert np.allclose(
            converted_cnn.forward_analog(x), trained_cnn.forward(x), atol=1e-3
        )

    def test_negative_inputs_rejected(self, trained_mlp):
        with pytest.raises(ConversionError):
            convert_dnn_to_snn(trained_mlp, -np.ones((4, 1, 28, 28), dtype=np.float32))

    def test_empty_calibration_rejected(self, trained_mlp):
        with pytest.raises(ConversionError):
            convert_dnn_to_snn(trained_mlp, np.zeros((0, 1, 28, 28), dtype=np.float32))

    def test_max_pooling_rejected_by_default(self, cifar_split):
        model = build_vgg("vgg_micro", cifar_split.image_shape, 10, pooling="max", rng=0)
        with pytest.raises(ConversionError):
            convert_dnn_to_snn(model, cifar_split.train.x[:8])

    def test_network_without_relu_rejected(self):
        model = Sequential([Flatten(), Dense(16, 4, rng=0)])
        with pytest.raises(ConversionError):
            convert_dnn_to_snn(model, np.random.default_rng(0).random((4, 1, 4, 4)).astype(np.float32))

    def test_input_scale_override(self, trained_mlp, mnist_split):
        converted = convert_dnn_to_snn(
            trained_mlp, mnist_split.train.x[:16], input_scale=2.0
        )
        assert converted.input_scale == 2.0

    def test_conversion_does_not_mutate_model(self, trained_mlp, mnist_split):
        before = trained_mlp.state_dict()
        convert_dnn_to_snn(trained_mlp, mnist_split.train.x[:16])
        after = trained_mlp.state_dict()
        for key in before:
            assert np.allclose(before[key], after[key])

    def test_provided_statistics_skip_calibration(self, trained_mlp, converted_mlp,
                                                  mnist_split):
        calibrations = CONVERSION_COUNTERS["calibrations"]
        reused = convert_dnn_to_snn(
            trained_mlp, mnist_split.train.x[:16],
            statistics=converted_mlp.statistics,
        )
        assert CONVERSION_COUNTERS["calibrations"] == calibrations
        assert [s.activation_scale for s in reused.segments] == [
            s.activation_scale for s in converted_mlp.segments
        ]

    def test_provided_statistics_must_cover_every_spiking_point(
        self, trained_mlp, mnist_split
    ):
        statistics = ActivationStatistics(scales=[1.0] * 5, percentile=99.9)
        with pytest.raises(ConversionError, match="cover 5 spiking points"):
            convert_dnn_to_snn(
                trained_mlp, mnist_split.train.x[:16], statistics=statistics
            )
