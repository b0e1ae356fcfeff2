"""Tests for DNN-to-SNN conversion (calibration, segmentation)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.conversion import (
    ActivationStatistics,
    ConversionError,
    collect_activation_statistics,
    convert_dnn_to_snn,
)
from repro.conversion.converter import CONVERSION_COUNTERS
from repro.nn import Sequential
from repro.nn.layers import Dense, Flatten, ReLU


class TestActivationStatistics:
    def test_unbatched_calibration_rejected(self, trained_mlp):
        with pytest.raises(ValueError, match="batch of samples"):
            collect_activation_statistics(trained_mlp, np.ones(784, dtype=np.float32))

    def test_one_scale_per_relu(self, trained_mlp, mnist_split):
        stats = collect_activation_statistics(trained_mlp, mnist_split.train.x[:64])
        relu_count = sum(isinstance(l, ReLU) for l in trained_mlp.layers)
        assert len(stats.scales) == relu_count
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

    def test_dead_units_get_the_minimum_scale(self):
        from repro.conversion.normalization import MINIMUM_SCALE

        dense = Dense(4, 3, rng=0)
        dense.params["bias"][:] = -1.0
        dense.params["weight"][:] = 0.0
        stats = collect_activation_statistics(
            Sequential([dense, ReLU()]), np.ones((8, 4), dtype=np.float32)
        )
        assert stats.scales == [MINIMUM_SCALE]
        assert stats.maxima == [0.0]

    def test_sample_size_recorded(self, trained_mlp, mnist_split):
        stats = collect_activation_statistics(trained_mlp, mnist_split.train.x[:48])
        assert stats.sample_size == 48


class TestConvertDnnToSnn:
    def test_segments_structure(self, converted_mlp, trained_mlp):
        relu_count = sum(isinstance(l, ReLU) for l in trained_mlp.layers)
        spiking_segments = [s for s in converted_mlp.segments if s.ends_with_spikes]
        assert len(spiking_segments) == relu_count
        assert not converted_mlp.segments[-1].ends_with_spikes

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
        scales = [converted_mlp.input_scale] + [
            s.activation_scale for s in converted_mlp.segments if s.ends_with_spikes
        ]
        assert all(scale > 0 for scale in scales)

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

    def test_network_without_relu_rejected(self):
        model = Sequential([Flatten(), Dense(16, 4, rng=0)])
        with pytest.raises(ConversionError):
            convert_dnn_to_snn(model, np.random.default_rng(0).random((4, 1, 4, 4)).astype(np.float32))

    def test_network_ending_in_relu_reads_out_its_last_population(self):
        model = Sequential([Flatten(), Dense(16, 8, rng=0), ReLU(),
                            Dense(8, 4, rng=1), ReLU()])
        calibration = np.random.default_rng(0).random((8, 1, 4, 4)).astype(np.float32)
        converted = convert_dnn_to_snn(model, calibration)
        assert [s.ends_with_spikes for s in converted.segments] == [True, False]
        x = np.random.default_rng(1).random((3, 1, 4, 4)).astype(np.float32)
        np.testing.assert_allclose(
            converted.forward_analog(x), model.forward(x), rtol=1e-5, atol=1e-6
        )

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

    def test_statistics_and_input_scale_need_no_calibration_images(
        self, trained_mlp, converted_mlp
    ):
        from repro.execution import network_fingerprint
        from repro.experiments.config import TEST_SCALE

        def fingerprint(network):
            return network_fingerprint(SimpleNamespace(
                network=network, dataset_name="mnist", scale=TEST_SCALE
            ))

        calibrations = CONVERSION_COUNTERS["calibrations"]
        bare = convert_dnn_to_snn(
            trained_mlp, None, statistics=converted_mlp.statistics,
            input_scale=converted_mlp.input_scale,
        )
        assert CONVERSION_COUNTERS["calibrations"] == calibrations
        assert fingerprint(bare) == fingerprint(converted_mlp)

    @pytest.mark.parametrize("given", ["neither", "statistics", "input_scale"])
    def test_no_calibration_images_needs_statistics_and_input_scale(
        self, trained_mlp, converted_mlp, given
    ):
        kwargs = {
            "statistics": converted_mlp.statistics,
            "input_scale": converted_mlp.input_scale,
        }
        kwargs = {name: value for name, value in kwargs.items() if name == given}
        with pytest.raises(ConversionError, match="needs both statistics"):
            convert_dnn_to_snn(trained_mlp, None, **kwargs)

    def test_negative_inputs_rejected_with_statistics(self, trained_mlp, converted_mlp):
        with pytest.raises(ConversionError, match="non-negative"):
            convert_dnn_to_snn(
                trained_mlp, -np.ones((4, 1, 28, 28), dtype=np.float32),
                statistics=converted_mlp.statistics,
                input_scale=converted_mlp.input_scale,
            )

    def test_provided_statistics_must_cover_every_spiking_point(
        self, trained_mlp, mnist_split
    ):
        statistics = ActivationStatistics(scales=[1.0] * 5, percentile=99.9)
        with pytest.raises(ConversionError, match="cover 5 spiking points"):
            convert_dnn_to_snn(
                trained_mlp, mnist_split.train.x[:16], statistics=statistics
            )
