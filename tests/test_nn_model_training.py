"""Tests for the Sequential container, VGG builders and the trainer."""

import numpy as np
import pytest

from repro.data import synthetic_mnist
from repro.nn import (
    Sequential,
    Trainer,
    build_mlp,
    build_vgg,
    evaluate_accuracy,
    train_classifier,
)
from repro.nn.layers import Conv2D, Dense, Dropout, MaxPool2D, ReLU
from repro.nn.norm import BatchNorm2D
from repro.data.loaders import BatchLoader


class TestSequential:
    def test_forward_matches_layerwise(self):
        model = build_mlp(10, [8], 3, rng=0)
        x = np.random.default_rng(0).random((4, 1, 2, 5)).astype(np.float32)
        manual = x
        for layer in model.layers:
            manual = layer.forward(manual, training=False)
        assert np.allclose(model.forward(x), manual)

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_unique_layer_names(self):
        model = Sequential([ReLU(), ReLU(), ReLU()])
        names = [layer.name for layer in model.layers]
        assert len(set(names)) == 3

    def test_len_iter_getitem(self):
        model = build_mlp(6, [4], 2, rng=0)
        assert len(model) == len(list(model))
        assert model[0] is model.layers[0]

    def test_num_parameters_positive(self):
        model = build_mlp(6, [4], 2, rng=0)
        expected = 6 * 4 + 4 + 4 * 2 + 2
        assert model.num_parameters() == expected

    def test_summary_contains_layers(self):
        summary = build_mlp(6, [4], 2, rng=0).summary()
        assert "Dense" in summary and "total parameters" in summary

    def test_state_dict_roundtrip(self):
        model_a = build_mlp(6, [4], 2, rng=0)
        model_b = build_mlp(6, [4], 2, rng=1)
        model_b.load_state_dict(model_a.state_dict())
        x = np.random.default_rng(0).random((3, 1, 1, 6)).astype(np.float32)
        assert np.allclose(model_a.forward(x), model_b.forward(x))

    def test_load_state_dict_shape_mismatch(self):
        model_a = build_mlp(6, [4], 2, rng=0)
        model_b = build_mlp(6, [8], 2, rng=0)
        with pytest.raises((ValueError, KeyError)):
            model_b.load_state_dict(model_a.state_dict())

    def test_load_state_dict_missing_parameter(self):
        model = build_mlp(6, [4], 2, rng=0)
        state = model.state_dict()
        del state["layer1.bias"]
        with pytest.raises(KeyError, match="layer1.bias"):
            build_mlp(6, [4], 2, rng=1).load_state_dict(state)

    def test_state_dict_carries_batch_norm_running_stats(self):
        rng = np.random.default_rng(0)
        x = rng.normal(2.0, 1.0, size=(8, 2, 4, 4)).astype(np.float32)

        def model(seed):
            return Sequential([Conv2D(2, 3, 3, rng=seed), BatchNorm2D(3), ReLU()])

        trained = model(0)
        trained.forward(x, training=True)
        state = trained.state_dict()
        bn_index = 1
        assert np.array_equal(
            state[f"layer{bn_index}.running_mean"], trained[bn_index].running_mean
        )
        clone = model(1)
        clone.load_state_dict(state)
        assert np.array_equal(clone[bn_index].running_var, trained[bn_index].running_var)
        assert np.allclose(clone.forward(x), trained.forward(x))

    def test_call_is_inference_forward(self):
        model = build_mlp(6, [4], 2, rng=0)
        x = np.random.default_rng(0).random((3, 1, 1, 6)).astype(np.float32)
        assert np.array_equal(model(x), model.forward(x, training=False))

    def test_save_and_load(self, tmp_path):
        model = build_mlp(6, [4], 2, rng=0)
        path = model.save(str(tmp_path / "weights"))
        clone = build_mlp(6, [4], 2, rng=5)
        clone.load(path)
        x = np.random.default_rng(0).random((2, 1, 1, 6)).astype(np.float32)
        assert np.allclose(model.forward(x), clone.forward(x))

    def test_copy_is_independent(self):
        model = build_mlp(6, [4], 2, rng=0)
        clone = model.copy()
        clone.trainable_layers()[0].params["weight"][:] = 0.0
        assert not np.allclose(
            model.trainable_layers()[0].params["weight"], 0.0
        )

    def test_predict_batches(self):
        model = build_mlp(6, [4], 3, rng=0)
        x = np.random.default_rng(0).random((10, 1, 1, 6)).astype(np.float32)
        assert model.predict(x, batch_size=3).shape == (10, 3)


class TestVGGBuilders:
    def test_vgg_micro_output_shape(self):
        model = build_vgg("vgg_micro", (1, 28, 28), 10, dense_units=(64,), rng=0)
        x = np.random.default_rng(0).random((2, 1, 28, 28)).astype(np.float32)
        assert model.forward(x).shape == (2, 10)

    def test_vgg16_builds_with_16_weight_layers(self):
        model = build_vgg("vgg16", (3, 32, 32), 10, dense_units=(512, 256), rng=0)
        conv_dense = [l for l in model.layers if isinstance(l, Dense) or type(l).__name__ == "Conv2D"]
        assert len(conv_dense) == 16  # 13 conv + 3 dense

    def test_custom_plan(self):
        model = build_vgg([4, "P"], (1, 8, 8), 3, dense_units=(8,), rng=0)
        x = np.random.default_rng(0).random((2, 1, 8, 8)).astype(np.float32)
        assert model.forward(x).shape == (2, 3)

    def test_max_pooling_option(self):
        model = build_vgg("vgg_micro", (1, 16, 16), 4, pooling="max", rng=0)
        assert any(isinstance(layer, MaxPool2D) for layer in model.layers)

    def test_batch_norm_option(self):
        model = build_vgg("vgg_micro", (1, 16, 16), 4, batch_norm=True, rng=0)
        assert any(type(layer).__name__ == "BatchNorm2D" for layer in model.layers)

    def test_unknown_config(self):
        with pytest.raises(ValueError):
            build_vgg("vgg99", (3, 32, 32), 10)

    def test_too_small_input_rejected(self):
        with pytest.raises(ValueError):
            build_vgg("vgg16", (3, 8, 8), 10, rng=0)

    def test_invalid_pooling(self):
        with pytest.raises(ValueError):
            build_vgg("vgg_micro", (1, 16, 16), 4, pooling="min")

    def test_dropout_layers_present(self):
        model = build_mlp(10, [8], 2, dropout=0.5, rng=0)
        assert any(isinstance(layer, Dropout) for layer in model.layers)


class TestTrainer:
    def test_training_improves_accuracy(self, mnist_split):
        model = build_mlp(28 * 28, [64], 10, rng=0)
        before = evaluate_accuracy(model, mnist_split.test)
        result = train_classifier(
            model, mnist_split.train, mnist_split.test,
            epochs=2, batch_size=64, learning_rate=0.1, rng=1,
        )
        assert result.final_test_accuracy > before
        assert result.final_test_accuracy > 0.6

    def test_loss_decreases(self, mnist_split):
        model = build_mlp(28 * 28, [32], 10, rng=0)
        result = train_classifier(
            model, mnist_split.train, epochs=3, batch_size=64,
            learning_rate=0.1, rng=1,
        )
        assert result.train_loss[-1] < result.train_loss[0]
        assert result.epochs == 3

    def test_evaluate_accuracy_empty_dataset(self, mnist_split):
        model = build_mlp(28 * 28, [16], 10, rng=0)
        empty = mnist_split.test.take(0)
        assert np.isnan(evaluate_accuracy(model, empty))

    def test_invalid_epochs(self, mnist_split):
        model = build_mlp(28 * 28, [16], 10, rng=0)
        loader = BatchLoader(mnist_split.train.take(32), batch_size=16)
        with pytest.raises(ValueError):
            Trainer(model).fit(loader, epochs=0)

    def test_result_without_test_set_has_nan_final(self, mnist_split):
        model = build_mlp(28 * 28, [16], 10, rng=0)
        result = train_classifier(model, mnist_split.train.take(64), epochs=1,
                                  batch_size=32, learning_rate=0.05)
        assert np.isnan(result.final_test_accuracy)
