"""Tests for the Sequential container, VGG builders and the trainer."""

import dataclasses

import numpy as np
import pytest

from repro.nn import (
    Sequential,
    Trainer,
    build_mlp,
    build_vgg,
    evaluate_accuracy,
    train_classifier,
)
from repro.nn.layers import Conv2D, Dense, Dropout, ReLU
from repro.data.loaders import BatchLoader



def _head(dataset, count):
    """The first ``count`` samples of ``dataset``."""
    return dataclasses.replace(dataset, x=dataset.x[:count], y=dataset.y[:count])


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

    def test_a_state_dict_that_does_not_fit_changes_nothing(self):
        model = build_mlp(6, [4, 3], 2, rng=0)
        before = model.state_dict()
        state = {name: value + 1.0 for name, value in before.items()}
        last = sorted(state)[-1]
        state[last] = np.zeros(7, dtype=np.float32)
        with pytest.raises(ValueError, match=last):
            model.load_state_dict(state)
        after = model.state_dict()
        assert all(np.array_equal(after[name], before[name]) for name in before)

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
        first = next(i for i, layer in enumerate(model.layers) if layer.has_params)
        clone.layers[first].params["weight"][:] = 0.0
        assert not np.allclose(model.layers[first].params["weight"], 0.0)


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

    def test_unknown_config(self):
        with pytest.raises(ValueError):
            build_vgg("vgg99", (3, 32, 32), 10)

    def test_too_small_input_rejected(self):
        with pytest.raises(ValueError):
            build_vgg("vgg16", (3, 8, 8), 10, rng=0)

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
        assert len(result.train_loss) == 3

    @pytest.mark.parametrize("with_test_set", [True, False])
    def test_verbose_fit_logs_each_epoch(self, mnist_split, with_test_set):
        import logging

        messages = []

        class Capture(logging.Handler):
            def emit(self, record):
                messages.append(record.getMessage())

        logger = logging.getLogger("repro.nn.training")
        handler = Capture(level=logging.INFO)
        level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            result = Trainer(build_mlp(28 * 28, [16], 10, rng=0)).fit(
                BatchLoader(_head(mnist_split.train, 64), batch_size=32), epochs=2,
                test_dataset=_head(mnist_split.test, 32) if with_test_set else None,
                verbose=True,
            )
        finally:
            logger.removeHandler(handler)
            logger.setLevel(level)
        assert [m.split(":")[0] for m in messages] == ["epoch 0", "epoch 1"]
        assert f"loss={result.train_loss[1]:.4f}" in messages[1]
        assert ("test_acc=" in messages[1]) is with_test_set

    def test_evaluate_accuracy_empty_dataset(self, mnist_split):
        model = build_mlp(28 * 28, [16], 10, rng=0)
        empty = _head(mnist_split.test, 0)
        assert np.isnan(evaluate_accuracy(model, empty))

    def test_invalid_epochs(self, mnist_split):
        model = build_mlp(28 * 28, [16], 10, rng=0)
        loader = BatchLoader(_head(mnist_split.train, 32), batch_size=16)
        with pytest.raises(ValueError):
            Trainer(model).fit(loader, epochs=0)

    def test_result_without_test_set_has_nan_final(self, mnist_split):
        model = build_mlp(28 * 28, [16], 10, rng=0)
        result = train_classifier(model, _head(mnist_split.train, 64), epochs=1,
                                  batch_size=32, learning_rate=0.05)
        assert np.isnan(result.final_test_accuracy)
