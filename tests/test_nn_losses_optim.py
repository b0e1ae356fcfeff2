"""Tests for losses, optimisers and initialisers."""

import numpy as np
import pytest

from repro.nn.initializers import he_normal, zeros_init
from repro.nn.layers import Dense
from repro.nn.losses import CrossEntropyLoss, softmax
from repro.nn.optimizers import SGD
from tests.conftest import numeric_gradient


class TestSoftmaxAndLosses:
    def test_softmax_sums_to_one(self):
        logits = np.random.default_rng(0).normal(size=(4, 7))
        probs = softmax(logits)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)

    def test_softmax_is_shift_invariant(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(softmax(logits), softmax(logits + 100.0))

    def test_cross_entropy_perfect_prediction(self):
        loss = CrossEntropyLoss()
        logits = np.array([[20.0, 0.0, 0.0], [0.0, 20.0, 0.0]])
        assert loss.forward(logits, np.array([0, 1])) < 1e-6

    def test_cross_entropy_uniform(self):
        loss = CrossEntropyLoss()
        logits = np.zeros((3, 4))
        assert abs(loss.forward(logits, np.array([0, 1, 2])) - np.log(4)) < 1e-6

    def test_cross_entropy_gradient_numeric(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(3, 5))
        labels = np.array([1, 4, 0])
        loss = CrossEntropyLoss()

        def value():
            return loss.forward(logits, labels)

        value()
        grad = loss.backward()
        numeric = numeric_gradient(value, logits)
        assert np.allclose(grad, numeric, atol=1e-4)

    def test_cross_entropy_shape_validation(self):
        loss = CrossEntropyLoss()
        with pytest.raises(ValueError):
            loss.forward(np.zeros((3, 4)), np.array([0, 1]))

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            CrossEntropyLoss().backward()

    def test_logits_must_be_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            CrossEntropyLoss().forward(np.zeros(4), np.array([0]))


class QuadraticProblem:
    """Minimise ||W x - y||^2 for a fixed batch -- used to test optimisers."""

    def __init__(self, seed=0):
        rng = np.random.default_rng(seed)
        self.layer = Dense(6, 4, rng=0)
        self.x = rng.random((16, 6)).astype(np.float32)
        true_w = rng.random((6, 4)).astype(np.float32)
        self.y = self.x @ true_w

    def loss_and_grads(self):
        out = self.layer.forward(self.x, training=True)
        diff = out - self.y
        self.layer.zero_grads()
        self.layer.backward(2 * diff / diff.size)
        return float((diff ** 2).mean())


class TestOptimizers:
    @pytest.mark.parametrize("optimizer", [
        SGD(learning_rate=0.5),
        SGD(learning_rate=0.2, momentum=0.9),
    ])
    def test_optimizers_reduce_loss(self, optimizer):
        problem = QuadraticProblem()
        initial = problem.loss_and_grads()
        for _ in range(60):
            problem.loss_and_grads()
            optimizer.step([problem.layer])
        final = problem.loss_and_grads()
        assert final < initial * 0.1

    def test_momentum_is_heavy_ball(self):
        # v <- m v - lr g; p <- p + v, with the velocity kept per parameter.
        layer = Dense(2, 1, rng=0)
        start = layer.params["weight"].copy()
        layer.grads = {"weight": np.ones_like(start)}
        optimizer = SGD(learning_rate=0.1, momentum=0.5)
        optimizer.step([layer])
        assert np.allclose(layer.params["weight"], start - 0.1)
        optimizer.step([layer])
        assert np.allclose(layer.params["weight"], start - 0.1 - 0.15)

    def test_weight_decay_shrinks_weights(self):
        layer = Dense(4, 4, rng=0)
        layer.zero_grads()  # zero gradient, only decay acts
        optimizer = SGD(learning_rate=0.1, weight_decay=0.5)
        before = np.abs(layer.params["weight"]).sum()
        for _ in range(10):
            optimizer.step([layer])
        after = np.abs(layer.params["weight"]).sum()
        assert after < before

    def test_plain_sgd_step_is_gradient_descent(self):
        layer = Dense(3, 2, rng=0)
        before = {key: value.copy() for key, value in layer.params.items()}
        layer.grads = {
            key: np.full_like(value, 0.5) for key, value in layer.params.items()
        }
        SGD(learning_rate=0.1).step([layer])
        for key, value in layer.params.items():
            assert np.allclose(value, before[key] - 0.05)

    def test_step_skips_parameters_without_gradients(self):
        layer = Dense(3, 2, rng=0)
        before = {key: value.copy() for key, value in layer.params.items()}
        layer.grads = {"bias": np.ones_like(layer.params["bias"])}
        optimizer = SGD(learning_rate=0.1)
        optimizer.step([layer])
        assert optimizer.step_count == 1
        assert np.array_equal(layer.params["weight"], before["weight"])
        assert np.allclose(layer.params["bias"], before["bias"] - 0.1)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            SGD(learning_rate=0.0)
        with pytest.raises(ValueError):
            SGD(learning_rate=0.1, momentum=1.5)


class TestInitializers:
    def test_he_normal_scale(self):
        w = he_normal((1000, 100), rng=0)
        assert abs(w.std() - np.sqrt(2.0 / 1000)) < 5e-3

    def test_conv_fan_in(self):
        w = he_normal((8, 4, 3, 3), rng=0)
        assert w.shape == (8, 4, 3, 3)

    def test_zeros(self):
        assert np.all(zeros_init((5,)) == 0)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            he_normal((2, 3, 4), rng=0)
