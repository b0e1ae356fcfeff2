"""Shared fixtures for the test suite.

Expensive objects (synthetic datasets, a trained MLP, its converted SNN) are
session-scoped so the several hundred tests can share them without retraining
per test module.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.conversion import convert_dnn_to_snn
from repro.data import load_dataset, synthetic_mnist
from repro.nn import build_mlp, build_vgg, train_classifier


def numeric_gradient(func, array, epsilon=1e-4):
    """Central-difference numeric gradient of a scalar function of ``array``."""
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        plus = func()
        flat[index] = original - epsilon
        minus = func()
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2 * epsilon)
    return grad



def stored_fingerprints(store):
    """Fingerprints of every cell document in ``store``, sorted."""
    return sorted(path.stem for path in Path(store.root, "cells").glob("*/*.json"))


@pytest.fixture(scope="session", autouse=True)
def weight_cache(tmp_path_factory):
    """One temporary weight cache for the whole session.

    ``REPRO_CACHE_DIR`` points every workload prepared without an explicit
    ``cache_dir`` (CLI runs and pool workers included) here, so the suite
    never reads or writes the user's cache, and each workload trains once.
    """
    path = tmp_path_factory.mktemp("weight-cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(path))
        yield path


@pytest.fixture
def fast_retries(monkeypatch):
    """Shrink the engine's first retry delay so retried cells barely sleep.

    The engine reads the constant at call time, so this reaches serial and
    thread workers (and process workers forked after it is set).
    """
    from repro.execution import engine

    monkeypatch.setattr(engine, "RETRY_BACKOFF_BASE", 0.001)


@pytest.fixture(scope="session")
def mnist_split():
    """Small synthetic-MNIST split shared by the whole session."""
    return synthetic_mnist(train_size=400, test_size=120, rng=0)


@pytest.fixture(scope="session")
def cifar_split():
    """Small synthetic-CIFAR-10 split (reduced 16x16 images) for conv tests."""
    return load_dataset("cifar10", train_size=200, test_size=60, rng=0, image_size=16)


@pytest.fixture(scope="session")
def trained_mlp(mnist_split):
    """A small MLP trained to high accuracy on the MNIST stand-in."""
    model = build_mlp(28 * 28, [64, 32], 10, dropout=0.1, rng=0)
    train_classifier(
        model, mnist_split.train, mnist_split.test,
        epochs=3, batch_size=64, learning_rate=0.1, rng=1,
    )
    return model


@pytest.fixture(scope="session")
def trained_cnn(cifar_split):
    """A tiny CNN trained briefly on the CIFAR stand-in (for conversion tests)."""
    model = build_vgg("vgg_micro", cifar_split.image_shape, cifar_split.num_classes,
                      dense_units=(64,), rng=0)
    train_classifier(
        model, cifar_split.train, cifar_split.test,
        epochs=2, batch_size=32, learning_rate=0.05, rng=1,
    )
    return model


@pytest.fixture(scope="session")
def converted_mlp(trained_mlp, mnist_split):
    """Converted SNN of the trained MLP."""
    return convert_dnn_to_snn(trained_mlp, mnist_split.train.x[:64])


@pytest.fixture(scope="session")
def converted_cnn(trained_cnn, cifar_split):
    """Converted SNN of the trained CNN."""
    return convert_dnn_to_snn(trained_cnn, cifar_split.train.x[:48])


@pytest.fixture()
def rng():
    """Fresh deterministic generator for a single test."""
    return np.random.default_rng(1234)


@pytest.fixture()
def simulator_builds(monkeypatch):
    """Per-sample input shapes of every faithful-simulator build, in order.

    Wraps ``build_time_stepped_simulator`` where the evaluator looks it up,
    so a test can assert that one evaluation builds one simulator per input
    shape rather than one per batch.
    """
    import repro.core.timestep as timestep

    shapes = []
    original = timestep.build_time_stepped_simulator

    def counting(network, coder, batch_input_shape, **kwargs):
        shapes.append(tuple(batch_input_shape[1:]))
        return original(network, coder, batch_input_shape, **kwargs)

    monkeypatch.setattr(timestep, "build_time_stepped_simulator", counting)
    return shapes
