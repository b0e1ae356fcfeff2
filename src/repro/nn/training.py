"""Training loop for the DNN substrate.

The trainer is intentionally small: mini-batch SGD with cross-entropy over
a :class:`repro.data.loaders.BatchLoader`, per-epoch evaluation, and a
history record that examples and tests can inspect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.data.datasets import Dataset
from repro.data.loaders import BatchLoader
from repro.nn.losses import CrossEntropyLoss
from repro.nn.model import Sequential
from repro.nn.optimizers import Optimizer, SGD
from repro.utils.logging import get_logger
from repro.utils.validation import check_positive

logger = get_logger("nn.training")


@dataclass
class TrainingResult:
    """History of a training run.

    Attributes
    ----------
    train_loss / train_accuracy:
        Per-epoch averages measured on the training stream.
    test_accuracy:
        Per-epoch accuracy on the held-out set (empty when no test set given).
    """

    train_loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    test_accuracy: List[float] = field(default_factory=list)

    @property
    def final_test_accuracy(self) -> float:
        """Last recorded test accuracy (nan when never evaluated)."""
        return self.test_accuracy[-1] if self.test_accuracy else float("nan")


def evaluate_accuracy(
    model: Sequential, dataset: Dataset, batch_size: int = 128
) -> float:
    """Top-1 accuracy of ``model`` on ``dataset``."""
    if len(dataset) == 0:
        return float("nan")
    correct = 0
    for x, y in dataset.iter_batches(batch_size):
        logits = model.forward(x, training=False)
        correct += int((logits.argmax(axis=1) == y).sum())
    return correct / len(dataset)


class Trainer:
    """Mini-batch trainer for :class:`repro.nn.model.Sequential` models.

    Parameters
    ----------
    model:
        The model to train (updated in place).
    optimizer:
        Any :class:`repro.nn.optimizers.Optimizer`; defaults to SGD with
        momentum 0.9.
    """

    def __init__(self, model: Sequential, optimizer: Optional[Optimizer] = None):
        self.model = model
        self.optimizer = optimizer or SGD(learning_rate=0.05, momentum=0.9)
        self.loss = CrossEntropyLoss()

    def fit(
        self,
        loader: BatchLoader,
        epochs: int = 5,
        test_dataset: Optional[Dataset] = None,
        verbose: bool = False,
    ) -> TrainingResult:
        """Train for ``epochs`` passes over ``loader``.

        Returns the per-epoch :class:`TrainingResult` history.
        """
        check_positive("epochs", epochs)
        result = TrainingResult()
        for epoch in range(int(epochs)):
            epoch_loss = 0.0
            epoch_correct = 0
            epoch_samples = 0
            for x, y in loader:
                logits = self.model.forward(x, training=True)
                batch_loss = self.loss.forward(logits, y)
                self.model.zero_grads()
                self.model.backward(self.loss.backward())
                self.optimizer.step(self.model.layers)
                epoch_loss += batch_loss * x.shape[0]
                epoch_correct += int((logits.argmax(axis=1) == y).sum())
                epoch_samples += x.shape[0]
            mean_loss = epoch_loss / max(epoch_samples, 1)
            train_acc = epoch_correct / max(epoch_samples, 1)
            result.train_loss.append(mean_loss)
            result.train_accuracy.append(train_acc)
            if test_dataset is not None:
                test_acc = evaluate_accuracy(self.model, test_dataset)
                result.test_accuracy.append(test_acc)
            if verbose:
                test_msg = (
                    f" test_acc={result.test_accuracy[-1]:.3f}"
                    if test_dataset is not None
                    else ""
                )
                logger.info(
                    "epoch %d: loss=%.4f train_acc=%.3f%s",
                    epoch, mean_loss, train_acc, test_msg,
                )
        return result


def train_classifier(
    model: Sequential,
    train: Dataset,
    test: Optional[Dataset] = None,
    epochs: int = 5,
    batch_size: int = 64,
    learning_rate: float = 0.05,
    momentum: float = 0.9,
    weight_decay: float = 0.0,
    rng=None,
    verbose: bool = False,
) -> TrainingResult:
    """Convenience wrapper: build a loader + SGD trainer and fit.

    This is the helper the examples and benchmarks use to get a trained DNN
    in a single call.
    """
    loader = BatchLoader(train, batch_size=batch_size, shuffle=True, rng=rng)
    optimizer = SGD(
        learning_rate=learning_rate, momentum=momentum, weight_decay=weight_decay
    )
    trainer = Trainer(model, optimizer=optimizer)
    return trainer.fit(loader, epochs=epochs, test_dataset=test, verbose=verbose)
