"""Loss functions for DNN training."""

from __future__ import annotations

from typing import Tuple

import numpy as np


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=axis, keepdims=True)


class CrossEntropyLoss:
    """Softmax cross-entropy on integer labels.

    ``forward`` returns the mean loss over the batch; ``backward`` returns the
    gradient with respect to the logits (already averaged over the batch).
    """

    def __init__(self):
        self._cache: Tuple[np.ndarray, np.ndarray] = None  # type: ignore[assignment]

    def _target_distribution(self, labels: np.ndarray, num_classes: int) -> np.ndarray:
        one_hot = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
        one_hot[np.arange(labels.shape[0]), labels] = 1.0
        return one_hot

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        """Mean cross-entropy of ``logits`` (N, K) against integer ``labels`` (N,)."""
        if logits.ndim != 2:
            raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
        labels = np.asarray(labels)
        if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
            raise ValueError(
                f"labels must be 1-D with length {logits.shape[0]}, got {labels.shape}"
            )
        probs = softmax(logits.astype(np.float64))
        targets = self._target_distribution(labels, logits.shape[1])
        self._cache = (probs, targets)
        eps = 1e-12
        loss = -(targets * np.log(probs + eps)).sum(axis=1).mean()
        return float(loss)

    def backward(self) -> np.ndarray:
        """Gradient of the mean loss with respect to the logits."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        probs, targets = self._cache
        return ((probs - targets) / probs.shape[0]).astype(np.float32)
