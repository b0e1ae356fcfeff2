"""Gradient-descent optimisers.

Optimisers operate on a list of layers: each step reads ``layer.grads`` and
updates ``layer.params`` in place.  Momentum buffers are keyed by
``(layer index, parameter name)`` so the same optimiser instance can be reused
across epochs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.nn.layers import Layer
from repro.utils.validation import check_non_negative, check_positive


class Optimizer:
    """Base class: tracks the step count and the learning rate."""

    def __init__(self, learning_rate: float = 0.01, weight_decay: float = 0.0):
        check_positive("learning_rate", learning_rate)
        check_non_negative("weight_decay", weight_decay)
        self.learning_rate = float(learning_rate)
        self.weight_decay = float(weight_decay)
        self.step_count = 0

    def step(self, layers: List[Layer]) -> None:
        """Apply one update to every trainable parameter in ``layers``."""
        self.step_count += 1
        for layer_index, layer in enumerate(layers):
            if not layer.has_params:
                continue
            for name, param in layer.params.items():
                grad = layer.grads.get(name)
                if grad is None:
                    continue
                if self.weight_decay > 0 and name in ("weight",):
                    grad = grad + self.weight_decay * param
                self._update(layer_index, name, param, grad)

    def _update(
        self, layer_index: int, name: str, param: np.ndarray, grad: np.ndarray
    ) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional (Nesterov) momentum."""

    def __init__(
        self,
        learning_rate: float = 0.01,
        momentum: float = 0.0,
        nesterov: bool = False,
        weight_decay: float = 0.0,
    ):
        super().__init__(learning_rate, weight_decay)
        check_non_negative("momentum", momentum)
        if momentum >= 1.0:
            raise ValueError(f"momentum must be < 1, got {momentum}")
        if nesterov and momentum == 0.0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.momentum = float(momentum)
        self.nesterov = bool(nesterov)
        self._velocity: Dict[Tuple[int, str], np.ndarray] = {}

    def _update(
        self, layer_index: int, name: str, param: np.ndarray, grad: np.ndarray
    ) -> None:
        key = (layer_index, name)
        if self.momentum > 0:
            velocity = self._velocity.get(key)
            if velocity is None:
                velocity = np.zeros_like(param)
            velocity = self.momentum * velocity - self.learning_rate * grad
            self._velocity[key] = velocity
            if self.nesterov:
                param += self.momentum * velocity - self.learning_rate * grad
            else:
                param += velocity
        else:
            param -= self.learning_rate * grad
