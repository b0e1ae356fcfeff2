"""Sequential model container."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.nn.layers import Layer
from repro.utils.serialization import load_arrays, save_arrays


class Sequential:
    """A linear stack of layers.

    The container owns the forward/backward orchestration and parameter
    bookkeeping; it is the object handed to the DNN-to-SNN converter.
    """

    def __init__(self, layers: Sequence[Layer], name: str = "model"):
        if not layers:
            raise ValueError("a Sequential model needs at least one layer")
        self.layers: List[Layer] = list(layers)
        self.name = name
        self._ensure_unique_names()

    def _ensure_unique_names(self) -> None:
        seen: Dict[str, int] = {}
        for layer in self.layers:
            count = seen.get(layer.name, 0)
            if count:
                layer.name = f"{layer.name}_{count}"
            seen[layer.name.rsplit("_", 1)[0]] = count + 1

    # -- inference / training ------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the full stack on a batch ``x``."""
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate through the full stack (after a training forward)."""
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def zero_grads(self) -> None:
        """Reset gradients in every layer."""
        for layer in self.layers:
            if layer.has_params:
                layer.zero_grads()

    # -- persistence -----------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flatten all parameters into one dict."""
        state: Dict[str, np.ndarray] = {}
        for index, layer in enumerate(self.layers):
            for key, value in layer.params.items():
                state[f"layer{index}.{key}"] = value.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters previously produced by :meth:`state_dict`.

        Every parameter is checked before any is replaced, so a state dict
        that does not fit leaves the model as it was.
        """
        params = [
            (layer.params, key, f"layer{index}.{key}")
            for index, layer in enumerate(self.layers)
            for key in layer.params
        ]
        for own, key, full_key in params:
            if full_key not in state:
                raise KeyError(f"missing parameter {full_key} in state dict")
            expected = own[key].shape
            actual = state[full_key].shape
            if expected != actual:
                raise ValueError(
                    f"shape mismatch for {full_key}: expected {expected}, got {actual}"
                )
        for own, key, full_key in params:
            own[key] = state[full_key].astype(np.float32).copy()

    def save(self, path: str) -> str:
        """Save the model parameters to an ``.npz`` archive."""
        return save_arrays(path, self.state_dict())

    def load(self, path: str) -> None:
        """Load parameters saved by :meth:`save` into this model."""
        self.load_state_dict(load_arrays(path))

    def copy(self) -> "Sequential":
        """Deep copy of the architecture and parameters.

        The copy shares no arrays with the original, so conversion never
        mutates the trained DNN.
        """
        import copy as _copy

        clone = _copy.deepcopy(self)
        return clone
