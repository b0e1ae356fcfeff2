"""VGG-style model builders.

The paper uses VGG16.  Training VGG16 on a single CPU core is not practical,
so :func:`build_vgg` builds a family of conversion-friendly VGG variants
(:data:`VGG_CONFIGS`) sharing the same structure (3x3 convolutions, pooling
between stages, a small dense head, ReLU everywhere, dropout in the head):

* ``"vgg16"``   -- the full paper architecture (available, but heavy),
* ``"vgg9"``    -- the default "deep" network used in the reproduction benches,
* ``"vgg7"``    -- a lighter variant,
* ``"vgg_micro"`` -- a tiny network used by unit/integration tests.

Conversion-friendliness means: ReLU activations only, average pooling (max
pooling has no faithful spiking equivalent), biases kept.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.nn.layers import (
    AvgPool2D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    ReLU,
)
from repro.nn.model import Sequential
from repro.utils.rng import RngLike, derive_rng
from repro.utils.validation import check_positive

# Each config entry is either an int (conv layer with that many output
# channels) or the string "P" (a pooling layer).
VGG_CONFIGS: Dict[str, List[Union[int, str]]] = {
    "vgg16": [64, 64, "P", 128, 128, "P", 256, 256, 256, "P",
              512, 512, 512, "P", 512, 512, 512, "P"],
    "vgg9": [32, 32, "P", 64, 64, "P", 128, 128, "P"],
    "vgg7": [16, 32, "P", 32, 64, "P"],
    "vgg_micro": [8, "P", 16, "P"],
}


def build_vgg(
    config: Union[str, Sequence[Union[int, str]]],
    input_shape: Tuple[int, int, int],
    num_classes: int,
    dense_units: Sequence[int] = (128,),
    dropout: float = 0.3,
    rng: RngLike = None,
    name: Optional[str] = None,
) -> Sequential:
    """Build a VGG-style convolutional classifier.

    Parameters
    ----------
    config:
        Either a named config (``"vgg16"``, ``"vgg9"``, ``"vgg7"``,
        ``"vgg_micro"``) or an explicit list of channel counts and ``"P"``
        pooling markers.
    input_shape:
        Image shape ``(C, H, W)``.
    num_classes:
        Output dimensionality.
    dense_units:
        Hidden dense-layer widths of the classifier head.
    dropout:
        Dropout probability used in the head.  The paper relies on
        dropout-trained DNNs for TTFS robustness, so the default is non-zero.
    rng:
        Seed or generator for weight initialisation.
    """
    if isinstance(config, str):
        if config not in VGG_CONFIGS:
            raise ValueError(
                f"unknown VGG config {config!r}; available: {sorted(VGG_CONFIGS)}"
            )
        plan: Sequence[Union[int, str]] = VGG_CONFIGS[config]
        model_name = name or config
    else:
        plan = list(config)
        model_name = name or "vgg_custom"
    check_positive("num_classes", num_classes)

    channels, height, width = input_shape
    layers: List[Layer] = []
    in_channels = channels
    layer_rng = derive_rng(rng, "vgg-init")
    for item in plan:
        if item == "P":
            layers.append(AvgPool2D(2))
            height //= 2
            width //= 2
            continue
        out_channels = int(item)
        layers.append(
            Conv2D(in_channels, out_channels, kernel_size=3, stride=1, padding=1,
                   rng=layer_rng)
        )
        layers.append(ReLU())
        in_channels = out_channels
    if height < 1 or width < 1:
        raise ValueError(
            f"input spatial size {input_shape[1]}x{input_shape[2]} is too small "
            f"for config with {sum(1 for i in plan if i == 'P')} pooling stages"
        )

    layers.append(Flatten())
    features = in_channels * height * width
    for units in dense_units:
        layers.append(Dense(features, int(units), rng=layer_rng))
        layers.append(ReLU())
        if dropout > 0:
            layers.append(Dropout(dropout, rng=derive_rng(rng, "dropout", len(layers))))
        features = int(units)
    layers.append(Dense(features, int(num_classes), rng=layer_rng))
    return Sequential(layers, name=model_name)


def build_mlp(
    input_features: int,
    hidden_units: Sequence[int],
    num_classes: int,
    dropout: float = 0.0,
    rng: RngLike = None,
    name: str = "mlp",
) -> Sequential:
    """Build a plain fully connected ReLU classifier.

    MLPs train in seconds and are used extensively by tests and the MNIST
    stand-in experiments (the paper's MNIST results likewise come from a much
    smaller network than VGG16).
    """
    check_positive("input_features", input_features)
    check_positive("num_classes", num_classes)
    layers: List[Layer] = [Flatten()]
    features = int(input_features)
    layer_rng = derive_rng(rng, "mlp-init")
    for units in hidden_units:
        layers.append(Dense(features, int(units), rng=layer_rng))
        layers.append(ReLU())
        if dropout > 0:
            layers.append(Dropout(dropout, rng=derive_rng(rng, "dropout", len(layers))))
        features = int(units)
    layers.append(Dense(features, int(num_classes), rng=layer_rng))
    return Sequential(layers, name=name)
