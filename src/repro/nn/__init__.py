"""Numpy DNN substrate.

The paper configures its deep SNNs through DNN-to-SNN conversion of VGG16
networks trained in a conventional deep-learning framework.  This package is
a from-scratch, numpy-only replacement for that framework: layer classes with
explicit forward/backward passes, losses, optimisers, a ``Sequential``
container, VGG-style model builders and a small training loop.

Only the pieces needed by the conversion pipeline are implemented -- ReLU
convolutional networks with average pooling and dropout -- but each piece is
fully functional (training actually converges) rather than a stub.
"""

from repro.nn.initializers import he_normal, zeros_init
from repro.nn.layers import (
    AvgPool2D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    ReLU,
)
from repro.nn.losses import CrossEntropyLoss, softmax
from repro.nn.optimizers import SGD, Optimizer
from repro.nn.model import Sequential
from repro.nn.vgg import VGG_CONFIGS, build_mlp, build_vgg
from repro.nn.training import (
    TrainingResult,
    Trainer,
    evaluate_accuracy,
    train_classifier,
)

__all__ = [
    "he_normal",
    "zeros_init",
    "Layer",
    "Dense",
    "Conv2D",
    "AvgPool2D",
    "Flatten",
    "ReLU",
    "Dropout",
    "CrossEntropyLoss",
    "softmax",
    "Optimizer",
    "SGD",
    "Sequential",
    "VGG_CONFIGS",
    "build_vgg",
    "build_mlp",
    "Trainer",
    "TrainingResult",
    "evaluate_accuracy",
    "train_classifier",
]
