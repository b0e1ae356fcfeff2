"""Procedurally generated stand-ins for MNIST, CIFAR-10 and CIFAR-100.

The generators are deliberately *structured*: each class has a deterministic
prototype (stroke pattern for the MNIST stand-in, texture/shape composite for
the CIFAR stand-ins), and each sample is a randomly perturbed rendering of the
prototype (translation, amplitude jitter, additive noise).  A small
convolutional network therefore has something genuinely spatial to learn, but
training remains feasible on a single CPU core.

See DESIGN.md ("Substitutions") for why this preserves the behaviour the paper
measures: the noise-robustness experiments compare *relative* accuracy
degradation of coding schemes on a fixed trained network; the identity of the
underlying dataset only sets the clean baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.data.datasets import Dataset, DatasetSplit
from repro.utils.rng import RngLike, default_rng, stable_hash
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class SyntheticImageConfig:
    """Configuration of a synthetic dataset rendering.

    Attributes
    ----------
    num_classes:
        Number of classes to generate.
    image_size:
        Height/width of the square image.
    channels:
        Number of colour channels (1 for the MNIST stand-in, 3 for CIFAR).
    train_size / test_size:
        Number of samples per split.
    noise_std:
        Standard deviation of the additive Gaussian pixel noise.
    max_shift:
        Maximum absolute translation (pixels) applied per sample.
    amplitude_jitter:
        Relative amplitude jitter applied per sample (e.g. 0.2 = +-20%).
    """

    num_classes: int = 10
    image_size: int = 28
    channels: int = 1
    train_size: int = 2000
    test_size: int = 400
    noise_std: float = 0.08
    max_shift: int = 2
    amplitude_jitter: float = 0.2

    def __post_init__(self) -> None:
        check_positive("num_classes", self.num_classes)
        check_positive("image_size", self.image_size)
        check_positive("channels", self.channels)
        check_positive("train_size", self.train_size)
        check_positive("test_size", self.test_size)


def _stroke_prototype(
    cls: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Render a digit-like stroke prototype for class ``cls``.

    Each class gets a deterministic combination of 3-5 line segments and
    0-2 arcs drawn on a ``size`` x ``size`` canvas, anti-aliased by a small
    blur.  The combination is derived from a class-seeded generator so the
    prototypes are stable across calls.
    """
    canvas = np.zeros((size, size), dtype=np.float32)
    num_segments = 3 + int(rng.integers(0, 3))
    for _ in range(num_segments):
        x0, y0 = rng.uniform(0.15, 0.85, size=2) * size
        angle = rng.uniform(0, np.pi)
        length = rng.uniform(0.3, 0.7) * size
        x1 = np.clip(x0 + np.cos(angle) * length, 1, size - 2)
        y1 = np.clip(y0 + np.sin(angle) * length, 1, size - 2)
        steps = int(max(abs(x1 - x0), abs(y1 - y0)) * 2) + 2
        xs = np.linspace(x0, x1, steps)
        ys = np.linspace(y0, y1, steps)
        canvas[ys.astype(int), xs.astype(int)] = 1.0
    num_arcs = int(rng.integers(0, 3))
    for _ in range(num_arcs):
        cx, cy = rng.uniform(0.3, 0.7, size=2) * size
        radius = rng.uniform(0.15, 0.35) * size
        theta0 = rng.uniform(0, 2 * np.pi)
        span = rng.uniform(np.pi / 2, 2 * np.pi)
        thetas = np.linspace(theta0, theta0 + span, int(radius * 6) + 8)
        xs = np.clip(cx + radius * np.cos(thetas), 1, size - 2).astype(int)
        ys = np.clip(cy + radius * np.sin(thetas), 1, size - 2).astype(int)
        canvas[ys, xs] = 1.0
    return _blur(canvas, passes=2)


def _texture_prototype(
    cls: int, size: int, channels: int, rng: np.random.Generator
) -> np.ndarray:
    """Render a textured shape prototype for class ``cls`` (CIFAR stand-in).

    The prototype combines a sinusoidal grating (class-dependent orientation
    and frequency), a geometric shape mask (square / disc / cross / stripe)
    and a class-dependent colour tint, producing images whose discriminative
    structure is both spectral and spatial.
    """
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float32) / size
    orientation = rng.uniform(0, np.pi)
    frequency = rng.uniform(2.0, 6.0)
    phase = rng.uniform(0, 2 * np.pi)
    grating = 0.5 + 0.5 * np.sin(
        2 * np.pi * frequency * (np.cos(orientation) * xs + np.sin(orientation) * ys)
        + phase
    )

    shape_kind = int(rng.integers(0, 4))
    cx, cy = rng.uniform(0.35, 0.65, size=2)
    extent = rng.uniform(0.2, 0.4)
    if shape_kind == 0:  # square
        mask = (np.abs(xs - cx) < extent) & (np.abs(ys - cy) < extent)
    elif shape_kind == 1:  # disc
        mask = (xs - cx) ** 2 + (ys - cy) ** 2 < extent**2
    elif shape_kind == 2:  # cross
        mask = (np.abs(xs - cx) < extent / 2.5) | (np.abs(ys - cy) < extent / 2.5)
    else:  # diagonal stripe
        mask = np.abs((xs - cx) - (ys - cy)) < extent / 2.0
    shape_layer = mask.astype(np.float32)

    tint = rng.uniform(0.3, 1.0, size=channels).astype(np.float32)
    background = rng.uniform(0.0, 0.25, size=channels).astype(np.float32)
    image = np.empty((channels, size, size), dtype=np.float32)
    for c in range(channels):
        image[c] = background[c] + tint[c] * (0.55 * grating + 0.45 * shape_layer)
    image = np.clip(image, 0.0, 1.0)
    for c in range(channels):
        image[c] = _blur(image[c], passes=1)
    return image


def _blur(image: np.ndarray, passes: int = 1) -> np.ndarray:
    """Cheap separable box blur used for anti-aliasing prototypes."""
    result = image.astype(np.float32)
    for _ in range(passes):
        padded = np.pad(result, 1, mode="edge")
        result = (
            padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2]
            + padded[1:-1, 2:] + 2.0 * padded[1:-1, 1:-1]
        ) / 6.0
    return result


def _render_samples(
    prototypes: np.ndarray,
    labels: np.ndarray,
    config: SyntheticImageConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Render one perturbed sample per label from class prototypes."""
    n = labels.shape[0]
    channels, size = prototypes.shape[1], prototypes.shape[2]
    images = np.empty((n, channels, size, size), dtype=np.float32)
    shifts = rng.integers(-config.max_shift, config.max_shift + 1, size=(n, 2))
    amplitudes = 1.0 + rng.uniform(
        -config.amplitude_jitter, config.amplitude_jitter, size=n
    )
    noise = rng.normal(0.0, config.noise_std, size=images.shape).astype(np.float32)
    for i in range(n):
        proto = prototypes[labels[i]]
        shifted = np.roll(proto, shift=tuple(shifts[i]), axis=(1, 2))
        images[i] = shifted * amplitudes[i]
    images += noise
    return np.clip(images, 0.0, 1.0)


def _build_split(
    config: SyntheticImageConfig,
    name: str,
    prototype_fn,
    rng: np.random.Generator,
) -> DatasetSplit:
    """Generate prototypes and render train/test splits."""
    prototypes = np.stack(
        [
            prototype_fn(
                cls,
                config.image_size,
                np.random.default_rng(stable_hash(f"{name}-{cls}")),
            )
            for cls in range(config.num_classes)
        ]
    )
    if prototypes.ndim == 3:  # grayscale prototype fn returns (H, W)
        prototypes = prototypes[:, None, :, :]

    def make(split_size: int, split_rng: np.random.Generator) -> Dataset:
        labels = np.arange(split_size) % config.num_classes
        labels = split_rng.permutation(labels)
        images = _render_samples(prototypes, labels, config, split_rng)
        return Dataset(x=images, y=labels, num_classes=config.num_classes, name=name)

    train_rng, test_rng = (
        np.random.default_rng(rng.integers(0, 2**31)),
        np.random.default_rng(rng.integers(0, 2**31)),
    )
    return DatasetSplit(
        train=make(config.train_size, train_rng),
        test=make(config.test_size, test_rng),
        name=name,
    )


def synthetic_mnist(
    train_size: int = 2000,
    test_size: int = 400,
    rng: RngLike = None,
    image_size: int = 28,
) -> DatasetSplit:
    """Generate the MNIST stand-in: 10 classes of 1x28x28 stroke glyphs."""
    config = SyntheticImageConfig(
        num_classes=10,
        image_size=image_size,
        channels=1,
        train_size=train_size,
        test_size=test_size,
        noise_std=0.08,
        max_shift=2,
    )

    def proto(cls: int, size: int, proto_rng: np.random.Generator) -> np.ndarray:
        return _stroke_prototype(cls, size, proto_rng)

    return _build_split(config, "synthetic-mnist", proto, default_rng(rng))


def synthetic_cifar10(
    train_size: int = 2000,
    test_size: int = 400,
    rng: RngLike = None,
    image_size: int = 32,
) -> DatasetSplit:
    """Generate the CIFAR-10 stand-in: 10 classes of 3x32x32 textured shapes."""
    config = SyntheticImageConfig(
        num_classes=10,
        image_size=image_size,
        channels=3,
        train_size=train_size,
        test_size=test_size,
        noise_std=0.06,
        max_shift=3,
    )

    def proto(cls: int, size: int, proto_rng: np.random.Generator) -> np.ndarray:
        return _texture_prototype(cls, size, 3, proto_rng)

    return _build_split(config, "synthetic-cifar10", proto, default_rng(rng))


def synthetic_cifar100(
    train_size: int = 4000,
    test_size: int = 800,
    rng: RngLike = None,
    image_size: int = 32,
) -> DatasetSplit:
    """Generate the CIFAR-100 stand-in: 100 classes of 3x32x32 textured shapes."""
    config = SyntheticImageConfig(
        num_classes=100,
        image_size=image_size,
        channels=3,
        train_size=train_size,
        test_size=test_size,
        noise_std=0.05,
        max_shift=2,
    )

    def proto(cls: int, size: int, proto_rng: np.random.Generator) -> np.ndarray:
        return _texture_prototype(cls, size, 3, proto_rng)

    return _build_split(config, "synthetic-cifar100", proto, default_rng(rng))


_DATASET_FACTORIES = {
    "mnist": synthetic_mnist,
    "synthetic-mnist": synthetic_mnist,
    "cifar10": synthetic_cifar10,
    "synthetic-cifar10": synthetic_cifar10,
    "cifar100": synthetic_cifar100,
    "synthetic-cifar100": synthetic_cifar100,
}


def load_dataset(
    name: str,
    train_size: Optional[int] = None,
    test_size: Optional[int] = None,
    rng: RngLike = None,
) -> DatasetSplit:
    """Load a synthetic dataset by name.

    Accepted names: ``"mnist"``, ``"cifar10"``, ``"cifar100"`` (and their
    ``"synthetic-"``-prefixed aliases).
    """
    key = name.lower()
    if key not in _DATASET_FACTORIES:
        raise ValueError(
            f"unknown dataset {name!r}; available: {sorted(set(_DATASET_FACTORIES))}"
        )
    factory = _DATASET_FACTORIES[key]
    kwargs: Dict[str, object] = {"rng": rng}
    if train_size is not None:
        kwargs["train_size"] = train_size
    if test_size is not None:
        kwargs["test_size"] = test_size
    return factory(**kwargs)  # type: ignore[arg-type]
