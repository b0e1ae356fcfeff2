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

from dataclasses import dataclass, replace
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
    cls: int, config: SyntheticImageConfig, rng: np.random.Generator
) -> np.ndarray:
    """Render a digit-like stroke prototype for class ``cls``.

    Each class gets a deterministic combination of 3-5 line segments and
    0-2 arcs drawn on a ``size`` x ``size`` canvas, anti-aliased by a small
    blur.  The combination is derived from a class-seeded generator so the
    prototypes are stable across calls.
    """
    size = config.image_size
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
    cls: int, config: SyntheticImageConfig, rng: np.random.Generator
) -> np.ndarray:
    """Render a textured shape prototype for class ``cls`` (CIFAR stand-in).

    The prototype combines a sinusoidal grating (class-dependent orientation
    and frequency), a geometric shape mask (square / disc / cross / stripe)
    and a class-dependent colour tint, producing images whose discriminative
    structure is both spectral and spatial.
    """
    size, channels = config.image_size, config.channels
    # float32 coordinates, widened to float64 before they meet the float64
    # draws below: NumPy 1 would otherwise compute in float32 and NumPy 2 in
    # float64, and the data would depend on the NumPy version.
    ys, xs = (np.mgrid[0:size, 0:size].astype(np.float32) / size).astype(np.float64)
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
    """Render one perturbed sample per label from class prototypes.

    Each sample is its class prototype circularly shifted by a random
    ``(dy, dx)`` (the ``np.roll`` of both spatial axes, done for the whole
    batch as one gather), scaled by a random amplitude and overlaid with
    Gaussian noise.
    """
    n = labels.shape[0]
    channels, size = prototypes.shape[1], prototypes.shape[2]
    shifts = rng.integers(-config.max_shift, config.max_shift + 1, size=(n, 2))
    amplitudes = 1.0 + rng.uniform(
        -config.amplitude_jitter, config.amplitude_jitter, size=n
    )
    noise = rng.normal(0.0, config.noise_std, size=(n, channels, size, size))
    pixels = np.arange(size)
    rows = (pixels - shifts[:, :1]) % size
    cols = (pixels - shifts[:, 1:]) % size
    images = prototypes[
        labels[:, None, None, None],
        np.arange(channels)[None, :, None, None],
        rows[:, None, :, None],
        cols[:, None, None, :],
    ]
    # float32 pixels times float64 amplitudes in float64, rounded back to
    # float32 (the loop is named, so no NumPy version picks another).
    np.multiply(images, amplitudes[:, None, None, None], out=images,
                dtype=np.float64, casting="unsafe")
    images += noise.astype(np.float32)
    return np.clip(images, 0.0, 1.0)


@dataclass(frozen=True)
class SyntheticSource:
    """A synthetic dataset ready to render: class prototypes and split seeds.

    Both split seeds are drawn when the source is made (train first), so
    each split renders the same pixels whether or not the other split is
    ever rendered: a caller that needs only the test split skips the
    training render entirely.
    """

    config: SyntheticImageConfig
    name: str
    prototypes: np.ndarray
    #: Seed of each split's generator, keyed ``"train"`` and ``"test"``.
    seeds: Dict[str, int]

    def render(self, split: str) -> Dataset:
        """Render the ``"train"`` or ``"test"`` split."""
        rng = np.random.default_rng(self.seeds[split])
        size = getattr(self.config, f"{split}_size")
        labels = rng.permutation(np.arange(size) % self.config.num_classes)
        images = _render_samples(self.prototypes, labels, self.config, rng)
        return Dataset(
            x=images, y=labels, num_classes=self.config.num_classes, name=self.name
        )

    def split(self) -> DatasetSplit:
        """Both splits, rendered."""
        return DatasetSplit(
            train=self.render("train"), test=self.render("test"), name=self.name
        )


#: Each stand-in's default rendering and its class-prototype renderer.
_STAND_INS = {
    "synthetic-mnist": (
        SyntheticImageConfig(
            num_classes=10, image_size=28, channels=1, train_size=2000,
            test_size=400, noise_std=0.08, max_shift=2,
        ),
        _stroke_prototype,
    ),
    "synthetic-cifar10": (
        SyntheticImageConfig(
            num_classes=10, image_size=32, channels=3, train_size=2000,
            test_size=400, noise_std=0.06, max_shift=3,
        ),
        _texture_prototype,
    ),
    "synthetic-cifar100": (
        SyntheticImageConfig(
            num_classes=100, image_size=32, channels=3, train_size=4000,
            test_size=800, noise_std=0.05, max_shift=2,
        ),
        _texture_prototype,
    ),
}


def synthetic_source(
    name: str,
    train_size: Optional[int] = None,
    test_size: Optional[int] = None,
    rng: RngLike = None,
    image_size: Optional[int] = None,
) -> SyntheticSource:
    """The stand-in ``name``, unrendered: its prototypes and split seeds.

    Accepted names: ``"mnist"``, ``"cifar10"``, ``"cifar100"`` (and their
    ``"synthetic-"``-prefixed aliases).  A size left ``None`` keeps the
    stand-in's default.
    """
    key = name.lower()
    if not key.startswith("synthetic-"):
        key = f"synthetic-{key}"
    if key not in _STAND_INS:
        raise ValueError(
            f"unknown dataset {name!r}; available: mnist, cifar10, cifar100 "
            "(optionally prefixed 'synthetic-')"
        )
    default, prototype = _STAND_INS[key]
    sizes = {"train_size": train_size, "test_size": test_size, "image_size": image_size}
    config = replace(default, **{k: v for k, v in sizes.items() if v is not None})
    prototypes = np.stack([
        prototype(cls, config, np.random.default_rng(stable_hash(f"{key}-{cls}")))
        for cls in range(config.num_classes)
    ])
    if prototypes.ndim == 3:  # grayscale prototypes are (H, W)
        prototypes = prototypes[:, None, :, :]
    generator = default_rng(rng)
    seeds = {
        "train": int(generator.integers(0, 2**31)),
        "test": int(generator.integers(0, 2**31)),
    }
    return SyntheticSource(config=config, name=key, prototypes=prototypes, seeds=seeds)


def synthetic_mnist(
    train_size: int = 2000,
    test_size: int = 400,
    rng: RngLike = None,
    image_size: int = 28,
) -> DatasetSplit:
    """Generate the MNIST stand-in: 10 classes of 1x28x28 stroke glyphs."""
    return synthetic_source("mnist", train_size, test_size, rng, image_size).split()


def load_dataset(
    name: str,
    train_size: Optional[int] = None,
    test_size: Optional[int] = None,
    rng: RngLike = None,
    image_size: Optional[int] = None,
) -> DatasetSplit:
    """Both splits of a synthetic dataset, rendered (see :func:`synthetic_source`)."""
    return synthetic_source(name, train_size, test_size, rng, image_size).split()
