"""Dataset containers.

A :class:`Dataset` is an immutable pair of image tensor ``x`` with shape
``(N, C, H, W)`` and integer label vector ``y`` with shape ``(N,)``.  A
:class:`DatasetSplit` groups a train and a test dataset (the train split
optional) together with metadata (name, number of classes, image shape).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.utils.rng import RngLike, default_rng
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class Dataset:
    """An in-memory image-classification dataset.

    Attributes
    ----------
    x:
        Float32 array with shape ``(N, C, H, W)``, values typically in [0, 1]
        before normalisation.
    y:
        Int64 array with shape ``(N,)`` holding class indices.
    num_classes:
        Total number of classes (labels are in ``[0, num_classes)``).
    name:
        Human-readable dataset name used in reports.
    """

    x: np.ndarray
    y: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.float32)
        y = np.asarray(self.y, dtype=np.int64)
        if x.ndim != 4:
            raise ValueError(f"x must have shape (N, C, H, W), got {x.shape}")
        if y.ndim != 1:
            raise ValueError(f"y must be a 1-D label vector, got shape {y.shape}")
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"x and y disagree on the number of samples: {x.shape[0]} vs {y.shape[0]}"
            )
        check_positive("num_classes", self.num_classes)
        if y.size and (y.min() < 0 or y.max() >= self.num_classes):
            raise ValueError(
                f"labels must lie in [0, {self.num_classes}), "
                f"got range [{y.min()}, {y.max()}]"
            )
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return int(self.x.shape[0])

    @property
    def image_shape(self) -> Tuple[int, int, int]:
        """Shape of a single image as ``(C, H, W)``."""
        return tuple(self.x.shape[1:])  # type: ignore[return-value]

    def iter_batches(
        self, batch_size: int, shuffle: bool = False, rng: RngLike = None
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(x_batch, y_batch)`` pairs of at most ``batch_size`` samples."""
        check_positive("batch_size", batch_size)
        order = np.arange(len(self))
        if shuffle:
            order = default_rng(rng).permutation(order)
        for start in range(0, len(self), int(batch_size)):
            idx = order[start:start + int(batch_size)]
            yield self.x[idx], self.y[idx]


@dataclass(frozen=True)
class DatasetSplit:
    """A train/test pair with shared metadata.

    ``train`` is ``None`` where only the test split was rendered (a
    prepared workload evaluates on the test split alone); the metadata
    reads the test split.
    """

    train: Optional[Dataset]
    test: Dataset
    name: str = field(default="dataset")

    def __post_init__(self) -> None:
        if self.train is None:
            return
        if self.train.num_classes != self.test.num_classes:
            raise ValueError(
                "train and test disagree on num_classes: "
                f"{self.train.num_classes} vs {self.test.num_classes}"
            )
        if self.train.image_shape != self.test.image_shape:
            raise ValueError(
                "train and test disagree on image shape: "
                f"{self.train.image_shape} vs {self.test.image_shape}"
            )

    @property
    def num_classes(self) -> int:
        """Number of classes shared by both splits."""
        return self.test.num_classes

    @property
    def image_shape(self) -> Tuple[int, int, int]:
        """Image shape ``(C, H, W)`` shared by both splits."""
        return self.test.image_shape
