"""Batch loading utilities.

:class:`BatchLoader` wraps a :class:`repro.data.datasets.Dataset` and yields
mini-batches, optionally shuffled per epoch.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.data.datasets import Dataset
from repro.utils.rng import RngLike, default_rng
from repro.utils.validation import check_positive

Batch = Tuple[np.ndarray, np.ndarray]


class BatchLoader:
    """Iterate over a dataset in mini-batches.

    Parameters
    ----------
    dataset:
        Source dataset.
    batch_size:
        Number of samples per batch; the final batch may be smaller.
    shuffle:
        Reshuffle sample order at the start of every epoch.
    rng:
        Seed or generator controlling shuffling.
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int = 32,
        shuffle: bool = False,
        rng: RngLike = None,
    ):
        check_positive("batch_size", batch_size)
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.shuffle = bool(shuffle)
        self._rng = default_rng(rng)

    def __iter__(self) -> Iterator[Batch]:
        n = len(self.dataset)
        order = np.arange(n)
        if self.shuffle:
            order = self._rng.permutation(order)
        for start in range(0, n, self.batch_size):
            idx = order[start:start + self.batch_size]
            yield self.dataset.x[idx], self.dataset.y[idx]
