"""Dataset substrate.

The paper evaluates on MNIST, CIFAR-10 and CIFAR-100.  Those datasets cannot
be downloaded in this offline environment, so this package provides
procedurally generated stand-ins with the same tensor shapes and class
counts (see DESIGN.md, "Substitutions"):

* ``"mnist"`` -- 1x28x28 grayscale glyphs, 10 classes,
* ``"cifar10"`` -- 3x32x32 textured shape composites, 10 classes,
* ``"cifar100"`` -- 3x32x32, 100 classes.

:func:`repro.data.synthetic.load_dataset` renders both splits of one
(:func:`~repro.data.synthetic.synthetic_mnist` is its MNIST shorthand);
:func:`~repro.data.synthetic.synthetic_source` returns it unrendered, so a
caller can render one split alone.  All generators are deterministic for a
given seed, so experiments are exactly reproducible.
"""

from repro.data.datasets import Dataset, DatasetSplit
from repro.data.synthetic import (
    SyntheticImageConfig,
    load_dataset,
    synthetic_mnist,
    synthetic_source,
)
from repro.data.loaders import BatchLoader

__all__ = [
    "Dataset",
    "DatasetSplit",
    "SyntheticImageConfig",
    "load_dataset",
    "synthetic_mnist",
    "synthetic_source",
    "BatchLoader",
]
