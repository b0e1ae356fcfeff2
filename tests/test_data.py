"""Tests for the dataset substrate (containers, synthetic generators, loaders)."""

import hashlib

import numpy as np
import pytest

from repro.data import (
    BatchLoader,
    Dataset,
    DatasetSplit,
    load_dataset,
    synthetic_cifar10,
    synthetic_cifar100,
    synthetic_mnist,
)
from repro.experiments.config import BENCH_SCALE, TEST_SCALE, dataset_config
from repro.experiments.workloads import _workload_data
from repro.utils.rng import derive_rng


def make_dataset(n=20, num_classes=4):
    rng = np.random.default_rng(0)
    x = rng.random((n, 1, 8, 8)).astype(np.float32)
    y = np.arange(n) % num_classes
    return Dataset(x=x, y=y, num_classes=num_classes, name="toy")


class TestDataset:
    def test_basic_properties(self):
        ds = make_dataset()
        assert len(ds) == 20
        assert ds.image_shape == (1, 8, 8)

    def test_label_range_validated(self):
        with pytest.raises(ValueError):
            Dataset(x=np.zeros((2, 1, 4, 4)), y=np.array([0, 5]), num_classes=3)

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            Dataset(x=np.zeros((2, 4, 4)), y=np.array([0, 1]), num_classes=2)

    def test_sample_count_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(x=np.zeros((3, 1, 4, 4)), y=np.array([0, 1]), num_classes=2)

    def test_labels_must_be_a_vector(self):
        with pytest.raises(ValueError, match="1-D label vector"):
            Dataset(x=np.zeros((2, 1, 4, 4)), y=np.array([[0], [1]]), num_classes=2)

    def test_split_shares_num_classes(self):
        split = DatasetSplit(train=make_dataset(n=8), test=make_dataset(n=4))
        assert split.num_classes == 4

    def test_split_rejects_class_count_mismatch(self):
        with pytest.raises(ValueError, match="num_classes"):
            DatasetSplit(train=make_dataset(num_classes=4),
                         test=make_dataset(num_classes=5))

    def test_split_rejects_image_shape_mismatch(self):
        test = Dataset(x=np.zeros((2, 1, 4, 4)), y=np.array([0, 1]), num_classes=4)
        with pytest.raises(ValueError, match="image shape"):
            DatasetSplit(train=make_dataset(), test=test)

    def test_iter_batches_covers_everything(self):
        ds = make_dataset()
        total = sum(x.shape[0] for x, _ in ds.iter_batches(6))
        assert total == len(ds)

    def test_iter_batches_shuffle_deterministic(self):
        ds = make_dataset()
        ys1 = np.concatenate([y for _, y in ds.iter_batches(8, shuffle=True, rng=3)])
        ys2 = np.concatenate([y for _, y in ds.iter_batches(8, shuffle=True, rng=3)])
        assert np.array_equal(ys1, ys2)


class TestSyntheticGenerators:
    def test_mnist_shapes(self):
        split = synthetic_mnist(train_size=50, test_size=20, rng=0)
        assert split.train.x.shape == (50, 1, 28, 28)
        assert split.test.x.shape == (20, 1, 28, 28)
        assert split.num_classes == 10

    def test_cifar10_shapes(self):
        split = synthetic_cifar10(train_size=30, test_size=10, rng=0)
        assert split.train.x.shape == (30, 3, 32, 32)
        assert split.num_classes == 10

    def test_cifar100_has_100_classes(self):
        split = synthetic_cifar100(train_size=200, test_size=100, rng=0)
        assert split.num_classes == 100
        assert split.train.y.max() == 99

    def test_custom_image_size(self):
        split = synthetic_cifar10(train_size=10, test_size=5, rng=0, image_size=16)
        assert split.train.image_shape == (3, 16, 16)

    def test_values_in_unit_interval(self):
        split = synthetic_cifar10(train_size=20, test_size=5, rng=0)
        assert split.train.x.min() >= 0.0
        assert split.train.x.max() <= 1.0

    def test_determinism(self):
        a = synthetic_mnist(train_size=20, test_size=5, rng=7)
        b = synthetic_mnist(train_size=20, test_size=5, rng=7)
        assert np.allclose(a.train.x, b.train.x)
        assert np.array_equal(a.train.y, b.train.y)

    def test_different_seeds_differ(self):
        a = synthetic_mnist(train_size=20, test_size=5, rng=1)
        b = synthetic_mnist(train_size=20, test_size=5, rng=2)
        assert not np.allclose(a.train.x, b.train.x)

    def test_classes_are_distinguishable(self):
        # nearest-prototype classification on clean prototypes should beat chance
        split = synthetic_mnist(train_size=300, test_size=100, rng=0)
        prototypes = np.stack([
            split.train.x[split.train.y == c].mean(axis=0) for c in range(10)
        ])
        differences = split.test.x[:, None] - prototypes[None]
        distances = np.sqrt((differences ** 2).sum(axis=(2, 3, 4)))
        accuracy = float((distances.argmin(axis=1) == split.test.y).mean())
        assert accuracy > 0.5

    def test_load_dataset_by_name(self):
        split = load_dataset("mnist", train_size=10, test_size=5, rng=0)
        assert split.name == "synthetic-mnist"
        with pytest.raises(ValueError):
            load_dataset("imagenet")


#: SHA-256 of ``x`` (float32) and ``y`` (int64) of each split the workloads
#: build, at seed 0.  The weight cache and the conversion document are keyed
#: by dataset, scale and seed, not by the generator's code, so a generator
#: change that moves these digests must also invalidate those caches.  They
#: hold on NumPy 1 and 2 alike only while the generator names every float64
#: promotion (NumPy 1 computes a float64 scalar times a float32 array in
#: float32, NumPy 2 in float64).
GOLDEN_SPLIT_DIGESTS = {
    ("test", "mnist", "train"): (
        "22d2ce0ad01b8d358d1ceb1be12ddca73e1191267874676fb8d6e5888ffa2ca0",
        "304cf4eb1abe959331acb2f1c7c35157471dd50846236cbd15124baebbbb8bc3",
    ),
    ("test", "mnist", "test"): (
        "9d7c9e6bcd77535974aee14ec0a70bb1d237d3922ed16d1c74c136ec4ac0c5d7",
        "656f1053172d597dfeccd41dc3bcf49191fcbb8f8fd63ad3eb10289fc5d96d5f",
    ),
    ("test", "cifar10", "train"): (
        "30a6908fb0ce838de00208db38500538acd565019cfda78875add5e1082a254a",
        "a5ef23217917783725458e4a2bb16d2c8a0341c68f3a4d7d98a4dc9c59c995db",
    ),
    ("test", "cifar10", "test"): (
        "85fcc5aefe2b9e73ad38e15f0d032f4072d7e64f02ae625a4c24bf228806b5ea",
        "6c5efff3e76eb10c84e205c0c0168ae1574c496903a983047a3ddeeca1384bb3",
    ),
    ("bench", "mnist", "train"): (
        "31bc1d67d364c8b21a58637fecd6292bc559fee8eaf1be2b56d553bf2d967230",
        "4533d457e65c2e9dbe31beae82e342baad7802ddb8ff01e0e3416d4bd2bd28e7",
    ),
    ("bench", "mnist", "test"): (
        "f4c52a94d757878f23b16e4d5eb37482e0202bb1a0115d999f77848edeb7a1af",
        "fefb5ae82920a94d22d752ee58e51c2ae53314de7ce5ba9bdb4fa44d2583da3b",
    ),
    ("bench", "cifar10", "train"): (
        "b070666cc04a8ec22cbc7dc7c0810aefb52347ce279c5bf042a785cb84da9ee3",
        "e69278ec217efdda1c02fb7efce93b6ee9b3324e713cdd366e520d3e52929418",
    ),
    ("bench", "cifar10", "test"): (
        "8028b35e179a68919bd858e6e1029ac076c8fd1b86953595b9d40a3068d16124",
        "0dc3a3615209b46daa0160953b90925695d10666034100a5f0acc1dc029a6387",
    ),
}


def _sha256(array, dtype):
    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


class TestGoldenDigests:
    @pytest.mark.parametrize("scale", [TEST_SCALE, BENCH_SCALE], ids=lambda s: s.name)
    @pytest.mark.parametrize("dataset", ["mnist", "cifar10"])
    def test_workload_splits_are_bit_identical(self, dataset, scale):
        # The derivation of prepare_workload's data stream.
        rng = derive_rng(0, "workload", dataset, scale.name)
        split = _workload_data(dataset_config(dataset), scale, derive_rng(rng, "data"))
        for part in ("train", "test"):
            data = getattr(split, part)
            assert data.x.dtype == np.float32
            assert (_sha256(data.x, np.float32), _sha256(data.y, np.int64)) == \
                GOLDEN_SPLIT_DIGESTS[(scale.name, dataset, part)], part


class TestBatchLoader:
    def test_unshuffled_batches_follow_dataset_order(self):
        ds = make_dataset(n=7)
        batches = list(BatchLoader(ds, batch_size=3))
        assert [len(y) for _, y in batches] == [3, 3, 1]
        assert np.array_equal(np.concatenate([x for x, _ in batches]), ds.x)
        assert np.array_equal(np.concatenate([y for _, y in batches]), ds.y)

    def test_shuffle_reorders_each_epoch_and_keeps_pairs(self):
        ds = make_dataset(n=20)
        loader = BatchLoader(ds, batch_size=20, shuffle=True, rng=0)
        (x1, y1), = list(loader)
        (x2, y2), = list(loader)
        assert not np.array_equal(y1, y2)
        for x, y in ((x1, y1), (x2, y2)):
            order = [int(np.flatnonzero(np.all(ds.x == xi, axis=(1, 2, 3)))[0])
                     for xi in x]
            assert sorted(order) == list(range(20))
            assert np.array_equal(ds.y[order], y)

    def test_shuffle_is_deterministic_per_seed(self):
        ds = make_dataset(n=12)
        first = [y for _, y in BatchLoader(ds, batch_size=5, shuffle=True, rng=3)]
        again = [y for _, y in BatchLoader(ds, batch_size=5, shuffle=True, rng=3)]
        assert all(np.array_equal(a, b) for a, b in zip(first, again))

    @pytest.mark.parametrize("batch_size", [0, -2])
    def test_batch_size_validated(self, batch_size):
        with pytest.raises(ValueError):
            BatchLoader(make_dataset(), batch_size=batch_size)
