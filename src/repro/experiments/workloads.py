"""Workload preparation: datasets, trained DNNs and converted networks.

Every figure and table of the paper evaluates noise on a *fixed* trained
network; training it is the expensive part.  :func:`prepare_workload` builds
(or loads from an on-disk cache, together with the conversion products) the
trained model and its converted SNN for a dataset at a given scale, so the
nine benchmark targets share the same preparation instead of retraining or
recalibrating per figure.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from dataclasses import asdict, dataclass
from typing import Optional, Tuple

import numpy as np

from repro.conversion.converter import ConversionError, ConvertedSNN, convert_dnn_to_snn
from repro.conversion.normalization import ActivationStatistics
from repro.core.servable import ServableModel
from repro.data.datasets import Dataset, DatasetSplit
from repro.data.synthetic import SyntheticSource, synthetic_source
from repro.experiments.config import (
    BENCH_SCALE,
    DatasetConfig,
    ExperimentScale,
    dataset_config,
)
from repro.nn.model import Sequential
from repro.nn.training import evaluate_accuracy, train_classifier
from repro.nn.vgg import build_mlp, build_vgg
from repro.utils.logging import get_logger
from repro.utils.rng import derive_rng
from repro.utils.serialization import load_json, save_json

logger = get_logger("experiments.workloads")

#: Default on-disk cache directory for trained models (overridable with the
#: ``REPRO_CACHE_DIR`` environment variable).
DEFAULT_CACHE_DIR = os.path.join(os.path.expanduser("~"), ".cache", "repro-snn")


@dataclass
class PreparedWorkload:
    """A trained network, its data and its converted spiking form.

    Attributes
    ----------
    dataset_name:
        Name of the dataset ("mnist", "cifar10", "cifar100").
    data:
        The synthetic stand-in's test split, with ``train`` set to
        ``None``: the training split is rendered only while the network is
        trained or calibrated, and dropped afterwards.
    model:
        The trained DNN.
    network:
        The converted SNN shared by every method of a sweep.
    dnn_accuracy:
        Test accuracy of the analog DNN (upper bound of every SNN result).
    scale:
        The experiment scale the workload was prepared at.
    """

    dataset_name: str
    data: DatasetSplit
    model: Sequential
    network: ConvertedSNN
    dnn_accuracy: float
    scale: ExperimentScale
    #: Seed the workload was prepared with; ``None`` for hand-built
    #: workloads (the sweep engine then cannot verify seed consistency).
    seed: Optional[int] = None
    #: Conversion fingerprint of the network (the name of its conversion
    #: document in the weight cache and the serving registry's model
    #: address); ``None`` for hand-built workloads.
    conversion_key: Optional[str] = None

    def evaluation_slice(self, size: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Return the (images, labels) slice used for noisy evaluations."""
        if size is not None and int(size) < 1:
            raise ValueError(f"eval size must be >= 1 or None, got {size}")
        count = size if size is not None else self.scale.eval_size
        count = int(min(count, len(self.data.test)))
        return self.data.test.x[:count], self.data.test.y[:count]

    def servable_model(self) -> ServableModel:
        """The frozen servable artifact of this workload (memoised).

        One instance per workload: the pipeline facade, the serving
        registry and the micro-batching scheduler all share its memoised
        coders / protocols / evaluators.
        """
        servable = getattr(self, "_servable", None)
        if servable is None:
            servable = ServableModel(network=self.network, key=self.conversion_key)
            self._servable = servable
        return servable


def _build_model(config: DatasetConfig, data: DatasetSplit, scale: ExperimentScale, rng):
    if config.architecture == "mlp":
        features = int(np.prod(data.image_shape))
        return build_mlp(
            features, hidden_units=(256, 128), num_classes=data.num_classes,
            dropout=0.2, rng=rng, name=f"mlp-{config.name}",
        )
    return build_vgg(
        config.vgg_config,
        input_shape=data.image_shape,
        num_classes=data.num_classes,
        dense_units=(128,),
        dropout=0.25,
        rng=rng,
        name=f"{config.vgg_config}-{config.name}",
    )


def _cache_path(cache_dir: str, dataset: str, scale: ExperimentScale, seed: int) -> str:
    return os.path.join(
        cache_dir, f"{dataset}-{scale.name}-seed{seed}-weights.npz"
    )


def _model_weights_hash(model: Sequential) -> str:
    """Stable hash of a model's trained parameters."""
    digest = hashlib.sha256()
    for name, array in sorted(model.state_dict().items()):
        array = np.ascontiguousarray(array)
        digest.update(name.encode("utf-8"))
        digest.update(str(array.shape).encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def conversion_key(
    dataset: str,
    scale: ExperimentScale,
    seed: int,
    weights_hash: str,
    calibration_size: int,
    percentile: float = 99.9,
) -> str:
    """Content address of a workload's conversion products.

    Covers everything the conversion depends on: the workload identity
    (dataset, scale, seed -- which determine the calibration data), the
    trained weights actually converted, and the conversion parameters
    (calibration-slice size, scale percentile) -- so
    neither a retrained network nor a change to how conversions are
    computed can silently read a stale cached conversion.
    """
    blob = json.dumps(
        {
            "dataset": dataset,
            "scale": asdict(scale),
            "seed": int(seed),
            "weights": weights_hash,
            "calibration_size": int(calibration_size),
            "percentile": float(percentile),
            # Conversions once could skip batch-norm folding; every key
            # stored since hashes this literal, so it stays.
            "fuse_batch_norm": True,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _workload_source(config: DatasetConfig, scale: ExperimentScale, rng) -> SyntheticSource:
    """The synthetic data of a workload, unrendered."""
    # The MNIST stand-in keeps its 28 px; the CIFAR stand-ins take the
    # scale's (reduced) spatial size.
    image_size = None if config.name == "mnist" else scale.image_size
    return synthetic_source(
        config.name, scale.train_size, scale.test_size, rng, image_size
    )


def _conversion_path(cache_dir: str, key: str) -> str:
    """Where a workload's conversion document sits beside the trained weights."""
    return os.path.join(cache_dir, "workloads", key[:2], f"{key}.json")


def _restore_conversion(model: Sequential, conversion: dict) -> Tuple[ConvertedSNN, float]:
    """The network and DNN accuracy of a stored conversion, uncalibrated."""
    statistics = ActivationStatistics(
        scales=[float(v) for v in conversion["scales"]],
        percentile=float(conversion["percentile"]),
        means=[float(v) for v in conversion.get("means", [])],
        maxima=[float(v) for v in conversion.get("maxima", [])],
        sample_size=int(conversion.get("sample_size", 0)),
    )
    network = convert_dnn_to_snn(
        model,
        None,
        statistics=statistics,
        input_scale=float(conversion["input_scale"]),
    )
    return network, float(conversion["dnn_accuracy"])


def _write_conversion(path: str, prepared: PreparedWorkload) -> None:
    """Persist a workload's conversion products atomically at ``path``.

    The exact floats :func:`_restore_conversion` reads back, so a restored
    network fingerprints identically to the calibrated one.
    """
    statistics = prepared.network.statistics
    conversion = {
        "scales": [float(v) for v in statistics.scales],
        "percentile": float(statistics.percentile),
        "means": [float(v) for v in statistics.means],
        "maxima": [float(v) for v in statistics.maxima],
        "sample_size": int(statistics.sample_size),
        "input_scale": float(prepared.network.input_scale),
        "dataset": prepared.dataset_name,
        "scale": prepared.scale.name,
        "seed": int(prepared.seed),
        "dnn_accuracy": float(prepared.dnn_accuracy),
    }
    save_json(
        path,
        {"version": 1, "key": prepared.conversion_key, "conversion": conversion},
        atomic=True,
    )


def prepare_workload(
    dataset: str,
    scale: ExperimentScale = BENCH_SCALE,
    seed: int = 0,
    cache_dir: Optional[str] = None,
    verbose: bool = False,
) -> PreparedWorkload:
    """Generate data, train (or load) the DNN and convert it to an SNN.

    Parameters
    ----------
    dataset:
        "mnist", "cifar10" or "cifar100".
    scale:
        Experiment scale (defaults to the CPU-friendly bench scale).
    seed:
        Seed controlling data generation, initialisation and training order.
    cache_dir:
        Directory of the trained-weight cache; defaults to
        ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-snn``.

    The cache holds the trained weights
    (``<cache_dir>/<dataset>-<scale>-seed<seed>-weights.npz``) and, beside
    them, the conversion document
    (``<cache_dir>/workloads/<key[:2]>/<key>.json``): the conversion
    products (activation scales, input scale, analog DNN accuracy) under
    :func:`conversion_key`, which covers the dataset, every scale field,
    the seed, the trained weights' hash, the calibration size and the scale
    percentile.  A cached document skips the calibration forward passes and
    the accuracy evaluation; the cached floats round-trip exactly, hence
    the rebuilt network fingerprints identically and cell results keep
    aliasing correctly.  The key does not cover the data generator's code:
    ``tests/test_data.py`` pins its output, so a change to it shows there.

    Only the test split is rendered up front.  The training split is
    rendered only to train the weights or to calibrate the conversion (a
    cold set-up); a warm set-up, which finds both files, never renders it.
    Either way the returned ``data`` carries the test split alone.

    The cache is an accelerator, never a correctness dependency.  A missing
    file is a silent miss; an unreadable or malformed one is a miss with a
    warning naming the file, and is recomputed and rewritten.  Both files
    are written atomically, and a failed write is a warning.
    """
    config = dataset_config(dataset)
    rng = derive_rng(seed, "workload", dataset, scale.name)
    # One data stream, both split seeds drawn up front: the training split
    # renders the same pixels whenever it is needed.
    source = _workload_source(config, scale, derive_rng(rng, "data"))
    data = DatasetSplit(train=None, test=source.render("test"), name=source.name)
    model = _build_model(config, data, scale, derive_rng(rng, "init"))
    train: Optional[Dataset] = None

    cache_dir = cache_dir or os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
    cache_file = _cache_path(cache_dir, config.name, scale, seed)
    loaded = False
    if os.path.exists(cache_file):
        try:
            model.load(cache_file)
            loaded = True
            logger.info("loaded cached weights from %s", cache_file)
        except (EOFError, KeyError, OSError, ValueError, zipfile.BadZipFile) as error:
            logger.warning("ignoring stale cache %s (%s)", cache_file, error)
    if not loaded:
        train = source.render("train")
        train_classifier(
            model,
            train,
            data.test,
            epochs=scale.train_epochs,
            batch_size=32 if config.architecture == "vgg" else 64,
            learning_rate=config.learning_rate,
            rng=derive_rng(rng, "train"),
            verbose=verbose,
        )
        try:
            model.save(cache_file)
            logger.info("cached trained weights at %s", cache_file)
        except OSError as error:
            logger.warning("weight cache write failed at %s (%s)", cache_file, error)

    calibration_size = min(128, scale.train_size)
    # The fingerprint is also the workload's address in the serving model
    # registry.
    key = conversion_key(
        config.name, scale, int(seed), _model_weights_hash(model),
        calibration_size=calibration_size,
    )
    path = _conversion_path(cache_dir, key)
    network: Optional[ConvertedSNN] = None
    try:
        network, dnn_accuracy = _restore_conversion(model, load_json(path)["conversion"])
        logger.info("reused cached conversion from %s", path)
    except FileNotFoundError:
        pass
    except (ConversionError, KeyError, OSError, TypeError, ValueError) as error:
        logger.warning("ignoring unusable conversion document %s (%s)", path, error)
    calibrated = network is None
    if calibrated:
        if train is None:
            train = source.render("train")
        dnn_accuracy = evaluate_accuracy(model, data.test)
        network = convert_dnn_to_snn(model, train.x[:calibration_size])
    prepared = PreparedWorkload(
        dataset_name=config.name,
        data=data,
        model=model,
        network=network,
        dnn_accuracy=dnn_accuracy,
        scale=scale,
        seed=int(seed),
        conversion_key=key,
    )
    if calibrated:
        try:
            _write_conversion(path, prepared)
        except OSError as error:
            logger.warning("conversion document write failed at %s (%s)", path, error)
    return prepared
