"""Workload preparation: datasets, trained DNNs and converted networks.

Every figure and table of the paper evaluates noise on a *fixed* trained
network; training it is the expensive part.  :func:`prepare_workload` builds
(or loads from an on-disk cache) the trained model and its converted SNN for
a dataset at a given scale, so the nine benchmark targets share the same
preparation instead of retraining per figure.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from typing import Optional, Tuple

import numpy as np

from repro.conversion.converter import ConvertedSNN, convert_dnn_to_snn
from repro.conversion.normalization import ActivationStatistics
from repro.core.servable import ServableModel
from repro.data.datasets import DatasetSplit
from repro.data.synthetic import load_dataset
from repro.execution.store import ResultStore
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
        The train/test split used (synthetic stand-in).
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
    #: Conversion fingerprint of the network (the ``workloads/`` store key
    #: and the serving registry's model address); ``None`` for hand-built
    #: workloads.
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
            servable = ServableModel(
                network=self.network,
                key=self.conversion_key,
                dataset=self.dataset_name,
                scale_name=self.scale.name,
                seed=self.seed,
                dnn_accuracy=float(self.dnn_accuracy),
            )
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


def prepare_workload(
    dataset: str,
    scale: ExperimentScale = BENCH_SCALE,
    seed: int = 0,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    verbose: bool = False,
    store: Optional[ResultStore] = None,
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
        Directory for the trained-weight cache; defaults to
        ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-snn``.
    use_cache:
        Load/store trained weights from the cache (training is the dominant
        cost of every benchmark, so this is on by default).
    store:
        Optional :class:`~repro.execution.store.ResultStore`: the
        conversion products (activation scales, input scale, analog DNN
        accuracy) are served from / stored back into its ``workloads/``
        section, keyed by (dataset, scale, seed, trained-weights hash) --
        so first-run multi-dataset tables stop re-running the calibration
        forward passes and the accuracy evaluation in the parent on every
        invocation.  The cached floats round-trip exactly, hence the
        rebuilt network fingerprints identically and cell results keep
        aliasing correctly.
    """
    config = dataset_config(dataset)
    rng = derive_rng(seed, "workload", dataset, scale.name)

    if config.name == "mnist":
        data = load_dataset(
            config.name,
            train_size=scale.train_size,
            test_size=scale.test_size,
            rng=derive_rng(rng, "data"),
        )
    else:
        # The CIFAR stand-ins accept the scale's (reduced) spatial size.
        from repro.data.synthetic import synthetic_cifar10, synthetic_cifar100

        factory = synthetic_cifar10 if config.name == "cifar10" else synthetic_cifar100
        data = factory(
            train_size=scale.train_size,
            test_size=scale.test_size,
            rng=derive_rng(rng, "data"),
            image_size=scale.image_size,
        )

    model = _build_model(config, data, scale, derive_rng(rng, "init"))

    cache_dir = cache_dir or os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
    cache_file = _cache_path(cache_dir, config.name, scale, seed)
    loaded = False
    if use_cache and os.path.exists(cache_file):
        try:
            model.load(cache_file)
            loaded = True
            logger.info("loaded cached weights from %s", cache_file)
        except (KeyError, ValueError) as error:
            logger.warning("ignoring stale cache %s (%s)", cache_file, error)
    if not loaded:
        train_classifier(
            model,
            data.train,
            data.test,
            epochs=scale.train_epochs,
            batch_size=32 if config.architecture == "vgg" else 64,
            learning_rate=config.learning_rate,
            rng=derive_rng(rng, "train"),
            verbose=verbose,
        )
        if use_cache:
            os.makedirs(cache_dir, exist_ok=True)
            model.save(cache_file)
            logger.info("cached trained weights at %s", cache_file)

    calibration = data.train.x[: min(128, len(data.train))]
    # The fingerprint is computed store-or-not: it is also the workload's
    # address in the serving model registry.
    key = conversion_key(
        config.name, scale, int(seed), _model_weights_hash(model),
        calibration_size=int(calibration.shape[0]),
    )
    conversion: Optional[dict] = None
    if store is not None:
        conversion = store.get_workload_conversion(key)
    if conversion is not None:
        try:
            statistics = ActivationStatistics(
                scales=[float(v) for v in conversion["scales"]],
                percentile=float(conversion["percentile"]),
                means=[float(v) for v in conversion.get("means", [])],
                maxima=[float(v) for v in conversion.get("maxima", [])],
                sample_size=int(conversion.get("sample_size", 0)),
            )
            network = convert_dnn_to_snn(
                model,
                calibration,
                statistics=statistics,
                input_scale=float(conversion["input_scale"]),
            )
            dnn_accuracy = float(conversion["dnn_accuracy"])
            logger.info(
                "reused stored conversion for %s/%s (seed %d)",
                config.name, scale.name, seed,
            )
        except (KeyError, TypeError, ValueError) as error:
            logger.warning(
                "ignoring malformed stored conversion for %s (%s)",
                config.name, error,
            )
            conversion = None
    if conversion is None:
        dnn_accuracy = evaluate_accuracy(model, data.test)
        network = convert_dnn_to_snn(model, calibration)
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
    if conversion is None and store is not None:
        try:
            # The store-back document is the servable artifact's payload --
            # the exact shape `get_workload_conversion` reads back above.
            store.put_workload_conversion(
                key, prepared.servable_model().conversion_payload()
            )
        except OSError as error:
            # The store is an accelerator, never a correctness
            # dependency (same contract as cell writes).
            logger.warning(
                "workload-conversion store write failed for %s (%s)",
                config.name, error,
            )
    return prepared
