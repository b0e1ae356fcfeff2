"""Thread-safe model registry with weight-cache load-through.

The registry maps conversion fingerprints
(:func:`repro.experiments.workloads.conversion_key`) to resident
:class:`~repro.core.servable.ServableModel` artifacts.  Models enter through
:meth:`ModelRegistry.register`, which loads through
:func:`prepare_workload`: the trained weights and the conversion document
beside them both come from the weight cache, so a registry restart costs a
weight load and a couple of matrix rebuilds, never a re-calibration.
Every registered model stays resident for the registry's lifetime.

Concurrency contract (exercised by ``tests/test_serving.py``):

* lookups and installs are guarded by one lock; artifacts are installed
  fully constructed, so readers can never observe a torn model,
* concurrent registrations of the same workload are deduplicated -- one
  thread loads, the rest wait on its result -- so N racing threads cause
  exactly one conversion.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.servable import ServableModel
from repro.experiments.config import BENCH_SCALE, ExperimentScale
from repro.experiments.workloads import prepare_workload


@dataclass
class RegistryStats:
    """Counters of one registry instance."""

    hits: int = 0
    loads: int = 0


class _InFlightLoad:
    """One deduplicated load: the owner publishes, the rest wait."""

    def __init__(self) -> None:
        self.done = threading.Event()
        self.model: Optional[ServableModel] = None
        self.error: Optional[BaseException] = None

    def resolve(self, model: ServableModel) -> None:
        self.model = model
        self.done.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.done.set()

    def wait(self) -> ServableModel:
        self.done.wait()
        if self.error is not None:
            raise self.error
        assert self.model is not None
        return self.model


class ModelRegistry:
    """Fingerprint-addressed map of resident servable models.

    Parameters
    ----------
    store:
        Accepted and unread: conversion documents live in the weight
        cache only.  ``perfbench/workloads.py`` still passes
        ``store=False``; the argument goes once it stops.
    """

    def __init__(self, store=None):
        self.stats = RegistryStats()
        self._lock = threading.RLock()
        #: key -> resident artifact.
        self._resident: Dict[str, ServableModel] = {}
        #: workload token -> fingerprint, once the workload has loaded.
        self._token_keys: Dict[tuple, str] = {}
        #: dedup of concurrent registrations, keyed by workload token.
        self._inflight: Dict[tuple, _InFlightLoad] = {}

    def register(
        self,
        dataset: str,
        scale: ExperimentScale = BENCH_SCALE,
        seed: int = 0,
        cache_dir: Optional[str] = None,
    ) -> str:
        """Load a workload's model into the registry; returns its fingerprint.

        Idempotent and dedup'd: concurrent registrations of the same
        workload perform one load, and a workload registered before is a
        plain hit.
        """
        token = (dataset, scale.name, int(seed), cache_dir)
        with self._lock:
            key = self._token_keys.get(token)
            if key is not None:
                self.stats.hits += 1
                return key
            inflight = self._inflight.get(token)
            owner = inflight is None
            if owner:
                inflight = self._inflight[token] = _InFlightLoad()
        if not owner:
            return inflight.wait().key
        try:
            model = prepare_workload(
                dataset, scale=scale, seed=int(seed), cache_dir=cache_dir,
            ).servable_model()
        except BaseException as error:
            with self._lock:
                self._inflight.pop(token, None)
            inflight.fail(error)
            raise
        key = model.key
        assert key is not None
        with self._lock:
            if key in self._resident:
                # Another workload token (e.g. a different cache dir)
                # converted to the same fingerprint first; serve its
                # artifact and drop ours.
                model = self._resident[key]
            else:
                self._resident[key] = model
                self.stats.loads += 1
            self._token_keys[token] = key
            self._inflight.pop(token, None)
        inflight.resolve(model)
        return key

    def get(self, key: str) -> ServableModel:
        """The resident model of a fingerprint.

        Raises :class:`KeyError` for fingerprints no :meth:`register` call
        has returned.
        """
        with self._lock:
            model = self._resident.get(key)
            if model is None:
                raise KeyError(f"unknown model fingerprint {key!r}")
            self.stats.hits += 1
            return model

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ModelRegistry(resident={len(self._resident)}, "
            f"stats={self.stats})"
        )
