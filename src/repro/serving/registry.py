"""Thread-safe model registry with store load-through and byte-budget LRU.

The registry maps conversion fingerprints
(:func:`repro.experiments.workloads.conversion_key`) to resident
:class:`~repro.core.servable.ServableModel` artifacts.  Models enter either
eagerly (:meth:`ModelRegistry.register`) or lazily: a :meth:`get` on an
evicted-but-known key reloads through :func:`prepare_workload`, which serves
the trained weights from the weight cache and the conversion products from
the :class:`~repro.execution.store.ResultStore` ``workloads/`` section -- so
a registry restart (or an LRU eviction) costs a weight load and a couple of
matrix rebuilds, never a re-calibration.

Concurrency contract (exercised by ``tests/test_serving.py``):

* lookups and installs are guarded by one lock; artifacts are installed
  fully constructed, so readers can never observe a torn model,
* concurrent loads of the same key are deduplicated -- one thread loads,
  the rest wait on its result -- so N racing threads cause exactly one
  conversion,
* eviction walks the LRU tail until the resident-bytes budget is met,
  always sparing the most recent entry (a registry whose budget is smaller
  than one model still serves it, it just stops caching neighbours).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.servable import ServableModel
from repro.execution.store import ResultStore, resolve_store
from repro.experiments.config import BENCH_SCALE, ExperimentScale
from repro.experiments.workloads import prepare_workload
from repro.utils.logging import get_logger

logger = get_logger("serving.registry")

@dataclass(frozen=True)
class ModelSource:
    """How to (re)load one model: the workload identity.

    Carried per key so evicted models stay reachable -- ``load`` re-prepares
    the workload, which hits the trained-weight cache and the store's
    conversion document instead of retraining or recalibrating.
    """

    dataset: str
    scale: ExperimentScale = BENCH_SCALE
    seed: int = 0
    use_cache: bool = True
    cache_dir: Optional[str] = None

    def token(self) -> tuple:
        """Hashable identity used to deduplicate concurrent first loads."""
        return (self.dataset, self.scale.name, int(self.seed),
                bool(self.use_cache), self.cache_dir)

    def load(self, store: Optional[ResultStore]) -> ServableModel:
        """Prepare the workload and return its servable artifact."""
        workload = prepare_workload(
            self.dataset,
            scale=self.scale,
            seed=self.seed,
            cache_dir=self.cache_dir,
            use_cache=self.use_cache,
            store=store,
        )
        return workload.servable_model()


@dataclass
class RegistryStats:
    """Counters of one registry instance."""

    hits: int = 0
    misses: int = 0
    loads: int = 0
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "loads": self.loads,
            "evictions": self.evictions,
        }


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
    """Fingerprint-addressed cache of servable models with LRU eviction.

    Parameters
    ----------
    store:
        Conversion load-through target (a :class:`ResultStore`, a path,
        or ``None`` / ``False`` for off) -- the same convention as every
        other store consumer.
    max_bytes:
        Resident budget over :meth:`ServableModel.resident_bytes`;
        ``None`` means unbounded.  The most recently used model is always
        spared.
    """

    def __init__(self, store=None, max_bytes: Optional[int] = None):
        self._store = resolve_store(store)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self.stats = RegistryStats()
        self._lock = threading.RLock()
        #: key -> resident artifact, LRU-ordered (last = most recent).
        self._resident: "OrderedDict[str, ServableModel]" = OrderedDict()
        #: key -> how to reload it after eviction / restart.
        self._sources: Dict[str, ModelSource] = {}
        #: source token -> fingerprint, once a source has loaded before
        #: (lets register() short-circuit to a resident hit).
        self._token_keys: Dict[tuple, str] = {}
        #: dedup of concurrent loads, keyed by fingerprint or source token.
        self._inflight: Dict[object, _InFlightLoad] = {}

    # -- introspection ------------------------------------------------------------
    @property
    def store(self) -> Optional[ResultStore]:
        """The conversion load-through store (``None`` when disabled)."""
        return self._store

    def resident_keys(self) -> list:
        """Fingerprints currently resident, least recent first."""
        with self._lock:
            return list(self._resident)

    def resident_bytes(self) -> int:
        """Total resident model bytes."""
        with self._lock:
            return sum(m.resident_bytes() for m in self._resident.values())

    # -- loading ------------------------------------------------------------------
    def register(
        self,
        dataset: str,
        scale: ExperimentScale = BENCH_SCALE,
        seed: int = 0,
        use_cache: bool = True,
        cache_dir: Optional[str] = None,
    ) -> str:
        """Load a workload's model into the registry; returns its fingerprint.

        Idempotent and dedup'd: concurrent registrations of the same
        workload perform one load, and a workload already resident is a
        plain hit.
        """
        source = ModelSource(
            dataset=dataset, scale=scale, seed=int(seed),
            use_cache=use_cache, cache_dir=cache_dir,
        )
        model = self._load_dedup(source.token(), source)
        assert model.key is not None
        return model.key

    def get(self, key: str) -> ServableModel:
        """The resident model of a fingerprint (load-through on eviction).

        Raises :class:`KeyError` for fingerprints the registry has never
        seen -- without a source there is nothing to load through to.
        """
        with self._lock:
            model = self._resident.get(key)
            if model is not None:
                self._resident.move_to_end(key)
                self.stats.hits += 1
                return model
            source = self._sources.get(key)
        if source is None:
            raise KeyError(f"unknown model fingerprint {key!r}")
        with self._lock:
            self.stats.misses += 1
        return self._load_dedup(key, source)

    def _load_dedup(self, token, source: ModelSource) -> ServableModel:
        """Load a model exactly once per concurrent wave of requests."""
        with self._lock:
            # The register path arrives with a source token before knowing
            # the fingerprint: a source that loaded before resolves to its
            # key, and a resident key is a plain hit.
            key = token if isinstance(token, str) else self._token_keys.get(token)
            if key is not None and key in self._resident:
                self._resident.move_to_end(key)
                self.stats.hits += 1
                return self._resident[key]
            inflight = self._inflight.get(token)
            if inflight is None:
                inflight = self._inflight[token] = _InFlightLoad()
                owner = True
            else:
                owner = False
        if not owner:
            return inflight.wait()
        try:
            model = source.load(self._store)
        except BaseException as error:
            with self._lock:
                self._inflight.pop(token, None)
            inflight.fail(error)
            raise
        with self._lock:
            key = model.key
            if key is not None and key in self._resident:
                # A racing load of the same workload through a different
                # token landed first; serve its artifact and drop ours.
                model = self._resident[key]
                self._resident.move_to_end(key)
            elif key is not None:
                self._resident[key] = model
                self._sources[key] = source
                self.stats.loads += 1
                self._evict_over_budget()
            if key is not None and not isinstance(token, str):
                self._token_keys[token] = key
            self._inflight.pop(token, None)
        inflight.resolve(model)
        return model

    def _evict_over_budget(self) -> None:
        """Drop LRU models until the byte budget is met (caller holds lock)."""
        if self.max_bytes is None:
            return
        while len(self._resident) > 1 and (
            sum(m.resident_bytes() for m in self._resident.values())
            > self.max_bytes
        ):
            key, model = self._resident.popitem(last=False)
            self.stats.evictions += 1
            logger.info(
                "evicted model %s (%d bytes) over %d-byte budget",
                key[:12], model.resident_bytes(), self.max_bytes,
            )

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._resident

    def __len__(self) -> int:
        with self._lock:
            return len(self._resident)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ModelRegistry(resident={len(self)}, "
            f"stats={self.stats.as_dict()})"
        )
