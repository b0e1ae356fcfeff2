"""Immutable servable artifact shared by the pipeline and the serving layer.

A :class:`ServableModel` freezes everything that is fixed at conversion time
-- the converted network (with its calibration scales) and the conversion
fingerprint -- and memoises the derived objects that are expensive to
rebuild per request (coders and evaluator instances).  One instance can be shared by any number
of threads:

* the frozen fields never change after construction,
* the memo caches are guarded by a lock and their factories are pure, so a
  racing double-build is at worst wasted work, never a torn value,
* per-spec locks (:meth:`spec_lock`) let callers serialise the one genuinely
  stateful consumer -- the time-stepped simulator, whose neurons hold
  membrane state across a run -- without a global lock.

Both :class:`repro.core.pipeline.NoiseRobustSNN` and the serving subsystem
(:mod:`repro.serving`) consume the same artifact, so a model loaded once
serves sweeps and request traffic alike.  The conversion products are
persisted beside the trained weights by
:func:`repro.experiments.workloads.prepare_workload`, under the same
conversion fingerprint the artifact is addressed by.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from repro.coding.base import NeuralCoder
from repro.coding.registry import create_coder
from repro.conversion.converter import ConvertedSNN


def _freeze_kwargs(kwargs: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Canonical hashable form of a coder-kwargs dict (sorted items)."""
    return tuple(sorted(kwargs.items()))


@dataclass(frozen=True)
class ServableModel:
    """A frozen, shareable view of one converted network.

    Attributes
    ----------
    network:
        The converted network.  Treated as immutable: every consumer that
        needs to mutate weights (quantisation ablations, adversarial
        rescaling) must copy first -- the convention the evaluators already
        follow.
    key:
        The conversion fingerprint
        (:func:`repro.experiments.workloads.conversion_key`) the artifact is
        addressed by in the registry; ``None`` for hand-built networks.
    """

    network: ConvertedSNN
    key: Optional[str] = None
    _cache: Dict[Hashable, Any] = field(
        default_factory=dict, repr=False, compare=False
    )
    _locks: Dict[Hashable, threading.RLock] = field(
        default_factory=dict, repr=False, compare=False
    )
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    # -- construction ------------------------------------------------------------
    @classmethod
    def wrap(cls, network) -> "ServableModel":
        """Coerce a network into a servable; existing servables pass through.

        The pass-through matters: it keeps one memo cache per artifact alive
        across the pipeline facade, the registry and the scheduler instead
        of rebuilding coders and evaluators at every layer boundary.
        """
        if isinstance(network, ServableModel):
            return network
        if not isinstance(network, ConvertedSNN):
            raise TypeError(
                f"expected a ConvertedSNN or ServableModel, got "
                f"{type(network).__name__}"
            )
        return cls(network=network)

    # -- thread-safe memoisation ---------------------------------------------------
    def cached(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Return ``factory()`` memoised under ``key`` (double-checked lock).

        The factory runs outside the lock so slow builds (a time-stepped
        simulator's bias images) do not serialise unrelated lookups; a
        racing duplicate build is discarded in favour of the first one
        installed, so every caller observes one consistent object.
        """
        with self._lock:
            if key in self._cache:
                return self._cache[key]
        value = factory()
        with self._lock:
            return self._cache.setdefault(key, value)

    def spec_lock(self, key: Hashable) -> threading.RLock:
        """A lock dedicated to ``key`` (created on first request).

        Serialises the stateful consumers of one memoised object -- e.g.
        runs of a time-stepped simulator, whose neuron populations carry
        membrane state -- while leaving other specs of the same model free
        to run concurrently.
        """
        with self._lock:
            lock = self._locks.get(key)
            if lock is None:
                lock = self._locks[key] = threading.RLock()
            return lock

    # -- derived artifacts ---------------------------------------------------------
    def coder(self, coding: str, num_steps: int, **coder_kwargs) -> NeuralCoder:
        """The memoised coder of a (coding, num_steps, kwargs) combination.

        Coders are shareable: their only mutable state is idempotent weight
        caches (:class:`repro.coding.base.NeuralCoder` memoises its step /
        decode weights on first use), so handing one instance to many
        threads is safe and keeps those caches warm across requests.
        """
        cache_key = ("coder", coding, int(num_steps), _freeze_kwargs(coder_kwargs))
        try:
            hash(cache_key)
        except TypeError:
            # Unhashable kwarg (exotic caller): fall back to a fresh coder.
            return create_coder(coding, num_steps=int(num_steps), **coder_kwargs)
        return self.cached(
            cache_key,
            lambda: create_coder(coding, num_steps=int(num_steps), **coder_kwargs),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        short = (self.key or "unkeyed")[:12]
        return (
            f"ServableModel(key={short!r}, network={self.network.source_name!r}, "
            f"segments={len(self.network.segments)})"
        )
