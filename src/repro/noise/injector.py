"""Composite noise injection."""

from __future__ import annotations

from typing import List, Sequence

from repro.noise.base import IdentityNoise, SpikeNoise
from repro.noise.deletion import DeletionNoise
from repro.noise.faults import BurstErrorNoise, DeadNeuronNoise, StuckAtFireNoise
from repro.noise.jitter import JitterNoise
from repro.snn.spikes import SpikeTrain
from repro.utils.rng import RngLike, derive_rng

#: Every noise axis a sweep can walk: the paper's i.i.d. transmission noise
#: (deletion, jitter) and the hardware-fault models (dead, stuck-at-fire,
#: burst errors), each a keyword of :meth:`NoiseRobustSNN.evaluate
#: <repro.core.pipeline.NoiseRobustSNN.evaluate>`.
NOISE_KINDS = ("deletion", "jitter", "dead", "stuck", "burst_error")

#: The fixed application order of :meth:`NoiseInjector.from_levels`, by model
#: name.  Part of the public determinism contract: transmission noise -- the
#: i.i.d. models (deletion, jitter) then the correlated burst errors -- acts
#: on the spikes in flight, so it is applied before the persistent circuit
#: faults (dead, stuck-at-fire) of the receiving population.  The order is
#: load-bearing twice over: the models do not commute (a stuck-at-fire
#: neuron's forced spikes must not be re-deleted; jitter must not move spikes
#: into a window a burst error already erased), and each model's RNG stream
#: is keyed by ``(name, position)``, so reordering would also change every
#: realisation.  Regression-tested in ``tests/test_noise.py``.
COMPOSITION_ORDER = ("deletion", "jitter", "burst_error", "dead", "stuck")


class NoiseInjector(SpikeNoise):
    """Apply a sequence of noise models one after the other.

    The injector is itself a :class:`SpikeNoise`, so experiments can treat a
    combined "deletion then jitter" corruption exactly like a single model.
    Each constituent model receives an independent random stream derived from
    the caller's generator, so adding a model never changes the realisation
    of the others.
    """

    name = "composite"

    def __init__(self, models: Sequence[SpikeNoise]):
        self.models: List[SpikeNoise] = [m for m in models if m is not None]

    @classmethod
    def from_levels(
        cls,
        deletion_probability: float = 0.0,
        jitter_sigma: float = 0.0,
        burst_error_fraction: float = 0.0,
        dead_fraction: float = 0.0,
        stuck_fraction: float = 0.0,
    ) -> "NoiseInjector":
        """Build an injector from scalar noise levels (0 disables a model).

        Models are composed in the fixed :data:`COMPOSITION_ORDER`
        (deletion -> jitter -> burst_error -> dead -> stuck): the i.i.d.
        transmission noise and the correlated burst errors act on the spikes
        in flight, so they are applied before the persistent circuit faults
        (dead, stuck-at-fire) of the receiving population.  The order is
        deterministic on every backend and part of every sweep cell's
        reproducibility contract (see :data:`COMPOSITION_ORDER` for why it
        cannot be permuted silently).  The timing and fault models (jitter,
        burst, dead, stuck) are additionally *backend-invariant* -- dense and
        event trains realise bit-identical corruptions.  Deletion draws one
        uniform per slot of a binary dense grid, one per event on the event
        backend (the O(events) thinning optimisation) and one binomial per
        occupied ``(class, neuron)`` slot on a class-domain train (the
        transport evaluator's path for window-filling codes, see
        :meth:`~repro.coding.base.NeuralCoder.encode_classes`).  Each spike
        survives independently with probability ``1 - p`` in all three, so
        the realisations are identically distributed without being
        bit-identical.  Jitter on a clean class encoding draws
        one uniform per spike for its landing class (phase, burst) or
        nothing (rate, whose decode ignores the step) instead of one normal
        per spike on the grid: the same distribution of per-class counts,
        a different realisation.  ``tests/test_class_transport.py`` checks
        both against the dense grid.  Dead masks are drawn over the feature
        axes, so a class-domain train gets the same mask as the time grid
        from the same stream.

        The class path takes an injector whose first model
        :attr:`~repro.noise.base.SpikeNoise.acts_on_classes` and whose
        later models are all time-free.  These keep the time grid: deletion
        before jitter (``NoiseRobustSNN.evaluate`` with both levels set),
        burst errors and stuck-at-fire (the ``fault-burst``/``fault-stuck``
        figures, ``table3-burst``/``table3-stuck``); injected attack trains
        and the faithful simulator's input noise (``TimestepEvaluator``)
        never reach it.
        """
        models: List[SpikeNoise] = []
        if deletion_probability > 0:
            models.append(DeletionNoise(deletion_probability))
        if jitter_sigma > 0:
            models.append(JitterNoise(jitter_sigma))
        if burst_error_fraction > 0:
            models.append(BurstErrorNoise(burst_error_fraction))
        if dead_fraction > 0:
            models.append(DeadNeuronNoise(dead_fraction))
        if stuck_fraction > 0:
            models.append(StuckAtFireNoise(stuck_fraction))
        if not models:
            models.append(IdentityNoise())
        return cls(models)

    @property
    def time_free(self) -> bool:
        """Time-free when every constituent model is."""
        return all(model.time_free for model in self.models)

    @property
    def acts_on_classes(self) -> bool:
        """The first model may act on a clean class encoding, the rest are time-free.

        Only the first model sees the coder's uncorrupted encoding: after
        deletion, a class count no longer says which periods its survivors
        sit in, so deletion before jitter keeps the time grid.
        """
        first, *rest = self.models or [IdentityNoise()]
        return first.acts_on_classes and all(model.time_free for model in rest)

    def apply(self, train: SpikeTrain, rng: RngLike = None) -> SpikeTrain:
        result = train
        for index, model in enumerate(self.models):
            result = model.apply(result, rng=derive_rng(rng, model.name, index))
        # Noise models never mutate their input, so a buffer-sharing view is
        # enough to keep the returned train distinct from the argument.
        return result if result is not train else train.view()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NoiseInjector({self.models!r})"
