"""The spike-noise value: five noise levels applied as one corruption.

The paper models the dynamic noise of analog neuromorphic hardware as noisy
*output spikes* rather than noisy parameters (Sec. II-B), applied to every
spike transmission (Sec. III):

* **deletion** -- every spike is dropped independently with probability
  ``p``, so the expected post-synaptic current of an activation ``A``
  becomes ``(1 - p) * A`` (the loss weight scaling compensates);
* **jitter** -- every spike time is shifted by Gaussian noise of standard
  deviation ``sigma``, quantised to whole steps and clipped to the window.

As extensions, three structured hardware faults:

* **burst_error** -- correlated transmission loss: one contiguous window of
  ``round(fraction * T)`` steps is dropped wholesale, its start uniform over
  the valid range;
* **dead** -- stuck-at-silent circuits: each neuron never spikes with
  probability ``fraction``;
* **stuck** -- stuck-at-fire circuits: each neuron emits exactly one spike
  per step with probability ``fraction``, overriding its activity.

Dead and stuck masks are drawn once per application over the feature axes,
so they persist across steps and a leading batch axis shares them.  Every
kind goes through the shared train protocol (``delete_spikes``,
``jitter_spikes``, ``drop_window``, ``mask_neurons``, ``force_firing``), so
the corrupted train keeps the input's representation and the input is never
mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.snn.spikes import SpikeTrain
from repro.utils.rng import RngLike, derive_rng
from repro.utils.validation import check_non_negative, check_probability

#: Every noise axis a sweep can walk: the paper's i.i.d. transmission noise
#: (deletion, jitter) and the hardware-fault models (dead, stuck-at-fire,
#: burst errors), each a level of :class:`NoiseInjector` and a keyword of
#: :meth:`NoiseRobustSNN.evaluate <repro.core.pipeline.NoiseRobustSNN.evaluate>`.
NOISE_KINDS = ("deletion", "jitter", "dead", "stuck", "burst_error")

#: The fixed application order of :meth:`NoiseInjector.apply`, by level
#: name.  Part of the public determinism contract: transmission noise -- the
#: i.i.d. kinds (deletion, jitter) then the correlated burst errors -- acts
#: on the spikes in flight, so it is applied before the persistent circuit
#: faults (dead, stuck-at-fire) of the receiving population.  The order is
#: load-bearing twice over: the kinds do not commute (a stuck-at-fire
#: neuron's forced spikes must not be re-deleted; jitter must not move spikes
#: into a window a burst error already erased), and each kind's RNG stream
#: is keyed by ``(name, position)``, so reordering would also change every
#: realisation.  Regression-tested in ``tests/test_noise.py`` and pinned by
#: ``tests/test_noise_golden.py``.
COMPOSITION_ORDER = ("deletion", "jitter", "burst_error", "dead", "stuck")


def _feature_shape(train: SpikeTrain) -> Tuple[int, ...]:
    """Axes a persistent fault mask is drawn over.

    Multi-dimensional populations carry the batch on axis 0 (the transport
    evaluator's interface trains are ``(batch, *features)``), and a hardware
    fault hits the same physical neuron for every sample; 1-D populations
    are a bare feature vector.
    """
    population = train.population_shape
    return population[1:] if len(population) > 1 else population


def _apply_level(train: SpikeTrain, name: str, level: float, generator) -> SpikeTrain:
    """The train op of one non-zero level, drawing from ``generator``."""
    if name == "deletion":
        return train.delete_spikes(level, rng=generator)
    if name == "jitter":
        return train.jitter_spikes(level, rng=generator)
    if name == "burst_error":
        num_steps = train.num_steps
        width = int(round(level * num_steps))
        if width <= 0:
            return train
        start = int(generator.integers(0, num_steps - width + 1))
        return train.drop_window(start, start + width)
    hit = generator.random(size=_feature_shape(train)) < level
    return train.mask_neurons(~hit) if name == "dead" else train.force_firing(hit)


@dataclass(frozen=True)
class NoiseInjector:
    """Five noise levels, applied in :data:`COMPOSITION_ORDER` (0 disables one).

    ``deletion`` is a probability, ``jitter`` a standard deviation in time
    steps, ``burst_error`` / ``dead`` / ``stuck`` fractions in ``[0, 1]``.
    ``NoiseInjector()`` is the clean value, the evaluators' default.  Each
    non-zero level draws from its own stream ``derive_rng(rng, name,
    position)``, ``position`` counting the non-zero levels before it, so a
    level's realisation does not depend on the levels after it.

    The timing and fault kinds (jitter, burst, dead, stuck) are
    *backend-invariant*: dense and event trains realise bit-identical
    corruptions.  Deletion draws one uniform per slot of a binary dense grid
    but one per event on the event backend (the O(events) thinning
    optimisation), so on a binary train the two realisations are identically
    distributed without being bit-identical; a count train, class-domain
    trains included (the transport evaluator's path for window-filling
    codes, see :meth:`~repro.coding.base.NeuralCoder.encode_classes`), is
    thinned with one binomial per occupied slot.  Jitter on a clean class
    encoding draws one uniform per spike for its landing class (phase,
    burst) or nothing (rate, whose decode ignores the step) instead of one
    normal per spike on the grid: the same distribution of per-class
    counts, a different realisation.  ``tests/test_class_transport.py``
    checks both against the dense grid.  Dead masks are drawn over the
    feature axes, so a class-domain train gets the same mask as the time
    grid from the same stream.
    """

    deletion: float = 0.0
    jitter: float = 0.0
    burst_error: float = 0.0
    dead: float = 0.0
    stuck: float = 0.0

    def __post_init__(self) -> None:
        for name in COMPOSITION_ORDER:
            check = check_non_negative if name == "jitter" else check_probability
            object.__setattr__(self, name, float(check(name, getattr(self, name))))

    @classmethod
    def from_levels(
        cls,
        deletion_probability: float = 0.0,
        jitter_sigma: float = 0.0,
        burst_error_fraction: float = 0.0,
        dead_fraction: float = 0.0,
        stuck_fraction: float = 0.0,
    ) -> "NoiseInjector":
        """The injector of these levels, each keyword named with its unit.

        Equal to ``NoiseInjector(deletion=..., jitter=..., ...)``.  It stays
        because scripts outside the package build their noise by these
        keyword names (perfbench's ``paper-window`` workload does).
        """
        return cls(
            deletion=deletion_probability, jitter=jitter_sigma,
            burst_error=burst_error_fraction, dead=dead_fraction,
            stuck=stuck_fraction,
        )

    @property
    def is_clean(self) -> bool:
        """No level is set: :meth:`apply` draws nothing and changes nothing."""
        return not any(getattr(self, name) for name in COMPOSITION_ORDER)

    @property
    def acts_on_classes(self) -> bool:
        """Whether this noise may corrupt a *clean* class encoding.

        The transport evaluator's one routing rule for its class path.
        Deletion and dead faults act on each spike or neuron without
        looking at its step, so they apply to a class-domain train with the
        time grid's distribution.  Jitter applies to the coder's clean class
        encoding, whose spike steps are known (see
        :class:`~repro.coding.base.ClassCounts`), but not after deletion: a
        thinned class count no longer says which periods its survivors sit
        in.  Burst errors and stuck-at-fire need the time grid.
        """
        return (
            self.burst_error == 0.0
            and self.stuck == 0.0
            and not (self.deletion > 0.0 and self.jitter > 0.0)
        )

    def apply(self, train: SpikeTrain, rng: RngLike = None) -> SpikeTrain:
        """Return a noisy version of ``train`` (the input is left untouched)."""
        active = [name for name in COMPOSITION_ORDER if getattr(self, name) > 0.0]
        result = train
        for position, name in enumerate(active):
            result = _apply_level(
                result, name, getattr(self, name), derive_rng(rng, name, position)
            )
        # The train ops never mutate their input, so a buffer-sharing view is
        # enough to keep the returned train distinct from the argument.
        return result if result is not train else train.view()
