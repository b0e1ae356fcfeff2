"""Noise-model interface."""

from __future__ import annotations

from repro.snn.spikes import SpikeTrain
from repro.utils.rng import RngLike


class SpikeNoise:
    """Base class of spike-train noise models.

    A noise model is a stochastic transform of a spike train (either the
    dense or the event-driven backend -- models go through the shared train
    protocol and preserve the input's representation).  Implementations must
    not mutate the input train; with that contract, no-op paths may return a
    buffer-sharing view instead of a defensive copy.
    """

    #: Registry-style name used in experiment configs and reports.
    name: str = "noise"

    #: Whether the model acts on each spike or neuron without looking at its
    #: time step.  Such a model may also be applied to a class-domain train
    #: (:meth:`~repro.coding.base.NeuralCoder.encode_classes`), whose leading
    #: axis is a kernel-weight class instead of a step, and corrupts it with
    #: the same distribution as the time-resolved train.
    time_free: bool = False

    @property
    def acts_on_classes(self) -> bool:
        """Whether the model may corrupt a *clean* class encoding.

        The transport evaluator's one routing rule for its class path.  A
        time-free model qualifies on any class-domain train; jitter
        qualifies on the coder's uncorrupted encoding, whose spike
        steps are known (see :class:`~repro.coding.base.ClassCounts`).
        """
        return self.time_free

    def apply(self, train: SpikeTrain, rng: RngLike = None) -> SpikeTrain:
        """Return a noisy version of ``train`` (the input is left untouched)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class IdentityNoise(SpikeNoise):
    """The no-noise baseline ("Clean" rows of the paper's tables)."""

    name = "clean"
    time_free = True

    def apply(self, train: SpikeTrain, rng: RngLike = None) -> SpikeTrain:
        return train.view()
