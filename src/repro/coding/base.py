"""Coder interface.

A coder converts *normalised* activation values (in ``[0, 1]``, where 1
corresponds to the layer's conversion-time maximum activation) into spike
trains and back.  Values outside ``[0, 1]`` are clipped: that is not an
implementation shortcut but the saturation behaviour of a real converted SNN
-- a rate-coded neuron cannot fire more than once per step, a TTFS neuron
cannot fire before step 0 -- and it is what turns the weight-scaling
"over-activation" the paper discusses into a bounded effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.coding.protocol import SimulationProtocol, UnsupportedCoderError
from repro.snn.kernels import PSCKernel
from repro.snn.neurons import SpikingNeuron
from repro.snn.spikes import (
    DENSE_BACKEND,
    EVENTS_BACKEND,
    SpikeEvents,
    SpikeTrain,
    SpikeTrainArray,
    resolve_spike_backend,
)
from repro.utils.rng import RngLike
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class CoderConfig:
    """Common configuration shared by every coder.

    Attributes
    ----------
    num_steps:
        Length of the encoding time window ``T``.
    threshold:
        Firing threshold used when the coder instantiates spiking neurons for
        the time-stepped simulator; defaults to the paper's empirical value
        for the coding scheme.
    """

    num_steps: int
    threshold: Optional[float] = None

    def __post_init__(self) -> None:
        check_positive("num_steps", self.num_steps)
        if self.threshold is not None:
            check_positive("threshold", self.threshold)


class NeuralCoder:
    """Base class for neural coding schemes.

    Subclasses implement :meth:`encode_dense` (and, for sparse temporal
    codes, natively :meth:`encode_events`; for window-filling codes,
    :meth:`encode_classes`), :meth:`make_neuron` and report their kernel
    through :attr:`kernel`; kernel-based decoding comes for free from the
    base :meth:`decode`.
    """

    #: Registry name of the coding scheme ("rate", "phase", ...).
    name: str = "abstract"

    #: Spike-train backend this coder emits when the caller does not choose
    #: one (sparse temporal codes prefer ``"events"``).
    preferred_backend: str = DENSE_BACKEND

    #: Whether the scheme has a faithful per-layer correspondence in the
    #: time-stepped simulator (see :meth:`simulation_protocol`).  Class-level
    #: so sweep configs can validate methods by name without instantiating.
    supports_timestep: bool = False

    #: One-line statement of the correspondence (when supported) or of why
    #: none exists (when not) -- surfaced in errors and the README support
    #: matrix.
    timestep_note: str = (
        "no faithful per-layer neuron correspondence is defined for this "
        "coding scheme"
    )

    #: Whether the adversarial spike-timing attack engine
    #: (:mod:`repro.noise.adversarial`) can search this coding's input
    #: trains.  Requires an event-backend encoding whose decode is a pure
    #: function of the train (every built-in coder qualifies); class-level so
    #: attack configs can validate methods by name without instantiating.
    supports_adversarial: bool = False

    #: One-line statement of the attack surface (when supported) or of the
    #: capability gap (when not) -- surfaced in errors and the README
    #: support matrix.
    adversarial_note: str = (
        "no budgeted spike-timing perturbation space is defined for this "
        "coding scheme"
    )

    #: Whether :meth:`encode_classes` is implemented.  Decoding is
    #: ``sum_t w_t * c_t``, so when the window's steps fall into a few
    #: kernel-weight classes, a train of per-class spike counts decodes to
    #: the same activation as the time-resolved train at O(K*N) instead of
    #: O(T*N) cost.
    has_class_encoding: bool = False

    def __init__(self, num_steps: int):
        check_positive("num_steps", num_steps)
        self._num_steps = int(num_steps)
        self._cached_step_weights: Optional[np.ndarray] = None
        self._cached_decode_weights: Optional[np.ndarray] = None

    # -- basic properties ------------------------------------------------------
    @property
    def num_steps(self) -> int:
        """Length of the encoding window ``T``."""
        return self._num_steps

    @property
    def kernel(self) -> PSCKernel:
        """PSC kernel pairing spike times with post-synaptic weights."""
        raise NotImplementedError

    def step_weights(self) -> np.ndarray:
        """Kernel weights evaluated on this coder's time grid.

        Cached per coder instance (read-only): the kernel is immutable, so
        re-evaluating it on every decode call is pure waste.
        """
        if self._cached_step_weights is None:
            weights = np.asarray(
                self.kernel.weights(self.num_steps), dtype=np.float64
            )
            weights.setflags(write=False)
            self._cached_step_weights = weights
        return self._cached_step_weights

    def decode_weights(self) -> np.ndarray:
        """Cached float32 view of :meth:`step_weights` used by decoding.

        ``weighted_sum`` computes in float32; handing it an already-converted
        array avoids a per-call cast on both backends.
        """
        if self._cached_decode_weights is None:
            weights = self.step_weights().astype(np.float32)
            weights.setflags(write=False)
            self._cached_decode_weights = weights
        return self._cached_decode_weights

    # -- encoding / decoding ---------------------------------------------------
    def encode(
        self,
        values: np.ndarray,
        rng: RngLike = None,
        backend: Optional[str] = None,
    ) -> SpikeTrain:
        """Encode normalised activations ``values`` into spike trains.

        ``values`` may have any shape; the returned train covers
        ``(num_steps, *values.shape)``.  The representation is this
        coder's :attr:`preferred_backend` unless ``backend`` asks for the
        other one.
        """
        resolved = resolve_spike_backend(backend, self.preferred_backend)
        if resolved == EVENTS_BACKEND:
            return self.encode_events(values, rng=rng)
        return self.encode_dense(values, rng=rng)

    def encode_dense(self, values: np.ndarray, rng: RngLike = None) -> SpikeTrainArray:
        """Encode into the dense backend (subclass primitive)."""
        raise NotImplementedError

    def encode_events(self, values: np.ndarray, rng: RngLike = None) -> SpikeEvents:
        """Encode into the event backend.

        Sparse temporal coders override this with a native O(spikes)
        implementation; the default converts the dense encoding.
        """
        return self.encode_dense(values, rng=rng).to_events()

    def encode_classes(self, values: np.ndarray) -> SpikeTrainArray:
        """Encode into kernel-weight classes instead of time steps.

        Returns a train of shape ``(K, *values.shape)`` whose row ``k``
        counts the spikes of the whole window that carry the decode weight
        ``decode_weights()[k]``.  It holds every spike of the time-resolved
        encoding, so counting, deletion and dead-neuron masks -- which never
        look at a spike's step -- act on it exactly as on the full train.
        Implemented by coders with :attr:`has_class_encoding`; the dense
        encoding of such a coder is the expansion of these counts over the
        window.
        """
        raise NotImplementedError(f"{self.name} coding has no class encoding")

    def decode(self, train: SpikeTrain) -> np.ndarray:
        """Decode a spike train back into activation values.

        The default is the kernel-weighted sum shared by every coder; works
        on both backends through the common spike-train protocol.
        """
        return train.weighted_sum(self.decode_weights())

    def decode_classes(self, train: SpikeTrainArray) -> np.ndarray:
        """Decode a train of :meth:`encode_classes` (the class-domain :meth:`decode`)."""
        return train.weighted_sum(self.decode_weights()[: train.num_steps])

    def roundtrip(self, values: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Encode then decode (no noise): exposes the pure quantisation error."""
        return self.decode(self.encode(values, rng=rng))

    def expected_spike_count(self, values: np.ndarray) -> float:
        """Number of spikes used to encode ``values``.

        Counted on the class encoding where there is one; otherwise the
        default encodes and counts (one realisation for a stochastic code).
        Sparse temporal coders override this with a closed form.
        """
        if self.has_class_encoding:
            return float(self.encode_classes(values).total_spikes())
        return float(self.encode(values).total_spikes())

    # -- neurons for the time-stepped simulator --------------------------------
    def make_neuron(self, threshold: float) -> SpikingNeuron:
        """Neuron model implementing this coding in the time-stepped simulator."""
        raise NotImplementedError

    def simulation_protocol(
        self,
        num_hidden_interfaces: int,
        threshold: float,
        kernel_scale: float = 1.0,
    ) -> SimulationProtocol:
        """Per-layer temporal protocol for a network with the given depth.

        This is the faithful-simulator contract: where each spiking
        interface's window sits on the global time grid, what PSC weight its
        spikes carry (the coder's decode rule, applied by the downstream
        integrators and the readout), which neuron dynamics each hidden
        population runs, and over how many steps each segment's bias current
        is spread.  ``kernel_scale`` multiplies every emission kernel -- the
        faithful form of the paper's weight scaling ``W' = C W`` (spikes
        deliver ``C`` times their nominal charge; thresholds stay unscaled).

        Coders without a faithful correspondence raise
        :class:`~repro.coding.protocol.UnsupportedCoderError` naming the
        capability gap.
        """
        raise UnsupportedCoderError(
            f"the time-stepped simulator cannot faithfully model "
            f"{self.name} coding: {self.timestep_note}"
        )

    def default_threshold(self) -> float:
        """The paper's empirical threshold for this coding scheme."""
        from repro.snn.thresholds import empirical_threshold

        return empirical_threshold(self.name)

    # -- shared helpers ----------------------------------------------------------
    @staticmethod
    def _normalise(values: np.ndarray) -> np.ndarray:
        """Clip values into the representable range [0, 1] (saturation)."""
        return np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(num_steps={self.num_steps})"


class PeriodicCoder(NeuralCoder):
    """Base of the codes that repeat one spike pattern every period.

    Phase and burst coding quantise a value into :meth:`pattern` -- one
    0/1 flag per kernel-weight class ``k < K`` -- and emit it at steps
    ``k`` of every complete period.  Class ``k`` therefore carries
    ``pattern_k * num_periods`` spikes of weight ``decode_weights()[k]``,
    and decoding divides by ``num_periods`` so the whole window sums to the
    encoded activation.
    """

    has_class_encoding = True

    def __init__(self, num_steps: int, period: int):
        super().__init__(num_steps)
        check_positive("period", period)
        if period > num_steps:
            raise ValueError(
                f"period ({period}) cannot exceed num_steps ({num_steps})"
            )
        self.period = int(period)

    @property
    def num_periods(self) -> int:
        """Number of complete periods in the window (trailing steps stay silent)."""
        return self.num_steps // self.period

    def pattern(self, values: np.ndarray) -> np.ndarray:
        """Per-period spike flags, shape ``(K, *values.shape)`` (subclass primitive)."""
        raise NotImplementedError

    def encode_classes(self, values: np.ndarray) -> SpikeTrainArray:
        counts = self.pattern(values).astype(np.int32) * self.num_periods
        return SpikeTrainArray(counts, copy=False)

    def encode_dense(self, values: np.ndarray, rng: RngLike = None) -> SpikeTrainArray:
        classes = self.encode_classes(values).counts
        train = SpikeTrainArray.zeros(self.num_steps, classes.shape[1:])
        periods = train.counts[: self.num_periods * self.period].reshape(
            (self.num_periods, self.period) + classes.shape[1:]
        )
        periods[:, : classes.shape[0]] = classes // self.num_periods
        return train

    def decode(self, train: SpikeTrain) -> np.ndarray:
        return super().decode(train) / self.num_periods

    def decode_classes(self, train: SpikeTrainArray) -> np.ndarray:
        return super().decode_classes(train) / self.num_periods
