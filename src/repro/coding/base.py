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

import math
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.coding.protocol import SimulationProtocol, UnsupportedCoderError
from repro.snn.kernels import PSCKernel
from repro.snn.neurons import SpikingNeuron
from repro.snn.spikes import SpikeTrain, SpikeTrainArray
from repro.utils.rng import RngLike, default_rng
from repro.utils.validation import check_non_negative, check_positive


class ClassCounts(SpikeTrainArray):
    """A clean class encoding that knows the coder it came from.

    Returned by :meth:`NeuralCoder.encode_classes`.  Time-free transforms
    (deletion, dead-neuron masks) return a plain
    :class:`~repro.snn.spikes.SpikeTrainArray` as for any train; jitter,
    which moves spikes between steps, is resolved by the coder
    from the known steps of its uncorrupted encoding
    (:meth:`NeuralCoder.jitter_classes`).
    """

    __slots__ = ("coder",)

    def __init__(self, counts: np.ndarray, coder: "NeuralCoder"):
        super().__init__(counts, copy=False)
        self.coder = coder

    def jitter_spikes(self, sigma: float, rng: RngLike = None) -> SpikeTrainArray:
        return self.coder.jitter_classes(self, sigma, rng=rng)


class NeuralCoder:
    """Base class for neural coding schemes.

    Subclasses implement :meth:`encode` in the one representation that
    suits their code -- a dense :class:`~repro.snn.spikes.SpikeTrainArray`
    for the window-filling codes (rate, phase, burst, which also implement
    :meth:`encode_classes`), :class:`~repro.snn.spikes.SpikeEvents` for the
    sparse temporal codes (TTFS, TTAS) -- plus :meth:`make_neuron`, and
    report their kernel through :attr:`kernel`; kernel-based decoding comes
    for free from the base :meth:`decode`, which reads either.
    """

    #: Registry name of the coding scheme ("rate", "phase", ...).
    name: str = "abstract"

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
    def encode(self, values: np.ndarray, rng: RngLike = None) -> SpikeTrain:
        """Encode normalised activations ``values`` into spike trains.

        ``values`` may have any shape; the returned train covers
        ``(num_steps, *values.shape)`` in this coder's one representation
        (subclass primitive; it never calls up to this method).
        """
        raise NotImplementedError

    def encode_classes(self, values: np.ndarray) -> ClassCounts:
        """Encode into kernel-weight classes instead of time steps.

        Returns a train of shape ``(K, *values.shape)`` whose row ``k``
        counts the spikes of the whole window that carry the decode weight
        ``decode_weights()[k]``.  It holds every spike of the time-resolved
        encoding, so counting, deletion and dead-neuron masks -- which never
        look at a spike's step -- act on it exactly as on the full train,
        and jitter goes to :meth:`jitter_classes`.  Implemented by
        coders with :attr:`has_class_encoding`; the encoding of such a
        coder is the expansion of these counts over the window.
        """
        raise NotImplementedError(f"{self.name} coding has no class encoding")

    def jitter_classes(
        self, train: ClassCounts, sigma: float, rng: RngLike = None
    ) -> SpikeTrainArray:
        """Spike jitter of this coder's clean class encoding.

        Returns a class-domain train distributed as the per-class counts of
        ``train.jitter_spikes(sigma)`` on :meth:`encode`'s time grid: every
        spike moves by ``rint(N(0, sigma))`` steps, is clamped to the window
        and lands in the class of its new step.  ``train`` must be
        uncorrupted, since each spike's step is read off the encoding.
        Implemented by coders with :attr:`has_class_encoding`.
        """
        raise NotImplementedError(f"{self.name} coding has no class encoding")

    def decode(self, train: SpikeTrain) -> np.ndarray:
        """Decode a spike train back into activation values.

        The default is the kernel-weighted sum shared by every coder; works
        on both representations through the common spike-train protocol.
        """
        return train.weighted_sum(self.decode_weights())

    def decode_classes(self, train: SpikeTrainArray) -> np.ndarray:
        """Decode a train of :meth:`encode_classes` (the class-domain :meth:`decode`)."""
        return train.weighted_sum(self.decode_weights()[: train.num_steps])

    def roundtrip(self, values: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Encode then decode (no noise): exposes the pure quantisation error."""
        return self.decode(self.encode(values, rng=rng))

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


@lru_cache(maxsize=32)
def _landing_class_cdf(num_steps: int, period: int, sigma: float) -> np.ndarray:
    """Per-origin-step CDF of the class a clip-jittered spike lands in.

    Row ``s`` of the ``(num_steps, period)`` result is the CDF over classes
    ``j < period`` of ``clip(s + rint(N(0, sigma)), 0, num_steps - 1) mod
    period``; its last entry is exactly 1.  A spike lands at or before step
    ``t < num_steps - 1`` with probability ``Phi((t - s + 1/2) / sigma)``
    and at or before the last step surely, so one vector of normal-CDF
    values at the half-integer shifts covers every origin and the clipping
    at both window edges.  Read-only and cached: the evaluator calls it
    once per interface with the same arguments.
    """
    steps = np.arange(num_steps)
    scale = sigma * math.sqrt(2.0)
    # normal_cdf[d + num_steps] = P(rint(N(0, sigma)) <= d).
    normal_cdf = np.array(
        [0.5 * math.erfc(-(d + 0.5) / scale) for d in range(-num_steps, num_steps)]
    )
    # step_cdf[s, t] = P(landing step <= t | origin s).
    step_cdf = normal_cdf[steps[None, :] - steps[:, None] + num_steps]
    step_cdf[:, -1] = 1.0
    step_pmf = np.diff(step_cdf, axis=1, prepend=0.0)
    padded = -(-num_steps // period) * period
    step_pmf = np.pad(step_pmf, ((0, 0), (0, padded - num_steps)))
    class_pmf = step_pmf.reshape(num_steps, padded // period, period).sum(axis=1)
    cdf = np.cumsum(class_pmf, axis=1)
    cdf[:, -1] = 1.0
    cdf.setflags(write=False)
    return cdf


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

    def encode_classes(self, values: np.ndarray) -> ClassCounts:
        counts = self.pattern(values).astype(np.int32) * self.num_periods
        return ClassCounts(counts, self)

    def encode(self, values: np.ndarray, rng: RngLike = None) -> SpikeTrainArray:
        classes = self.encode_classes(values).counts
        train = SpikeTrainArray.zeros(self.num_steps, classes.shape[1:])
        periods = train.counts[: self.num_periods * self.period].reshape(
            (self.num_periods, self.period) + classes.shape[1:]
        )
        periods[:, : classes.shape[0]] = classes // self.num_periods
        return train

    def jitter_classes(
        self, train: ClassCounts, sigma: float, rng: RngLike = None
    ) -> SpikeTrainArray:
        """Landing-class draws: one uniform per spike, ``period`` class rows.

        Class ``k``'s spikes sit at steps ``k + p * period`` for ``p <
        num_periods``, and the kernel weights repeat every period, so a
        spike shifted to step ``t`` decodes as class ``t mod period`` --
        trailing steps past the last complete period included.  Each spike
        draws its landing class by inverting its origin's row of
        :func:`_landing_class_cdf` with one uniform; spike totals per neuron
        are kept exactly.  O(spikes * period) work, no time grid.
        """
        check_non_negative("sigma", sigma)
        if sigma == 0.0:
            return train.view()
        generator = default_rng(rng)
        period, num_periods = self.period, self.num_periods
        cdf = _landing_class_cdf(self.num_steps, period, float(sigma))
        counts = train.counts.reshape(train.num_steps, -1)
        num_neurons = counts.shape[1]
        # Flat (landing class, neuron) slot of every spike, filled class by
        # class.  Pattern flags are 0/1, so an occupied class slot holds one
        # spike per period; row p of a class block holds period p's spikes.
        slots = np.empty(int(counts.sum(dtype=np.int64)), dtype=np.int64)
        filled = 0
        for klass in range(counts.shape[0]):
            neurons = np.flatnonzero(counts[klass])
            rows = cdf[klass + period * np.arange(num_periods)]
            uniforms = generator.random((num_periods, neurons.size))
            # Inverse CDF: the landing class is the number of CDF entries
            # at or below the spike's uniform (the last entry is 1).
            landing = np.zeros(uniforms.shape, dtype=np.min_scalar_type(period - 1))
            for j in range(period - 1):
                landing += uniforms >= rows[:, j, None]
            block = slots[filled : filled + landing.size].reshape(landing.shape)
            np.multiply(landing, num_neurons, out=block, dtype=np.int64)
            block += neurons
            filled += landing.size
        jittered = np.bincount(slots, minlength=period * num_neurons)
        return SpikeTrainArray(
            jittered.reshape((period,) + train.population_shape), copy=False
        )

    def decode(self, train: SpikeTrain) -> np.ndarray:
        return super().decode(train) / self.num_periods

    def decode_classes(self, train: SpikeTrainArray) -> np.ndarray:
        return super().decode_classes(train) / self.num_periods
