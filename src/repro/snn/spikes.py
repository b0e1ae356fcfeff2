"""Spike-train containers: one representation per kind of code.

Two representations of the spike trains of a neuron population over a
finite time window are provided:

* :class:`SpikeTrainArray` -- a dense integer array of shape
  ``(T, *population_shape)`` where entry ``[t, ...]`` holds the number of
  spikes the neuron emits at step ``t``.  Operations are vectorised numpy
  expressions over the full ``T x N`` grid, which is simple and fast for
  the window-filling codes (rate, phase, burst); the noise kernels draw
  their random numbers per occupied slot (count-train deletion) or per
  spike (jitter).
* :class:`SpikeEvents` -- an event list ``(times, neuron_indices, counts)``
  holding one entry per occupied ``(step, neuron)`` slot.  Temporal codes
  (TTFS emits at most one spike per neuron, TTAS at most ``t_a``) leave the
  dense grid >=95 % zeros, so deletion, jitter and kernel decoding cost
  O(spikes) on events instead of O(T*N) on the grid -- the same economy that
  makes event-driven neuromorphic hardware efficient.

Each coder's ``encode`` returns one of them: a dense train for rate, phase
and burst, events for TTFS and TTAS.  Both classes expose the same protocol
(``total_spikes``, ``weighted_sum``, ``window_counts``, ``delete_spikes``,
``jitter_spikes``, the fault transforms, ...), so noise models, decoders
and both evaluators work on either without branching.  ``to_dense()`` and
``to_events()`` convert losslessly where a caller needs the other one (the
attack engine searches event trains of every code).

Trains are immutable by convention: transforms return new containers and never
modify their input, which lets zero-noise fast paths share buffers through
:meth:`view` instead of copying.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.utils.rng import RngLike, default_rng
from repro.utils.validation import check_positive

#: Largest count one ``(step, neuron)`` slot of a dense train can hold.
MAX_SPIKE_COUNT = int(np.iinfo(np.int16).max)


def _nonzero_slots(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flat C-order indices and counts of the occupied slots of ``counts``.

    The indices walk the array in C order whatever its memory layout, the
    same order a 2-D ``np.nonzero`` of the ``(T, N)`` reshape gives, so
    per-slot random draws pair with the same slots.
    """
    flat = counts.reshape(-1)
    index = np.flatnonzero(flat != 0)
    return index, flat[index]


def _slot_steps(index: np.ndarray, num_steps: int, num_neurons: int) -> np.ndarray:
    """The time step of each sorted flat slot index of a ``(T, N)`` grid.

    Each step's slots form one contiguous run of the sorted indices, so the
    steps follow from where the step boundaries fall: O(T log S) searches
    and one fill instead of a division per slot.
    """
    bounds = np.searchsorted(index, np.arange(num_steps + 1) * num_neurons)
    return np.repeat(np.arange(num_steps), np.diff(bounds))


def _check_fits_grid(counts: np.ndarray) -> None:
    """Raise where a slot count would wrap in the int16 count grid."""
    if counts.max(initial=0) > MAX_SPIKE_COUNT:
        raise ValueError(
            f"spike counts above {MAX_SPIKE_COUNT} do not fit the int16 count grid"
        )


def _broadcast_population_mask(
    mask: np.ndarray, population_shape: Tuple[int, ...]
) -> np.ndarray:
    """Validate that a boolean ``mask`` broadcasts over ``population_shape``.

    Fault masks are usually drawn over the trailing (feature) axes only, so
    the same physical neurons are hit for every element of a leading batch
    axis; numpy broadcasting gives exactly that alignment.
    """
    mask = np.asarray(mask, dtype=bool)
    try:
        if np.broadcast_shapes(tuple(population_shape), mask.shape) != tuple(
            population_shape
        ):
            raise ValueError
    except ValueError:
        raise ValueError(
            f"mask of shape {mask.shape} does not broadcast over population "
            f"{tuple(population_shape)}"
        ) from None
    return mask


def _resolve_window(
    window: Optional[Tuple[int, Optional[int]]], num_steps: int
) -> Tuple[int, int]:
    """Clip a ``(start, stop)`` step window to ``[0, num_steps]``.

    ``window=None`` means the whole train; ``stop=None`` means "until the
    end" (mirrors the neuron fire-window convention).
    """
    if window is None:
        return 0, num_steps
    start, stop = window
    start = max(int(start), 0)
    stop = num_steps if stop is None else min(int(stop), num_steps)
    return start, max(stop, start)


class SpikeTrainArray:
    """Dense spike-count representation of a population over a time window.

    Parameters
    ----------
    counts:
        Integer array of shape ``(T, *population_shape)`` with per-step spike
        counts.  Copied defensively unless ``copy=False``.
    copy:
        Skip the defensive copy (used internally by transforms that already
        own the buffer).
    """

    __slots__ = ("counts",)

    def __init__(self, counts: np.ndarray, copy: bool = True):
        counts = np.asarray(counts)
        if counts.ndim < 2:
            raise ValueError(
                f"spike counts need shape (T, *population), got {counts.shape}"
            )
        if counts.dtype.kind not in "iu" and not np.all(counts == np.round(counts)):
            raise ValueError("spike counts must be integers")
        # Range checks run on the caller's values, before the int16 cast
        # could wrap them.
        if counts.size:
            if counts.min() < 0:
                raise ValueError("spike counts cannot be negative")
            if counts.dtype != np.int16:
                _check_fits_grid(counts)
        if counts.dtype == np.int16:
            self.counts = counts.copy() if copy else counts
        else:
            self.counts = counts.astype(np.int16)

    # -- constructors --------------------------------------------------------
    @classmethod
    def zeros(cls, num_steps: int, population_shape: Tuple[int, ...]) -> "SpikeTrainArray":
        """An empty spike train of ``num_steps`` steps for the given population."""
        check_positive("num_steps", num_steps)
        shape = (int(num_steps),) + tuple(int(s) for s in population_shape)
        return cls(np.zeros(shape, dtype=np.int16), copy=False)

    # -- basic properties ----------------------------------------------------
    @property
    def num_steps(self) -> int:
        """Length of the time window ``T``."""
        return int(self.counts.shape[0])

    @property
    def population_shape(self) -> Tuple[int, ...]:
        """Shape of the neuron population (everything but the time axis)."""
        return tuple(self.counts.shape[1:])

    @property
    def num_neurons(self) -> int:
        """Total number of neurons in the population."""
        return int(np.prod(self.population_shape)) if self.population_shape else 0

    def total_spikes(self) -> int:
        """Total number of spikes in the window."""
        return int(self.counts.sum())

    def occupied_slots(self) -> int:
        """Number of ``(step, neuron)`` slots that carry at least one spike."""
        return int(np.count_nonzero(self.counts))

    def copy(self) -> "SpikeTrainArray":
        """Deep copy."""
        return SpikeTrainArray(self.counts.copy(), copy=False)

    def view(self) -> "SpikeTrainArray":
        """New wrapper sharing this train's buffer (trains are immutable)."""
        return SpikeTrainArray(self.counts, copy=False)

    # -- conversion ----------------------------------------------------------
    def to_dense(self) -> "SpikeTrainArray":
        """This train (already dense)."""
        return self

    def to_events(self) -> "SpikeEvents":
        """Lossless conversion to an event list."""
        index, counts = _nonzero_slots(self.counts)
        times = _slot_steps(index, self.num_steps, self.num_neurons)
        neurons = index - times * self.num_neurons
        # The slots arrive in C order, so the events are already sorted by
        # (time, neuron) with unique slots: canonical by design.
        return SpikeEvents(
            times, neurons, counts, self.num_steps, self.population_shape,
            _canonical=True,
        )

    # -- window queries ------------------------------------------------------
    def window_counts(
        self, start: int, stop: Optional[int] = None
    ) -> np.ndarray:
        """Dense per-step counts for steps ``[start, stop)`` only.

        Returns an array of shape ``(stop - start, *population_shape)``; a
        view of the underlying buffer -- treat it as read-only.
        ``stop=None`` means "until the end".
        """
        start, stop = _resolve_window((start, stop), self.num_steps)
        return self.counts[start:stop]

    # -- transformations -----------------------------------------------------
    def weighted_sum(self, weights_per_step: np.ndarray) -> np.ndarray:
        """Sum of per-spike weights for every neuron.

        ``weights_per_step`` has shape ``(T,)`` and gives the post-synaptic
        contribution of a spike arriving at each step; the result has the
        population shape.  This is the decoding primitive every kernel-based
        coder uses.
        """
        weights_per_step = np.asarray(weights_per_step)
        if weights_per_step.shape != (self.num_steps,):
            raise ValueError(
                f"weights_per_step must have shape ({self.num_steps},), "
                f"got {weights_per_step.shape}"
            )
        # einsum avoids materialising the full weighted (T, *population) array.
        flat = self.counts.reshape(self.num_steps, -1)
        result = np.einsum(
            "t,tn->n",
            weights_per_step.astype(np.float32, copy=False),
            flat.astype(np.float32),
        )
        return result.reshape(self.population_shape).astype(np.float64)

    def delete_spikes(self, probability: float, rng: RngLike = None) -> "SpikeTrainArray":
        """Return a train with every spike independently deleted with ``probability``.

        Binary trains draw one uniform per slot.  Count trains (class counts,
        pile-ups) are thinned binomially, which is exact for counts > 1, with
        one draw per *occupied* slot: ``binomial(0, q)`` consumes no random
        numbers, so thinning only the nonzero slots in C order realises the
        same survivors as thinning the whole array, at O(occupied slots).
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must lie in [0, 1], got {probability}")
        if probability == 0.0:
            return self.view()
        generator = default_rng(rng)
        if self.counts.max(initial=0) <= 1:
            # Fast path for binary trains: one uniform draw per slot.
            keep = generator.random(self.counts.shape, dtype=np.float32) >= probability
            survivors = (self.counts * keep).astype(np.int16, copy=False)
        else:
            index, counts = _nonzero_slots(self.counts)
            # A fresh C-ordered buffer: zeros_like would keep a strided
            # input's layout, and reshape(-1) of that is a copy that would
            # silently drop the assignment.
            survivors = np.zeros(self.counts.shape, dtype=np.int16)
            survivors.reshape(-1)[index] = generator.binomial(counts, 1.0 - probability)
        return SpikeTrainArray(survivors, copy=False)

    def jitter_spikes(
        self,
        sigma: float,
        rng: RngLike = None,
    ) -> "SpikeTrainArray":
        """Return a train with every spike time shifted by quantised Gaussian noise.

        Each individual spike is moved by ``round(N(0, sigma))`` steps.  Spikes
        pushed outside the window are clamped to the window edge.

        The normal draws go to the spikes in C order of their ``(step,
        neuron)`` slots, found with one flat scan of the grid; only the
        final ``bincount`` touches every slot.  A slot that gathers more than
        :data:`MAX_SPIKE_COUNT` spikes raises instead of wrapping.
        """
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        if sigma == 0.0:
            return self.view()
        generator = default_rng(rng)
        index, multiplicity = _nonzero_slots(self.counts)
        if index.size == 0:
            return self.view()
        num_steps, num_neurons = self.num_steps, self.num_neurons
        times = _slot_steps(index, num_steps, num_neurons)
        if multiplicity.max() > 1:
            times = np.repeat(times, multiplicity)
            index = np.repeat(index, multiplicity)
        shifts = generator.normal(0.0, sigma, size=index.shape)
        shifted = np.rint(shifts, out=shifts).astype(np.int64)
        shifted += times
        np.clip(shifted, 0, num_steps - 1, out=shifted)
        # Move each spike's flat slot index by its step shift, in place.
        shifted -= times
        shifted *= num_neurons
        shifted += index
        new_counts = np.bincount(shifted, minlength=self.counts.size)
        new_counts = new_counts.reshape(self.counts.shape)
        if index.size <= MAX_SPIKE_COUNT:
            # No slot can exceed the spike total, so the cast cannot wrap.
            return SpikeTrainArray(new_counts.astype(np.int16), copy=False)
        return SpikeTrainArray(new_counts, copy=False)

    def mask_neurons(self, keep: np.ndarray) -> "SpikeTrainArray":
        """Return a train with all spikes of masked-out neurons removed.

        ``keep`` is a boolean array broadcast over the population (typically
        drawn over the feature axes only, so a leading batch axis shares the
        mask); neurons where it is ``False`` are silenced at every step --
        the stuck-at-silent / dead-neuron hardware fault.
        """
        keep = _broadcast_population_mask(keep, self.population_shape)
        if keep.all():
            return self.view()
        return SpikeTrainArray(
            np.where(keep, self.counts, np.int16(0)), copy=False
        )

    def force_firing(
        self,
        mask: np.ndarray,
        window: Optional[Tuple[int, Optional[int]]] = None,
    ) -> "SpikeTrainArray":
        """Return a train where masked neurons emit exactly one spike per step.

        Within ``window`` (default: the whole train) every neuron where
        ``mask`` is ``True`` has its count replaced by 1 -- the stuck-at-fire
        hardware fault.  Steps outside the window keep their original spikes.
        """
        mask = _broadcast_population_mask(mask, self.population_shape)
        start, stop = _resolve_window(window, self.num_steps)
        if not mask.any() or start >= stop:
            return self.view()
        out = self.counts.copy()
        out[start:stop] = np.where(mask, np.int16(1), out[start:stop])
        return SpikeTrainArray(out, copy=False)

    def drop_window(self, start: int, stop: int) -> "SpikeTrainArray":
        """Return a train with every spike in steps ``[start, stop)`` removed.

        The correlated (burst-error) counterpart of :meth:`delete_spikes`:
        spikes are dropped together in one contiguous time window instead of
        independently.
        """
        start, stop = _resolve_window((start, stop), self.num_steps)
        if start >= stop:
            return self.view()
        out = self.counts.copy()
        out[start:stop] = 0
        return SpikeTrainArray(out, copy=False)

    # -- dunder helpers --------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, SpikeEvents):
            return other == self
        if not isinstance(other, SpikeTrainArray):
            return NotImplemented
        return bool(np.array_equal(self.counts, other.counts))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpikeTrainArray(T={self.num_steps}, population={self.population_shape}, "
            f"spikes={self.total_spikes()})"
        )


class SpikeEvents:
    """Event-driven spike-train representation.

    Stores the train as three parallel arrays: ``times`` (step index),
    ``neuron_indices`` (flat index into the population) and ``event_counts``
    (spike multiplicity).  Events are brought into *canonical form* -- sorted
    by ``(time, neuron)`` with duplicate slots coalesced -- lazily, only when
    an operation needs it (equality, dense conversion, slot counting): the
    hot transforms (thinning, jitter shifts, kernel scatter-decode) are
    order-independent, so deferring the O(E log E) sort keeps them strictly
    O(events).

    All transforms cost O(events) instead of the dense train's O(T*N),
    which is why the sparse temporal codes (TTFS/TTAS) encode into it.

    Parameters
    ----------
    times / neuron_indices / counts:
        Parallel event arrays, in any order (duplicate slots allowed; they
        are coalesced on canonicalisation).  ``counts`` may be omitted
        (defaults to one spike per event); zero-count events are dropped
        at construction.
    num_steps:
        Window length ``T``.
    population_shape:
        Shape of the neuron population; ``neuron_indices`` index its
        flattened (C-order) layout.
    """

    __slots__ = ("times", "neuron_indices", "event_counts",
                 "_num_steps", "_population_shape", "_canonical")

    def __init__(
        self,
        times: np.ndarray,
        neuron_indices: np.ndarray,
        counts: Optional[np.ndarray],
        num_steps: int,
        population_shape: Tuple[int, ...],
        _canonical: bool = False,
    ):
        check_positive("num_steps", num_steps)
        self._num_steps = int(num_steps)
        self._population_shape = tuple(int(s) for s in population_shape)
        if not self._population_shape:
            raise ValueError("population_shape must have at least one dimension")

        times = np.asarray(times, dtype=np.int64).reshape(-1)
        neuron_indices = np.asarray(neuron_indices, dtype=np.int64).reshape(-1)
        if counts is None:
            counts = np.ones(times.shape, dtype=np.int64)
        else:
            counts = np.asarray(counts)
            if counts.dtype.kind not in "iu":
                if not np.all(counts == np.round(counts)):
                    raise ValueError("spike counts must be integers")
            counts = counts.astype(np.int64).reshape(-1)
        if not (times.shape == neuron_indices.shape == counts.shape):
            raise ValueError(
                "times, neuron_indices and counts must have the same length"
            )
        if times.size:
            if times.min() < 0 or times.max() >= self._num_steps:
                raise ValueError(f"spike times must lie in [0, {self._num_steps})")
            if neuron_indices.min() < 0 or neuron_indices.max() >= self.num_neurons:
                raise ValueError(
                    f"neuron indices must lie in [0, {self.num_neurons})"
                )
            if counts.min() < 0:
                raise ValueError("spike counts cannot be negative")
            if counts.min() == 0:
                # Drop zero-count events eagerly: the order-independent fast
                # paths (jitter) trust every event to carry at least one
                # spike.
                nonzero = counts > 0
                times = times[nonzero]
                neuron_indices = neuron_indices[nonzero]
                counts = counts[nonzero]
        self.times = times
        self.neuron_indices = neuron_indices
        self.event_counts = counts
        self._canonical = bool(_canonical) or times.size == 0

    def _ensure_canonical(self) -> None:
        """Bring the event arrays into canonical form (idempotent).

        The train's semantic content is unchanged, so this is safe even on
        buffer-sharing views (the view re-binds its own references only).
        """
        if not self._canonical:
            self.times, self.neuron_indices, self.event_counts = self._canonicalise(
                self.times, self.neuron_indices, self.event_counts, self.num_neurons
            )
            self._canonical = True

    @staticmethod
    def _canonicalise(
        times: np.ndarray,
        neuron_indices: np.ndarray,
        counts: np.ndarray,
        num_neurons: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sort events by (time, neuron) and coalesce duplicate slots."""
        if times.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        linear = times * num_neurons + neuron_indices
        order = np.argsort(linear, kind="stable")
        linear = linear[order]
        counts = counts[order]
        boundaries = np.empty(linear.shape, dtype=bool)
        boundaries[0] = True
        np.not_equal(linear[1:], linear[:-1], out=boundaries[1:])
        if not boundaries.all():
            group = np.cumsum(boundaries) - 1
            counts = np.bincount(group, weights=counts).astype(np.int64)
            linear = linear[boundaries]
        return linear // num_neurons, linear % num_neurons, counts

    # -- constructors --------------------------------------------------------
    @classmethod
    def zeros(cls, num_steps: int, population_shape: Tuple[int, ...]) -> "SpikeEvents":
        """An empty event train of ``num_steps`` steps for the given population."""
        empty = np.empty(0, dtype=np.int64)
        return cls(empty, empty, None, num_steps, population_shape, _canonical=True)

    # -- basic properties ----------------------------------------------------
    @property
    def num_steps(self) -> int:
        """Length of the time window ``T``."""
        return self._num_steps

    @property
    def population_shape(self) -> Tuple[int, ...]:
        """Shape of the neuron population."""
        return self._population_shape

    @property
    def num_neurons(self) -> int:
        """Total number of neurons in the population."""
        return int(np.prod(self._population_shape))

    def total_spikes(self) -> int:
        """Total number of spikes in the window."""
        return int(self.event_counts.sum())

    def occupied_slots(self) -> int:
        """Number of ``(step, neuron)`` slots that carry at least one spike."""
        self._ensure_canonical()
        return int(self.times.size)

    def copy(self) -> "SpikeEvents":
        """Deep copy."""
        return SpikeEvents(
            self.times.copy(), self.neuron_indices.copy(), self.event_counts.copy(),
            self._num_steps, self._population_shape, _canonical=self._canonical,
        )

    def view(self) -> "SpikeEvents":
        """New wrapper sharing this train's buffers (trains are immutable)."""
        return SpikeEvents(
            self.times, self.neuron_indices, self.event_counts,
            self._num_steps, self._population_shape, _canonical=self._canonical,
        )

    # -- conversion ----------------------------------------------------------
    def to_dense(self) -> SpikeTrainArray:
        """Lossless conversion to a dense train.

        A slot holding more than :data:`MAX_SPIKE_COUNT` spikes raises
        instead of wrapping.
        """
        return SpikeTrainArray(self.window_counts(0), copy=False)

    def to_events(self) -> "SpikeEvents":
        """This train (already event-driven)."""
        return self

    # -- window queries ------------------------------------------------------
    def window_counts(
        self, start: int, stop: Optional[int] = None
    ) -> np.ndarray:
        """Dense per-step counts for steps ``[start, stop)`` only.

        Event-native scatter into a ``(stop - start, *population_shape)``
        array: only the requested sub-window is ever densified, which is how
        the time-stepped simulator reads an event train one time chunk at a
        time without materialising the full ``(T, ...)`` grid.
        ``stop=None`` means "until the end".  A slot holding more than
        :data:`MAX_SPIKE_COUNT` spikes raises instead of wrapping.
        """
        start, stop = _resolve_window((start, stop), self._num_steps)
        width = stop - start
        self._ensure_canonical()
        flat = np.zeros((width, self.num_neurons), dtype=np.int16)
        if width and self.times.size:
            # Canonical events are sorted by time: the window is one slice,
            # found in O(log events), so a chunked read costs O(chunk).
            lo, hi = np.searchsorted(self.times, (start, stop))
            counts = self.event_counts[lo:hi]
            _check_fits_grid(counts)
            # Canonical events have unique (time, neuron) slots.
            flat[self.times[lo:hi] - start, self.neuron_indices[lo:hi]] = counts
        return flat.reshape((width,) + self._population_shape)

    # -- transformations -----------------------------------------------------
    def weighted_sum(self, weights_per_step: np.ndarray) -> np.ndarray:
        """Sum of per-spike kernel weights for every neuron (decode primitive).

        Implemented as an O(events) scatter-add of ``kernel[t] * count``
        instead of the dense train's O(T*N) contraction.
        """
        weights_per_step = np.asarray(weights_per_step)
        if weights_per_step.shape != (self._num_steps,):
            raise ValueError(
                f"weights_per_step must have shape ({self._num_steps},), "
                f"got {weights_per_step.shape}"
            )
        if self.times.size == 0:
            return np.zeros(self._population_shape, dtype=np.float64)
        # Match the dense train's float32 kernel precision, accumulate in
        # float64 (bincount's native accumulator).
        contrib = (
            weights_per_step.astype(np.float32, copy=False)[self.times]
            .astype(np.float64) * self.event_counts
        )
        flat = np.bincount(
            self.neuron_indices, weights=contrib, minlength=self.num_neurons
        )
        return flat.reshape(self._population_shape)

    def delete_spikes(self, probability: float, rng: RngLike = None) -> "SpikeEvents":
        """Return a train with every spike independently deleted with ``probability``.

        Binomial thinning over the event list: O(events) random draws instead
        of one draw per dense ``(step, neuron)`` slot.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must lie in [0, 1], got {probability}")
        if probability == 0.0 or self.times.size == 0:
            return self.view()
        generator = default_rng(rng)
        if probability == 1.0:
            return SpikeEvents.zeros(self._num_steps, self._population_shape)
        if self.event_counts.max(initial=0) <= 1:
            # Fast path for binary trains: one uniform draw per event.
            survivors = self.event_counts * (
                generator.random(self.event_counts.shape, dtype=np.float32)
                >= probability
            )
        else:
            survivors = generator.binomial(self.event_counts, 1.0 - probability)
        mask = survivors > 0
        return SpikeEvents(
            self.times[mask], self.neuron_indices[mask],
            survivors[mask].astype(np.int64),
            self._num_steps, self._population_shape, _canonical=self._canonical,
        )

    def jitter_spikes(
        self,
        sigma: float,
        rng: RngLike = None,
    ) -> "SpikeEvents":
        """Return a train with every spike time shifted by quantised Gaussian noise.

        Shifts are added directly to the event times -- no dense
        ``nonzero``/``repeat``/``bincount`` reconstruction.
        """
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        if sigma == 0.0 or self.times.size == 0:
            return self.view()
        generator = default_rng(rng)
        if self.event_counts.max(initial=0) <= 1:
            times, neurons = self.times, self.neuron_indices
        else:
            # Each individual spike of a multi-count event moves independently.
            times = np.repeat(self.times, self.event_counts)
            neurons = np.repeat(self.neuron_indices, self.event_counts)
        shifts = np.rint(generator.normal(0.0, sigma, size=times.shape)).astype(np.int64)
        shifted = np.clip(times + shifts, 0, self._num_steps - 1)
        return SpikeEvents(
            shifted, neurons, None, self._num_steps, self._population_shape
        )

    def mask_neurons(self, keep: np.ndarray) -> "SpikeEvents":
        """Return a train with all spikes of masked-out neurons removed.

        O(events) filter of the event list (see the dense counterpart for the
        fault semantics).
        """
        keep = _broadcast_population_mask(keep, self._population_shape)
        if keep.all():
            return self.view()
        keep_flat = np.broadcast_to(keep, self._population_shape).ravel()
        sel = keep_flat[self.neuron_indices]
        return SpikeEvents(
            self.times[sel], self.neuron_indices[sel], self.event_counts[sel],
            self._num_steps, self._population_shape, _canonical=self._canonical,
        )

    def force_firing(
        self,
        mask: np.ndarray,
        window: Optional[Tuple[int, Optional[int]]] = None,
    ) -> "SpikeEvents":
        """Return a train where masked neurons emit exactly one spike per step.

        Original events of stuck neurons inside ``window`` are discarded and
        replaced by a regular one-spike-per-step grid (see the dense
        counterpart for the fault semantics).
        """
        mask = _broadcast_population_mask(mask, self._population_shape)
        start, stop = _resolve_window(window, self._num_steps)
        if not mask.any() or start >= stop:
            return self.view()
        mask_flat = np.broadcast_to(mask, self._population_shape).ravel()
        forced = np.flatnonzero(mask_flat)
        sel = (
            ~mask_flat[self.neuron_indices]
            | (self.times < start)
            | (self.times >= stop)
        )
        width = stop - start
        return SpikeEvents(
            np.concatenate(
                [self.times[sel], np.repeat(np.arange(start, stop), forced.size)]
            ),
            np.concatenate([self.neuron_indices[sel], np.tile(forced, width)]),
            np.concatenate(
                [self.event_counts[sel], np.ones(width * forced.size, dtype=np.int64)]
            ),
            self._num_steps, self._population_shape,
        )

    def drop_window(self, start: int, stop: int) -> "SpikeEvents":
        """Return a train with every spike in steps ``[start, stop)`` removed.

        O(events) filter (see the dense counterpart for the fault semantics).
        """
        start, stop = _resolve_window((start, stop), self._num_steps)
        if start >= stop:
            return self.view()
        sel = (self.times < start) | (self.times >= stop)
        return SpikeEvents(
            self.times[sel], self.neuron_indices[sel], self.event_counts[sel],
            self._num_steps, self._population_shape, _canonical=self._canonical,
        )

    # -- dunder helpers --------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, SpikeTrainArray):
            other = other.to_events()
        if not isinstance(other, SpikeEvents):
            return NotImplemented
        self._ensure_canonical()
        other._ensure_canonical()
        return (
            self._num_steps == other.num_steps
            and self._population_shape == other.population_shape
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.neuron_indices, other.neuron_indices)
            and np.array_equal(self.event_counts, other.event_counts)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpikeEvents(T={self._num_steps}, population={self._population_shape}, "
            f"events={self.occupied_slots()}, spikes={self.total_spikes()})"
        )


#: Either spike-train representation; the shared protocol every consumer codes against.
SpikeTrain = Union[SpikeTrainArray, SpikeEvents]
