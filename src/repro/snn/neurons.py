"""Spiking neuron models.

All models are vectorised over an arbitrary population shape: the state holds
one membrane potential (plus bookkeeping) per neuron and ``step`` advances the
whole population by one time step.

Three models are provided:

* :class:`IFNeuron` -- the classic integrate-and-fire neuron used by
  rate/phase/burst conversion SNNs, with reset-by-subtraction (soft reset,
  the variant shown to preserve conversion accuracy) or reset-to-zero.
* :class:`TTFSNeuron` -- fires exactly once (time-to-first-spike coding) and
  then stays silent; supports the exponentially decaying dynamic threshold of
  T2FSNN.
* :class:`IntegrateFireOrBurstNeuron` -- the paper's simplified
  integrate-and-fire-or-burst model (Eq. 4): no reset before the first spike,
  a threshold-subtracting burst of ``target_duration`` spikes starting at the
  first spike time, and an infinite reset afterwards.  This is the neuron
  that generates TTAS spike trains.

Every model supports a **firing window** (``fire_start``/``fire_stop``): the
membrane integrates its drive at every step, but spikes may only *start*
inside the window, and time-dependent dynamics (the TTFS/IFB threshold
decay, the phase threshold schedule) are measured from the window start.
This is what lets one coder lay its layers out in per-layer temporal windows
(T2FSNN-style layer phases, phase-coding pipeline lags) while the defaults
-- ``fire_start=0``, ``fire_stop=None`` -- keep every neuron bit-identical
to its un-windowed behaviour.

``advance`` runs a whole ``(T, *population)`` drive window through one
in-place scan shared by all three models: a time loop of whole-population
ufuncs on one float64 membrane and a few preallocated masks, writing each
step's spikes straight into an int16 window.  It costs ``T`` elementwise
passes over the population and no ``(T, ...)`` temporary beyond the spike
window, and it is bit-identical to ``T`` calls of ``step`` -- spikes,
gates, counters and membrane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.utils.validation import check_positive


@dataclass
class NeuronState:
    """Mutable per-population state advanced by the neuron models.

    Attributes
    ----------
    membrane:
        Membrane potential ``u`` per neuron.
    fired:
        Whether each neuron has emitted its first spike yet.
    burst_remaining:
        Remaining spikes in the ongoing phasic burst (IFB model only).
    refractory:
        Neurons that are permanently silenced (the ``-inf`` branch of Eq. 4,
        and TTFS neurons after their single spike).
    step_index:
        Number of completed time steps.
    """

    membrane: np.ndarray
    fired: np.ndarray
    burst_remaining: np.ndarray
    refractory: np.ndarray
    step_index: int = 0

    @classmethod
    def zeros(cls, population_shape: Tuple[int, ...]) -> "NeuronState":
        shape = tuple(int(s) for s in population_shape)
        return cls(
            membrane=np.zeros(shape, dtype=np.float64),
            fired=np.zeros(shape, dtype=bool),
            burst_remaining=np.zeros(shape, dtype=np.int32),
            refractory=np.zeros(shape, dtype=bool),
        )


def _validate_fire_window(fire_start: int, fire_stop: Optional[int]) -> Tuple[int, Optional[int]]:
    """Validate a ``[fire_start, fire_stop)`` firing window."""
    start = int(fire_start)
    if start < 0:
        raise ValueError(f"fire_start must be >= 0, got {fire_start}")
    stop = None if fire_stop is None else int(fire_stop)
    if stop is not None and stop <= start:
        raise ValueError(
            f"fire_stop ({fire_stop}) must exceed fire_start ({fire_start})"
        )
    return start, stop


class SpikingNeuron:
    """Base class for vectorised spiking neuron models."""

    def init_state(self, population_shape: Tuple[int, ...]) -> NeuronState:
        """Fresh state for a population of the given shape."""
        return NeuronState.zeros(population_shape)

    def step(self, state: NeuronState, input_current: np.ndarray) -> np.ndarray:
        """Advance one time step; return the integer spike array."""
        raise NotImplementedError

    def advance(self, state: NeuronState, drive: np.ndarray) -> np.ndarray:
        """Advance a whole ``(T, *population)`` drive window at once.

        Returns the ``(T, *population)`` int16 spike array and leaves
        ``state`` exactly as ``T`` successive :meth:`step` calls would.  The
        models implement it as that step loop done in place on preallocated
        buffers, which skips the per-step allocations of :meth:`step`.
        """
        raise NotImplementedError


class IFNeuron(SpikingNeuron):
    """Integrate-and-fire neuron with configurable reset.

    Parameters
    ----------
    threshold:
        Firing threshold ``theta``.
    reset:
        ``"subtract"`` (reset by subtraction, default -- the conversion
        literature's choice because it preserves the residual potential) or
        ``"zero"`` (hard reset).
    threshold_schedule:
        Optional 1-D array of *absolute* per-step thresholds, applied
        periodically (``theta(t) = schedule[t mod len(schedule)]``).  This is
        the phase-coding neuron of Kim et al. (2018): with the schedule
        ``theta * 2^-(1 + t mod K)`` and reset-by-subtraction, the spike
        pattern is exactly the greedy binary decomposition of the membrane.
        ``None`` (default) keeps the constant ``threshold``.
    fire_start / fire_stop:
        Firing window ``[fire_start, fire_stop)``: outside it the membrane
        integrates but no spikes are emitted (and nothing is subtracted).
        Defaults cover the whole simulation, i.e. today's behaviour.
    """

    def __init__(
        self,
        threshold: float = 1.0,
        reset: str = "subtract",
        threshold_schedule: Optional[np.ndarray] = None,
        fire_start: int = 0,
        fire_stop: Optional[int] = None,
    ):
        check_positive("threshold", threshold)
        if reset not in ("subtract", "zero"):
            raise ValueError(f"reset must be 'subtract' or 'zero', got {reset!r}")
        self.threshold = float(threshold)
        self.reset = reset
        if threshold_schedule is None:
            self.threshold_schedule = None
        else:
            schedule = np.asarray(threshold_schedule, dtype=np.float64)
            if schedule.ndim != 1 or schedule.size == 0:
                raise ValueError(
                    "threshold_schedule must be a non-empty 1-D array, got "
                    f"shape {schedule.shape}"
                )
            if np.any(schedule <= 0.0):
                raise ValueError("threshold_schedule values must be positive")
            schedule.setflags(write=False)
            self.threshold_schedule = schedule
        self.fire_start, self.fire_stop = _validate_fire_window(fire_start, fire_stop)

    def threshold_at(self, step: int) -> float:
        """Threshold in effect at global time step ``step``.

        The schedule is indexed by absolute time (``step mod period``), so
        layers sharing one global oscillator stay phase-aligned regardless of
        their per-layer firing windows.
        """
        if self.threshold_schedule is not None:
            return float(
                self.threshold_schedule[step % self.threshold_schedule.shape[0]]
            )
        return self.threshold

    def _fireable(self, step: int) -> bool:
        """Whether spikes may be emitted at global time step ``step``."""
        if step < self.fire_start:
            return False
        return self.fire_stop is None or step < self.fire_stop

    def step(self, state: NeuronState, input_current: np.ndarray) -> np.ndarray:
        state.membrane += input_current
        theta = self.threshold_at(state.step_index)
        if not self._fireable(state.step_index):
            spikes = np.zeros(state.membrane.shape, dtype=np.int16)
        else:
            spikes = (state.membrane >= theta).astype(np.int16)
        if self.reset == "subtract":
            state.membrane -= spikes * theta
        else:
            state.membrane = np.where(spikes > 0, 0.0, state.membrane)
        state.fired |= spikes > 0
        state.step_index += 1
        return spikes

    def advance(self, state: NeuronState, drive: np.ndarray) -> np.ndarray:
        """In-place scan of the IF recurrence.

        The time loop all three models share (see the module docstring):
        spikes are cast into a preallocated window tensor, the threshold
        subtraction/zeroing is masked in place (``x - theta`` where a spike
        fired, exactly the value ``step``'s ``x - 1 * theta`` produces), and
        the ``fired`` flag -- an OR over the window -- is folded into one
        pass at the end.

        The same loop serves the scheduled / windowed variants: the per-step
        threshold comes from :meth:`threshold_at` (a scalar, exactly the
        value :meth:`step` compares against) and steps outside the firing
        window integrate without comparing at all.
        """
        drive = np.asarray(drive)
        num_steps = drive.shape[0]
        if num_steps == 0:
            return np.zeros(drive.shape, dtype=np.int16)
        spikes = np.empty(drive.shape, dtype=np.int16)
        membrane = state.membrane
        start_step = state.step_index
        subtract = self.reset == "subtract"
        crossed = np.empty(membrane.shape, dtype=bool)
        for t in range(num_steps):
            np.add(membrane, drive[t], out=membrane)
            if not self._fireable(start_step + t):
                spikes[t] = 0
                continue
            threshold = self.threshold_at(start_step + t)
            np.greater_equal(membrane, threshold, out=crossed)
            spikes[t] = crossed
            if subtract:
                np.subtract(membrane, threshold, out=membrane, where=crossed)
            else:
                np.copyto(membrane, 0.0, where=crossed)
        state.fired |= spikes.any(axis=0)
        state.step_index += num_steps
        return spikes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IFNeuron(threshold={self.threshold}, reset={self.reset!r})"


class TTFSNeuron(SpikingNeuron):
    """Time-to-first-spike neuron: fires at most once.

    The effective threshold decays exponentially over time
    (``theta(t) = threshold * exp(-t / tau)`` when ``tau`` is given), which is
    the discrete version of the T2FSNN dynamic threshold: a weakly driven
    neuron eventually crosses the falling threshold and fires late, encoding a
    small activation.

    With a firing window ``[fire_start, fire_stop)`` the decay is measured
    from the window start and the threshold is infinite outside the window:
    the membrane integrates its (earlier-window) input freely and the single
    spike can only happen inside the layer's own temporal window -- the
    T2FSNN layer-phase scheme the TTFS/TTAS coders build their per-layer
    protocols on.  Defaults reproduce the un-windowed neuron exactly.
    """

    def __init__(
        self,
        threshold: float = 1.0,
        tau: Optional[float] = None,
        fire_start: int = 0,
        fire_stop: Optional[int] = None,
    ):
        check_positive("threshold", threshold)
        if tau is not None:
            check_positive("tau", tau)
        self.threshold = float(threshold)
        self.tau = float(tau) if tau is not None else None
        self.fire_start, self.fire_stop = _validate_fire_window(fire_start, fire_stop)

    def threshold_at(self, step: int) -> float:
        """Dynamic threshold value at time step ``step``.

        Infinite outside the firing window (no finite membrane can cross, so
        the same comparison gates both the per-step loop and the in-place
        scan); inside, the decay runs from the window start.
        """
        if step < self.fire_start:
            return float("inf")
        if self.fire_stop is not None and step >= self.fire_stop:
            return float("inf")
        if self.tau is None:
            return self.threshold
        return self.threshold * float(np.exp(-(step - self.fire_start) / self.tau))

    def step(self, state: NeuronState, input_current: np.ndarray) -> np.ndarray:
        state.membrane += input_current
        theta = self.threshold_at(state.step_index)
        eligible = (~state.fired) & (~state.refractory)
        spikes = (eligible & (state.membrane >= theta)).astype(np.int16)
        newly_fired = spikes > 0
        state.fired |= newly_fired
        state.refractory |= newly_fired
        state.step_index += 1
        return spikes

    def advance(self, state: NeuronState, drive: np.ndarray) -> np.ndarray:
        """In-place scan of the single-spike recurrence.

        One float64 membrane accumulates the drive step by step (the same
        ``membrane += drive[t]`` as :meth:`step`) and a per-neuron
        ``eligible`` mask is cleared where a neuron fires, so each step costs
        a handful of whole-population ufuncs and no ``(T, ...)`` temporary
        exists beyond the int16 spike window.  Every step compares against
        :meth:`threshold_at`, infinite outside the window included, so
        spikes and the final state -- membrane too -- are bit-identical to
        :meth:`step`, even for an overflowed membrane.
        """
        drive = np.asarray(drive)
        spikes = np.empty(drive.shape, dtype=np.int16)
        membrane = state.membrane
        start_step = state.step_index
        was_eligible = ~(state.fired | state.refractory)
        eligible = was_eligible.copy()
        crossed = np.empty(membrane.shape, dtype=bool)
        for t in range(drive.shape[0]):
            np.add(membrane, drive[t], out=membrane)
            np.greater_equal(membrane, self.threshold_at(start_step + t), out=crossed)
            np.logical_and(crossed, eligible, out=crossed)
            spikes[t] = crossed
            # crossed lies inside eligible: xor clears the neurons that fired.
            np.logical_xor(eligible, crossed, out=eligible)
        newly_fired = was_eligible ^ eligible
        state.fired |= newly_fired
        state.refractory |= newly_fired
        state.step_index += drive.shape[0]
        return spikes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TTFSNeuron(threshold={self.threshold}, tau={self.tau})"


class IntegrateFireOrBurstNeuron(SpikingNeuron):
    """Simplified integrate-and-fire-or-burst neuron (paper Eq. 4).

    The reset function is

    ``eta(t) = 0``            before the first spike (plain integration),
    ``eta(t) = theta(t)``     during the burst window ``[t1, t1 + t_a)``
                              (threshold subtraction, neuron keeps firing),
    ``eta(t) = -inf``         afterwards (permanently silent).

    With a constant drive this produces the phasic-burst pattern the paper
    uses for TTAS coding: a group of ``target_duration`` spikes starting at
    the time-to-first-spike, then silence.  The model is implementable with a
    counter and a gate, as the paper notes.

    A firing window ``[fire_start, fire_stop)`` constrains where a burst may
    *start*: the threshold decay is measured from ``fire_start`` (infinite
    before it, so no first spike can happen while the membrane is still
    integrating an earlier layer's window), and no new burst begins at or
    after ``fire_stop`` -- but a burst started inside the window keeps firing
    (and keeps subtracting the decaying threshold) past its end, exactly as
    the counter-and-gate hardware model would.  Defaults reproduce the
    un-windowed neuron exactly.
    """

    def __init__(
        self,
        threshold: float = 1.0,
        target_duration: int = 3,
        tau: Optional[float] = None,
        fire_start: int = 0,
        fire_stop: Optional[int] = None,
    ):
        check_positive("threshold", threshold)
        check_positive("target_duration", target_duration)
        if tau is not None:
            check_positive("tau", tau)
        self.threshold = float(threshold)
        self.target_duration = int(target_duration)
        self.tau = float(tau) if tau is not None else None
        self.fire_start, self.fire_stop = _validate_fire_window(fire_start, fire_stop)

    def threshold_at(self, step: int) -> float:
        """Dynamic threshold value at time step ``step`` (same form as TTFS).

        Infinite before the firing window (a burst cannot exist there, so
        the infinity never reaches a subtraction); past ``fire_stop`` the
        *finite* decayed value is still returned because a burst that
        started inside the window subtracts it while spilling over -- new
        first spikes after the window are gated separately.
        """
        if step < self.fire_start:
            return float("inf")
        if self.tau is None:
            return self.threshold
        return self.threshold * float(np.exp(-(step - self.fire_start) / self.tau))

    def step(self, state: NeuronState, input_current: np.ndarray) -> np.ndarray:
        state.membrane += input_current
        theta = self.threshold_at(state.step_index)

        bursting = state.burst_remaining > 0
        eligible = (~state.fired) & (~state.refractory)
        first_spike = eligible & (state.membrane >= theta)
        if self.fire_stop is not None and state.step_index >= self.fire_stop:
            first_spike &= False

        spikes = (first_spike | bursting).astype(np.int16)

        # Reset eta(t) = theta(t) during the burst window: subtract threshold.
        state.membrane = np.where(first_spike | bursting,
                                  state.membrane - theta, state.membrane)

        # Counter/gate bookkeeping.
        state.burst_remaining = np.where(
            first_spike, self.target_duration - 1,
            np.maximum(state.burst_remaining - bursting.astype(np.int32), 0),
        )
        state.fired |= first_spike
        finished = state.fired & (state.burst_remaining == 0) & ~first_spike
        finished |= state.fired & (self.target_duration == 1)
        # eta(t) = -inf once the burst is over: silence forever.
        state.refractory |= finished
        state.step_index += 1
        return spikes

    def advance(self, state: NeuronState, drive: np.ndarray) -> np.ndarray:
        """In-place scan of the counter-and-gate automaton.

        The per-step recurrence of :meth:`step`, done on preallocated
        buffers: one float64 membrane integrates the drive, a first spike is
        ``eligible & (membrane >= theta(t))`` and is gated off at or past
        ``fire_stop``, ``burst_remaining`` counts down in place, and
        ``theta(t)`` is subtracted on every burst step -- including a burst
        spilling past the window.  No ``(T, ...)`` temporary exists beyond
        the int16 spike window; spikes, counters, gates and the final
        membrane are bit-identical to :meth:`step`.
        """
        drive = np.asarray(drive)
        spikes = np.empty(drive.shape, dtype=np.int16)
        membrane = state.membrane
        remaining = state.burst_remaining
        start_step = state.step_index
        was_eligible = ~(state.fired | state.refractory)
        eligible = was_eligible.copy()
        first = np.zeros(membrane.shape, dtype=bool)
        bursting = np.empty(membrane.shape, dtype=bool)
        firing = np.empty(membrane.shape, dtype=bool)
        for t in range(drive.shape[0]):
            step = start_step + t
            np.add(membrane, drive[t], out=membrane)
            theta = self.threshold_at(step)
            np.greater(remaining, 0, out=bursting)
            if self.fire_stop is None or step < self.fire_stop:
                np.greater_equal(membrane, theta, out=first)
                np.logical_and(first, eligible, out=first)
                # first lies inside eligible: xor clears the neurons that fired.
                np.logical_xor(eligible, first, out=eligible)
            else:
                first.fill(False)
            np.logical_or(first, bursting, out=firing)
            spikes[t] = firing
            # eta(t) = theta(t) on every burst step: subtract the threshold.
            np.subtract(membrane, theta, out=membrane, where=firing)
            np.subtract(remaining, bursting, out=remaining)
            np.copyto(remaining, self.target_duration - 1, where=first)
        state.fired |= was_eligible ^ eligible
        # eta(t) = -inf for every burst that has run out: silence forever.
        state.refractory |= state.fired & (remaining == 0)
        state.step_index += drive.shape[0]
        return spikes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IntegrateFireOrBurstNeuron(threshold={self.threshold}, "
            f"target_duration={self.target_duration}, tau={self.tau})"
        )
