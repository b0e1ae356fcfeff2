"""Time-stepped SNN simulator.

This is the faithful evaluation path: every layer is a population of spiking
neurons advanced over a discrete time window, spikes travel between layers
weighted by the coder's PSC kernel, and the output layer accumulates
membrane potential that is read out as the classification score.

It exists for two reasons:

* it demonstrates that the converted networks really are spiking networks
  (IF / TTFS / IFB dynamics, thresholds, resets -- Eqs. 1-4 of the paper),
* it provides ground truth against which the fast activation-transport
  evaluator (:mod:`repro.core.transport`) is validated in integration tests.

One engine implements the dynamics, layer-outer/time-inner: because the
network is strictly feed-forward and every synaptic transform acts on each
time step independently, the time loop hoists *inside* each layer.  Each
layer's window is streamed in **time chunks** sized by one byte budget
(:data:`TimeSteppedSimulator.FUSED_CHUNK_BYTES`): a chunk's drive comes out
of one wide transform call (time folded into the batch axis), the neurons
advance over it with a vectorised
:meth:`~repro.snn.neurons.SpikingNeuron.advance` scan whose state carries
across chunks, and only the chunk's occupied ``(step, sample)`` spike rows
are kept.  Those rows are all the next layer reads: silent rows are never
stored and never transformed, so no ``(T, batch, ...)`` array of a layer
exists unless ``record_spikes`` asks for one.

The engine schedules every layer by its **protocol window**: a layer cannot
spike before its firing window opens, so every step before ``fire_start``
collapses into one call -- the PSC of those steps is summed, transformed
once and seeds the membrane (integrate, then fire).  Drive is assembled and
neurons advanced only from ``fire_start`` to the end of the firing window
(plus burst spill), chunk by chunk, from the upstream layer's occupied rows
(the input train enters the same way, event lists densifying one chunk at a
time).  The reference time-outer loop the engine is tested against, with the
same collapse, lives in the test suite.

Layers may carry **per-layer incoming kernels** and **firing/bias windows**
(:class:`SimulatorLayer.in_kernel` / ``bias_stop``): this is how the
coder-aware temporal protocols (:mod:`repro.coding.protocol`) lay the layers
of TTFS/TTAS/phase networks out on a shared global time grid.  Layers
without their own kernel fall back to the simulator-wide
``input_kernel``/``hidden_kernel`` pair, which keeps the historical
rate-coded construction (and its results) bit-identical.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.snn.neurons import SpikingNeuron
from repro.snn.spikes import SpikeTrain, SpikeTrainArray
from repro.utils.rng import RngLike, default_rng
from repro.utils.validation import check_positive


def _kernel_support(kernel: np.ndarray) -> tuple:
    """Smallest step window ``[lo, hi)`` containing every nonzero weight.

    ``(0, 0)`` for an all-zero kernel (spikes through it never drive
    anything, whatever their timing).
    """
    nonzero = np.flatnonzero(np.asarray(kernel))
    if nonzero.size == 0:
        return 0, 0
    return int(nonzero[0]), int(nonzero[-1]) + 1


#: A synaptic transform maps an instantaneous post-synaptic-current vector of
#: the previous layer to the input current of this layer (i.e. applies
#: ``W x`` for dense layers, the convolution for conv layers, ...; the bias
#: enters as :attr:`SimulatorLayer.step_bias`).  Every transform is linear up
#: to float rounding and maps zero to exactly zero: the simulator sums PSC
#: over steps before transforming it once, and never transforms a silent row
#: (see :meth:`TimeSteppedSimulator.run`).
SynapticTransform = Callable[[np.ndarray], np.ndarray]


@dataclass
class SimulatorLayer:
    """One spiking layer of the time-stepped simulator.

    Attributes
    ----------
    transform:
        Callable applying the (already converted and scaled) synaptic weights
        to a batch of instantaneous PSC values.
    neuron:
        The spiking neuron model of this layer, or ``None`` for the readout
        layer (which only accumulates membrane potential).
    name:
        Layer name used in simulation records.
    step_bias:
        Optional constant current injected every step (per-neuron bias spread
        over the time window).
    in_kernel:
        Optional per-step PSC weights (length ``num_steps``) applied to the
        spikes *entering* this layer -- the emission kernel of the previous
        interface under a per-layer temporal protocol.  ``None`` falls back
        to the simulator-wide ``input_kernel`` (first layer) or
        ``hidden_kernel`` (later layers).
    bias_stop:
        Inject ``step_bias`` only during the first ``bias_stop`` steps
        (``None`` = every step).  Temporal protocols use this to deliver a
        segment's full analog bias before -- or while -- its consumer layer
        fires, instead of trickling it over windows the layer never reads.
    row_bytes:
        Bytes per input row of the widest array one ``transform`` call
        makes (its copies, layer outputs and conv im2col packs); ``None``
        counts the float64 PSC row alone.  Each transform call of a drive
        chunk takes as many rows as keep that array within
        :data:`TimeSteppedSimulator.FUSED_CHUNK_BYTES`.
    """

    transform: SynapticTransform
    neuron: Optional[SpikingNeuron]
    name: str = "layer"
    step_bias: Optional[np.ndarray] = None
    in_kernel: Optional[np.ndarray] = None
    bias_stop: Optional[int] = None
    row_bytes: Optional[int] = None


@dataclass
class LayerFaultMask:
    """Persistent hardware-fault masks for one spiking layer.

    Models broken neuron circuits of the layer itself: dead
    (stuck-at-silent) neurons never emit a spike, stuck-at-fire neurons emit
    exactly one spike at every step of their firing window regardless of
    membrane state.  Both masks are drawn over the layer's feature axes
    (the per-step spike tensor is ``(batch, *features)``), once per
    simulator run, on the first application -- so the realisation persists
    across every timestep and depends only on ``(rng, feature shape)``
    (masks apply to emitted spikes, after the fold).

    Attributes
    ----------
    dead_fraction / stuck_fraction:
        Per-neuron fault probabilities.
    rng:
        Generator or seed the masks are drawn from (derived per cell/layer
        by the caller); ``None`` falls back to the library default stream.
    """

    dead_fraction: float = 0.0
    stuck_fraction: float = 0.0
    rng: Optional[RngLike] = None
    _dead: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _stuck: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def _draw(self, feature_shape: Sequence[int]) -> None:
        if self._dead is None:
            generator = default_rng(self.rng)
            # Always draw both masks, in a fixed order, so the realisation
            # depends only on (rng, feature_shape) -- not on which fractions
            # happen to be non-zero.
            self._dead = generator.random(size=tuple(feature_shape)) < self.dead_fraction
            self._stuck = generator.random(size=tuple(feature_shape)) < self.stuck_fraction

    def apply_window(
        self,
        spikes: np.ndarray,
        fire_start: int = 0,
        fire_stop: Optional[int] = None,
    ) -> np.ndarray:
        """Mask a window of emitted spikes (``(T, batch, *features)``).

        ``fire_start``/``fire_stop`` are counted from the window's first
        step, so a run split into time chunks masks each chunk with the
        firing window re-based onto it, and the stuck-at-fire steps are the
        same as for the whole window at once.
        """
        self._draw(spikes.shape[2:])
        num_steps = spikes.shape[0]
        out = spikes
        if self._dead.any():
            out = np.where(self._dead, 0, out).astype(spikes.dtype, copy=False)
        if self._stuck.any():
            start = max(int(fire_start), 0)
            stop = num_steps if fire_stop is None else min(int(fire_stop), num_steps)
            if start < stop:
                if out is spikes:
                    out = spikes.copy()
                out[start:stop] = np.where(self._stuck, 1, out[start:stop])
        return out


@dataclass
class SimulationRecord:
    """Outcome of a time-stepped simulation.

    Attributes
    ----------
    output_potential:
        Accumulated membrane potential of the readout layer, shape
        ``(batch, classes)``; argmax gives the prediction.
    spike_counts:
        Total number of spikes emitted per layer (keyed by layer name).
    spike_trains:
        Optional per-layer spike trains (only kept when ``record_spikes``).
    num_steps:
        Length of the simulated window.
    """

    output_potential: np.ndarray
    spike_counts: Dict[str, int] = field(default_factory=dict)
    spike_trains: Dict[str, SpikeTrainArray] = field(default_factory=dict)
    num_steps: int = 0

    @property
    def predictions(self) -> np.ndarray:
        """Predicted class indices."""
        return self.output_potential.argmax(axis=1)

    def total_spikes(self) -> int:
        """Total spikes across all recorded layers."""
        return int(sum(self.spike_counts.values()))


class _SpikeRows:
    """The spikes of one population as its occupied ``(step, sample)`` rows.

    This is how spikes travel between the simulator's layers.  A row is the
    ``(*features)`` count vector of one sample at one step; its global index
    is ``step * batch + sample``.  Only rows with at least one spike are
    kept, in blocks appended in step order (one per time chunk), each block
    a sorted ``rows`` index array with its ``(len(rows), F)`` int16
    ``counts``.  At the sparsities the codes produce, most rows of a hidden
    layer are silent, so a layer's output costs a fraction of its dense
    ``(T, batch, *features)`` window, and silent rows cost the next layer
    nothing: the linear transform and the float64 PSC sums skip them
    exactly.
    """

    def __init__(self, batch: int, features: Sequence[int]):
        self.batch = int(batch)
        self.features = tuple(int(size) for size in features)
        self._blocks: List[tuple] = []
        #: Last global row of each block, for bisecting a step window.
        self._last_rows: List[int] = []
        #: Total number of spikes.
        self.total = 0

    def append(self, spikes: np.ndarray, step: int) -> None:
        """Keep the occupied rows of a ``(w, batch, *features)`` chunk that
        starts at global step ``step``."""
        flat = spikes.reshape(spikes.shape[0] * self.batch, -1)
        # Counts are never negative, and a row maximum vectorises better
        # than ``any``.
        row_max = flat.max(axis=1, initial=0)
        occupied = np.flatnonzero(row_max > 0)
        if occupied.size:
            # A fully occupied chunk is kept as it is (trains and emitted
            # windows are never written after they are handed over).
            counts = flat if occupied.size == flat.shape[0] else flat[occupied]
            self._blocks.append((occupied + step * self.batch, counts))
            self._last_rows.append(int(occupied[-1]) + step * self.batch)
            # A 0/1 chunk is counted several times faster than it is summed.
            binary = row_max.max() == 1
            self.total += int(np.count_nonzero(counts) if binary else counts.sum())

    def step_support(self) -> tuple:
        """Smallest step window ``[lo, hi)`` holding every spike (``(0, 0)``
        when silent)."""
        if not self._blocks:
            return 0, 0
        return (
            int(self._blocks[0][0][0]) // self.batch,
            self._last_rows[-1] // self.batch + 1,
        )

    def segments(self, lo: int, hi: int):
        """Yield ``(rows, counts)`` of the steps ``[lo, hi)``, one slice per
        block (global row indices, counts shaped ``(n, *features)``)."""
        row_lo, row_hi = lo * self.batch, hi * self.batch
        for index in range(bisect_left(self._last_rows, row_lo), len(self._blocks)):
            rows, counts = self._blocks[index]
            if rows[0] >= row_hi:
                break
            start, stop = np.searchsorted(rows, (row_lo, row_hi))
            if start < stop:
                yield rows[start:stop], counts[start:stop].reshape(
                    (-1,) + self.features
                )

    def window(self, lo: int, hi: int) -> tuple:
        """``(rows, counts)`` of the steps ``[lo, hi)``, rows counted from
        step ``lo``."""
        parts = list(self.segments(lo, hi))
        if not parts:
            return np.empty(0, dtype=np.int64), np.empty((0,) + self.features, np.int16)
        if len(parts) == 1:
            rows, counts = parts[0]
        else:
            rows = np.concatenate([rows for rows, _ in parts])
            counts = np.concatenate([counts for _, counts in parts])
        return rows - lo * self.batch, counts

    def dense(self, num_steps: int) -> np.ndarray:
        """The ``(num_steps, batch, *features)`` count grid of these rows."""
        grid = np.zeros((num_steps * self.batch,) + self.features, dtype=np.int16)
        for rows, counts in self.segments(0, num_steps):
            grid[rows] = counts
        return grid.reshape((num_steps, self.batch) + self.features)


class TimeSteppedSimulator:
    """Run a stack of spiking layers over a discrete time window.

    Parameters
    ----------
    layers:
        Hidden spiking layers followed by exactly one readout layer (a layer
        whose ``neuron`` is None).
    num_steps:
        Length of the simulation window ``T``.
    input_kernel / hidden_kernel:
        Per-step PSC weights (length ``num_steps``) applied to input spikes
        and to hidden-layer spikes respectively.  They come from the coder's
        :class:`repro.snn.kernels.PSCKernel`.
    input_steps:
        Length of the input spike trains handed to :meth:`run` (default:
        ``num_steps``).  Per-layer temporal protocols simulate a global
        window longer than the encode window; input trains are zero-padded
        up to ``num_steps`` (no spikes arrive outside the encode window).

    The readout layer integrates and never fires, so its synaptic transform
    is applied **once** per run to the window's summed PSC, as for the
    steps before any layer's firing window (see :meth:`run`).
    """

    def __init__(
        self,
        layers: Sequence[SimulatorLayer],
        num_steps: int,
        input_kernel: np.ndarray,
        hidden_kernel: Optional[np.ndarray] = None,
        input_steps: Optional[int] = None,
    ):
        check_positive("num_steps", num_steps)
        if not layers:
            raise ValueError("the simulator needs at least one layer")
        if layers[-1].neuron is not None:
            raise ValueError("the last layer must be a readout layer (neuron=None)")
        self.layers = list(layers)
        self.num_steps = int(num_steps)
        self.input_kernel = self._check_kernel(input_kernel)
        self.hidden_kernel = (
            self._check_kernel(hidden_kernel)
            if hidden_kernel is not None
            else self.input_kernel
        )
        if input_steps is None:
            self.input_steps = self.num_steps
        else:
            check_positive("input_steps", input_steps)
            if int(input_steps) > self.num_steps:
                raise ValueError(
                    f"input_steps ({input_steps}) cannot exceed "
                    f"num_steps ({self.num_steps})"
                )
            self.input_steps = int(input_steps)
        #: Kernel applied to the spikes entering each layer: the layer's own
        #: ``in_kernel`` when set, else the simulator-wide input/hidden pair
        #: (which keeps the historical construction bit-identical).
        self.layer_kernels: List[np.ndarray] = [
            self._check_kernel(layer.in_kernel)
            if layer.in_kernel is not None
            else (self.input_kernel if index == 0 else self.hidden_kernel)
            for index, layer in enumerate(self.layers)
        ]
        #: Per layer: support ``[lo, hi)`` of the incoming kernel -- the
        #: only steps at which arriving spikes can drive the layer at all.
        self.layer_kernel_supports: List[tuple] = [
            _kernel_support(kernel) for kernel in self.layer_kernels
        ]
        #: ``(index, input features) -> (drive shape, dtype)`` per layer.
        self._drive_specs: Dict[tuple, tuple] = {}

    def _check_kernel(self, kernel: np.ndarray) -> np.ndarray:
        kernel = np.asarray(kernel, dtype=np.float64)
        if kernel.shape != (self.num_steps,):
            raise ValueError(
                f"kernel must have shape ({self.num_steps},), got {kernel.shape}"
            )
        return kernel

    def run(
        self,
        input_spikes: SpikeTrain,
        record_spikes: bool = False,
        layer_faults: Optional[Dict[str, LayerFaultMask]] = None,
    ) -> SimulationRecord:
        """Simulate the network on a batch of encoded inputs.

        Parameters
        ----------
        input_spikes:
            Spike trains of the input population covering
            ``(T, batch, features...)`` as produced by a coder's ``encode``
            (either backend; event lists densify one time chunk at a time).
        record_spikes:
            Keep the full spike trains of every hidden layer in the record
            (memory heavy by design: each layer's occupied rows are
            densified onto the whole ``(T, batch, ...)`` grid; meant for
            small validation runs and plots).
        layer_faults:
            Optional persistent hardware-fault masks
            (:class:`LayerFaultMask`) keyed by spiking-layer name; each
            layer's mask corrupts its emitted spikes (gated by the layer
            neuron's firing window).

        Every layer is advanced over its **active window** ``[a_lo,
        a_hi)``, up to the end of its firing window plus the burst spill of
        ``target_duration - 1`` steps.  No neuron model spikes or subtracts
        before ``fire_start`` (IF is not fireable, the TTFS/IFB thresholds
        are infinite), so a layer integrates, then fires: ``a_lo =
        fire_start`` and :meth:`_integrated_membrane` seeds the membrane with
        one transform call per sample.

        The window is streamed in **time chunks** of
        :meth:`_chunk_steps` steps: each chunk's drive is assembled, the
        neurons advance over it (their state carries ``step_index`` across
        calls), the fault masks gate it and only its occupied ``(step,
        sample)`` rows are kept (:class:`_SpikeRows`), which is all the next
        layer reads.  Past the last step with kernel support or bias the
        neuron advances on a read-only zero drive with no transform call:
        all of a TTFS layer's own window, all but the burst spill of a TTAS
        layer's.  The readout never fires: its potential is
        :meth:`_integrated_membrane` over the whole window.
        """
        if input_spikes.num_steps != self.input_steps:
            raise ValueError(
                f"input spike train has {input_spikes.num_steps} steps, "
                f"simulator expects {self.input_steps}"
            )
        batch, *features = input_spikes.population_shape
        spikes = _SpikeRows(batch, features)
        chunk = self._chunk_steps(batch, 2 * int(np.prod(spikes.features)))
        for lo in range(0, input_spikes.num_steps, chunk):
            hi = min(lo + chunk, input_spikes.num_steps)
            spikes.append(np.asarray(input_spikes.window_counts(lo, hi)), lo)
        spike_counts: Dict[str, int] = {layer.name: 0 for layer in self.layers}
        recorded: Dict[str, SpikeTrainArray] = {}
        output_potential: Optional[np.ndarray] = None

        for index, layer in enumerate(self.layers):
            kernel = self.layer_kernels[index]
            k_lo, k_hi = self.layer_kernel_supports[index]
            s_lo, s_hi = spikes.step_support()
            # Steps at which upstream spikes can drive the layer at all.
            drive_lo, drive_hi = max(k_lo, s_lo), min(k_hi, s_hi)
            bias_hi = self._bias_rows(layer)
            if layer.neuron is None:
                # The readout never fires: it integrates the whole window.
                output_potential = self._integrated_membrane(
                    layer, spikes, kernel, (drive_lo, drive_hi), bias_hi
                )
                break
            fire_start = int(getattr(layer.neuron, "fire_start", 0))
            fire_stop = getattr(layer.neuron, "fire_stop", None)
            fire_hi = self.num_steps if fire_stop is None else int(fire_stop)
            # A burst started on the window's last step keeps spilling.
            spill = max(int(getattr(layer.neuron, "target_duration", 1)) - 1, 0)
            a_hi = min(fire_hi + spill, self.num_steps)
            a_lo = min(fire_start, a_hi)
            # The drive is exactly zero past the last kernel support and
            # bias row: from live_hi on it needs no transform.
            last = max(drive_hi if drive_lo < drive_hi else 0, bias_hi)
            live_hi = min(max(last, a_lo), a_hi)

            membrane = state = None
            if 0 < a_lo < a_hi:
                membrane = self._integrated_membrane(
                    layer, spikes, kernel,
                    steps=(drive_lo, min(drive_hi, a_lo)),
                    bias_steps=min(bias_hi, a_lo),
                )
            fault = layer_faults.get(layer.name) if layer_faults else None
            # A drive chunk holds float64 PSC rows of the upstream features;
            # a zero-drive chunk only its own int16 spike rows.
            chunk = self._chunk_steps(batch, 8 * int(np.prod(spikes.features)))
            lo = a_lo
            while lo < a_hi:
                drive = None
                if lo < live_hi:
                    hi = min(lo + chunk, live_hi)
                    drive = self._fused_layer_drive(index, spikes, kernel, (lo, hi))
                if state is None:
                    if drive is not None:
                        shape = drive.shape[1:]
                    elif membrane is not None:
                        shape = membrane.shape
                    else:
                        shape = (batch,) + self._drive_spec(index, spikes)[0]
                    state = layer.neuron.init_state(shape)
                    if membrane is not None:
                        state.membrane[...] = membrane
                    state.step_index = a_lo
                    emitted = _SpikeRows(batch, shape[1:])
                if drive is None:  # nothing arrives: a read-only zero view
                    if lo >= live_hi:
                        tail = self._chunk_steps(batch, 2 * int(np.prod(shape[1:])))
                        hi = min(lo + tail, a_hi)
                    drive = np.broadcast_to(np.float32(0.0), (hi - lo,) + shape)
                out = layer.neuron.advance(state, drive)
                if fault is not None:
                    # Re-based so the stuck gate sees global steps.
                    out = fault.apply_window(
                        out,
                        fire_start - lo,
                        None if fire_stop is None else int(fire_stop) - lo,
                    )
                emitted.append(out, lo)
                lo = hi
            if state is None:  # the window lies off the grid: never advanced
                emitted = _SpikeRows(batch, self._drive_spec(index, spikes)[0])
            spike_counts[layer.name] = emitted.total
            if record_spikes:
                recorded[layer.name] = SpikeTrainArray(
                    emitted.dense(self.num_steps), copy=False
                )
            spikes = emitted

        if output_potential is None:
            raise RuntimeError("simulation finished without reaching the readout layer")

        record = SimulationRecord(
            output_potential=output_potential,
            spike_counts=spike_counts,
            num_steps=self.num_steps,
        )
        if record_spikes:
            record.spike_trains = recorded
        return record

    # -- per-layer fold ------------------------------------------------------

    #: Byte budget of one time chunk and of one synaptic-transform call.  A
    #: layer's window is streamed in chunks of as many steps as keep the
    #: chunk's rows within this many bytes: the folded float64 PSC rows of a
    #: drive chunk, the int16 spike rows of a zero-drive chunk or of an
    #: input-train chunk.  Each transform call of a drive chunk takes as
    #: many rows as keep the widest array the call makes within it
    #: (:attr:`SimulatorLayer.row_bytes`): a 3x3 conv's float32 im2col pack
    #: is 4.5x its float64 PSC row (27.6 KB per row at bench cifar10's
    #: first layer, 147 KB at its second), so calls sized by the PSC rows
    #: alone built 9.4 MB packs there.  Folding time into the batch amortises
    #: per-call overhead over many steps, but a whole-window fold spills
    #: conv im2col patch buffers (~k*k times their input) out of the CPU
    #: caches and holds ``(T, batch, ...)`` arrays per layer: faithful
    #: Phase at T=1000 on 16 cifar10 bench images peaked at ~1 GB that way.
    #: Measured on 2 CPUs (faithful Phase and Rate at T=32 and T=1000, 16
    #: cifar10 bench images), 1, 2 and 4 MB run within noise of each other,
    #: and 4 MB adds 10-15 MB to the T=32 peak.  2 MB is the smallest budget
    #: that keeps a serving window -- 8 lanes x 32 steps of 784-pixel mnist
    #: rows, 1.6 MB -- in one chunk and one transform call per layer.
    FUSED_CHUNK_BYTES = 2 << 20

    def _chunk_steps(self, batch: int, row_bytes: int) -> int:
        """Steps per time chunk: the most whose ``(step, sample)`` rows of
        ``row_bytes`` each fit :data:`FUSED_CHUNK_BYTES` (at least one)."""
        return max(1, self._block_rows(row_bytes) // batch)

    def _block_rows(self, row_bytes: int) -> int:
        """Rows of ``row_bytes`` each that fit :data:`FUSED_CHUNK_BYTES` (at
        least one): the rows per synaptic-transform call."""
        return max(1, self.FUSED_CHUNK_BYTES // max(row_bytes, 1))

    def _drive_spec(self, index: int, spikes: _SpikeRows) -> tuple:
        """Per-sample shape and dtype of layer ``index``'s drive.

        Probed with one zero row, once per input feature shape, where no
        transformed chunk gives them: a window that never advances, or a
        chunk with bias rows but no spikes (its bias is added in the dtype
        the transform returns).
        """
        key = (index, spikes.features)
        spec = self._drive_specs.get(key)
        if spec is None:
            probe = np.asarray(self.layers[index].transform(
                np.zeros((1,) + spikes.features, dtype=np.float64)
            ))
            spec = self._drive_specs[key] = (probe.shape[1:], probe.dtype)
        return spec

    def _fused_layer_drive(
        self,
        index: int,
        spikes: _SpikeRows,
        kernel: np.ndarray,
        window: tuple,
    ) -> Optional[np.ndarray]:
        """Layer ``index``'s ``(w_hi - w_lo, batch, ...)`` drive chunk over
        the global steps ``[w_lo, w_hi) = window``; ``None`` where it is
        exactly zero.

        ``spikes`` holds the upstream layer's occupied ``(step, sample)``
        rows; ``kernel`` is indexed by global step.  Time is folded into the
        batch axis, so the chunk's rows go through one wide transform call
        (or a few, in :data:`FUSED_CHUNK_BYTES` blocks of the call's widest
        array: the PSC rows or the wider ``layer.row_bytes``) -- exact
        because every transform acts on each row independently:

        * the per-step PSC kernel weights are applied as one broadcast
          ``np.multiply(counts, kernel, dtype=float64)`` per block, which
          casts the int16 counts inside the ufunc; neither the float64 PSC
          nor the drive ever exists beyond one chunk,
        * only the occupied rows are transformed and the silent rows keep
          zero drive (a transform maps zero to exactly zero) -- at the
          >80 % silent-row fractions of the temporal codes' hidden layers
          most of the window costs nothing, and a chunk with neither spikes
          nor bias rows is ``None``.

        The values are exact w.r.t. a time-outer per-step loop: each row
        sees ``transform(count * kernel[t])`` computed with the same dtypes
        and operation order, and the step bias is added to each biased time
        row exactly once afterwards.
        """
        layer = self.layers[index]
        w_lo, w_hi = window
        batch = spikes.batch
        num_steps = w_hi - w_lo
        rows, counts = spikes.window(w_lo, w_hi)
        bias_stop = max(min(self._bias_rows(layer), w_hi) - w_lo, 0)
        if rows.size == 0 and not bias_stop:
            return None
        #: Per row: the kernel weight of the step it came from.
        row_kernel = kernel[w_lo + rows // batch].reshape(
            (-1,) + (1,) * len(spikes.features)
        )
        block = self._block_rows(
            max(8 * int(np.prod(spikes.features)), layer.row_bytes or 0)
        )
        drive = None
        for start in range(0, rows.size, block):
            part = slice(start, start + block)
            psc = np.multiply(counts[part], row_kernel[part], dtype=np.float64)
            out = np.asarray(layer.transform(psc))
            if drive is None:
                # Silent rows carry zero drive: the transform of a zero PSC
                # is zero.
                drive = np.zeros((num_steps * batch,) + out.shape[1:], out.dtype)
            drive[rows[part]] = out
        if drive is None:  # bias rows, but no spikes to transform
            shape, dtype = self._drive_spec(index, spikes)
            drive = np.zeros((num_steps * batch,) + shape, dtype=dtype)
        drive = drive.reshape((num_steps, batch) + drive.shape[1:])
        if bias_stop:
            # One bias addition per biased time row -- the same single
            # ``transform + bias`` float add a per-step loop performs.
            drive[:bias_stop] += layer.step_bias
        return drive

    def _integrated_membrane(
        self,
        layer: SimulatorLayer,
        spikes: _SpikeRows,
        kernel: np.ndarray,
        steps: tuple,
        bias_steps: int,
    ) -> np.ndarray:
        """Membrane of a layer that has integrated without spiking so far
        (the readout: over the whole window).

        ``float64(transform(psc)) + bias_steps * float64(step_bias)`` with
        ``psc`` the float64 sum, in step order, of ``kernel[t] * counts[t]``
        over the global steps ``[lo, hi) = steps``.  Silent rows, steps
        outside ``steps`` and steps with a zero kernel weight contribute
        exact zeros and are skipped: adding ``0.0`` to a sum that starts at
        ``+0.0`` changes no bit.
        """
        batch = spikes.batch
        psc = np.zeros((batch,) + spikes.features, dtype=np.float64)
        buffer = np.empty_like(psc)
        for rows, counts in spikes.segments(*steps):
            row_steps = rows // batch
            cuts = np.flatnonzero(np.diff(row_steps)) + 1
            for lo, hi in zip([0, *cuts], [*cuts, rows.size]):
                step = int(row_steps[lo])
                if kernel[step]:
                    term = np.multiply(counts[lo:hi], kernel[step], out=buffer[:hi - lo])
                    if hi - lo == batch:  # every sample, in order
                        psc += term
                    else:
                        psc[rows[lo:hi] - step * batch] += term
        membrane = np.asarray(layer.transform(psc), dtype=np.float64)
        if bias_steps > 0:
            membrane = membrane + bias_steps * np.asarray(
                layer.step_bias, dtype=np.float64
            )
        return membrane

    def _bias_rows(self, layer: SimulatorLayer) -> int:
        """Number of leading global steps that carry ``layer.step_bias``."""
        if layer.step_bias is None:
            return 0
        stop = self.num_steps if layer.bias_stop is None else int(layer.bias_stop)
        return max(min(stop, self.num_steps), 0)
