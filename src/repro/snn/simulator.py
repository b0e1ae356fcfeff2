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
time step independently, the time loop hoists *inside* each layer.  The
layer's ``(T, batch, ...)`` drive tensor comes out of a handful of wide
transform calls (time folded into the batch axis), the neurons advance over
the window with a vectorised :meth:`~repro.snn.neurons.SpikingNeuron.advance`
scan, and all-zero time rows are skipped before zero-preserving transforms.

The engine schedules every layer by its **protocol window**: under a
per-layer temporal protocol a layer is provably silent outside its firing
window and its incoming kernel's support, so drive is materialised and
neurons advanced only over that active sub-window -- assembled straight from
the upstream train's occupied steps (event lists densify just the
sub-window) -- and the constant bias-only prefix is replayed as a
closed-form membrane seed.  Skipping the prefix rests on ``transform(0) ==
0``; a layer whose transform does not declare ``zero_preserving`` is
integrated from step 0.  The reference time-outer loop the engine is tested
against lives in the test suite.

Layers may carry **per-layer incoming kernels** and **firing/bias windows**
(:class:`SimulatorLayer.in_kernel` / ``bias_stop``): this is how the
coder-aware temporal protocols (:mod:`repro.coding.protocol`) lay the layers
of TTFS/TTAS/phase networks out on a shared global time grid.  Layers
without their own kernel fall back to the simulator-wide
``input_kernel``/``hidden_kernel`` pair, which keeps the historical
rate-coded construction (and its results) bit-identical.
"""

from __future__ import annotations

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
#: ``W x + b_step`` for dense layers, the convolution for conv layers, ...).
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
    """

    transform: SynapticTransform
    neuron: Optional[SpikingNeuron]
    name: str = "layer"
    step_bias: Optional[np.ndarray] = None
    in_kernel: Optional[np.ndarray] = None
    bias_stop: Optional[int] = None


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
        """Mask a whole window of emitted spikes (``(T, batch, *features)``)."""
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
    readout_mode:
        ``"batched"`` (default) accumulates the readout layer's input PSC
        over the whole window and applies its synaptic transform **once** per
        run -- one GEMM per batch instead of one per time step.  This is
        exact whenever the readout transform is linear (true for every
        transform built by :mod:`repro.core.timestep`, where the bias is
        injected separately via ``step_bias``).  ``"per-step"`` keeps the
        step-by-step evaluation for non-linear custom transforms (folded
        into one transform call over the time-folded batch, which is exact
        for any per-sample transform), accumulated over time.
    input_steps:
        Length of the input spike trains handed to :meth:`run` (default:
        ``num_steps``).  Per-layer temporal protocols simulate a global
        window longer than the encode window; input trains are zero-padded
        up to ``num_steps`` (no spikes arrive outside the encode window).
    """

    READOUT_MODES = ("batched", "per-step")

    def __init__(
        self,
        layers: Sequence[SimulatorLayer],
        num_steps: int,
        input_kernel: np.ndarray,
        hidden_kernel: Optional[np.ndarray] = None,
        readout_mode: str = "batched",
        input_steps: Optional[int] = None,
    ):
        check_positive("num_steps", num_steps)
        if not layers:
            raise ValueError("the simulator needs at least one layer")
        if layers[-1].neuron is not None:
            raise ValueError("the last layer must be a readout layer (neuron=None)")
        if readout_mode not in self.READOUT_MODES:
            raise ValueError(
                f"readout_mode must be one of {self.READOUT_MODES}, "
                f"got {readout_mode!r}"
            )
        self.layers = list(layers)
        self.num_steps = int(num_steps)
        self.readout_mode = readout_mode
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
            (either backend; event lists densify only the occupied steps).
        record_spikes:
            Keep the full spike trains of every hidden layer in the record
            (memory heavy; meant for small validation runs and plots).
        layer_faults:
            Optional persistent hardware-fault masks
            (:class:`LayerFaultMask`) keyed by spiking-layer name; each
            layer's mask corrupts its emitted spikes (gated by the layer
            neuron's firing window).

        Every layer is scheduled by its **active window** ``[a_lo, a_hi)``.
        Under a per-layer temporal protocol a layer can only be driven
        inside its incoming kernel's support intersected with the upstream
        spikes' occupied window, and can only emit inside its neuron's
        firing window (plus the burst spill of ``target_duration - 1``
        steps).  For a ``zero_preserving`` transform everything before the
        active window is a constant bias-only prefix: the transform maps the
        silent PSC to exactly zero, no spike can start before
        ``fire_start``, and the membrane after the prefix is just ``n``
        accumulated bias rows -- replayed here as a cheap sequential seed
        over a single bias row, with the same dtype chain and addition order
        as integrating the full grid, so the result is bit-identical to it.
        A transform without that guarantee starts its window at step 0.
        The layer's drive is assembled and its neuron advanced over the
        active window only; the upstream spikes arrive as a compact window
        straight from the input train's occupied steps or the previous
        layer's firing window, and the readout consumes the zero-padded
        full-grid spike window.
        """
        if input_spikes.num_steps != self.input_steps:
            raise ValueError(
                f"input spike train has {input_spikes.num_steps} steps, "
                f"simulator expects {self.input_steps}"
            )
        if not input_spikes.population_shape:
            raise ValueError("input spike train must include a batch dimension")
        lo, hi = input_spikes.step_support()
        if hi > lo:
            counts = np.asarray(input_spikes.window_counts(lo, hi))
            win_lo = lo
        else:
            counts = np.zeros(
                (0,) + tuple(input_spikes.population_shape), dtype=np.int16
            )
            win_lo = 0
        spike_counts: Dict[str, int] = {layer.name: 0 for layer in self.layers}
        recorded: Dict[str, SpikeTrainArray] = {}
        output_potential: Optional[np.ndarray] = None

        for index, layer in enumerate(self.layers):
            kernel = self.layer_kernels[index]
            if layer.neuron is None:
                output_potential = self._fused_readout(
                    layer, kernel, self._pad_window(counts, win_lo)
                )
                break
            fire_start = int(getattr(layer.neuron, "fire_start", 0))
            fire_stop = getattr(layer.neuron, "fire_stop", None)
            fire_hi = (
                self.num_steps
                if fire_stop is None
                else min(int(fire_stop), self.num_steps)
            )
            # A burst started on the window's last step keeps spilling.
            spill = max(int(getattr(layer.neuron, "target_duration", 1)) - 1, 0)
            a_hi = min(fire_hi + spill, self.num_steps)
            k_lo, k_hi = self.layer_kernel_supports[index]
            drive_lo = max(k_lo, win_lo)
            drive_hi = min(k_hi, win_lo + counts.shape[0])
            a_lo = min(drive_lo, fire_start) if drive_lo < drive_hi else fire_start
            if not getattr(layer.transform, "zero_preserving", False):
                # Only transform(0) == 0 makes the skipped prefix bias-only.
                a_lo = 0
            a_lo = min(a_lo, a_hi)

            if a_hi > a_lo:
                drive = self._fused_layer_drive(
                    layer, counts, kernel,
                    window=(a_lo, a_hi), counts_offset=win_lo,
                )
                state = layer.neuron.init_state(drive.shape[1:])
                bias_hi = 0
                if layer.step_bias is not None:
                    bias_hi = (
                        self.num_steps
                        if layer.bias_stop is None
                        else min(int(layer.bias_stop), self.num_steps)
                    )
                prefix = min(bias_hi, a_lo)
                if prefix > 0:
                    # The skipped steps [0, a_lo) carry zero transform drive
                    # plus the step bias on their first `prefix` rows.
                    # Replay those rows on one bias row: same float32 bias
                    # add as finish(), same sequential float64 accumulation
                    # as the neuron's integration -- bit-identical membrane.
                    row_shape = (1,) + tuple(drive.shape[2:])
                    if np.broadcast_shapes(
                        row_shape, np.shape(layer.step_bias)
                    ) != row_shape:
                        # A per-sample bias needs the full batch row.
                        row_shape = tuple(drive.shape[1:])
                    bias_row = np.zeros(row_shape, dtype=drive.dtype)
                    bias_row += layer.step_bias
                    seed = np.zeros(bias_row.shape, dtype=np.float64)
                    for _ in range(prefix):
                        np.add(seed, bias_row, out=seed)
                    state.membrane[...] = seed
                state.step_index = a_lo
                spikes = layer.neuron.advance(state, drive)
            else:
                # The layer's windows lie entirely outside the grid: it is
                # silent everywhere; probe one zero row for the shape.
                probe = np.asarray(
                    layer.transform(
                        np.zeros((1,) + counts.shape[2:], dtype=np.float64)
                    )
                )
                spikes = np.zeros(
                    (0, counts.shape[1]) + probe.shape[1:], dtype=np.int16
                )
            fault = layer_faults.get(layer.name) if layer_faults else None
            if fault is not None:
                spikes = fault.apply_window(
                    spikes,
                    fire_start - a_lo,
                    None if fire_stop is None else int(fire_stop) - a_lo,
                )
            spike_counts[layer.name] += int(spikes.sum())
            if record_spikes:
                recorded[layer.name] = SpikeTrainArray(
                    self._pad_window(spikes, a_lo), copy=False
                )
            # Rows before the firing window are all-zero; hand downstream
            # only the window spikes can live in.
            trim = min(max(fire_start - a_lo, 0), spikes.shape[0])
            counts = spikes[trim:]
            win_lo = a_lo + trim

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

    #: Upper bound on the folded input bytes handed to one synaptic-transform
    #: call.  Folding the whole ``T * B`` window into one call maximises GEMM
    #: width but -- for conv layers, whose im2col patch buffers are ~k*k times
    #: the input -- spills the per-call working set out of the CPU caches and
    #: goes DRAM-bound (measured: a 3x3 conv over 16x16x16 maps peaks at
    #: ~128 folded rows and is 2x slower at 512).  Chunking the fold keeps
    #: each call cache-resident while still amortising per-call overhead over
    #: many time steps; rows are processed in blocks of this many input
    #: bytes.
    FUSED_CHUNK_BYTES = 4 << 20

    #: Skip silent (step, sample) rows only when at least this fraction of
    #: the window is silent: the gather/scatter around the transform costs a
    #: pass over the surviving rows, which only pays off at real sparsity.
    FUSED_SKIP_THRESHOLD = 0.2

    def _fused_layer_drive(
        self,
        layer: SimulatorLayer,
        counts: np.ndarray,
        kernel: np.ndarray,
        window: Optional[tuple] = None,
        counts_offset: int = 0,
    ) -> np.ndarray:
        """One layer's ``(T, B, ...)`` drive tensor from spike counts.

        By default the whole window of ``counts`` is materialised.
        :meth:`run` instead passes a layer's active window ``window =
        (w_lo, w_hi)`` plus the global step of ``counts[0]``
        (``counts_offset``): only those ``w_hi - w_lo`` time rows are
        assembled and transformed, with steps outside the supplied counts
        treated as silent.  ``kernel`` is always indexed by global step.

        Time is folded into the batch axis, so T per-step transform calls
        collapse into a handful of wide calls -- exact because every transform acts on each (step, sample) row
        independently.  Three fusions keep the fold off DRAM:

        * the per-step PSC kernel weights are applied as one broadcast
          multiply -- per chunk, so the float64 PSC tensor never materialises
          at window size (the full-window arrays are the int16 spike counts
          coming in and the float32 drive going out),
        * rows are processed in cache-sized blocks
          (:data:`FUSED_CHUNK_BYTES`): conv im2col patch buffers are ~k*k
          times their input, and a whole-window fold would spill them out of
          cache and go memory-bound,
        * when the transform maps zero to zero exactly (``zero_preserving``,
          true by construction for the bias-separated
          :class:`repro.core.timestep._SegmentTransform`), silent
          (step, sample) rows are dropped before the transform and receive
          the bare bias current after -- at the >90 % spike sparsities the
          codes produce, most of the window costs nothing beyond the
          occupancy scan.

        The values are exact w.r.t. a time-outer per-step loop: each chunk
        row sees ``transform(count * kernel[t])`` computed with the same
        dtypes and operation order, and the step bias is added to
        each biased time row exactly once afterwards.
        """
        if window is None:
            w_lo, w_hi = 0, counts.shape[0]
        else:
            w_lo, w_hi = int(window[0]), int(window[1])
        batch = counts.shape[1]
        population = counts.shape[2:]
        num_steps = w_hi - w_lo
        c_lo = int(counts_offset)
        c_hi = c_lo + counts.shape[0]
        if c_lo <= w_lo and w_hi <= c_hi:
            win_counts = counts[w_lo - c_lo : w_hi - c_lo]
        else:
            # Steps of the window not covered by the supplied counts are
            # silent by construction (the upstream layer cannot emit there).
            win_counts = np.zeros(
                (num_steps,) + counts.shape[1:], dtype=counts.dtype
            )
            lo, hi = max(w_lo, c_lo), min(w_hi, c_hi)
            if hi > lo:
                win_counts[lo - w_lo : hi - w_lo] = counts[lo - c_lo : hi - c_lo]
        total = num_steps * batch
        flat_counts = win_counts.reshape((total,) + population)
        #: Per folded row: the kernel weight of the step it came from.
        row_kernel = np.repeat(kernel[w_lo:w_hi], batch).reshape(
            (total,) + (1,) * len(population)
        )

        active = None
        if getattr(layer.transform, "zero_preserving", False):
            occupied = flat_counts.reshape(total, -1).any(axis=1)
            silent_fraction = 1.0 - (np.count_nonzero(occupied) / total)
            if silent_fraction >= self.FUSED_SKIP_THRESHOLD:
                active = np.flatnonzero(occupied)

        # float64 PSC rows are 8 bytes each; chunk on their size.
        row_bytes = max(int(np.prod(population)) * 8, 1)
        rows_per_chunk = max(1, self.FUSED_CHUNK_BYTES // row_bytes)

        def transformed(rows) -> np.ndarray:
            psc = flat_counts[rows].astype(np.float64) * row_kernel[rows]
            return np.asarray(layer.transform(psc))

        def finish(drive: np.ndarray) -> np.ndarray:
            rows = drive.reshape((num_steps, batch) + drive.shape[1:])
            if layer.step_bias is not None:
                # One bias addition per biased time row -- the same single
                # ``transform + bias`` float add a per-step loop performs,
                # restricted to the layer's bias window (a global step
                # horizon, re-based onto this window's rows).
                stop = (
                    w_hi
                    if layer.bias_stop is None
                    else min(int(layer.bias_stop), w_hi)
                )
                stop = max(stop - w_lo, 0)
                rows[:stop] += layer.step_bias
            return rows

        if active is not None and active.size == 0:
            # Whole window silent: probe one zero row for the output shape;
            # every row carries at most the bare bias current.
            out = np.asarray(
                layer.transform(np.zeros((1,) + population, dtype=np.float64))
            )
            drive = np.zeros((total,) + out.shape[1:], dtype=out.dtype)
            return finish(drive)

        if active is None:
            # Dense window: contiguous slice chunks, no gather/scatter.
            probe = transformed(slice(0, min(rows_per_chunk, total)))
            drive = np.empty((total,) + probe.shape[1:], dtype=probe.dtype)
            drive[:probe.shape[0]] = probe
            chunks = [
                slice(start, min(start + rows_per_chunk, total))
                for start in range(rows_per_chunk, total, rows_per_chunk)
            ]
        else:
            probe = transformed(active[:min(rows_per_chunk, active.size)])
            drive = np.empty((total,) + probe.shape[1:], dtype=probe.dtype)
            # Silent rows carry zero drive (the transform of a zero PSC is
            # zero); their bias current, if any, is added in finish().
            drive[...] = 0.0
            drive[active[:probe.shape[0]]] = probe
            chunks = [
                active[start:start + rows_per_chunk]
                for start in range(rows_per_chunk, active.size, rows_per_chunk)
            ]

        for rows in chunks:
            drive[rows] = transformed(rows)
        return finish(drive)

    def _fused_readout(
        self,
        layer: SimulatorLayer,
        kernel: np.ndarray,
        counts: np.ndarray,
    ) -> np.ndarray:
        """Readout potential from the last hidden layer's full spike window."""
        if self.readout_mode == "batched":
            # Linear readout: the per-step weighted sums collapse into one
            # kernel-weighted time contraction (no window-sized float64 PSC
            # temporary) and one GEMM.
            psc = np.einsum("t,t...->...", kernel, counts)
            output_potential = np.asarray(layer.transform(psc))
            if layer.step_bias is not None:
                bias_steps = (
                    self.num_steps
                    if layer.bias_stop is None
                    else min(int(layer.bias_stop), self.num_steps)
                )
                output_potential = output_potential + bias_steps * layer.step_bias
            return output_potential
        # Non-linear readout: transform every (step, sample) row
        # independently (folded), then accumulate over time.
        drive = self._fused_layer_drive(layer, counts, kernel)
        return drive.sum(axis=0)

    def _pad_window(self, window: np.ndarray, offset: int) -> np.ndarray:
        """Zero-pad a ``(w, B, ...)`` step window onto the full global grid."""
        if offset == 0 and window.shape[0] == self.num_steps:
            return window
        full = np.zeros(
            (self.num_steps,) + window.shape[1:], dtype=window.dtype
        )
        full[offset : offset + window.shape[0]] = window
        return full
