"""Per-layer temporal protocols: a coder's contract with the faithful simulator.

The time-stepped simulator (:mod:`repro.snn.simulator`) runs real membrane
dynamics; what makes it *faithful to a coding scheme* is how the scheme lays
its layers out in time.  A :class:`SimulationProtocol` captures exactly that,
per spiking interface of a converted network:

* the **firing window** ``[start, stop)`` in which the interface's spikes
  live (the input encoder's window for interface 0, each hidden layer's
  window after it),
* the **emission kernel** -- per-step PSC weights of the spikes the
  interface emits, on the global simulation grid (this *is* the coder's
  decode rule, applied continuously by the downstream integrators and by the
  readout: the readout potential is the kernel-weighted sum of the last
  hidden layer's spikes, i.e. the coder's own decode of that train),
* the **neuron dynamics** of each hidden interface -- threshold schedule,
  decay, burst gain -- as a configured :class:`repro.snn.neurons.SpikingNeuron`,
* the **bias horizon** -- over how many leading steps a segment's bias
  current is spread so the full analog bias has arrived by the time the
  layer's firing decisions depend on it.

Coders whose scheme genuinely has no such correspondence raise
:class:`UnsupportedCoderError` (a :class:`TypeError`) from
:meth:`repro.coding.base.NeuralCoder.simulation_protocol`, with the reason in
the message -- per capability, not per coder class, so the bridge stays
honest without blanket-refusing everything that is not rate coding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.snn.neurons import SpikingNeuron


class UnsupportedCoderError(TypeError):
    """The coder has no faithful time-stepped correspondence.

    A :class:`TypeError` subclass: refusing a coder the simulator cannot
    model is a type-level contract violation, and callers that guarded the
    old rate-only bridge with ``except TypeError`` keep working.
    """


@dataclass(frozen=True)
class InterfaceProtocol:
    """One spiking interface's role in the faithful simulation.

    Attributes
    ----------
    kernel:
        Per-step PSC weights (length = the protocol's ``num_steps``) applied
        to the spikes *emitted* at this interface.  Zero outside the
        interface's temporal window.
    neuron:
        Configured neuron model of the interface's population; ``None`` for
        interface 0, whose spikes come from the coder's input encoding.
    window:
        Firing window ``[start, stop)`` of this interface's spikes (for
        interface 0: the encode window).
    bias_steps:
        Number of leading simulation steps over which the bias of the
        segment *driving this interface* is spread (the full analog bias has
        arrived after ``bias_steps`` steps, and none is injected later).
        ``None`` means the whole window.
    """

    kernel: np.ndarray
    neuron: Optional[SpikingNeuron] = None
    window: Tuple[int, int] = (0, 0)
    bias_steps: Optional[int] = None


@dataclass(frozen=True)
class SimulationProtocol:
    """A coder's complete per-layer layout for one network depth.

    Attributes
    ----------
    num_steps:
        Global simulation window length.  Rate-like codes share one window
        across all layers (``num_steps == encode_steps``); temporal codes
        extend it so each layer gets its own window (TTFS/TTAS: one full
        window per layer; phase: one oscillator period of pipeline lag per
        layer).
    encode_steps:
        Length of the input spike train the coder's ``encode`` produces
        (``coder.num_steps``); the simulator zero-pads it to ``num_steps``.
    layers:
        One :class:`InterfaceProtocol` per spiking interface, input first
        (so ``len(layers) == num_hidden_interfaces + 1``).
    """

    num_steps: int
    encode_steps: int
    layers: List[InterfaceProtocol] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_steps <= 0 or self.encode_steps <= 0:
            raise ValueError("num_steps and encode_steps must be positive")
        if self.encode_steps > self.num_steps:
            raise ValueError(
                f"encode_steps ({self.encode_steps}) cannot exceed "
                f"num_steps ({self.num_steps})"
            )
        if not self.layers:
            raise ValueError("a simulation protocol needs at least one interface")
        if self.layers[0].neuron is not None:
            raise ValueError("interface 0 is the input encoding (neuron=None)")
        for index, layer in enumerate(self.layers):
            if index > 0 and layer.neuron is None:
                raise ValueError(f"hidden interface {index} needs a neuron model")
            kernel = np.asarray(layer.kernel)
            if kernel.shape != (self.num_steps,):
                raise ValueError(
                    f"interface {index} kernel must have shape "
                    f"({self.num_steps},), got {kernel.shape}"
                )


def sequential_window_protocol(
    window: int,
    num_hidden_interfaces: int,
    input_weights: np.ndarray,
    hidden_weights,
    hidden_neuron,
) -> SimulationProtocol:
    """One-full-window-per-layer layout shared by the TTFS and TTAS protocols.

    Interface ``l`` lives in window ``[l*window, (l+1)*window)``; each
    segment's bias is fully delivered before its consumer layer's window
    opens (``bias_steps = start``).  ``hidden_weights(start, stop, total)``
    returns the emission weights of a hidden interface starting at
    ``start`` (may extend past ``stop`` for burst spill; truncated at the
    global end), and ``hidden_neuron(start, stop)`` builds its windowed
    neuron model.
    """
    num_hidden = int(num_hidden_interfaces)
    total = (num_hidden + 1) * int(window)
    layers = [
        InterfaceProtocol(
            kernel=windowed_kernel(total, 0, input_weights),
            neuron=None,
            window=(0, int(window)),
        )
    ]
    for index in range(1, num_hidden + 1):
        start = index * int(window)
        stop = start + int(window)
        layers.append(
            InterfaceProtocol(
                kernel=windowed_kernel(
                    total, start, hidden_weights(start, stop, total)
                ),
                neuron=hidden_neuron(start, stop),
                window=(start, stop),
                bias_steps=start,
            )
        )
    return SimulationProtocol(
        num_steps=total, encode_steps=int(window), layers=layers
    )


def windowed_kernel(
    num_steps: int, start: int, weights: np.ndarray
) -> np.ndarray:
    """Place ``weights`` at offset ``start`` on a zero global kernel grid.

    Weights reaching past the end of the grid are truncated -- the same
    boundary behaviour the coders' encoders apply to spikes that would fall
    past the window end.
    """
    kernel = np.zeros(int(num_steps), dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    stop = min(int(start) + weights.shape[0], int(num_steps))
    if stop > start:
        kernel[start:stop] = weights[: stop - start]
    return kernel
