"""Spiking-neural-network substrate.

This package provides the building blocks a converted deep SNN is made of:

* :mod:`repro.snn.spikes` -- the dense :class:`SpikeTrainArray` and
  event-driven :class:`SpikeEvents` containers used by every coder and noise
  model,
* :mod:`repro.snn.kernels` -- post-synaptic-current kernels (constant,
  phase-weighted, burst-weighted, exponentially decaying),
* :mod:`repro.snn.neurons` -- integrate-and-fire neurons, the single-spike
  TTFS neuron and the simplified integrate-and-fire-or-burst neuron of the
  paper (Eq. 4),
* :mod:`repro.snn.thresholds` -- empirical threshold selection (paper Sec. V),
* :mod:`repro.snn.simulator` -- a faithful time-stepped layer-by-layer
  simulator used to validate the fast activation-transport evaluator.
"""

from repro.snn.spikes import SpikeEvents, SpikeTrain, SpikeTrainArray
from repro.snn.kernels import (
    BurstKernel,
    ConstantKernel,
    ExponentialKernel,
    PhaseKernel,
    PSCKernel,
)
from repro.snn.neurons import (
    IFNeuron,
    IntegrateFireOrBurstNeuron,
    NeuronState,
    TTFSNeuron,
)
from repro.snn.thresholds import (
    EMPIRICAL_THRESHOLDS,
    balance_thresholds,
    empirical_threshold,
)
from repro.snn.simulator import (
    LayerFaultMask,
    SimulationRecord,
    SimulatorLayer,
    TimeSteppedSimulator,
)

__all__ = [
    "SpikeTrainArray",
    "SpikeEvents",
    "SpikeTrain",
    "PSCKernel",
    "ConstantKernel",
    "ExponentialKernel",
    "PhaseKernel",
    "BurstKernel",
    "NeuronState",
    "IFNeuron",
    "TTFSNeuron",
    "IntegrateFireOrBurstNeuron",
    "EMPIRICAL_THRESHOLDS",
    "empirical_threshold",
    "balance_thresholds",
    "TimeSteppedSimulator",
    "SimulatorLayer",
    "SimulationRecord",
    "LayerFaultMask",
]
