"""Neural coding schemes.

A *coder* defines how a (normalised) activation value is represented as a
spike train and how a spike train is read back into a post-synaptic current.
The library implements the four codings the paper analyses plus its proposed
fifth:

* :class:`RateCoder`   -- firing-rate code (Han et al. 2020 style),
* :class:`PhaseCoder`  -- phase/weighted-spike code (Kim et al. 2018),
* :class:`BurstCoder`  -- burst code (Park et al. DAC 2019),
* :class:`TTFSCoder`   -- time-to-first-spike code (Park et al. DAC 2020),
* :class:`TTASCoder`   -- time-to-average-spike code, the paper's contribution.

Use :func:`create_coder` to build a coder by name.

Each coder also publishes its faithful-simulator contract -- the per-layer
temporal protocol of :mod:`repro.coding.protocol` -- through
:meth:`NeuralCoder.simulation_protocol`; schemes with no faithful
correspondence raise :class:`UnsupportedCoderError` there.
"""

from repro.coding.base import NeuralCoder
from repro.coding.protocol import (
    InterfaceProtocol,
    SimulationProtocol,
    UnsupportedCoderError,
    windowed_kernel,
)
from repro.coding.rate import RateCoder
from repro.coding.phase import PhaseCoder
from repro.coding.burst import BurstCoder
from repro.coding.ttfs import TTFSCoder
from repro.coding.ttas import TTASCoder
from repro.coding.registry import (
    CODER_NAMES,
    available_coders,
    create_coder,
    timestep_support,
)

__all__ = [
    "NeuralCoder",
    "InterfaceProtocol",
    "SimulationProtocol",
    "UnsupportedCoderError",
    "windowed_kernel",
    "timestep_support",
    "RateCoder",
    "PhaseCoder",
    "BurstCoder",
    "TTFSCoder",
    "TTASCoder",
    "CODER_NAMES",
    "available_coders",
    "create_coder",
]
