"""Coder registry.

Experiments and benchmarks refer to coding schemes by name ("rate", "phase",
"burst", "ttfs", "ttas", and the convenience aliases "ttas(3)" etc. with an
explicit burst duration).  The registry maps those names onto configured
coder instances.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Tuple

from repro.coding.base import NeuralCoder
from repro.coding.burst import BurstCoder
from repro.coding.phase import PhaseCoder
from repro.coding.rate import RateCoder
from repro.coding.ttas import TTASCoder
from repro.coding.ttfs import TTFSCoder

CoderFactory = Callable[..., NeuralCoder]

_REGISTRY: Dict[str, CoderFactory] = {
    "rate": RateCoder,
    "phase": PhaseCoder,
    "burst": BurstCoder,
    "ttfs": TTFSCoder,
    "ttas": TTASCoder,
}

#: Names of the built-in coding schemes, in the order the paper lists them.
CODER_NAMES: List[str] = ["rate", "phase", "burst", "ttfs", "ttas"]

_TTAS_PATTERN = re.compile(r"^ttas\((\d+)\)$")


def available_coders() -> List[str]:
    """Names of every registered coder."""
    return sorted(_REGISTRY)


def create_coder(name: str, num_steps: int = 64, **kwargs) -> NeuralCoder:
    """Instantiate a coder by name.

    ``"ttas(5)"`` is accepted as shorthand for TTAS with
    ``target_duration=5`` (matching the notation of the paper's figures).
    """
    key = name.lower().strip()
    match = _TTAS_PATTERN.match(key)
    if match:
        kwargs.setdefault("target_duration", int(match.group(1)))
        key = "ttas"
    if key not in _REGISTRY:
        raise ValueError(f"unknown coder {name!r}; available: {available_coders()}")
    return _REGISTRY[key](num_steps=num_steps, **kwargs)


def timestep_support(name: str) -> Tuple[bool, str]:
    """Whether a coding scheme (by name) runs on the faithful simulator.

    Returns ``(supported, note)`` where ``note`` states the per-layer
    correspondence (when supported) or the capability gap (when not) --
    resolved from the coder class's ``supports_timestep`` /
    ``timestep_note`` attributes without instantiating it, so sweep configs
    can validate their methods cheaply.  Accepts the same ``"ttas(k)"``
    shorthand as :func:`create_coder`.
    """
    key = name.lower().strip()
    if _TTAS_PATTERN.match(key):
        key = "ttas"
    if key not in _REGISTRY:
        raise ValueError(f"unknown coder {name!r}; available: {available_coders()}")
    factory = _REGISTRY[key]
    return (
        bool(getattr(factory, "supports_timestep", False)),
        str(getattr(factory, "timestep_note", "")),
    )
