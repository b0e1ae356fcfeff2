"""Energy proxy for spike counts.

The right-hand axes of Figs. 2 and 3 and the spike-count columns of Table I
report the number of spikes an inference uses -- the quantity that determines
the energy draw of event-driven neuromorphic hardware.  ``energy_proxy``
turns spike counts into a relative energy estimate using the standard
"energy per synaptic operation" model.
"""

from __future__ import annotations


#: Energy of one synaptic event in nano-joules: the 0.9 pJ commonly cited
#: for a 45 nm digital accumulate operation.
ENERGY_PER_SPIKE_NJ = 0.9e-3


def energy_proxy(total_spikes: int) -> float:
    """Relative energy estimate (in micro-joules) of an inference.

    Uses the conventional event-driven model: energy ~ number of synaptic
    events x :data:`ENERGY_PER_SPIKE_NJ`; the absolute number matters less
    than the ratio between coding schemes.
    """
    if total_spikes < 0:
        raise ValueError(f"total_spikes must be >= 0, got {total_spikes}")
    return float(total_spikes * ENERGY_PER_SPIKE_NJ) / 1e3
