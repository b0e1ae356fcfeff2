"""Energy proxy for spike counts.

The right-hand axes of Figs. 2 and 3 and the spike-count columns of Table I
report the number of spikes an inference uses -- the quantity that determines
the energy draw of event-driven neuromorphic hardware.  ``energy_proxy``
turns spike counts into a relative energy estimate using the standard
"energy per synaptic operation" model.
"""

from __future__ import annotations


def energy_proxy(
    total_spikes: int,
    energy_per_spike_nj: float = 0.9e-3,
    static_power_nj: float = 0.0,
) -> float:
    """Relative energy estimate (in micro-joules) of an inference.

    Uses the conventional event-driven model: energy ~ number of synaptic
    events x energy per event.  The default per-event energy (0.9 pJ) is the
    figure commonly cited for 45 nm digital accumulate operations; the
    absolute number matters less than the ratio between coding schemes.
    """
    if total_spikes < 0:
        raise ValueError(f"total_spikes must be >= 0, got {total_spikes}")
    if energy_per_spike_nj < 0 or static_power_nj < 0:
        raise ValueError("energy terms must be non-negative")
    return float(total_spikes * energy_per_spike_nj + static_power_nj) / 1e3
