"""Spike-train noise models.

The paper models the dynamic noise of analog neuromorphic hardware as noisy
*output spikes* rather than noisy parameters (Sec. II-B): spikes are deleted
with probability ``p`` or shifted in time by quantised Gaussian jitter with
standard deviation ``sigma``.  :class:`NoiseInjector` is the one spike-noise
value: those two levels plus, as extensions, three structured hardware
faults (correlated burst errors, dead neurons, stuck-at-fire neurons),
applied in one fixed order.  Also extensions: the parametric weight-noise
model used by earlier work for comparison (:mod:`repro.noise.weights`),
weight quantisation (:func:`quantize_network`), and the budgeted worst-case
spike-timing perturbation spaces and attack search drivers of
:mod:`repro.noise.adversarial`.
"""

from repro.noise.adversarial import (
    ATTACK_KINDS,
    ATTACK_SEARCHES,
    AttackOutcome,
    DeleteSpace,
    InsertSpace,
    PerturbationSpace,
    ShiftSpace,
    beam_attack,
    classification_margins,
    greedy_attack,
    make_space,
    random_attack,
    run_attack_search,
    stack_trains,
)
from repro.noise.faults import quantize_network
from repro.noise.injector import NoiseInjector
from repro.noise.weights import GaussianWeightNoise

__all__ = [
    "quantize_network",
    "NoiseInjector",
    "GaussianWeightNoise",
    "ATTACK_KINDS",
    "ATTACK_SEARCHES",
    "AttackOutcome",
    "PerturbationSpace",
    "DeleteSpace",
    "ShiftSpace",
    "InsertSpace",
    "make_space",
    "greedy_attack",
    "beam_attack",
    "random_attack",
    "run_attack_search",
    "classification_margins",
    "stack_trains",
]
