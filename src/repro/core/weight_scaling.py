"""Weight scaling against deletion noise (Sec. IV of the paper).

Spike deletion with probability ``p`` reduces the expected post-synaptic
current of an activation ``A`` to ``(1 - p) A``.  Weight scaling compensates
by multiplying the synaptic weights by a factor ``C`` chosen from the
expected deletion probability, so the effective activation is restored
without retraining -- the property that makes the approach compatible with
DNN-to-SNN conversion.

Two factor rules are provided:

* ``"inverse"`` (default): ``C = 1 / (1 - p)``, the exact inverse of the
  expected loss,
* ``"proportional"``: ``C = 1 + alpha * p``, the simpler rule the paper
  describes as "proportional to the deletion probability" (alpha = 1 by
  default).

Because spikes carry the activations but biases are injected as constant
currents, the scaling applies to spike-borne PSC only -- which is how the
transport evaluator applies it (decoded PSC is multiplied by ``C`` before the
segment's weights, equivalent to ``W' = C W`` with unscaled bias).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.config import validate_choice
from repro.utils.validation import check_non_negative, check_probability

#: Factor rules understood by :class:`WeightScaling`.
FACTOR_MODES = ("inverse", "proportional", "none")


@dataclass(frozen=True)
class WeightScaling:
    """Weight-scaling policy.

    Attributes
    ----------
    mode:
        One of ``"inverse"``, ``"proportional"``, ``"none"``.
    alpha:
        Slope of the proportional rule (ignored by the other modes).
    max_factor:
        Upper bound on the scale factor; ``1/(1-p)`` diverges as p -> 1 and
        real hardware cannot scale weights arbitrarily.
    """

    mode: str = "inverse"
    alpha: float = 1.0
    max_factor: float = 10.0

    def __post_init__(self) -> None:
        validate_choice("mode", self.mode, FACTOR_MODES)
        check_non_negative("alpha", self.alpha)
        check_non_negative("max_factor", self.max_factor)

    @classmethod
    def disabled(cls) -> "WeightScaling":
        """A policy that never scales (the "no WS" baselines of the paper)."""
        return cls(mode="none")

    def factor(self, deletion_probability: float) -> float:
        """Scale factor ``C`` for an expected deletion probability ``p``."""
        p = check_probability("deletion_probability", deletion_probability)
        if self.mode == "none" or p == 0.0:
            return 1.0
        if self.mode == "inverse":
            if p >= 1.0:
                return self.max_factor
            factor = 1.0 / (1.0 - p)
        else:  # proportional
            factor = 1.0 + self.alpha * p
        return float(min(factor, self.max_factor))
