"""The paper's core contribution: noise-robust deep SNNs.

This package combines the substrates (DNN training, conversion, coding,
noise) into the system the paper proposes:

* :mod:`repro.core.weight_scaling` -- the weight-scaling compensation
  ``W' = C W`` for deletion noise,
* :mod:`repro.core.transport` -- the evaluator contract
  (:class:`BatchEvaluator`) and the fast activation-transport evaluator
  used for every figure/table sweep,
* :mod:`repro.core.pipeline` -- :class:`NoiseRobustSNN`, the end-to-end
  public API (train DNN -> convert -> evaluate under noise), and
  :func:`make_evaluator`, which picks a simulator by name,
* :mod:`repro.core.analysis` -- the activation-distribution analysis of
  Sec. III / Fig. 5B,
* :mod:`repro.core.timestep` -- the faithful time-stepped evaluator
  (:class:`TimestepEvaluator`) and the bridge that builds its simulator
  from a converted network.
"""

from repro.core.weight_scaling import WeightScaling
from repro.core.transport import (
    ActivationTransportSimulator,
    BatchEvaluator,
    TransportResult,
)
from repro.core.pipeline import EvaluationResult, NoiseRobustSNN, make_evaluator
from repro.core.servable import ServableModel
from repro.core.analysis import (
    activation_distribution,
    all_or_none_fraction,
    expected_activation_ratio,
)
from repro.core.timestep import (
    TimestepEvaluator,
    build_time_stepped_simulator,
    evaluate_timestep,
)
from repro.core.calibration import BurstDurationChoice, select_burst_duration

__all__ = [
    "BurstDurationChoice",
    "select_burst_duration",
    "WeightScaling",
    "ActivationTransportSimulator",
    "BatchEvaluator",
    "TimestepEvaluator",
    "TransportResult",
    "NoiseRobustSNN",
    "EvaluationResult",
    "make_evaluator",
    "ServableModel",
    "activation_distribution",
    "all_or_none_fraction",
    "expected_activation_ratio",
    "build_time_stepped_simulator",
    "evaluate_timestep",
]
