"""End-to-end noise-robust SNN pipeline -- the library's main public API.

:class:`NoiseRobustSNN` wraps everything a user needs to reproduce the paper:

>>> snn = NoiseRobustSNN.from_dnn(trained_model, calibration_images,
...                               coding="ttas", target_duration=5,
...                               num_steps=64, weight_scaling=True)
>>> result = snn.evaluate(test_images, test_labels, deletion=0.5)
>>> result.accuracy, result.spikes_per_sample

The pipeline owns the converted network and builds, per evaluation, the coder
/ noise / weight-scaling combination requested -- mirroring how the paper
evaluates one trained network under many noise conditions without any
retraining.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.coding.base import NeuralCoder
from repro.conversion.converter import ConvertedSNN, convert_dnn_to_snn
from repro.core.servable import ServableModel
from repro.core.timestep import TimestepEvaluator
from repro.core.transport import ActivationTransportSimulator, BatchEvaluator
from repro.core.weight_scaling import WeightScaling
from repro.nn.model import Sequential
from repro.noise.base import SpikeNoise
from repro.noise.faults import quantize_network
from repro.noise.injector import NoiseInjector
from repro.utils.rng import RngLike
from repro.utils.validation import check_non_negative, check_probability

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (execution -> pipeline)
    from repro.execution.plan import EvaluationPlan

#: Evaluation simulators a pipeline (and hence a sweep cell) can run on:
#: the fast activation-transport evaluator, or the faithful time-stepped
#: membrane simulation (any coding with a per-layer temporal protocol --
#: rate, phase, TTFS, TTAS).
SIMULATORS = ("transport", "timestep")


def make_evaluator(
    simulator: str,
    network: ConvertedSNN,
    coder: NeuralCoder,
    noise: Optional[SpikeNoise] = None,
    weight_scaling: Optional[WeightScaling] = None,
    expected_deletion: float = 0.0,
    threshold: Optional[float] = None,
    dead: float = 0.0,
    stuck: float = 0.0,
) -> BatchEvaluator:
    """The evaluator of one simulator name -- the only place that picks one.

    ``threshold``, ``dead`` and ``stuck`` configure the faithful
    simulator's hidden neurons; the transport evaluator has no neurons and
    sees dead/stuck faults through ``noise`` alone.
    """
    if simulator == "timestep":
        return TimestepEvaluator(
            network, coder, noise, weight_scaling, expected_deletion,
            threshold=threshold, dead=dead, stuck=stuck,
        )
    if simulator == "transport":
        return ActivationTransportSimulator(
            network, coder, noise, weight_scaling, expected_deletion
        )
    raise ValueError(f"simulator must be one of {SIMULATORS}, got {simulator!r}")


@dataclass
class EvaluationResult:
    """Result of one noisy evaluation of the pipeline.

    Attributes
    ----------
    accuracy:
        Top-1 accuracy.
    total_spikes / spikes_per_sample:
        Spike counts after noise, summed over all spiking interfaces.
    coding:
        Name of the coding scheme used.
    deletion / jitter:
        Noise levels of this evaluation.
    weight_scaling_factor:
        The factor ``C`` that was in effect (1.0 when scaling is disabled).
    num_samples:
        Number of evaluated samples.
    """

    accuracy: float
    total_spikes: int
    spikes_per_sample: float
    coding: str
    deletion: float
    jitter: float
    weight_scaling_factor: float
    num_samples: int

    def as_dict(self) -> Dict[str, float]:
        """Plain-dictionary view used by reporting and the result store."""
        return {
            "accuracy": self.accuracy,
            "total_spikes": self.total_spikes,
            "spikes_per_sample": self.spikes_per_sample,
            "coding": self.coding,
            "deletion": self.deletion,
            "jitter": self.jitter,
            "weight_scaling_factor": self.weight_scaling_factor,
            "num_samples": self.num_samples,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "EvaluationResult":
        """Rebuild a result from :meth:`as_dict` output (JSON round-trip).

        ``float``/``int`` coercions restore the exact dataclass field types,
        so a result loaded from the on-disk store compares equal -- bit for
        bit -- to the freshly evaluated one it was saved from.
        """
        return cls(
            accuracy=float(payload["accuracy"]),
            total_spikes=int(payload["total_spikes"]),
            spikes_per_sample=float(payload["spikes_per_sample"]),
            coding=str(payload["coding"]),
            deletion=float(payload["deletion"]),
            jitter=float(payload["jitter"]),
            weight_scaling_factor=float(payload["weight_scaling_factor"]),
            num_samples=int(payload["num_samples"]),
        )


class NoiseRobustSNN:
    """High-level facade over conversion, coding, noise and weight scaling.

    Instances are normally created with :meth:`from_dnn`.  The constructor
    accepts an already converted network -- or a frozen
    :class:`~repro.core.servable.ServableModel` -- for advanced use (e.g.
    sharing one conversion across many coders in the benchmark harness, or
    evaluating an artifact the serving registry already holds resident).
    """

    def __init__(
        self,
        network: "ConvertedSNN | ServableModel",
        coding: str = "ttas",
        num_steps: int = 64,
        weight_scaling: bool = True,
        coder_kwargs: Optional[Dict] = None,
        simulator: str = "transport",
    ):
        if simulator not in SIMULATORS:
            raise ValueError(
                f"simulator must be one of {SIMULATORS}, got {simulator!r}"
            )
        #: The frozen conversion-time artifact (network + memoised coders)
        #: shared with the serving layer; a bare ConvertedSNN is
        #: wrapped on the way in.
        self.servable = ServableModel.wrap(network)
        self.coding = coding
        self.num_steps = int(num_steps)
        self.coder_kwargs = dict(coder_kwargs or {})
        self.weight_scaling_enabled = bool(weight_scaling)
        #: Evaluation simulator: fast activation transport (default) or the
        #: faithful time-stepped membrane simulation.
        self.simulator = simulator

    @property
    def network(self) -> ConvertedSNN:
        """The converted network inside the servable artifact."""
        return self.servable.network

    # -- construction -------------------------------------------------------------
    @classmethod
    def from_dnn(
        cls,
        model: Sequential,
        calibration_inputs: np.ndarray,
        coding: str = "ttas",
        num_steps: int = 64,
        target_duration: Optional[int] = None,
        weight_scaling: bool = True,
        percentile: float = 99.9,
        simulator: str = "transport",
        **coder_kwargs,
    ) -> "NoiseRobustSNN":
        """Convert a trained DNN and wrap it in a noise-robust SNN pipeline.

        Parameters
        ----------
        model:
            Trained :class:`repro.nn.model.Sequential` classifier.
        calibration_inputs:
            Batch of training images used for activation-scale calibration.
        coding:
            Coding scheme name ("rate", "phase", "burst", "ttfs", "ttas" or
            "ttas(k)").
        num_steps:
            Encoding window length ``T``.
        target_duration:
            Burst duration ``t_a`` (TTAS only).
        weight_scaling:
            Enable the weight-scaling compensation (the inverse rule of
            :class:`repro.core.weight_scaling.WeightScaling`).
        percentile:
            Activation-scale percentile for conversion.
        simulator:
            ``"transport"`` (fast activation-transport evaluation, default)
            or ``"timestep"`` (faithful membrane simulation; every coding
            with a per-layer temporal protocol -- rate, phase, ttfs, ttas).
        coder_kwargs:
            Extra keyword arguments forwarded to the coder constructor.
        """
        network = convert_dnn_to_snn(
            model, calibration_inputs, percentile=percentile
        )
        if target_duration is not None:
            coder_kwargs["target_duration"] = int(target_duration)
        return cls(
            network=network,
            coding=coding,
            num_steps=num_steps,
            weight_scaling=weight_scaling,
            coder_kwargs=coder_kwargs,
            simulator=simulator,
        )

    @classmethod
    def from_plan(cls, plan: "EvaluationPlan", network: ConvertedSNN) -> "NoiseRobustSNN":
        """Build the pipeline of one sweep cell from its declarative plan.

        The plan carries the coder / weight-scaling / simulator
        configuration by value; only the converted network -- resolved from the plan's
        workload reference by the execution engine -- is a live object.
        """
        return cls(
            network=network,
            coding=plan.method.coding,
            num_steps=plan.num_steps,
            weight_scaling=plan.method.weight_scaling,
            coder_kwargs=plan.method.coder_kwargs(),
            simulator=plan.simulator,
        )

    # -- helpers -----------------------------------------------------------------
    def make_coder(self) -> NeuralCoder:
        """The configured coder (memoised on the servable artifact).

        Coders are shareable -- their only mutable state is idempotent
        weight caches -- so repeated evaluations of one pipeline (and any
        serving traffic on the same artifact) reuse a single instance
        instead of rebuilding kernels per call.
        """
        return self.servable.coder(
            self.coding, self.num_steps, **self.coder_kwargs
        )

    def make_weight_scaling(self) -> WeightScaling:
        """Instantiate the configured weight-scaling policy."""
        if not self.weight_scaling_enabled:
            return WeightScaling.disabled()
        return WeightScaling()

    # -- evaluation ----------------------------------------------------------------
    def evaluate(
        self,
        x: np.ndarray,
        labels: Optional[np.ndarray] = None,
        deletion: float = 0.0,
        jitter: float = 0.0,
        batch_size: int = 16,
        rng: RngLike = None,
        dead: float = 0.0,
        stuck: float = 0.0,
        burst_error: float = 0.0,
        sample_offset: int = 0,
        quant_bits: Optional[int] = None,
    ) -> EvaluationResult:
        """Evaluate the SNN under the given noise levels.

        Parameters
        ----------
        x, labels:
            Evaluation images (non-negative) and integer labels.
        deletion:
            Spike-deletion probability ``p``.
        jitter:
            Spike-jitter standard deviation ``sigma`` (time steps).  Weight
            scaling assumes the actual ``deletion`` (the paper scales for
            the noise level it evaluates).
        batch_size:
            Evaluation batch size (both simulators).
        rng:
            Seed or generator for the stochastic noise.
        dead / stuck / burst_error:
            Hardware-fault levels (extension): fraction of dead
            (stuck-at-silent) neurons, fraction of stuck-at-fire neurons,
            and fraction of the time window lost to a correlated burst
            error.  On the transport evaluator the faults corrupt every
            interface train; on the faithful timestep evaluator dead/stuck
            masks are additionally applied inside the simulator to each
            spiking layer's emitted spikes (burst errors hit the input
            train, the only place a transmission window exists).
        sample_offset:
            Absolute position of ``x[0]`` within the full evaluation this
            call is a part of.  Non-zero when evaluating one sample shard of
            a larger cell: per-batch noise streams are keyed by absolute
            sample offsets, so a batch-aligned shard passing its start
            offset reproduces exactly the noise the unsharded evaluation
            would apply to the same samples.
        quant_bits:
            Finite-precision synapse ablation: quantise every weight tensor
            to this many bits (uniform symmetric,
            :class:`repro.noise.faults.WeightQuantizationNoise`) on a *copy*
            of the network before evaluating.  Deterministic -- consumes no
            RNG stream -- and supported on both evaluators; ``None`` = full
            precision.
        """
        check_probability("deletion", deletion)
        check_non_negative("jitter", jitter)
        check_probability("dead", dead)
        check_probability("stuck", stuck)
        check_probability("burst_error", burst_error)
        network = self.network
        if quant_bits is not None:
            network = quantize_network(network, int(quant_bits))
        noise = NoiseInjector.from_levels(
            deletion_probability=deletion, jitter_sigma=jitter,
            burst_error_fraction=burst_error,
            dead_fraction=dead, stuck_fraction=stuck,
        )
        scaling = self.make_weight_scaling()
        evaluator = make_evaluator(
            self.simulator, network, self.make_coder(), noise, scaling, deletion,
            dead=dead, stuck=stuck,
        )
        result = evaluator.evaluate(
            x, labels, batch_size=batch_size, rng=rng, sample_offset=sample_offset
        )
        return EvaluationResult(
            accuracy=result.accuracy,
            total_spikes=result.total_spikes,
            spikes_per_sample=result.spikes_per_sample,
            coding=self.coding,
            deletion=float(deletion),
            jitter=float(jitter),
            weight_scaling_factor=scaling.factor(deletion),
            num_samples=result.num_samples,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NoiseRobustSNN(coding={self.coding!r}, num_steps={self.num_steps}, "
            f"weight_scaling={self.weight_scaling_enabled}, "
            f"network={self.network.source_name!r})"
        )
