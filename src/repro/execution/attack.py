"""Adversarial attack plans: worst-case searches as resumable sweep cells.

An :class:`AttackPlan` describes one cell of a worst-case robustness sweep --
(workload, method, attack kind, budget, search driver, evaluator) -- as a
small frozen picklable value object.  It is the second family of
:class:`~repro.execution.plan.CellPlan`, next to the random-noise
:class:`~repro.execution.plan.EvaluationPlan`, and shares its identity,
sharding and fingerprint surface.  The execution engine treats the two
alike (it calls :meth:`CellPlan.evaluate
<repro.execution.plan.CellPlan.evaluate>`), so attack sweeps inherit the
whole PR 3-8 machinery for free: serial/thread/process executors,
content-addressed :class:`~repro.execution.store.ResultStore` persistence
with resume, per-cell retries/timeouts and fault tolerance, and sample
sharding with completion-order persistence.

The determinism contract is stricter than a noise cell's: the attack search
for sample ``i`` derives every random choice statelessly from the plan
identity and the *absolute* sample index (:meth:`AttackPlan.search_root`),
and the candidate scorer derives its forward-pass streams from that root
plus its own deterministic call ordinal -- so the same plan produces
bit-identical perturbed trains on any executor, at any shard count, under
any worker configuration.

Sharding granularity is per *sample*, not per batch: each sample's search is
independent (there is no cross-sample batch noise stream to preserve), so a
cell of ``n`` samples splits into up to ``n`` shards.

The search always scores candidates on the fast transport evaluator; with
``evaluator="timestep"`` the found attacks are *transfer-evaluated* on the
faithful time-stepped simulator, measuring the transport->faithful attack
gap (the input train is the shared injection point of both evaluators).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, List, Optional, Sequence, Tuple

import numpy as np

from repro.coding.registry import create_coder
from repro.core.pipeline import SIMULATORS, EvaluationResult, make_evaluator
from repro.core.transport import ActivationTransportSimulator
from repro.core.weight_scaling import WeightScaling
from repro.execution.plan import CellPlan, WorkloadRef
from repro.noise.adversarial import (
    ATTACK_KINDS,
    ATTACK_SEARCHES,
    AttackOutcome,
    classification_margins,
    run_attack_search,
    stack_trains,
)
from repro.snn.spikes import SpikeEvents
from repro.utils.rng import derive_rng, derive_rng_at, stream_root

if TYPE_CHECKING:  # pragma: no cover - cycle guard (experiments -> execution)
    from repro.experiments.config import AttackSweepConfig, MethodSpec
    from repro.experiments.workloads import PreparedWorkload

#: Version prefix baked into every attack-cell fingerprint; bump after any
#: semantic change to the search or evaluation path (independent of the
#: noise-cell schema -- the two cell families never alias).
#: Schema 2: the transport evaluator runs rate/phase/burst on per-class
#: spike counts -- the deletion realisation changed, and the rate decode
#: rounds differently at windows that are not a power of two.
#: Schema 3: transfer evaluation runs on the faithful simulator, whose
#: integrate-then-fire membrane seed moves results by float rounding.
ATTACK_FINGERPRINT_SCHEMA = 3


@dataclass(frozen=True)
class AttackPlan(CellPlan):
    """Everything needed to run one attack-sweep cell, by value.

    Attributes
    ----------
    workload:
        Reference to the trained network the cell attacks.
    method:
        Coding / weight-scaling configuration of the attacked curve.
    attack_kind:
        Perturbation space ("delete" / "shift" / "insert").
    budget:
        Maximum number of single-spike moves per sample (0 = clean).
    seed:
        Sweep seed; every search stream derives from it (see
        :meth:`search_root`).
    num_steps:
        Encoding window length ``T`` (resolved from the scale and coding).
    search:
        Attack driver ("greedy" / "beam" / "random").
    max_candidates:
        Candidates scored per search step (see
        :mod:`repro.noise.adversarial`, whose defaults set the shift
        distance and the beam width).
    evaluator:
        Where accuracy is measured: ``"transport"`` (same evaluator that
        scored the search) or ``"timestep"`` (transfer evaluation on the
        faithful simulator).
    eval_size:
        Number of attacked samples (``None`` = the scale's default).
    sample_start / sample_stop:
        Sample-shard bounds over the cell's evaluation slice.  Unlike noise
        shards these need no batch alignment: every sample's search derives
        its streams from the sample's absolute index alone, so any
        contiguous split merges bit-identically.
    """

    schema: ClassVar[int] = ATTACK_FINGERPRINT_SCHEMA

    workload: WorkloadRef
    method: "MethodSpec"
    attack_kind: str
    budget: int
    seed: int
    num_steps: int
    search: str = "greedy"
    max_candidates: int = 64
    evaluator: str = "transport"
    eval_size: Optional[int] = None
    sample_start: Optional[int] = None
    sample_stop: Optional[int] = None

    def __post_init__(self) -> None:
        if self.attack_kind not in ATTACK_KINDS:
            raise ValueError(
                f"attack_kind must be one of {ATTACK_KINDS}, got "
                f"{self.attack_kind!r}"
            )
        if self.search not in ATTACK_SEARCHES:
            raise ValueError(
                f"search must be one of {ATTACK_SEARCHES}, got {self.search!r}"
            )
        if self.evaluator not in SIMULATORS:
            raise ValueError(
                f"evaluator must be one of {SIMULATORS}, got {self.evaluator!r}"
            )
        if int(self.budget) < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        object.__setattr__(self, "budget", int(self.budget))
        if int(self.max_candidates) < 1:
            raise ValueError(
                f"max_candidates must be >= 1, got {self.max_candidates}"
            )
        super().__post_init__()

    # -- identity ------------------------------------------------------------------
    #: Attack shards are per sample: there is no cross-sample batch stream
    #: to preserve, so any contiguous split merges bit-identically.
    shard_unit: ClassVar[int] = 1

    @property
    def simulator(self) -> str:
        """The simulator the cell's accuracy is measured on."""
        return self.evaluator

    @property
    def noise_kind(self) -> str:
        """The sweep axis name rendered in logs, errors and reports."""
        return f"adv-{self.attack_kind}"

    @property
    def level(self) -> float:
        """The budget as the cell's position on the sweep axis."""
        return float(self.budget)

    def axis_label(self) -> str:
        return f"{self.noise_kind}={self.budget} [{self.search}/{self.evaluator}]"

    # -- RNG spec ------------------------------------------------------------------
    def encode_root(self) -> int:
        """Derivation root of the clean-train encode streams.

        Keyed by the seed and the *coder* identity only -- not the search --
        so the greedy curve and its matched-budget random baseline attack
        the exact same clean trains.
        """
        return stream_root(derive_rng(
            self.seed, "attack-encode", self.method.coding,
            str(self.method.target_duration), self.num_steps,
        ))

    def search_root(self) -> int:
        """Derivation root of every search/scoring stream of this cell.

        A pure function of the plan identity: per-sample streams derive from
        ``(search_root, tag, absolute sample index)``, which is what makes
        the found perturbation independent of executor, shard count and
        worker configuration.
        """
        return stream_root(derive_rng(
            self.seed, "attack", self.attack_kind, self.search,
            self.budget, self.method.coding,
            str(self.method.target_duration),
            int(bool(self.method.weight_scaling)),
        ))

    # -- evaluation / fingerprinting -----------------------------------------------
    def evaluate(self, workload: "PreparedWorkload") -> EvaluationResult:
        return evaluate_attack_plan(self, workload)

    def describe(self) -> dict:
        """The cell description of :meth:`CellPlan.describe`, plus:

        the method's cosmetic ``label`` is cleared so relabelled curves
        share one stored result, and the ``cell_kind`` marker plus the
        family's own schema keep attack cells from ever aliasing noise
        cells.
        """
        payload = super().describe()
        payload["method"]["label"] = None
        payload["budget"] = int(self.budget)
        payload["cell_kind"] = "attack"
        # Stored fingerprints hash run_attack_search's default shift and beam.
        payload["shift_delta"] = 2
        payload["beam_width"] = 4
        return payload


class _AttackContext:
    """Per-cell live objects of one attack evaluation (built in the worker).

    Holds the coder, the transport scorer of the search and the plan's
    evaluator of the found trains, built once per cell and reused across
    the cell's samples.  Never crosses process boundaries; workers rebuild
    it from the (picklable) plan.
    """

    def __init__(self, plan: AttackPlan, workload: "PreparedWorkload"):
        self.plan = plan
        self.network = workload.network
        self.coder = create_coder(
            plan.method.coding, num_steps=plan.num_steps,
            **plan.method.coder_kwargs(),
        )
        # Attacks carry no deletion expectation: the scaling factor
        # compensates at the clean operating point.
        scaling = (
            WeightScaling()
            if plan.method.weight_scaling else WeightScaling.disabled()
        )
        self.scorer = ActivationTransportSimulator(
            self.network, self.coder, weight_scaling=scaling
        )
        self.evaluator = make_evaluator(
            plan.evaluator, self.network, self.coder, weight_scaling=scaling
        )
        self.encode_root = plan.encode_root()
        self.search_root = plan.search_root()

    def clean_train(self, image: np.ndarray, absolute: int) -> SpikeEvents:
        """The sample's clean input train (event-backed, canonical)."""
        normalised = (
            np.asarray(image, dtype=np.float32) / self.network.input_scale
        )
        return self.coder.encode(
            normalised,
            rng=derive_rng_at(self.encode_root, "encode", absolute),
        ).to_events()

    def margin_scorer(self, absolute: int, label: int):
        """Batched margin scorer for one sample's candidate trains.

        The forward-pass streams derive from ``(search_root, "score",
        absolute, call_index)``: keyed by the sample's absolute index so
        executors and shards agree, and by the call's ordinal.  The search
        drivers call the scorer in a deterministic sequence, so per-call
        keying preserves the bit-identical-across-executors contract.
        """
        calls = iter(range(1 << 62))

        def score(trains: Sequence[SpikeEvents]) -> np.ndarray:
            stacked = stack_trains(list(trains))
            logits, _ = self.scorer.forward(
                None,
                rng=derive_rng_at(
                    self.search_root, "score", absolute, next(calls)
                ),
                input_train=stacked,
            )
            return classification_margins(logits, label)

        return score

    def search(
        self, train: SpikeEvents, absolute: int, label: int
    ) -> AttackOutcome:
        """Run the plan's attack search on one sample's clean train."""
        return run_attack_search(
            train,
            self.plan.attack_kind,
            self.plan.search,
            self.plan.budget,
            self.margin_scorer(absolute, label),
            rng=derive_rng_at(self.search_root, "sample", absolute),
            max_candidates=self.plan.max_candidates,
        )

    def evaluate_train(
        self, train: SpikeEvents, absolute: int
    ) -> Tuple[int, int]:
        """Final (prediction, spike count) of one perturbed train.

        Runs the plan's evaluator on the train with a dedicated stream: on
        transport a re-run of the scorer's forward, on timestep the
        faithful membrane simulation -- the transfer evaluation.  Spike
        counts include the (attacked) input train plus every deeper
        interface, matching the noise sweeps' accounting.
        """
        logits, spikes_per_interface = self.evaluator.forward(
            None,
            rng=derive_rng_at(self.search_root, "final", absolute),
            input_train=stack_trains([train]),
        )
        return int(np.argmax(logits[0])), int(sum(spikes_per_interface.values()))


def find_attack_train(
    plan: AttackPlan, workload: "PreparedWorkload", sample_index: int
) -> AttackOutcome:
    """The perturbed train the plan's search finds for one absolute sample.

    A pure function of ``(plan cell, sample_index)`` -- shard bounds are
    ignored -- exposed so determinism tests (and notebooks) can compare the
    *trains* two configurations produce, not just their accuracies.
    """
    context = _AttackContext(plan.cell_plan(), workload)
    x, y = workload.evaluation_slice(plan.eval_size)
    absolute = int(sample_index)
    train = context.clean_train(x[absolute], absolute)
    return context.search(train, absolute, int(y[absolute]))


def evaluate_attack_plan(
    plan: AttackPlan, workload: "PreparedWorkload"
) -> EvaluationResult:
    """Run one attack cell (or shard), purely.

    For every sample in the plan's range: encode the clean train, search for
    the worst perturbation within budget, then measure the perturbed train
    on the plan's evaluator.  Returns a standard
    :class:`~repro.core.pipeline.EvaluationResult` (deletion/jitter are 0 --
    the budget identity lives in the plan and its fingerprint), so attack
    cells persist, resume and shard-merge through exactly the machinery the
    noise cells use.
    """
    context = _AttackContext(plan, workload)
    x, y = workload.evaluation_slice(plan.eval_size)
    start, stop = plan.sample_range()
    x, y = x[start:stop], y[start:stop]

    correct = 0
    total_spikes = 0
    for offset in range(int(x.shape[0])):
        absolute = start + offset
        label = int(y[offset])
        clean = context.clean_train(x[offset], absolute)
        outcome = context.search(clean, absolute, label)
        prediction, spikes = context.evaluate_train(outcome.train, absolute)
        correct += int(prediction == label)
        total_spikes += spikes

    num_samples = int(x.shape[0])
    return EvaluationResult(
        accuracy=correct / num_samples if num_samples else float("nan"),
        total_spikes=int(total_spikes),
        spikes_per_sample=(
            total_spikes / num_samples if num_samples else float("nan")
        ),
        coding=plan.method.coding,
        deletion=0.0,
        jitter=0.0,
        weight_scaling_factor=context.evaluator.scale_factor,
        num_samples=num_samples,
    )


def build_attack_plans(
    config: "AttackSweepConfig",
    eval_size: Optional[int] = None,
) -> List[AttackPlan]:
    """Compile an attack sweep config into its (method x budget) cell plans.

    Cells are ordered method-major, matching the curve assembly the noise
    sweeps use -- which is what lets the runner fold attack results with the
    same code path.
    """
    ref = WorkloadRef.from_sweep_config(config)
    return [
        AttackPlan(
            workload=ref,
            method=method,
            attack_kind=config.attack_kind,
            budget=int(budget),
            seed=config.seed,
            num_steps=config.scale.time_steps_for(method.coding),
            search=config.search,
            max_candidates=config.max_candidates,
            evaluator=config.evaluator,
            eval_size=eval_size,
        )
        for method in config.methods
        for budget in config.budgets
    ]
