"""Declarative cell plans.

One sweep cell -- a (dataset, method, axis position) point of a figure or
table -- is described by a :class:`CellPlan`: a small, frozen, *picklable*
value object holding a workload reference, the coder / weight-scaling
configuration, the cell's position on its sweep axis and the derived RNG
spec.  A plan contains no live objects (no networks, coders or
generators), so it can cross process boundaries, be hashed into a stable
fingerprint for the on-disk result store, and be evaluated
(:meth:`CellPlan.evaluate`) on any worker with bit-identical results.  Two
families share that surface: :class:`EvaluationPlan` for random-noise
cells (evaluated by the pure function :func:`evaluate_plan`) and
:class:`~repro.execution.attack.AttackPlan` for worst-case attack cells.

The RNG contract of a noise cell is the one the parallel sweep engine has
relied on since PR 1: the noise stream derives from ``(seed, "noise",
method label, level)`` alone (see :meth:`EvaluationPlan.noise_rng`), which
makes the realisation independent of which executor, worker or ordering
evaluates the cell.  Within a cell, each evaluation batch's stream further
derives from the batch's *absolute* sample offset (stateless, not
batch-sequential), which is what lets a cell split into sample shards
(:meth:`CellPlan.shards`) that evaluate anywhere and merge
(:func:`merge_shard_results`) into a result bit-identical to the unsharded
cell.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, ClassVar, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.core.pipeline import EvaluationResult, NoiseRobustSNN
from repro.noise.injector import NOISE_KINDS
from repro.utils.rng import derive_rng

if TYPE_CHECKING:  # pragma: no cover - cycle guard (experiments -> execution)
    from repro.experiments.config import ExperimentScale, MethodSpec, SweepConfig
    from repro.experiments.workloads import PreparedWorkload

#: Version prefix baked into every fingerprint; bump to invalidate every
#: stored result after a semantic change to the evaluation path.
#: Schema 2: plans gained the ``simulator`` dimension (transport/timestep).
#: Schema 3: per-batch noise streams are keyed by absolute sample offsets
#: (sample sharding) -- a different, equally valid realisation, so results
#: evaluated under the old batch-sequential streams must not be served.
#: Schema 4: rate/phase/burst under deletion run on per-class spike counts
#: (a different deletion realisation), and the rate decode rounds
#: differently at windows that are not a power of two.
#: Schema 5: clip-mode jitter on rate, phase and burst runs on per-class
#: spike counts (landing-class draws; rate draws nothing) -- a different
#: realisation of the same distribution.
#: Schema 6: the faithful simulator transforms a layer's summed PSC once
#: before its firing window (integrate, then fire) -- results move by
#: float rounding.
FINGERPRINT_SCHEMA = 6


@dataclass(frozen=True)
class WorkloadRef:
    """A by-value reference to a prepared workload.

    Workload preparation (data synthesis, DNN training, conversion) is fully
    deterministic in ``(dataset, scale, seed)``, so this triple *is* the
    workload for planning purposes: a worker process that does not hold the
    prepared object can rebuild an identical one from the reference (loading
    trained weights from the on-disk cache when available).
    """

    dataset: str
    scale: "ExperimentScale"
    seed: int
    use_cache: bool = True
    cache_dir: Optional[str] = None

    @classmethod
    def from_sweep_config(
        cls, config: "SweepConfig", use_cache: bool = True,
        cache_dir: Optional[str] = None,
    ) -> "WorkloadRef":
        return cls(
            dataset=config.dataset,
            scale=config.scale,
            seed=config.seed,
            use_cache=use_cache,
            cache_dir=cache_dir,
        )


_Plan = TypeVar("_Plan", bound="CellPlan")


class CellPlan:
    """The surface every sweep-cell plan shares, by value.

    A cell plan is a frozen, picklable dataclass naming one cell of a sweep
    grid -- (workload, method, axis position) -- plus optional sample-shard
    bounds.  The two families, :class:`EvaluationPlan` (random-noise cells)
    and :class:`~repro.execution.attack.AttackPlan` (worst-case attack
    cells), differ in their axis fields, RNG roots and evaluation, but share
    identity, sharding and fingerprinting, which live here.  The engine
    treats every cell plan alike: it calls :meth:`evaluate`, addresses the
    result by :meth:`fingerprint` and splits pending cells with
    :meth:`shards`.

    Subclasses declare the dataclass fields ``workload``, ``method``,
    ``eval_size``, ``sample_start`` and ``sample_stop``, a ``simulator``
    (field or property), the fingerprint :attr:`schema`, and
    :attr:`shard_unit` -- the only sharding difference between families.
    """

    #: Version prefix baked into every fingerprint of the family.
    schema: ClassVar[int]

    def __post_init__(self) -> None:
        if self.eval_size is not None and int(self.eval_size) < 1:
            raise ValueError(f"eval_size must be >= 1 or None, got {self.eval_size}")
        if (self.sample_start is None) != (self.sample_stop is None):
            raise ValueError(
                "sample_start and sample_stop must be set together "
                f"(got sample_start={self.sample_start!r}, "
                f"sample_stop={self.sample_stop!r})"
            )
        if self.sample_start is None:
            return
        start, stop = int(self.sample_start), int(self.sample_stop)
        total = self.effective_eval_size()
        unit = self.shard_unit
        if not 0 <= start < stop <= total:
            raise ValueError(
                f"shard bounds [{start}, {stop}) must satisfy "
                f"0 <= start < stop <= {total} (the cell's eval size)"
            )
        if start % unit != 0 or (stop % unit != 0 and stop != total):
            raise ValueError(
                f"shard bounds [{start}, {stop}) must align with the "
                f"shard unit ({unit} samples; stop may also equal the eval "
                f"size {total}): misaligned shards would change how the "
                "cell's samples are grouped and hence its realisation"
            )
        object.__setattr__(self, "sample_start", start)
        object.__setattr__(self, "sample_stop", stop)

    # -- identity ------------------------------------------------------------------
    @property
    def shard_unit(self) -> int:
        """Shard alignment in samples: shard bounds are multiples of it."""
        raise NotImplementedError

    @property
    def dataset(self) -> str:
        return self.workload.dataset

    @property
    def method_label(self) -> str:
        return self.method.display_label()

    def axis_label(self) -> str:
        """The cell's position on its sweep axis, as logs render it."""
        raise NotImplementedError

    def cell_id(self) -> str:
        """Human-readable cell identity used in logs and error messages."""
        label = f"{self.dataset}/{self.method_label} {self.axis_label()}"
        if self.is_shard:
            label += f" samples[{self.sample_start}:{self.sample_stop})"
        return label

    # -- sample sharding -----------------------------------------------------------
    @property
    def is_shard(self) -> bool:
        """Whether this plan evaluates a sample shard of a larger cell."""
        return self.sample_start is not None

    def sample_range(self) -> Tuple[int, int]:
        """The ``[start, stop)`` sample range this plan evaluates."""
        if self.is_shard:
            return int(self.sample_start), int(self.sample_stop)
        return 0, self.effective_eval_size()

    def cell_plan(self: _Plan) -> _Plan:
        """The whole-cell plan this shard belongs to (self when unsharded)."""
        if not self.is_shard:
            return self
        return replace(self, sample_start=None, sample_stop=None)

    def shards(self: _Plan, num_shards: int) -> List[_Plan]:
        """Split this cell into at most ``num_shards`` sample-shard plans.

        Shards are contiguous, cover whole :attr:`shard_unit` blocks (so
        per-unit streams, keyed by absolute sample offsets, match the
        unsharded run's exactly) and are as even as possible.  Cells with
        fewer units than requested shards yield one shard per unit; asking
        for one shard (or sharding a single-unit cell) returns ``[self]``
        unchanged, so callers can shard unconditionally.
        """
        if self.is_shard:
            raise ValueError(f"cannot re-shard shard plan {self.cell_id()}")
        count = int(num_shards)
        if count < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        total = self.effective_eval_size()
        unit = self.shard_unit
        num_units = math.ceil(total / unit) if total else 0
        count = min(count, num_units)
        if count <= 1:
            return [self]
        base, extra = divmod(num_units, count)
        plans: List[_Plan] = []
        cursor = 0
        for index in range(count):
            take = base + (1 if index < extra else 0)
            start = cursor * unit
            cursor += take
            stop = min(cursor * unit, total)
            plans.append(replace(self, sample_start=start, sample_stop=stop))
        return plans

    def effective_eval_size(self) -> int:
        """The number of evaluation images this plan actually uses.

        ``eval_size=None`` and an explicit request both resolve against the
        scale's test split, so two spellings of the same evaluation share
        one canonical value (and hence one store fingerprint).
        """
        requested = self.eval_size if self.eval_size is not None else self.workload.scale.eval_size
        return int(min(requested, self.workload.scale.test_size))

    # -- evaluation ----------------------------------------------------------------
    def evaluate(self, workload: PreparedWorkload) -> EvaluationResult:
        """Evaluate this cell (or shard) against its resolved workload."""
        raise NotImplementedError

    # -- fingerprinting ------------------------------------------------------------
    def describe(self) -> dict:
        """Canonical JSON-serialisable description of the cell.

        Only result-affecting fields are included: the workload's cache
        knobs (``use_cache``, ``cache_dir``) change where trained weights
        are stored, never what they are, and ``eval_size`` is normalised to
        its effective value -- so equivalent evaluations fingerprint (and
        cache) identically.  Shard bounds are excluded: the description is
        the *cell's* canonical form, shared by every shard of the cell, and
        shard identity enters only through :func:`shard_fingerprint`.
        Families extend it with their own normalisations.
        """
        payload = asdict(self)
        del payload["sample_start"], payload["sample_stop"]
        # Engine keys of earlier schemas, now constants (one spike
        # representation per coder, one analog path, one simulator engine)
        # at the values default cells were stored under, so those results
        # stay addressable without a schema bump.
        payload["spike_backend"] = None
        payload["analog_backend"] = None
        payload["sim_backend"] = "fused" if self.simulator == "timestep" else None
        # Stored fingerprints hash the weight-scaling rule, always inverse.
        payload["scaling_mode"] = "inverse"
        payload["workload"] = {
            "dataset": self.workload.dataset,
            "scale": asdict(self.workload.scale),
            "seed": self.workload.seed,
        }
        payload["eval_size"] = self.effective_eval_size()
        payload["schema"] = self.schema
        return payload

    def cell_fingerprint(self, network_hash: str) -> str:
        """Content address of the whole cell's result.

        The fingerprint covers the canonical plan description *plus* the
        hash of the trained network actually evaluated, so a retrained or
        differently converted network never aliases a stored result.
        Identical for every shard of a cell (shard bounds are not part of
        the description).
        """
        blob = json.dumps(
            {"plan": self.describe(), "network": network_hash},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def fingerprint(self, network_hash: str) -> str:
        """Content address of this plan's result.

        For a whole-cell plan this is :meth:`cell_fingerprint`; for a sample
        shard it is the shard derivation of the cell fingerprint
        (:func:`shard_fingerprint`), so shard documents never alias the
        merged cell document or each other.
        """
        cell = self.cell_fingerprint(network_hash)
        if not self.is_shard:
            return cell
        start, stop = self.sample_range()
        return shard_fingerprint(cell, start, stop, self.effective_eval_size())


@dataclass(frozen=True)
class EvaluationPlan(CellPlan):
    """Everything needed to evaluate one random-noise sweep cell, by value.

    Attributes
    ----------
    workload:
        Reference to the trained network the cell evaluates on.
    method:
        Coding / weight-scaling configuration (one curve of a figure).
    noise_kind / level:
        Which noise axis (one of :data:`~repro.noise.injector.NOISE_KINDS`)
        the sweep walks and where this cell sits on it.
    seed:
        Sweep seed; the cell's noise stream derives from it (see
        :meth:`noise_rng`).
    num_steps:
        Encoding window length ``T`` (already resolved from the scale and
        coding, so workers need no scale logic).
    eval_size:
        Number of evaluation images (``None`` = the scale's default).
    batch_size:
        Transport-evaluation batch size (>= 1).  Part of the plan identity:
        the per-interface RNG streams advance per batch, so a different
        batch size yields a different (equally valid) noise realisation.
        It is also the shard unit.
    simulator:
        Evaluation simulator of the cell: ``"transport"`` (fast
        activation-transport, default) or ``"timestep"`` (faithful
        time-stepped membrane simulation; any coding with a per-layer
        temporal protocol -- rate, phase, TTFS, TTAS).  Part of the plan
        identity -- the two simulators measure different quantities, so
        their results never alias in the store.
    sample_start / sample_stop:
        Sample-shard bounds, ``[sample_start, sample_stop)`` over the cell's
        evaluation slice; both ``None`` (the default) for a whole-cell plan.
        A shard is the unit of intra-cell parallelism: :func:`evaluate_plan`
        evaluates only the shard's samples, deriving every batch's noise
        stream from the *absolute* sample offset, so the per-shard results
        merge (:func:`merge_shard_results`) into a result bit-identical to
        the unsharded cell.  ``sample_start`` must be a multiple of
        ``batch_size`` and ``sample_stop`` batch-aligned or equal to the
        cell's effective eval size -- misaligned bounds would change the
        batch boundaries and hence the noise realisation.
    """

    schema: ClassVar[int] = FINGERPRINT_SCHEMA

    workload: WorkloadRef
    method: MethodSpec
    noise_kind: str
    level: float
    seed: int
    num_steps: int
    eval_size: Optional[int] = None
    batch_size: int = 16
    simulator: str = "transport"
    sample_start: Optional[int] = None
    sample_stop: Optional[int] = None

    def __post_init__(self) -> None:
        if self.noise_kind not in NOISE_KINDS:
            raise ValueError(
                f"noise_kind must be one of {NOISE_KINDS}, got {self.noise_kind!r}"
            )
        if int(self.batch_size) < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        super().__post_init__()

    @property
    def shard_unit(self) -> int:
        """Noise shards cover whole batches (see :meth:`shards`)."""
        return int(self.batch_size)

    def axis_label(self) -> str:
        return f"{self.noise_kind}={self.level:g}"

    # -- RNG spec ------------------------------------------------------------------
    def rng_tags(self) -> Tuple[str, str, float]:
        """Tags of the derived noise stream (stable across processes)."""
        return ("noise", self.method_label, float(self.level))

    def noise_rng(self) -> np.random.Generator:
        """Derive the cell's noise generator from the plan alone."""
        return derive_rng(self.seed, *self.rng_tags())

    # -- evaluation / fingerprinting -----------------------------------------------
    def evaluate(self, workload: PreparedWorkload) -> EvaluationResult:
        return evaluate_plan(self, workload)

    def describe(self) -> dict:
        payload = super().describe()
        payload["level"] = float(self.level)
        return payload


def shard_fingerprint(
    cell_fingerprint: str, start: int, stop: int, total: int
) -> str:
    """Content address of one sample shard, derived from its cell's.

    Keyed by the cell fingerprint plus the absolute sample range (and the
    cell's total, so re-slicing a resized cell never aliases): the engine
    computes one cell fingerprint and derives every shard's address from it
    without re-hashing the plan description per shard.
    """
    blob = json.dumps(
        {
            "cell": cell_fingerprint,
            "shard": [int(start), int(stop)],
            "samples": int(total),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def merge_shard_results(results: Sequence[EvaluationResult]) -> EvaluationResult:
    """Merge per-shard results into the cell result, exactly.

    Correct-prediction counts are recovered from each shard's accuracy
    (``accuracy * num_samples`` is an integer up to float rounding, removed
    by ``round``) and summed, spike totals sum exactly as integers, and the
    merged accuracy / spikes-per-sample are the same single float divisions
    the unsharded evaluation performs -- so a merged cell is bit-identical
    to the cell evaluated in one piece.  A NaN shard accuracy (an unlabeled
    evaluation) propagates to the merged cell.
    """
    if not results:
        raise ValueError("cannot merge zero shard results")
    first = results[0]
    num_samples = sum(int(r.num_samples) for r in results)
    total_spikes = sum(int(r.total_spikes) for r in results)
    if num_samples == 0 or any(math.isnan(r.accuracy) for r in results):
        accuracy = float("nan")
    else:
        correct = sum(int(round(r.accuracy * r.num_samples)) for r in results)
        accuracy = correct / num_samples
    return EvaluationResult(
        accuracy=accuracy,
        total_spikes=total_spikes,
        spikes_per_sample=(
            total_spikes / num_samples if num_samples else float("nan")
        ),
        coding=first.coding,
        deletion=first.deletion,
        jitter=first.jitter,
        weight_scaling_factor=first.weight_scaling_factor,
        num_samples=num_samples,
    )


def network_fingerprint(workload: PreparedWorkload) -> str:
    """Stable hash of the converted network a plan actually evaluates.

    Hashes the :class:`~repro.conversion.converter.ConvertedSNN` -- every
    segment layer's parameter tensors plus the conversion identity
    (activation scales, input scale) -- rather than the source DNN, so two
    workloads collide only when their *evaluations* are identical.  In
    particular, the same trained model converted differently (e.g. with
    another scale ``percentile``) fingerprints differently.
    """
    network = workload.network
    digest = hashlib.sha256()
    digest.update(
        f"{workload.dataset_name}:{workload.scale.name}:"
        # Conversions once could leave batch norm unfolded; every
        # fingerprint stored since hashes this literal, so it stays.
        "bn_fused=True:"
        f"input_scale={float(network.input_scale)!r}".encode("utf-8")
    )
    for segment in network.segments:
        digest.update(
            f"segment{segment.index}:spikes={segment.ends_with_spikes}:"
            f"scale={float(segment.activation_scale)!r}".encode("utf-8")
        )
        for layer_index, layer in enumerate(segment.layers):
            digest.update(f"{layer_index}:{type(layer).__name__}".encode("utf-8"))
            tensors = dict(getattr(layer, "params", {}))
            for name in sorted(tensors):
                array = np.ascontiguousarray(tensors[name])
                digest.update(name.encode("utf-8"))
                digest.update(str(array.shape).encode("utf-8"))
                digest.update(str(array.dtype).encode("utf-8"))
                digest.update(array.tobytes())
    return digest.hexdigest()


def build_sweep_plans(
    config: SweepConfig,
    eval_size: Optional[int] = None,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
) -> List[EvaluationPlan]:
    """Compile a :class:`SweepConfig` into its (method x level) cell plans.

    Cells are ordered method-major, matching the curve assembly in
    :mod:`repro.experiments.runner`.
    """
    ref = WorkloadRef.from_sweep_config(config, use_cache=use_cache, cache_dir=cache_dir)
    return [
        EvaluationPlan(
            workload=ref,
            method=method,
            noise_kind=config.noise_kind,
            level=float(level),
            seed=config.seed,
            num_steps=config.scale.time_steps_for(method.coding),
            eval_size=eval_size,
            batch_size=config.batch_size,
            simulator=config.simulator,
        )
        for method in config.methods
        for level in config.levels
    ]


def evaluate_plan(plan: EvaluationPlan, workload: PreparedWorkload) -> EvaluationResult:
    """Evaluate one cell (or one sample shard of a cell), purely.

    No state outside the two arguments influences the result: the pipeline
    is built from the plan, the data shard is the workload's deterministic
    evaluation slice (cut down to the plan's sample range when the plan is a
    shard), and the noise streams derive from the plan's RNG spec plus the
    absolute sample offsets -- so the shards of a cell merge into exactly
    the unsharded result.  This is what :meth:`EvaluationPlan.evaluate`
    runs on every executor backend.
    """
    pipeline = NoiseRobustSNN.from_plan(plan, workload.network)
    x, y = workload.evaluation_slice(plan.eval_size)
    start, stop = plan.sample_range()
    if plan.is_shard:
        x, y = x[start:stop], y[start:stop]
    level = float(plan.level)
    noise_levels = {
        kind: level if plan.noise_kind == kind else 0.0 for kind in NOISE_KINDS
    }
    return pipeline.evaluate(
        x, y,
        batch_size=plan.batch_size,
        rng=plan.noise_rng(),
        sample_offset=start,
        **noise_levels,
    )
