"""Generic (method x level) sweep runner on the plan-execution engine.

Every figure and table of the paper is a sweep of one or more *methods*
(coding scheme, with or without weight scaling, with a burst duration for
TTAS) across a range of noise levels on a fixed trained network; the
worst-case sweeps walk attack budgets instead.  This module compiles such
sweeps into declarative :class:`~repro.execution.plan.CellPlan` cells
(noise or attack), runs them through the pluggable executor engine
(:mod:`repro.execution`) and reassembles the structured results the
figure/table modules and reporting code consume.  Those modules declare
each figure and table as data -- a :class:`SweepSpec` of methods, axis and
default levels -- and :func:`run_spec` compiles any entry into configs.

The (method, level) cells of a sweep are statistically independent -- each
draws its noise from an RNG stream derived solely from ``(seed, method
label, level)`` -- so they can run concurrently on any backend: the serial
loop, a thread pool (numpy releases the GIL) or a process pool that also
shards whole datasets for multi-dataset tables.  Results are bit-identical
across all of them, and an optional content-addressed result store makes
interrupted sweeps resumable and re-runs incremental.

Cells evaluate on the simulator their config selects
(``SweepConfig(simulator=...)``): the fast activation-transport evaluator
(default) or the faithful time-stepped membrane simulation (``"timestep"``;
every coding with a per-layer temporal protocol -- rate, phase, TTFS, TTAS)
-- the choice travels inside every plan and is part of its store
fingerprint, so the two kinds of results never alias.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.execution.engine import (
    CellFailure,
    ExecutionStats,
    evaluate_plans,
    register_workload,
)
from repro.execution.executors import Executor, resolve_executor
from repro.execution.plan import WorkloadRef
from repro.execution.store import ResultStore, resolve_store
from repro.coding.registry import timestep_support
from repro.experiments.config import (
    BENCH_SCALE,
    DATASET_NAMES,
    AttackSweepConfig,
    ExperimentScale,
    MethodSpec,
    ScaleWindowError,
    SweepConfig,
    check_scale_windows,
    filter_methods,
)
from repro.experiments.workloads import PreparedWorkload, prepare_workload
from repro.utils.logging import get_logger
from repro.utils.validation import level_index

logger = get_logger("experiments.runner")

#: A sweep of either cell family: random noise levels or attack budgets.
AnySweepConfig = Union[SweepConfig, AttackSweepConfig]


@dataclass
class MethodCurve:
    """Accuracy and spike counts of one method across the noise levels.

    Attributes
    ----------
    method:
        The method specification (coding, WS, t_a).
    levels:
        Noise levels (x-axis of the figure).
    accuracies:
        Accuracy at each level.
    spike_counts:
        Total spikes at each level (summed over evaluated samples).
    spikes_per_sample:
        Average spikes per classified image at each level.
    """

    method: MethodSpec
    levels: List[float]
    accuracies: List[float]
    spike_counts: List[int]
    spikes_per_sample: List[float]

    @property
    def label(self) -> str:
        return self.method.display_label()

    def accuracy_at(self, level: float) -> float:
        """Accuracy at a specific noise level (float-tolerant lookup)."""
        return self.accuracies[level_index(self.levels, level)]

    def average_accuracy(self) -> float:
        """Mean accuracy over the noisy levels (see :func:`noisy_level_mean`)."""
        return noisy_level_mean(self.levels, self.accuracies)


def noisy_level_mean(levels: Sequence[float], values: Sequence[float]) -> float:
    """Mean of a curve's ``values`` over its noisy levels.

    The clean level (0) is excluded unless it is the only one.  NaN entries
    -- holes left by cells that failed under fault-tolerant execution -- are
    excluded from the mean, so one failed cell degrades an average instead
    of poisoning it; with no finite entry the mean is NaN.
    :meth:`MethodCurve.average_accuracy` and the tables' "Avg." columns
    both use this rule.
    """
    pairs = list(zip(levels, values))
    pairs = [(level, value) for level, value in pairs if level != 0.0] or pairs
    finite = [value for _, value in pairs if not np.isnan(value)]
    return float(np.mean(finite)) if finite else float("nan")


@dataclass
class SweepResult:
    """All curves of one figure/table sweep plus provenance metadata."""

    config: AnySweepConfig
    curves: List[MethodCurve]
    dnn_accuracy: float
    dataset_name: str
    #: Execution statistics of the engine call that produced this sweep
    #: (shared across sweeps evaluated in the same batch, e.g. a table's
    #: datasets); ``None`` for results built by other means.
    stats: Optional[ExecutionStats] = None

    def curve(self, label: str) -> MethodCurve:
        """Find a curve by its display label."""
        for curve in self.curves:
            if curve.label == label:
                return curve
        raise KeyError(f"no curve labelled {label!r}; have {[c.label for c in self.curves]}")


def _assemble_sweep(
    config: AnySweepConfig,
    workload: PreparedWorkload,
    results: Sequence,
    stats: Optional[ExecutionStats],
) -> SweepResult:
    """Fold a config's flat (method-major) cell results into curves.

    A :class:`~repro.execution.engine.CellFailure` slot (a cell that
    exhausted its retry budget under fault-tolerant execution) becomes an
    explicit hole: NaN accuracy / NaN spikes-per-sample / zero spikes.
    Downstream reporting renders holes as "--" instead of silently dropping
    or interpolating them.
    """
    num_levels = len(config.levels)
    curves: List[MethodCurve] = []
    for method_index, method in enumerate(config.methods):
        cell_results = results[method_index * num_levels:(method_index + 1) * num_levels]
        for cell in cell_results:
            if isinstance(cell, CellFailure):
                logger.warning(
                    "sweep %s/%s has a hole at %s=%g (%s)",
                    config.dataset, method.display_label(), config.noise_kind,
                    cell.level, cell.message,
                )
        curves.append(
            MethodCurve(
                method=method,
                levels=list(config.levels),
                accuracies=[
                    float("nan") if isinstance(r, CellFailure) else r.accuracy
                    for r in cell_results
                ],
                spike_counts=[
                    0 if isinstance(r, CellFailure) else r.total_spikes
                    for r in cell_results
                ],
                spikes_per_sample=[
                    float("nan") if isinstance(r, CellFailure) else r.spikes_per_sample
                    for r in cell_results
                ],
            )
        )
    return SweepResult(
        config=config,
        curves=curves,
        dnn_accuracy=workload.dnn_accuracy,
        dataset_name=workload.dataset_name,
        stats=stats,
    )


def _workers_cannot_see(backend: Executor) -> bool:
    """True when the backend's workers cannot share this process's objects.

    Process workers under a non-fork start method (spawn/forkserver) start
    from a blank interpreter and must rebuild workloads from their
    references; fork-based workers inherit the parent's registry.
    """
    import multiprocessing

    from repro.execution.executors import ProcessExecutor

    return (
        isinstance(backend, ProcessExecutor)
        and multiprocessing.get_start_method() != "fork"
    )


def _check_workload_matches(workload: PreparedWorkload, config: AnySweepConfig) -> None:
    """Refuse a provided workload that cannot evaluate this config.

    The provided-workloads mapping is keyed by dataset name for caller
    convenience, but a workload for a different dataset or scale would
    silently evaluate the sweep on the wrong network (wrong time windows,
    wrong evaluation slice), so those mismatches are errors.  A *seed*
    mismatch is legitimate -- evaluating a given trained network under a
    different noise seed is an established pattern; it is logged, and
    :func:`run_sweeps` re-keys the workload reference to the workload's own
    seed so every executor backend (including spawn-based process workers
    that rebuild from the reference) evaluates the same network and the
    result-store fingerprint never aliases.
    """
    problems = []
    if workload.dataset_name != config.dataset:
        problems.append(
            f"dataset {workload.dataset_name!r} != {config.dataset!r}"
        )
    if workload.scale != config.scale:
        problems.append(
            f"scale {workload.scale.name!r} != {config.scale.name!r}"
        )
    if problems:
        raise ValueError(
            "provided workload does not match the sweep config "
            f"({'; '.join(problems)}); prepare it with the config's "
            "(dataset, scale) or omit it to have the sweep prepare its own"
        )
    if workload.seed is not None and workload.seed != config.seed:
        logger.warning(
            "provided %s workload was prepared with seed %s but the sweep "
            "uses seed %s; evaluating the provided network under the sweep "
            "seed's noise streams (the workload reference keeps seed %s so "
            "every executor backend reconstructs the same network)",
            config.dataset, workload.seed, config.seed, workload.seed,
        )


def run_sweeps(
    configs: Sequence[AnySweepConfig],
    workloads: Optional[Dict[str, PreparedWorkload]] = None,
    eval_size: Optional[int] = None,
    max_workers: Optional[int] = 1,
    executor: Union[str, Executor, None] = None,
    store: Union[ResultStore, str, None, bool] = None,
    shards: Optional[int] = None,
    retries: Optional[int] = 0,
) -> List[SweepResult]:
    """Run several sweeps as one flat batch of cells on the engine.

    This is how multi-dataset tables shard *whole datasets* across worker
    processes: the cells of every config are compiled into one plan list and
    dispatched together, so a process pool interleaves (dataset, method,
    level) cells freely instead of finishing one dataset before starting the
    next.  Each config compiles its own cells (``config.build_plans``), so
    one batch may mix noise sweeps (:class:`SweepConfig`) and attack sweeps
    (:class:`AttackSweepConfig`, whose budgets appear as the level axis) --
    e.g. a greedy attack sweep with its matched random baseline.  Results
    are reassembled per config, in the order given.

    Parameters
    ----------
    configs:
        The sweep descriptions; one :class:`SweepResult` is returned per
        entry, in order.  Batch sizes come from the configs.
    workloads:
        Already prepared workloads keyed by dataset name (shared across
        figures in the benchmark harness); prepared on demand otherwise.
    eval_size:
        Override the number of evaluation images (all configs).
    max_workers:
        Worker count for the pooled executor backends; see
        :func:`~repro.execution.executors.resolve_worker_count` for the
        ``None``/0 conventions.
    executor:
        Executor backend: an instance, a name ("serial"/"thread"/"process"),
        or ``None`` for the thread pool when ``max_workers`` > 1, else
        serial.  Results are bit-identical across backends.
    store:
        Optional content-addressed result store (instance, directory path,
        or ``None`` / ``False`` for off).  Cells already stored are served
        from disk without evaluation.
    shards:
        Sample shards per cell (``None`` = automatic; see
        :func:`repro.execution.engine.evaluate_plans`).  Sharding is a pure
        scheduling choice: merged results are bit-identical to the
        unsharded run.
    retries:
        Per-cell retry budget (``None`` = 0); above 0 a cell that keeps
        failing becomes an explicit hole instead of aborting the batch.

    Raises :class:`~repro.experiments.config.ScaleWindowError` before any
    workload is prepared, cell planned or store opened when a method does
    not fit its scale's window.
    """
    for config in configs:
        check_scale_windows(config.methods, config.scale)
    backend = resolve_executor(executor, max_workers)
    # A backend resolved *here* (from a name or worker count) cannot be
    # reused by the caller, so its warm pool must be released before
    # returning; a caller-provided Executor instance keeps its pool warm
    # across calls and stays the caller's responsibility to close.
    owns_backend = not isinstance(executor, Executor)
    result_store = resolve_store(store)
    prepared: Dict[WorkloadRef, PreparedWorkload] = {}
    plans = []
    spans: List[int] = []
    refs: List[WorkloadRef] = []
    for config in configs:
        ref = WorkloadRef.from_sweep_config(config)
        provided = (workloads or {}).get(config.dataset)
        if provided is not None:
            _check_workload_matches(provided, config)
            if provided.seed is None and _workers_cannot_see(backend):
                raise ValueError(
                    "a hand-built workload (seed=None) cannot be used with "
                    "the process executor under a non-fork start method: "
                    "spawned workers would rebuild a different network from "
                    "the workload reference; prepare the workload with "
                    "prepare_workload (which records its seed) or use the "
                    "serial/thread executor"
                )
            if provided.seed is not None and provided.seed != config.seed:
                # The reference must reconstruct the network actually being
                # evaluated: a worker that cannot see the provided object
                # (spawn start method) rebuilds from the ref, so the ref
                # carries the *workload's* seed while the plans keep the
                # sweep seed for their noise streams.
                ref = replace(ref, seed=provided.seed)
        refs.append(ref)
        if ref not in prepared:
            workload = provided or prepare_workload(
                config.dataset, scale=config.scale, seed=config.seed,
            )
            prepared[ref] = workload
            # Seed the process-local registry so serial/thread backends (and
            # forked process workers) reuse the prepared object directly.
            register_workload(ref, workload)
        config_plans = [
            replace(plan, workload=ref)
            for plan in config.build_plans(eval_size=eval_size)
        ]
        spans.append(len(config_plans))
        plans.extend(config_plans)

    try:
        evaluation = evaluate_plans(
            plans, executor=backend, max_workers=max_workers,
            store=result_store, workloads=prepared, shards=shards,
            retries=retries,
        )
    finally:
        if owns_backend:
            backend.close()

    sweeps: List[SweepResult] = []
    offset = 0
    for config, ref, span in zip(configs, refs, spans):
        sweeps.append(
            _assemble_sweep(
                config,
                prepared[ref],
                evaluation.results[offset:offset + span],
                evaluation.stats,
            )
        )
        offset += span
    return sweeps


def run_sweep(
    config: AnySweepConfig,
    workload: Optional[PreparedWorkload] = None,
    **kwargs,
) -> SweepResult:
    """Run one sweep -- (method x noise level), or (method x budget) for an
    :class:`AttackSweepConfig` -- through :func:`run_sweeps`.

    ``workload`` reuses an already prepared workload for the config's
    dataset; every other keyword argument is :func:`run_sweeps`'s.
    """
    workloads = None if workload is None else {config.dataset: workload}
    return run_sweeps([config], workloads=workloads, **kwargs)[0]


#: Options only one sweep family takes: noise sweeps set the evaluation
#: batch size, attack sweeps the budgets and the attack search.
_NOISE_OPTIONS: Tuple[str, ...] = ("batch_size",)
_ATTACK_OPTIONS: Tuple[str, ...] = (
    "budgets", "search", "max_candidates",
)


@dataclass(frozen=True)
class SweepSpec:
    """One figure or table of the catalogue: methods swept along one axis.

    Attributes
    ----------
    title:
        Human-readable name (a table's ``{evaluator}`` placeholder is filled
        with the simulator the cells ran on).
    methods:
        Builds the method list; its keyword arguments (``ttas_duration`` or
        ``ttas_durations``) are the entry's own options.
    axis:
        A noise kind, or ``adv-<attack kind>`` for a worst-case sweep, which
        runs every method twice: under the attack search and under the
        matched-budget random baseline.
    levels:
        Default noise levels (attack budgets on an ``adv-*`` axis).
    datasets:
        Default datasets (a figure plots the first).
    spikes:
        Whether a table reports spike counts next to the accuracies.
    """

    title: str
    methods: Callable[..., List[MethodSpec]]
    axis: str
    levels: Tuple[float, ...]
    datasets: Tuple[str, ...] = DATASET_NAMES
    spikes: bool = True

    @property
    def attack_kind(self) -> Optional[str]:
        return self.axis[len("adv-"):] if self.axis.startswith("adv-") else None

    @property
    def options(self) -> Tuple[str, ...]:
        """The family options this entry accepts (see :func:`run_spec`)."""
        return _ATTACK_OPTIONS if self.attack_kind else _NOISE_OPTIONS


def _run_attack_pairs(
    run: Callable[[List[AttackSweepConfig]], List[SweepResult]],
    datasets: Sequence[str],
    methods: Sequence[MethodSpec],
    evaluator: str,
    search: str = "greedy",
    **fields,
) -> List[SweepResult]:
    """Run each dataset's attack search with its matched random baseline.

    Transfer evaluation (``evaluator="timestep"``) first drops, with a
    warning, the codings the faithful simulator cannot model.  Each
    dataset's result interleaves every method's worst-case curve with its
    random baseline; the relabelling is display-only (labels are cleared
    from attack fingerprints), so re-runs keep hitting the store.
    """
    if evaluator == "timestep":
        kept = []
        for method in methods:
            supported, note = timestep_support(method.coding)
            if supported:
                kept.append(method)
            else:
                logger.warning(
                    "dropping %s from the adversarial transfer sweep: %s",
                    method.display_label(), note,
                )
        if not kept:
            raise ValueError(
                "no requested method supports timestep transfer evaluation"
            )
        methods = kept
    sweeps = run([
        AttackSweepConfig(
            dataset=dataset, methods=tuple(methods), search=search_name,
            evaluator=evaluator, **fields,
        )
        for dataset in datasets
        for search_name in (search, "random")
    ])
    paired = []
    for worst, rand in zip(sweeps[::2], sweeps[1::2]):
        curves: List[MethodCurve] = []
        for pair in zip(worst.curves, rand.curves):
            for curve, sweep in zip(pair, (worst, rand)):
                label = f"{curve.label} ({sweep.config.search})"
                curves.append(replace(curve, method=replace(curve.method, label=label)))
        paired.append(replace(worst, curves=curves))
    return paired


def run_spec(
    spec: SweepSpec,
    datasets: Sequence[str],
    levels: Optional[Sequence[float]] = None,
    scale: ExperimentScale = BENCH_SCALE,
    seed: int = 0,
    workloads: Optional[Dict[str, PreparedWorkload]] = None,
    eval_size: Optional[int] = None,
    max_workers: Optional[int] = 1,
    executor: Union[str, Executor, None] = None,
    store: Union[ResultStore, str, None, bool] = None,
    simulator: Optional[str] = None,
    method_filter: Optional[Sequence[str]] = None,
    shards: Optional[int] = None,
    retries: Optional[int] = 0,
    **options,
) -> List[SweepResult]:
    """Compile a catalogue entry for ``datasets`` and run it as one batch.

    Returns one :class:`SweepResult` per dataset, in order; on an ``adv-*``
    axis each pairs every method's worst-case curve with its random
    baseline.  ``options`` holds the entry's family options
    (:attr:`SweepSpec.options`; ``None`` values keep the config defaults)
    and the keyword arguments of its method builder.  ``levels`` defaults
    to the entry's; ``budgets`` overrides it on an ``adv-*`` axis.  The
    execution arguments are :func:`run_sweeps`'s.  A method (after
    ``method_filter``) that does not fit its scale's window raises
    :class:`~repro.experiments.config.ScaleWindowError`, prefixed with the
    entry's title, before anything is planned.
    """
    family = {
        name: value for name in spec.options
        if (value := options.pop(name, None)) is not None
    }
    methods = filter_methods(spec.methods(**options), method_filter)
    levels = tuple(spec.levels if levels is None else levels)
    evaluator = simulator if simulator is not None else "transport"

    def run(configs: List[AnySweepConfig]) -> List[SweepResult]:
        try:
            return run_sweeps(
                configs, workloads=workloads, eval_size=eval_size,
                max_workers=max_workers, executor=executor, store=store,
                shards=shards, retries=retries,
            )
        except ScaleWindowError as error:
            title = spec.title.format(evaluator=evaluator)
            raise ScaleWindowError(f"{title}: {error}") from None

    if spec.attack_kind:
        budgets = tuple(int(b) for b in family.pop("budgets", levels))
        return _run_attack_pairs(
            run, datasets, methods, evaluator, attack_kind=spec.attack_kind,
            budgets=budgets, scale=scale, seed=seed, **family,
        )
    return run([
        SweepConfig(
            dataset=dataset, methods=methods, noise_kind=spec.axis,
            levels=levels, scale=scale, seed=seed, simulator=evaluator, **family,
        )
        for dataset in datasets
    ])
