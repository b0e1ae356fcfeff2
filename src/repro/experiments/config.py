"""Experiment configuration.

Two scales are defined:

* :data:`PAPER_SCALE` -- the parameters the paper itself uses (VGG16,
  1000/100 time steps, full test sets).  Provided for completeness and for
  users with more compute; nothing in the code prevents running it.
* :data:`BENCH_SCALE` -- the CPU-friendly defaults the benchmark harness
  uses: smaller VGG-style networks, shorter time windows and a few hundred
  evaluation images.  DESIGN.md documents why the qualitative shape of every
  result is preserved under this scaling.

The per-coding time-step ratio of the paper is preserved at both scales: the
temporal codes (TTFS/TTAS) use a window roughly 10x shorter than the
rate-like codes (108 vs 1000 steps in the paper), which is exactly what makes
a fixed jitter sigma hit them harder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import SIMULATORS
from repro.noise.adversarial import ATTACK_KINDS, ATTACK_SEARCHES
from repro.noise.injector import NOISE_KINDS
from repro.utils.config import ConfigError, validate_choice
from repro.utils.validation import check_non_negative, check_positive

#: Datasets the paper evaluates on.
DATASET_NAMES = ("mnist", "cifar10", "cifar100")


@dataclass(frozen=True)
class ExperimentScale:
    """Global knobs that trade fidelity for runtime.

    Attributes
    ----------
    name:
        "paper" or "bench".
    rate_time_steps:
        Window length for rate / phase / burst coding.
    ttfs_time_steps:
        Window length for TTFS / TTAS coding (shorter, as in the paper).
    train_size / test_size:
        Dataset sizes per split.
    eval_size:
        Number of test images used per noise level.
    train_epochs:
        DNN training epochs.
    image_size:
        Spatial size of the CIFAR stand-ins (MNIST stays at 28).
    """

    name: str
    rate_time_steps: int
    ttfs_time_steps: int
    train_size: int
    test_size: int
    eval_size: int
    train_epochs: int
    image_size: int

    def __post_init__(self) -> None:
        for attr in (
            "rate_time_steps", "ttfs_time_steps", "train_size", "test_size",
            "eval_size", "train_epochs", "image_size",
        ):
            check_positive(attr, getattr(self, attr))

    def time_steps_for(self, coding: str) -> int:
        """Window length for the given coding scheme at this scale."""
        if coding.startswith("ttfs") or coding.startswith("ttas"):
            return self.ttfs_time_steps
        return self.rate_time_steps


#: Parameters as reported in the paper (Sec. V).
PAPER_SCALE = ExperimentScale(
    name="paper",
    rate_time_steps=1000,
    ttfs_time_steps=108,
    train_size=50000,
    test_size=10000,
    eval_size=10000,
    train_epochs=100,
    image_size=32,
)

#: CPU-friendly defaults used by the benchmark harness.
BENCH_SCALE = ExperimentScale(
    name="bench",
    rate_time_steps=32,
    ttfs_time_steps=16,
    train_size=1600,
    test_size=320,
    eval_size=40,
    train_epochs=10,
    image_size=16,
)

#: An even smaller scale used by the test suite.
TEST_SCALE = ExperimentScale(
    name="test",
    rate_time_steps=16,
    ttfs_time_steps=8,
    train_size=300,
    test_size=80,
    eval_size=24,
    train_epochs=2,
    image_size=12,
)


@dataclass(frozen=True)
class DatasetConfig:
    """Which dataset/model pair an experiment runs on.

    Attributes
    ----------
    name:
        "mnist", "cifar10" or "cifar100".
    architecture:
        Model family: "mlp" for MNIST, "vgg" for the CIFAR stand-ins (the
        paper uses VGG16; the bench scale uses the scaled-down VGG variants).
    vgg_config:
        Name of the VGG plan to build when architecture == "vgg".
    learning_rate:
        DNN training learning rate.
    """

    name: str
    architecture: str
    vgg_config: str = "vgg7"
    learning_rate: float = 0.02

    def __post_init__(self) -> None:
        validate_choice("name", self.name, DATASET_NAMES)
        validate_choice("architecture", self.architecture, ("mlp", "vgg"))


_DATASET_CONFIGS: Dict[str, DatasetConfig] = {
    "mnist": DatasetConfig(name="mnist", architecture="mlp", learning_rate=0.1),
    "cifar10": DatasetConfig(name="cifar10", architecture="vgg", vgg_config="vgg7"),
    "cifar100": DatasetConfig(name="cifar100", architecture="vgg", vgg_config="vgg7"),
}


def dataset_config(name: str) -> DatasetConfig:
    """Look up the configuration of one of the paper's datasets."""
    key = name.lower()
    if key not in _DATASET_CONFIGS:
        raise ConfigError(
            f"unknown dataset {name!r}; available: {sorted(_DATASET_CONFIGS)}"
        )
    return _DATASET_CONFIGS[key]


@dataclass(frozen=True)
class MethodSpec:
    """One curve of a figure / one row block of a table.

    Attributes
    ----------
    coding:
        Coder name ("rate", "phase", "burst", "ttfs", "ttas").
    weight_scaling:
        Apply the weight-scaling compensation.
    target_duration:
        Burst duration t_a for TTAS.
    label:
        Legend label; derived from the other fields when omitted.
    """

    coding: str
    weight_scaling: bool = False
    target_duration: Optional[int] = None
    label: Optional[str] = None

    def display_label(self) -> str:
        """Label used in figure legends and table rows."""
        if self.label:
            return self.label
        base = self.coding.upper() if self.coding in ("ttfs", "ttas") else self.coding.capitalize()
        if self.coding == "ttas" and self.target_duration is not None:
            base = f"TTAS({self.target_duration})"
        return f"{base}+WS" if self.weight_scaling else base

    def coder_kwargs(self) -> Dict[str, int]:
        """Extra keyword arguments for the coder factory."""
        if self.coding == "ttas" and self.target_duration is not None:
            return {"target_duration": int(self.target_duration)}
        return {}


#: The four baseline codings of Figs. 2/3, in the paper's legend order.
BASELINE_CODINGS = ("rate", "phase", "burst", "ttfs")


def coding_methods(
    codings: Sequence[str] = BASELINE_CODINGS,
    ttas_durations: Sequence[int] = (),
    weight_scaling: bool = False,
) -> List[MethodSpec]:
    """One method per coding, then one TTAS(t_a) per burst duration."""
    methods = [MethodSpec(coding=c, weight_scaling=weight_scaling) for c in codings]
    methods.extend(
        MethodSpec(coding="ttas", weight_scaling=weight_scaling, target_duration=t)
        for t in ttas_durations
    )
    return methods


def all_codings(ttas_duration: int = 5) -> List[MethodSpec]:
    """Every coding, TTAS(t_a) last, no weight scaling (Fig. 8, ``adv-*``)."""
    return coding_methods(ttas_durations=(ttas_duration,))


def all_codings_ws(ttas_duration: int = 5) -> List[MethodSpec]:
    """Every coding with weight scaling (Tables I/III, the fault figure)."""
    return coding_methods(ttas_durations=(ttas_duration,), weight_scaling=True)


@dataclass(frozen=True)
class SweepConfig:
    """A full noise sweep: dataset, methods, noise axis and levels.

    Attributes
    ----------
    dataset:
        Dataset name.
    methods:
        The configurations compared (one per curve / table block).
    noise_kind:
        One of :data:`NOISE_KINDS` -- the paper's i.i.d. axes ("deletion",
        "jitter") or a hardware-fault axis ("dead", "stuck", "burst_error").
    levels:
        Noise levels on the x-axis (deletion probabilities, jitter sigmas or
        fault fractions).
    scale:
        Experiment scale (paper or bench).
    seed:
        Seed controlling training, conversion calibration and noise draws.
    batch_size:
        Transport-evaluation batch size of every cell.  Part of the sweep
        identity: each batch derives its noise stream from its absolute
        sample offset, so a different batch size draws a different (equally
        valid) realisation.  It is also the sample-sharding granularity --
        shards cover whole batches (so their noise streams match the
        unsharded run's exactly), hence a cell splits into at most
        ``ceil(eval_size / batch_size)`` shards.
    simulator:
        Evaluation simulator of every cell: ``"transport"`` (fast
        activation-transport, default) or ``"timestep"`` (faithful
        time-stepped membrane simulation).  The faithful simulator runs
        every coding with a per-layer temporal protocol -- rate, phase,
        TTFS and TTAS; only schemes without a faithful correspondence
        (burst) are rejected, with the capability gap named in the error
        (filter those out of a figure with ``--methods`` /
        :func:`filter_methods`).
    """

    dataset: str
    methods: Tuple[MethodSpec, ...]
    noise_kind: str
    levels: Tuple[float, ...]
    scale: ExperimentScale = BENCH_SCALE
    seed: int = 0
    batch_size: int = 16
    simulator: str = "transport"

    def __post_init__(self) -> None:
        validate_choice("noise_kind", self.noise_kind, NOISE_KINDS)
        if not self.methods:
            raise ConfigError("a sweep needs at least one method")
        if not self.levels:
            raise ConfigError("a sweep needs at least one noise level")
        check_positive("batch_size", self.batch_size)
        validate_choice("simulator", self.simulator, SIMULATORS)
        if self.simulator == "timestep":
            # Per-capability validation: each coding scheme declares whether
            # it has a faithful per-layer protocol, and why (not).
            from repro.coding.registry import timestep_support

            problems = []
            for coding in sorted({m.coding for m in self.methods}):
                supported, note = timestep_support(coding)
                if not supported:
                    problems.append(f"{coding}: {note}")
            if problems:
                raise ConfigError(
                    "the timestep simulator cannot faithfully model every "
                    "requested method -- " + "; ".join(problems) + " -- "
                    "drop those method(s) (e.g. restrict the sweep with "
                    "--methods) or use simulator='transport'"
                )

    def build_plans(self, eval_size: Optional[int] = None, use_cache: bool = True) -> list:
        """Compile the sweep into its (method x level) noise-cell plans."""
        from repro.execution.plan import build_sweep_plans

        return build_sweep_plans(self, eval_size=eval_size, use_cache=use_cache)


class ScaleWindowError(ConfigError):
    """A method's coder does not fit the window its experiment scale gives it
    (e.g. TTAS(10) at the 8-step TTFS window of :data:`TEST_SCALE`)."""


def check_scale_windows(methods: Sequence[MethodSpec], scale: ExperimentScale) -> None:
    """Raise :class:`ScaleWindowError` for the first method ``scale`` cannot code.

    Builds each method's coder at its scale window, so every window
    constraint a coder has (TTAS duration, phase/burst period) is checked
    where it is defined.
    """
    from repro.coding.registry import create_coder

    for method in methods:
        window = scale.time_steps_for(method.coding)
        try:
            create_coder(method.coding, num_steps=window, **method.coder_kwargs())
        except ValueError as error:
            raise ScaleWindowError(
                f"{method.display_label()} does not fit the {window}-step "
                f"{method.coding} window of the {scale.name} scale: {error}"
            ) from None


def filter_methods(
    methods: Sequence[MethodSpec], labels: Optional[Sequence[str]]
) -> Tuple[MethodSpec, ...]:
    """Restrict a method list to the given display labels (case-insensitive).

    ``None`` keeps every method.  A selection that matches zero curves is an
    error, never a silent empty sweep: unknown labels raise naming the
    available ones (a typo cannot drop a curve), and an explicitly empty
    label list raises instead of degenerating to "all" or "none".  Used by
    the ``--methods`` CLI flag to run a subset of a figure's curves -- e.g.
    only the ones the faithful timestep simulator models.
    """
    if labels is None:
        return tuple(methods)
    labels = list(labels)
    if not labels:
        raise ConfigError(
            "the method filter matched zero curves: an empty label list "
            "selects nothing; omit the filter to keep every method "
            f"(available: {[m.display_label() for m in methods]})"
        )
    by_label = {method.display_label().lower(): method for method in methods}
    selected = []
    unknown = []
    for label in labels:
        method = by_label.get(str(label).lower())
        if method is None:
            unknown.append(label)
        else:
            selected.append(method)
    if unknown:
        raise ConfigError(
            f"unknown method label(s) {unknown}; available: "
            f"{[m.display_label() for m in methods]}"
        )
    return tuple(selected)


#: Noise levels used by the paper.
PAPER_DELETION_LEVELS: Tuple[float, ...] = tuple(round(0.1 * i, 1) for i in range(0, 10))
PAPER_JITTER_LEVELS: Tuple[float, ...] = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)

#: Reduced level grids used by the benchmark harness (same range, fewer points).
BENCH_DELETION_LEVELS: Tuple[float, ...] = (0.0, 0.2, 0.5, 0.8, 0.9)
BENCH_JITTER_LEVELS: Tuple[float, ...] = (0.0, 1.0, 2.0, 3.0, 4.0)

#: Noise levels reported in Table I / Table II.
TABLE1_DELETION_LEVELS: Tuple[float, ...] = (0.0, 0.2, 0.5, 0.8)
TABLE2_JITTER_LEVELS: Tuple[float, ...] = (0.0, 1.0, 2.0, 3.0)

#: Hardware-fault noise axes (extension; see :mod:`repro.noise.faults`).
FAULT_NOISE_KINDS: Tuple[str, ...] = NOISE_KINDS[2:]

#: Fault fractions swept by the hardware-fault robustness curves.
FAULT_LEVELS: Tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.4)
BURST_ERROR_LEVELS: Tuple[float, ...] = (0.0, 0.1, 0.25, 0.5, 0.75)

#: Fault fractions reported in the fault-robustness table.
TABLE3_FAULT_LEVELS: Tuple[float, ...] = (0.0, 0.1, 0.2, 0.4)

#: Perturbation budgets swept by the adversarial robustness curves (number
#: of single-spike moves the adversary may chain; 0 is the clean point).
BENCH_ATTACK_BUDGETS: Tuple[int, ...] = (0, 1, 2, 4, 8)

#: Default number of one-move candidates scored per search step.
DEFAULT_MAX_CANDIDATES = 64


@dataclass(frozen=True)
class AttackSweepConfig:
    """A worst-case robustness sweep: dataset, methods, attack axis, budgets.

    The adversarial counterpart of :class:`SweepConfig`: instead of an
    i.i.d. noise axis it walks a *perturbation budget* axis, and every cell
    runs a per-sample attack search (:mod:`repro.noise.adversarial`) instead
    of a random noise draw.  It exposes the surface the sweep runner,
    reporting and result assembly consume (``dataset`` / ``methods`` /
    ``noise_kind`` / ``levels`` / ``scale`` / ``seed`` / ``build_plans``),
    so one :func:`~repro.experiments.runner.run_sweeps` call runs attack and
    noise sweeps alike, through the same executor engine, result store and
    figure formatting.

    Attributes
    ----------
    dataset:
        Dataset name.
    methods:
        The coder configurations attacked (one per curve).
    attack_kind:
        Perturbation space: ``"delete"`` (remove spikes), ``"shift"`` (move
        spikes by up to 2 steps) or ``"insert"`` (force extra spikes).
    budgets:
        Perturbation budgets on the x-axis -- the maximum number of
        single-spike moves per sample (integers; 0 = clean).
    search:
        Attack driver: ``"greedy"`` / ``"beam"`` (scored searches) or
        ``"random"`` (the matched-budget unscored baseline).
    max_candidates:
        Candidates scored per search step (caps the per-sample cost).
    evaluator:
        Where the *accuracy* is measured: ``"transport"`` evaluates the
        found attacks on the fast evaluator that also scored the search;
        ``"timestep"`` transfer-evaluates them on the faithful membrane
        simulation, measuring the transport->faithful attack gap.  The
        search itself always runs on transport (scoring hundreds of
        candidates per sample is only tractable there).
    """

    dataset: str
    methods: Tuple[MethodSpec, ...]
    attack_kind: str
    budgets: Tuple[int, ...]
    scale: ExperimentScale = BENCH_SCALE
    seed: int = 0
    search: str = "greedy"
    max_candidates: int = DEFAULT_MAX_CANDIDATES
    evaluator: str = "transport"

    def __post_init__(self) -> None:
        validate_choice("attack_kind", self.attack_kind, ATTACK_KINDS)
        validate_choice("search", self.search, ATTACK_SEARCHES)
        validate_choice("evaluator", self.evaluator, SIMULATORS)
        if not self.methods:
            raise ConfigError("an attack sweep needs at least one method")
        if not self.budgets:
            raise ConfigError("an attack sweep needs at least one budget")
        for budget in self.budgets:
            check_non_negative("budget", budget)
            if int(budget) != budget:
                raise ConfigError(
                    f"attack budgets are move counts (integers), got {budget!r}"
                )
        check_positive("max_candidates", self.max_candidates)
        if self.evaluator == "timestep":
            # Transfer evaluation needs the faithful simulator, whose
            # per-capability check each coding declares by name.
            from repro.coding.registry import timestep_support

            problems = []
            for coding in sorted({m.coding for m in self.methods}):
                supported, note = timestep_support(coding)
                if not supported:
                    problems.append(f"{coding} (transfer evaluation): {note}")
            if problems:
                raise ConfigError(
                    "the adversarial attack engine cannot handle every "
                    "requested method -- " + "; ".join(problems) + " -- drop "
                    "those method(s) (e.g. restrict the sweep with --methods) "
                    "or use evaluator='transport'"
                )

    def build_plans(self, eval_size: Optional[int] = None, use_cache: bool = True) -> list:
        """Compile the sweep into its (method x budget) attack-cell plans."""
        from repro.execution.attack import build_attack_plans

        return build_attack_plans(self, eval_size=eval_size, use_cache=use_cache)

    @property
    def noise_kind(self) -> str:
        """The sweep's axis name as rendered by figures/tables/logs."""
        return f"adv-{self.attack_kind}"

    @property
    def levels(self) -> Tuple[float, ...]:
        """The budgets as floats -- the x-axis the reporting layer plots."""
        return tuple(float(b) for b in self.budgets)
