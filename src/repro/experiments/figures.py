"""The paper's figures as a catalogue of sweeps.

Every figure of the paper's evaluation (and the repo's fault and attack
extensions) is a method list swept along one noise axis:
:data:`FIGURES` holds one :class:`~repro.experiments.runner.SweepSpec` per
CLI name and :func:`run_figure` runs any of them on one dataset, returning
its :class:`~repro.experiments.runner.SweepResult`.  The benchmark harness
prints the result with
:func:`repro.experiments.reporting.format_figure_series`.

Figure inventory (paper -> catalogue name -> bound function):

* Fig. 2  accuracy + spikes vs deletion, rate/phase/burst/TTFS  -> ``fig2`` -> :func:`figure2_deletion`
* Fig. 3  accuracy + spikes vs jitter, rate/phase/burst/TTFS    -> ``fig3`` -> :func:`figure3_jitter`
* Fig. 4  weight scaling and TTAS(t_a) vs deletion              -> ``fig4`` -> :func:`figure4_weight_scaling_ttas`
* Fig. 5B activation distribution under deletion per coding     -> :func:`figure5_activation_distribution`
* Fig. 6  TTFS vs TTAS(t_a) vs jitter                           -> ``fig6`` -> :func:`figure6_ttas_jitter`
* Fig. 7  all codings with/without WS + TTAS(5)+WS vs deletion  -> ``fig7`` -> :func:`figure7_deletion_comparison`
* Fig. 8  rate/phase/burst/TTFS/TTAS(10) vs jitter              -> ``fig8`` -> :func:`figure8_jitter_comparison`

Beyond the paper, ``fault-dead`` / ``fault-stuck`` / ``fault-burst`` sweep
the hardware-fault levels of :class:`~repro.noise.injector.NoiseInjector`,
and ``adv-delete`` / ``adv-shift`` / ``adv-insert`` pair a budgeted
attacker's worst case with the matched random baseline per coding; :func:`run_figure` runs them by name.
Fig. 5B is not a sweep and keeps its own function.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional

from repro.coding.registry import create_coder
from repro.core.analysis import ActivationDistribution, activation_distribution
from repro.experiments.config import (
    BENCH_ATTACK_BUDGETS,
    BENCH_DELETION_LEVELS,
    BENCH_JITTER_LEVELS,
    BURST_ERROR_LEVELS,
    FAULT_LEVELS,
    all_codings,
    all_codings_ws,
    coding_methods,
)
from repro.experiments.runner import SweepResult, SweepSpec, run_spec
from repro.experiments.workloads import PreparedWorkload
from repro.noise.injector import NoiseInjector

#: Default dataset of the figures (the paper plots CIFAR-10).
_CIFAR10 = ("cifar10",)


FIGURES: Dict[str, SweepSpec] = {
    "fig2": SweepSpec(
        "Fig. 2: accuracy and spikes vs deletion (no WS)",
        lambda: coding_methods(), "deletion", BENCH_DELETION_LEVELS, _CIFAR10,
    ),
    "fig3": SweepSpec(
        "Fig. 3: accuracy and spikes vs jitter (no WS)",
        lambda: coding_methods(), "jitter", BENCH_JITTER_LEVELS, _CIFAR10,
    ),
    "fig4": SweepSpec(
        "Fig. 4: weight scaling and TTAS(t_a)+WS vs deletion",
        lambda ttas_durations=(1, 2, 3, 4, 5): coding_methods(
            ttas_durations=ttas_durations, weight_scaling=True
        ),
        "deletion", BENCH_DELETION_LEVELS, _CIFAR10,
    ),
    "fig6": SweepSpec(
        "Fig. 6: TTFS vs TTAS(t_a) under jitter",
        lambda ttas_durations=(1, 2, 3, 4, 5, 10): coding_methods(
            ("ttfs",), ttas_durations
        ),
        "jitter", BENCH_JITTER_LEVELS, _CIFAR10,
    ),
    "fig7": SweepSpec(
        "Fig. 7: every coding with and without WS, plus TTAS(5)+WS, vs deletion",
        lambda ttas_duration=5: coding_methods() + all_codings_ws(ttas_duration),
        "deletion", BENCH_DELETION_LEVELS, _CIFAR10,
    ),
    "fig8": SweepSpec(
        "Fig. 8: rate/phase/burst/TTFS/TTAS(10) under jitter",
        partial(all_codings, ttas_duration=10), "jitter", BENCH_JITTER_LEVELS,
        _CIFAR10,
    ),
    **{
        f"fault-{name}": SweepSpec(
            f"Hardware faults ({kind}): every coding + WS", all_codings_ws, kind,
            BURST_ERROR_LEVELS if kind == "burst_error" else FAULT_LEVELS, _CIFAR10,
        )
        for name, kind in (("dead", "dead"), ("stuck", "stuck"), ("burst", "burst_error"))
    },
    # Attack sweeps search every sample, so they default to the small MNIST net.
    **{
        f"adv-{kind}": SweepSpec(
            f"Adversarial vs random spike {kind} per coding", all_codings,
            f"adv-{kind}", BENCH_ATTACK_BUDGETS, ("mnist",),
        )
        for kind in ("delete", "shift", "insert")
    },
}


def run_figure(
    name: str,
    dataset: Optional[str] = None,
    *,
    workload: Optional[PreparedWorkload] = None,
    **kwargs,
) -> SweepResult:
    """Run the :data:`FIGURES` entry ``name`` on one dataset.

    ``dataset`` defaults to the entry's; ``workload`` reuses an already
    prepared workload for it.  Every other keyword argument is
    :func:`~repro.experiments.runner.run_spec`'s: levels, scale, seed,
    execution, the entry's family options and its method-builder
    arguments (e.g. ``ttas_duration`` for Fig. 7).
    """
    spec = FIGURES[name]
    dataset = spec.datasets[0] if dataset is None else dataset
    workloads = None if workload is None else {dataset: workload}
    return run_spec(spec, (dataset,), workloads=workloads, **kwargs)[0]


figure2_deletion = partial(run_figure, "fig2")
figure3_jitter = partial(run_figure, "fig3")
figure4_weight_scaling_ttas = partial(run_figure, "fig4")
figure6_ttas_jitter = partial(run_figure, "fig6")
figure7_deletion_comparison = partial(run_figure, "fig7")
figure8_jitter_comparison = partial(run_figure, "fig8")


def figure5_activation_distribution(
    clean_value: float = 0.8,
    deletion_probability: float = 0.4,
    num_steps: int = 32,
    ttfs_steps: int = 16,
    trials: int = 400,
    target_duration: int = 5,
    seed: int = 0,
) -> Dict[str, ActivationDistribution]:
    """Fig. 5B: distribution of the noisy activation per coding scheme.

    Returns one :class:`ActivationDistribution` per coding, for a single clean
    activation value under deletion noise -- the histogram sketched in the
    paper (continuous around ``(1-p)A`` for rate-like codes, all-or-none for
    TTFS, bimodal towards 0 and A for TTAS).
    """
    noise = NoiseInjector(deletion=deletion_probability)
    distributions: Dict[str, ActivationDistribution] = {}
    specs = {
        "rate": create_coder("rate", num_steps=num_steps),
        "phase": create_coder("phase", num_steps=num_steps),
        "burst": create_coder("burst", num_steps=num_steps),
        "ttfs": create_coder("ttfs", num_steps=ttfs_steps),
        "ttas": create_coder("ttas", num_steps=ttfs_steps, target_duration=target_duration),
    }
    for name, coder in specs.items():
        distributions[name] = activation_distribution(
            coder, clean_value, noise, trials=trials, rng=seed
        )
    return distributions
