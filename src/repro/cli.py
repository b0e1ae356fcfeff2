"""Command-line interface for the reproduction harness.

Three subcommands cover the common workflows::

    python -m repro figure --name fig2 --dataset cifar10
    python -m repro table  --name table2 --datasets mnist cifar10
    python -m repro evaluate --dataset mnist --coding ttas --duration 5 \
        --deletion 0.5 --weight-scaling

``figure`` and ``table`` regenerate a paper figure/table and print the series
(the same text the benchmarks write to ``reports/``); ``evaluate`` runs a
single noise condition through the end-to-end pipeline.

Sweep execution is controlled by ``--executor`` (serial / thread / process;
also via ``REPRO_SWEEP_EXECUTOR``), ``--max-workers``, ``--shards`` (sample
shards per sweep cell, also via ``REPRO_SWEEP_SHARDS``; by default cells are
auto-sharded only when a pooled dispatch would leave workers idle, and
results are bit-identical at any shard count) and the optional
``--result-store DIR`` (also via ``REPRO_RESULT_STORE``), which caches every
evaluated (dataset, method, level) cell -- and every shard of an in-flight
sharded cell -- on disk so interrupted sweeps resume
and re-runs are incremental.  ``--spike-backend``, ``--batch-size`` and
``--simulator`` select the evaluation backends for all three subcommands;
``--simulator timestep`` runs the faithful time-stepped membrane simulation
(per-layer temporal protocols: rate, phase, TTFS and TTAS; burst has no
faithful correspondence -- filter it out of a figure with ``--methods``),
with its per-layer fold parallelisable via ``REPRO_SIM_WORKERS``.

Hardware-fault sweeps are exposed as extra figure/table names (``fault-dead``,
``fault-stuck``, ``fault-burst``; ``table3-dead`` etc.), and single-condition
fault evaluations via ``evaluate --dead/--stuck/--burst-error`` (plus the
finite-precision synapse ablation via ``evaluate --quant-bits``).  Per-cell
fault tolerance (retry with backoff, timeouts) is controlled by the
``REPRO_CELL_RETRIES`` and ``REPRO_CELL_TIMEOUT`` environment variables;
failed cells render as explicit ``--`` holes instead of aborting the sweep.

Adversarial worst-case sweeps are the ``adv-delete`` / ``adv-shift`` /
``adv-insert`` figure and table names: a budgeted attacker searches each
sample's input spike train for the worst perturbation (``--attack-search``,
``--budgets``) and the matched-budget random baseline rides along for
comparison; ``--simulator timestep`` transfer-evaluates the found attacks on
the faithful simulator.  ``store gc`` removes orphaned shard documents left
behind by killed runs plus unreadable workload conversion documents, and
reports the bytes reclaimed per section.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from typing import List, Optional, Sequence

from repro.experiments import (
    figure2_deletion,
    figure3_jitter,
    figure4_weight_scaling_ttas,
    figure6_ttas_jitter,
    figure7_deletion_comparison,
    figure8_jitter_comparison,
    figure_adversarial,
    figure_fault_robustness,
    format_figure_series,
    format_table_rows,
    table1_deletion,
    table2_jitter,
    table3_faults,
    table_adversarial,
)
from repro.execution.executors import EXECUTOR_NAMES
from repro.execution.store import resolve_store
from repro.experiments.config import BENCH_SCALE, TEST_SCALE, ExperimentScale
from repro.experiments.workloads import prepare_workload
from repro.core.pipeline import SIMULATORS, NoiseRobustSNN
from repro.snn.spikes import SPIKE_BACKENDS

_FIGURES = {
    "fig2": figure2_deletion,
    "fig3": figure3_jitter,
    "fig4": figure4_weight_scaling_ttas,
    "fig6": figure6_ttas_jitter,
    "fig7": figure7_deletion_comparison,
    "fig8": figure8_jitter_comparison,
    # Hardware-fault robustness sweeps (beyond the paper's figures).
    "fault-dead": partial(figure_fault_robustness, fault_kind="dead"),
    "fault-stuck": partial(figure_fault_robustness, fault_kind="stuck"),
    "fault-burst": partial(figure_fault_robustness, fault_kind="burst_error"),
    # Adversarial (worst-case) spike-timing attacks vs the random baseline.
    "adv-delete": partial(figure_adversarial, attack_kind="delete"),
    "adv-shift": partial(figure_adversarial, attack_kind="shift"),
    "adv-insert": partial(figure_adversarial, attack_kind="insert"),
}

_TABLES = {
    "table1": table1_deletion,
    "table2": table2_jitter,
    "table3-dead": partial(table3_faults, fault_kind="dead"),
    "table3-stuck": partial(table3_faults, fault_kind="stuck"),
    "table3-burst": partial(table3_faults, fault_kind="burst_error"),
    "adv-delete": partial(table_adversarial, attack_kind="delete"),
    "adv-shift": partial(table_adversarial, attack_kind="shift"),
    "adv-insert": partial(table_adversarial, attack_kind="insert"),
}

#: Figure/table names that run the adversarial attack engine (and hence
#: accept the --budgets / --attack-search knobs).
_ADVERSARIAL_NAMES = ("adv-delete", "adv-shift", "adv-insert")


def _scale_from_name(name: str) -> ExperimentScale:
    return {"bench": BENCH_SCALE, "test": TEST_SCALE}[name]


def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    """Backend/batch knobs shared by every subcommand."""
    parser.add_argument("--spike-backend", choices=SPIKE_BACKENDS, default=None,
                        help="force the spike-train representation "
                             "(default: the coder's preference, overridable "
                             "via REPRO_SPIKE_BACKEND); ignored by "
                             "rate/phase/burst when the only noise is "
                             "deletion and/or dead neurons, which run on "
                             "per-class spike counts")
    parser.add_argument("--batch-size", type=int, default=None,
                        help="transport-evaluation batch size (default: 16)")
    parser.add_argument("--simulator", choices=SIMULATORS, default=None,
                        help="evaluation simulator: fast activation "
                             "transport (default) or the faithful "
                             "time-stepped membrane simulation (rate, "
                             "phase, ttfs and ttas)")


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """Sweep execution knobs shared by the figure and table subcommands."""
    parser.add_argument("--max-workers", type=int, default=None,
                        help="parallel (method x level) sweep cells; "
                             "0 = one worker per CPU (default: serial)")
    parser.add_argument("--executor", choices=EXECUTOR_NAMES, default=None,
                        help="sweep executor backend (default: "
                             "REPRO_SWEEP_EXECUTOR, else thread when "
                             "--max-workers > 1, else serial); results are "
                             "bit-identical across backends")
    parser.add_argument("--result-store", default=None, metavar="DIR",
                        help="content-addressed on-disk cell cache; resumes "
                             "interrupted sweeps and skips already evaluated "
                             "cells (default: REPRO_RESULT_STORE, else off)")
    parser.add_argument("--shards", type=int, default=None,
                        help="sample shards per sweep cell (1 = off; "
                             "default: REPRO_SWEEP_SHARDS, else automatic -- "
                             "shard only when a pooled dispatch has fewer "
                             "cells than workers); results are bit-identical "
                             "at any shard count")
    parser.add_argument("--methods", nargs="+", default=None, metavar="LABEL",
                        help="run only the curves with these display labels "
                             "(e.g. Rate Phase 'TTAS(5)+WS'); labels that "
                             "match zero curves are errors, and a figure "
                             "containing burst curves needs this to run on "
                             "--simulator timestep")
    parser.add_argument("--budgets", nargs="+", type=int, default=None,
                        metavar="K",
                        help="attack budgets (spike moves per sample) for "
                             "the adv-* names; ignored otherwise")
    parser.add_argument("--attack-search", choices=("greedy", "beam"),
                        default="greedy",
                        help="worst-case search driver for the adv-* names "
                             "(the matched random baseline always rides "
                             "along); ignored otherwise")


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Noise-Robust Deep SNNs with Temporal Information' (DAC 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figure = sub.add_parser("figure", help="regenerate one of the paper's figures")
    figure.add_argument("--name", choices=sorted(_FIGURES), required=True)
    figure.add_argument("--dataset", default="cifar10")
    figure.add_argument("--scale", choices=("bench", "test"), default="bench")
    figure.add_argument("--eval-size", type=int, default=None)
    figure.add_argument("--seed", type=int, default=0)
    _add_execution_arguments(figure)
    _add_backend_arguments(figure)

    table = sub.add_parser("table", help="regenerate Table I/II or the fault table")
    table.add_argument("--name", choices=sorted(_TABLES), required=True)
    table.add_argument("--datasets", nargs="+", default=["mnist", "cifar10", "cifar100"])
    table.add_argument("--scale", choices=("bench", "test"), default="bench")
    table.add_argument("--eval-size", type=int, default=None)
    table.add_argument("--seed", type=int, default=0)
    _add_execution_arguments(table)
    _add_backend_arguments(table)

    evaluate = sub.add_parser("evaluate", help="evaluate one coding/noise condition")
    evaluate.add_argument("--dataset", default="cifar10")
    evaluate.add_argument("--coding", default="ttas",
                          choices=("rate", "phase", "burst", "ttfs", "ttas"))
    evaluate.add_argument("--duration", type=int, default=5,
                          help="TTAS burst duration t_a")
    evaluate.add_argument("--deletion", type=float, default=0.0)
    evaluate.add_argument("--jitter", type=float, default=0.0)
    evaluate.add_argument("--dead", type=float, default=0.0,
                          help="fraction of neurons stuck-at-silent")
    evaluate.add_argument("--stuck", type=float, default=0.0,
                          help="fraction of neurons stuck-at-firing")
    evaluate.add_argument("--burst-error", type=float, default=0.0,
                          help="fraction of the time window deleted as one "
                               "contiguous burst error")
    evaluate.add_argument("--quant-bits", type=int, default=None,
                          help="quantise every synaptic weight to this many "
                               "bits (uniform symmetric) before evaluating; "
                               "works on both simulators (default: full "
                               "precision)")
    evaluate.add_argument("--weight-scaling", action="store_true")
    evaluate.add_argument("--scale", choices=("bench", "test"), default="bench")
    evaluate.add_argument("--eval-size", type=int, default=None)
    evaluate.add_argument("--seed", type=int, default=0)
    _add_backend_arguments(evaluate)

    store = sub.add_parser(
        "store", help="inspect and maintain the on-disk result store"
    )
    store.add_argument("action", choices=("gc",),
                       help="gc: remove orphaned shard documents (shards "
                            "whose cell already has a merged document) and "
                            "orphaned workload conversion documents "
                            "(truncated/corrupt beyond serving), reporting "
                            "the bytes reclaimed per section")
    store.add_argument("--result-store", default=None, metavar="DIR",
                       help="store directory (default: REPRO_RESULT_STORE)")
    return parser


def _adversarial_kwargs(args: argparse.Namespace) -> dict:
    """Attack knobs for the adv-* names (empty for everything else)."""
    if args.name not in _ADVERSARIAL_NAMES:
        return {}
    kwargs = {"search": args.attack_search}
    if args.budgets is not None:
        kwargs["budgets"] = tuple(args.budgets)
    return kwargs


def _run_figure(args: argparse.Namespace) -> str:
    scale = _scale_from_name(args.scale)
    result = _FIGURES[args.name](
        dataset=args.dataset, scale=scale, seed=args.seed, eval_size=args.eval_size,
        max_workers=args.max_workers, executor=args.executor,
        store=args.result_store, spike_backend=args.spike_backend,
        batch_size=args.batch_size,
        simulator=args.simulator, method_filter=args.methods,
        shards=args.shards, **_adversarial_kwargs(args),
    )
    return format_figure_series(result, f"{args.name} ({args.dataset})")


def _run_table(args: argparse.Namespace) -> str:
    scale = _scale_from_name(args.scale)
    result = _TABLES[args.name](
        datasets=tuple(args.datasets), scale=scale, seed=args.seed,
        eval_size=args.eval_size, max_workers=args.max_workers,
        executor=args.executor, store=args.result_store,
        spike_backend=args.spike_backend,
        batch_size=args.batch_size, simulator=args.simulator,
        method_filter=args.methods, shards=args.shards,
        **_adversarial_kwargs(args),
    )
    return format_table_rows(result, args.name)


def _run_evaluate(args: argparse.Namespace) -> str:
    scale = _scale_from_name(args.scale)
    workload = prepare_workload(args.dataset, scale=scale, seed=args.seed)
    coder_kwargs = {}
    if args.coding == "ttas":
        coder_kwargs["target_duration"] = args.duration
    pipeline = NoiseRobustSNN(
        workload.network,
        coding=args.coding,
        num_steps=scale.time_steps_for(args.coding),
        weight_scaling=args.weight_scaling,
        coder_kwargs=coder_kwargs,
        spike_backend=args.spike_backend,
        simulator=args.simulator if args.simulator is not None else "transport",
    )
    x, y = workload.evaluation_slice(args.eval_size)
    result = pipeline.evaluate(
        x, y, deletion=args.deletion, jitter=args.jitter,
        dead=args.dead, stuck=args.stuck, burst_error=args.burst_error,
        batch_size=args.batch_size if args.batch_size is not None else 16,
        rng=args.seed,
        quant_bits=args.quant_bits,
    )
    lines = [
        f"dataset            : {args.dataset} ({scale.name} scale)",
        f"analog DNN accuracy: {workload.dnn_accuracy * 100:.1f}%",
        f"coding             : {result.coding}"
        + (f" (t_a={args.duration})" if args.coding == "ttas" else ""),
        f"noise              : deletion={result.deletion:g} jitter={result.jitter:g}",
        f"faults             : dead={args.dead:g} stuck={args.stuck:g} "
        f"burst_error={args.burst_error:g}",
        f"weight quantization: "
        + (f"{args.quant_bits} bits" if args.quant_bits else "off"),
        f"weight scaling     : C={result.weight_scaling_factor:.3f}",
        f"SNN accuracy       : {result.accuracy * 100:.1f}%",
        f"spikes per sample  : {result.spikes_per_sample:,.0f}",
    ]
    return "\n".join(lines)


def _run_store(args: argparse.Namespace) -> str:
    """The ``store`` maintenance subcommand (currently: ``gc``).

    Collects both orphan classes: shard documents whose merged cell exists
    (sweep leftovers) and conversion documents in ``workloads/`` that are
    truncated/corrupt beyond serving (serving leftovers), reporting
    reclaimed bytes per section.
    """
    store = resolve_store(args.result_store)
    if store is None:
        raise SystemExit(
            "no result store configured: pass --result-store DIR or set "
            "REPRO_RESULT_STORE"
        )
    stats = store.shard_stats()
    # Sum the orphaned documents' sizes *before* collecting them -- the
    # bytes are unaccountable afterwards.
    reclaimable = 0
    for cell in store.shard_cells():
        if cell not in store:
            continue  # live in-flight shards; gc will not touch them
        directory = store.shard_dir_for(cell)
        try:
            names = os.listdir(directory)
        except OSError:
            continue
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                reclaimable += os.path.getsize(os.path.join(directory, name))
            except OSError:
                pass
    removed = store.gc_orphaned_shards()
    workload_stats = store.workload_stats()
    workload_reclaimable = workload_stats["orphaned_workload_bytes"]
    workload_removed = store.gc_orphaned_workloads()
    lines = [
        f"result store       : {store.root}",
        f"cells with shards  : {stats['shard_cells']}",
        f"shard documents    : {stats['shard_docs']} "
        f"({stats['orphaned_shard_docs']} orphaned)",
        f"collected          : {removed} document(s)",
        f"reclaimed          : {reclaimable:,} bytes",
        f"workload documents : {workload_stats['workload_docs']} "
        f"({workload_stats['orphaned_workload_docs']} orphaned)",
        f"collected          : {workload_removed} document(s)",
        f"reclaimed          : {workload_reclaimable:,} bytes",
    ]
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "figure": _run_figure,
        "table": _run_table,
        "evaluate": _run_evaluate,
        "store": _run_store,
    }
    output = handlers[args.command](args)
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
