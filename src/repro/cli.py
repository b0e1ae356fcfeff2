"""Command-line interface for the reproduction harness.

Four subcommands cover the common workflows::

    python -m repro figure --name fig2 --dataset cifar10
    python -m repro table  --name table2 --datasets mnist cifar10
    python -m repro evaluate --dataset mnist --coding ttas --duration 5 \
        --deletion 0.5 --weight-scaling
    python -m repro store gc --result-store DIR

``figure`` and ``table`` run one entry of the sweep catalogues
(:data:`repro.experiments.figures.FIGURES` and
:data:`repro.experiments.tables.TABLES`) and print its series or rows (the
same text the benchmarks write to ``reports/``): the ``--name`` choices are
the catalogue names.  Besides the paper's figures and tables they hold the
hardware-fault sweeps (``fault-dead`` / ``fault-stuck`` / ``fault-burst``,
``table3-dead`` etc.) and the adversarial worst-case sweeps (``adv-delete``
/ ``adv-shift`` / ``adv-insert``), where a budgeted attacker searches each
sample's input spike train for the worst perturbation and the
matched-budget random baseline rides along.

Each entry belongs to one sweep family, and the family decides which of
three flags it takes: noise sweeps take ``--batch-size``; the ``adv-*``
names take ``--budgets`` and ``--attack-search`` (default greedy) and run
their cells per sample.  A flag the named entry does not take is a usage
error.  An entry with a ``--methods`` label it does not have, or with a
method that does not fit the ``--scale`` window (``table2``'s TTAS(10) at
``--scale test``), is refused before anything runs, with one ``error:``
line and exit code 2.

Sweep execution is controlled by ``--executor`` (serial / thread /
process), ``--max-workers``, ``--shards`` (sample shards per sweep cell; by
default cells are auto-sharded only when a pooled dispatch would leave
workers idle, and results are bit-identical at any shard count),
``--retries`` and the optional ``--result-store DIR``, which caches every
evaluated (dataset, method, level) cell -- and every shard of an in-flight
sharded cell -- on disk so interrupted sweeps resume and re-runs are
incremental.  ``--methods`` keeps only the curves with the given labels.
``--simulator timestep`` runs the faithful time-stepped membrane simulation
(per-layer temporal protocols: rate, phase, TTFS and TTAS; burst has no
faithful correspondence -- filter it out of a figure with ``--methods``; the
``adv-*`` names drop it with a warning and transfer-evaluate the found
attacks there).  ``--retries N`` retries a failing cell up to N times with
backoff; a cell that still fails renders as an explicit ``--`` hole instead
of aborting the sweep.  ``--shards`` below 1 and ``--retries`` below 0 are
usage errors.

``evaluate`` runs a single noise condition through the end-to-end pipeline,
including the fault models (``--dead/--stuck/--burst-error``) and the
finite-precision synapse ablation (``--quant-bits``).  ``store gc`` removes
orphaned shard documents left behind by killed runs plus unreadable
workload conversion documents, and reports the bytes reclaimed per section.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.experiments import (
    FIGURES,
    TABLES,
    format_figure_series,
    format_table_rows,
    run_figure,
    run_table,
)
from repro.execution.executors import EXECUTOR_NAMES
from repro.execution.store import ResultStore
from repro.experiments.config import (
    BENCH_SCALE,
    TEST_SCALE,
    ExperimentScale,
)
from repro.experiments.workloads import prepare_workload
from repro.core.pipeline import SIMULATORS, NoiseRobustSNN
from repro.utils.config import ConfigError

#: The ``figure`` and ``table`` subcommands' ``--name`` catalogues.
_CATALOGUES = {"figure": FIGURES, "table": TABLES}

#: Flags setting an option only one sweep family takes, by option name (the
#: argparse dest); a name whose entry does not take the option rejects it.
_FAMILY_FLAGS = {
    "batch_size": "--batch-size",
    "budgets": "--budgets",
    "search": "--attack-search",
}


def _scale_from_name(name: str) -> ExperimentScale:
    return {"bench": BENCH_SCALE, "test": TEST_SCALE}[name]


def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    """Batch/simulator knobs shared by every subcommand."""
    parser.add_argument("--batch-size", type=int, default=None,
                        help="evaluation batch size (default: 16; not "
                             "accepted by the adv-* names, whose cells run "
                             "per sample)")
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
                        help="sweep executor backend (default: thread "
                             "when --max-workers > 1, else serial); results "
                             "are bit-identical across backends")
    parser.add_argument("--result-store", default=None, metavar="DIR",
                        help="content-addressed on-disk cell cache; resumes "
                             "interrupted sweeps and skips already evaluated "
                             "cells (default: off)")
    parser.add_argument("--shards", type=int, default=None,
                        help="sample shards per sweep cell (1 = off; "
                             "default: automatic -- shard only when a pooled "
                             "dispatch has fewer cells than workers); "
                             "results are bit-identical at any shard count")
    parser.add_argument("--retries", type=int, default=0,
                        help="retry a failing cell up to this many times; "
                             "a cell that still fails becomes a -- hole "
                             "instead of aborting the sweep (default: 0, "
                             "errors abort)")
    parser.add_argument("--methods", nargs="+", default=None, metavar="LABEL",
                        help="run only the curves with these display labels "
                             "(e.g. Rate Phase 'TTAS(5)+WS'); labels that "
                             "match zero curves are errors, and a figure "
                             "containing burst curves needs this to run on "
                             "--simulator timestep")
    parser.add_argument("--budgets", nargs="+", type=int, default=None,
                        metavar="K",
                        help="attack budgets (spike moves per sample); "
                             "adv-* names only")
    parser.add_argument("--attack-search", dest="search",
                        choices=("greedy", "beam"), default=None,
                        help="worst-case search driver (default: greedy; "
                             "the matched random baseline always rides "
                             "along); adv-* names only")


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Noise-Robust Deep SNNs with Temporal Information' (DAC 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figure = sub.add_parser(
        "figure", help="regenerate a paper figure or a fault/attack sweep"
    )
    figure.add_argument("--name", choices=sorted(FIGURES), required=True)
    figure.add_argument("--dataset", default="cifar10")
    figure.add_argument("--scale", choices=("bench", "test"), default="bench")
    figure.add_argument("--eval-size", type=int, default=None)
    figure.add_argument("--seed", type=int, default=0)
    _add_execution_arguments(figure)
    _add_backend_arguments(figure)

    table = sub.add_parser(
        "table", help="regenerate Table I/II or a fault/attack table"
    )
    table.add_argument("--name", choices=sorted(TABLES), required=True)
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
    store.add_argument("--result-store", required=True, metavar="DIR",
                       help="store directory")
    return parser


def _family_options(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """The family flags given on the command line, as sweep options.

    A flag whose option the named entry's family does not take (see
    :attr:`~repro.experiments.runner.SweepSpec.options`) is a usage error.
    """
    spec = _CATALOGUES[args.command][args.name]
    options = {}
    for option, flag in _FAMILY_FLAGS.items():
        value = getattr(args, option)
        if value is None:
            continue
        if option not in spec.options:
            parser.error(f"{flag} does not apply to {args.name}")
        options[option] = value
    return options


def _run_sweep(args: argparse.Namespace, options: dict) -> str:
    """The ``figure`` and ``table`` subcommands."""
    kwargs = dict(
        scale=_scale_from_name(args.scale), seed=args.seed,
        eval_size=args.eval_size, max_workers=args.max_workers,
        executor=args.executor, store=args.result_store,
        simulator=args.simulator, method_filter=args.methods,
        shards=args.shards, retries=args.retries, **options,
    )
    if args.command == "figure":
        result = run_figure(args.name, args.dataset, **kwargs)
        title = f"{args.name} ({args.dataset}): {FIGURES[args.name].title}"
        return format_figure_series(result, title)
    return format_table_rows(run_table(args.name, args.datasets, **kwargs), args.name)


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
    store = ResultStore(args.result_store)
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
    if args.command in _CATALOGUES:
        if args.shards is not None and args.shards < 1:
            parser.error(f"--shards must be >= 1, got {args.shards}")
        if args.retries < 0:
            parser.error(f"--retries must be >= 0, got {args.retries}")
        try:
            output = _run_sweep(args, _family_options(parser, args))
        except ConfigError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    else:
        output = {"evaluate": _run_evaluate, "store": _run_store}[args.command](args)
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
