#!/usr/bin/env python3
"""End-to-end benchmark of the noise-robust SNN reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-transport --seed 1 --seconds 12 --trace 0

Workloads: ``sweep-transport``, ``sweep-timestep``, ``paper-window`` and
``serve-mixed`` (see ``perfbench/README.md``).  With ``--trace 0`` the last
line of standard output is a JSON object holding every end-to-end metric;
with ``--trace 1`` it holds the per-layer metrics of a traced run instead.
Earlier lines give the details (per-rung serving numbers, the resume time,
the environment); the per-layer table goes to standard error.

The first run in a checkout trains the two bench-scale networks into the
benchmark's own weight cache (``perfbench/_work/cache``), untimed and in a
child process.  Runs never touch ``~/.cache/repro-snn``.

``--write-reference`` evaluates the fixed check input of every workload and
rewrites ``perfbench/reference.json``; run it only on a program whose
outputs are known to be right.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
CACHE = os.path.join(WORK, "cache")
SPEC = os.path.join(HERE, "spec.json")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Pinned so that runs are steady and reductions are ordered the same way.
BLAS_THREADS = "1"
TRAINED = ("mnist", "cifar10")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=False)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--slow-layer", default=None,
        help="make one traced span twice as slow (mapping self-check), e.g. noise.apply",
    )
    parser.add_argument("--prepare-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite reference.json from the current program")
    return parser.parse_args(argv)


def configure_environment() -> None:
    """Pin BLAS threads, point the weight cache here, drop REPRO_* knobs."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = BLAS_THREADS
    os.environ["REPRO_CACHE_DIR"] = CACHE
    sys.path[:0] = [SRC, HERE]


def ensure_trained() -> None:
    """Train the bench networks once per checkout, in a child process."""
    from repro.experiments.config import BENCH_SCALE

    def missing():
        return [
            name for name in TRAINED
            if not os.path.exists(os.path.join(CACHE, f"{name}-{BENCH_SCALE.name}-seed0-weights.npz"))
        ]

    if not missing():
        return
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "train.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if missing():
            subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--prepare-only"],
                check=True, stdout=sys.stderr,
            )


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_ms(values):
    """(p50, p99) of a pass's timings, in milliseconds."""
    from repro.metrics.latency import latency_summary

    summary = latency_summary(values)
    return summary.p50 * 1000.0, summary.p99 * 1000.0


def work_dir(name: str) -> str:
    """An empty directory for one workload's store, spans and spill files."""
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    return work


def make_workload(name, seed, spec, work, recorder=None):
    import workloads

    cls = workloads.WORKLOADS[name]
    if cls is not workloads.ServeMixed:
        return cls(seed, work, CACHE)
    workload = cls(seed, work, CACHE, spec["serving"], recorder=recorder)
    workload.prepare_inputs()
    return workload


def write_reference(spec) -> None:
    """Evaluate every workload's check input; write them to reference.json."""
    import workloads

    result = {"seed": workloads.REFERENCE_SEED, "workloads": {}}
    for name in spec["workloads"]:
        workload = make_workload(name, workloads.REFERENCE_SEED, spec, work_dir(name))
        workload.setup()
        try:
            result["workloads"][name] = workload.reference_outputs()
        finally:
            workload.teardown()
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")


def measure(args, spec) -> dict:
    import tracing
    import workloads

    from repro.utils.logging import set_verbosity

    set_verbosity("error")
    work = work_dir(args.workload)
    recorder = None
    if args.trace or args.slow_layer:
        recorder = tracing.SpanRecorder(work)
        tracing.install(recorder, slow=args.slow_layer)
    workload = make_workload(args.workload, args.seed, spec, work, recorder=recorder if args.trace else None)

    setups, passes, traced = [], [], []
    try:
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.teardown()
            traced_setup = bool(args.trace) and repeat == SETUP_REPEATS - 1
            if traced_setup:
                recorder.set_active(True)
            start = perf_counter()
            workload.setup()
            setups.append(perf_counter() - start)
            if traced_setup:
                recorder.set_active(False)
                setup_spans = recorder.spans
                recorder.clear()
        if args.trace:
            # The first pass warms caches and worker memory; the overhead
            # estimate compares one warm untraced and one traced pass.
            if getattr(workload, "warm_pass", True):
                workload.run_pass()
            count = 2
        else:
            # A fixed number of passes per run, so every run does the same
            # work; the median pass sets the metrics.  The set-ups and the
            # checks take ``fixed_s`` of the run; passes fill the rest.
            timing = spec["workloads"][args.workload]
            count = max(workload.min_passes, round((args.seconds - timing["fixed_s"]) / timing["pass_s"]))
        for index in range(count):
            tracing_this = bool(args.trace) and index == 1
            if recorder is not None:
                recorder.set_active(tracing_this)
            result = workload.run_pass()
            if recorder is not None:
                recorder.set_active(False)
            (traced if tracing_this else passes).append(result)
        # Memory is read before the checks: a check may evaluate a cell in
        # this process, which the measured passes never do.
        peak = peak_rss_mb()
        growth = workload.worker_growth_mb() if hasattr(workload, "worker_growth_mb") else []
        peak += sum(growth)
        checks = workloads.Checks()
        workload.check(passes + traced, checks)
    finally:
        workload.teardown()

    details = {"workload": args.workload, "seed": args.seed, "environment": environment(),
               "passes": len(passes), "traced_passes": len(traced),
               "setup_runs_s": setups, "pass_wall_s": [p.wall_s for p in passes],
               "worker_growth_mb": growth}
    if "resume_s" in passes[0].extra:
        details["resume_s"] = statistics.median(p.extra["resume_s"] for p in passes)
    if "rungs" in passes[0].extra:
        details["rungs"] = [workload.rung_summary(r) for r in passes[-1].extra["rungs"]]
    if "capacity_rps" in passes[0].extra:
        details["capacity_rps"] = [p.extra["capacity_rps"] for p in passes]
    details["p99_ms"] = statistics.median(latency_ms(p.latencies)[1] for p in passes)
    details["check_notes"] = checks.notes
    print(json.dumps({"details": details}))

    if args.trace:
        from layers import per_layer

        metrics = per_layer(recorder, workload, traced, passes, setup_spans)
        recorder.write(os.path.join(work, "spans.jsonl"))
    else:
        if isinstance(workload, workloads.ServeMixed):
            throughput = statistics.median(p.extra["throughput_rps"] for p in passes)
            latency = statistics.median(latency_ms(p.latencies)[0] for p in passes)
        else:
            throughput = statistics.median(p.samples / p.wall_s for p in passes)
            # The cells of a pass differ by design (datasets, codings), so
            # their median would jump between clusters of cell times from
            # run to run; the typical cell time is their mean.
            latency = statistics.median(1000.0 * statistics.fmean(p.latencies) for p in passes)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "samples_per_s": {"value": throughput, "unit": "1/s"},
            "p50_ms": {"value": latency, "unit": "ms"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    configure_environment()
    if args.prepare_only:
        from repro.experiments.config import BENCH_SCALE
        from repro.experiments.workloads import prepare_workload

        for name in TRAINED:
            prepare_workload(name, scale=BENCH_SCALE, seed=0, cache_dir=CACHE)
        return 0
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.write_reference:
        ensure_trained()
        write_reference(spec)
        return 0
    if args.workload not in spec["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(spec['workloads'])}",
              file=sys.stderr)
        return 2
    ensure_trained()
    result = measure(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
