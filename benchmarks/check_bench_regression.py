"""Benchmark regression gate for CI: the parent commit against the change.

``ci/bench_ab.sh`` measures both trees on the same runner and writes one
directory per side::

    <side>/<workload>.<pair>.out   standard output of one perfbench run
    <side>/hot_paths.json          one bench_hot_paths.py report

Given ``--baseline`` (the parent's directory) and ``--candidate`` (the
change's), the gate compares them:

* **perfbench.** For each workload and end-to-end metric of
  ``BENCHMARK.json``, the median and quartiles of each side's runs.  The
  metric's ``better`` direction and ``bound`` (a fraction of the parent's
  median) come from ``BENCHMARK.json``.  A metric FAILs when the change's
  median is worse than the parent's by more than the bound; it is
  UNRESOLVED (printed, not failed) when the median is within the bound but
  the parent's own quartile spread is wider than the bound, so the runs
  cannot tell.  A workload also FAILs when the change has a larger share of
  failed operations (``failed`` / ``attempted``, averaged over runs); a run
  that printed no result line counts as all failed.
* **micro rows.** Every timing leaf of the change's ``hot_paths.json`` must
  stay within ``--tolerance`` (default 1.5x) of the parent's report from the
  same job.  Where the parent's directory has no ``hot_paths.json`` (the
  change edits the micro script, so ``bench_ab.sh`` does not measure the
  parent's), the micro comparison is skipped with a note.

``--min-shard-speedup`` and ``--min-serving-speedup`` hold the change's
same-run speedups (``summary.cell_sharding_speedup`` and
``summary.serving_speedup`` of its ``hot_paths.json``) to a floor; they need
no baseline.

Usage::

    bash ci/bench_ab.sh --pairs 5       # runs this gate on its results
    python benchmarks/check_bench_regression.py \\
        --baseline bench-ab/parent --candidate bench-ab/head
    python benchmarks/check_bench_regression.py --candidate bench-ab/head \\
        --min-shard-speedup 2.5 --min-serving-speedup 3

Exit codes: 0 = no regression, 1 = regression found, 2 = bad input.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import statistics
import sys
from typing import Dict, Iterator, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Workloads, end-to-end metrics, their directions and bounds.
BENCHMARK_PATH = os.path.join(REPO_ROOT, "BENCHMARK.json")

#: The micro report each side's directory holds.
HOT_PATHS = "hot_paths.json"

#: Default micro regression tolerance: fail on >1.5x slowdown of a leaf.
DEFAULT_TOLERANCE = 1.5

#: Shard count of the gated cell-sharding speedup; a runner with fewer CPUs
#: cannot run the shards in parallel, so the floor does not apply there.
SHARD_FLOOR_SHARDS = 4

#: Subtrees/keys of a micro report's ``results`` that the leaf comparison
#: skips: configs, the core-count-bound cell-sharding and serving wall
#: clocks (their same-run ratios have floors instead), and the adversarial
#: search's higher-is-better ``candidates_per_sec`` (its seconds-per-sample
#: twin is compared).
_NON_TIMING_KEYS = ("config", "cell_sharding", "candidates_per_sec", "serving")


# -- perfbench A/B -------------------------------------------------------------
def result_line(text: str) -> Optional[Dict]:
    """The perfbench result object on the last line of ``text``, or None."""
    lines = text.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or "metrics" not in result:
        return None
    return result


def read_runs(directory: str, workload: str) -> List[Optional[Dict]]:
    """Every run of ``workload`` in ``directory``: a result, or None."""
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, f"{workload}.*.out"))):
        with open(path, encoding="utf-8") as handle:
            runs.append(result_line(handle.read()))
    return runs


def failed_share(runs: List[Optional[Dict]]) -> float:
    """Mean share of failed operations per run; a run with no result is 1."""
    shares = []
    for run in runs:
        if run is None:
            shares.append(1.0)
        else:
            shares.append(run["failed"] / run["attempted"] if run["attempted"] else 0.0)
    return statistics.fmean(shares) if shares else 1.0


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge_metric(
    base: List[float], cand: List[float], better: str, bound: float
) -> Tuple[str, float]:
    """``(verdict, change)`` of one metric; ``change`` is the signed
    relative change of the median, positive when the change is worse."""
    if not cand:
        return "FAIL", float("nan")
    if not base:
        return "n/a", float("nan")
    q1, median, q3 = quartiles(base)
    cand_median = statistics.median(cand)
    delta = cand_median - median if better == "lower" else median - cand_median
    if median:
        worse = delta / abs(median)
    else:
        worse = math.copysign(math.inf, delta) if delta else 0.0
    if worse > bound:
        return "FAIL", worse
    if median and (q3 - q1) / abs(median) > bound:
        return "UNRESOLVED", worse
    return "ok", worse


def compare_perfbench(
    baseline_dir: str, candidate_dir: str, benchmark: Dict
) -> Tuple[bool, str]:
    """Judge every workload and end-to-end metric; ``(ok, table)``."""
    lines = [f"{'workload':<16}{'metric':<15}{'parent median [q1, q3]':>32}"
             f"{'change':>12}{'worse':>9}  verdict"]
    failures = []
    unresolved = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        base_runs = read_runs(baseline_dir, workload)
        cand_runs = read_runs(candidate_dir, workload)
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            base = [r["metrics"][name]["value"] for r in base_runs if r]
            cand = [r["metrics"][name]["value"] for r in cand_runs if r]
            verdict, worse = judge_metric(base, cand, metric["better"],
                                          metric["bound"])
            parent = "--"
            if base:
                q1, median, q3 = quartiles(base)
                parent = f"{median:.4g} [{q1:.4g}, {q3:.4g}]"
            change = f"{statistics.median(cand):.4g}" if cand else "--"
            lines.append(f"{workload:<16}{name:<15}{parent:>32}{change:>12}"
                         f"{worse:>+8.1%}  {verdict}")
            if verdict == "FAIL":
                failures.append(f"{workload} {name}")
            elif verdict == "UNRESOLVED":
                unresolved.append(f"{workload} {name}")
        base_share, cand_share = failed_share(base_runs), failed_share(cand_runs)
        verdict = "FAIL" if cand_share > base_share else "ok"
        lines.append(f"{workload:<16}{'failed share':<15}{base_share:>32.3f}"
                     f"{cand_share:>12.3f}{'':>9}  {verdict}"
                     f"  ({len(base_runs)} vs {len(cand_runs)} runs)")
        if verdict == "FAIL":
            failures.append(f"{workload} failed share")
    lines.append("")
    if unresolved:
        lines.append("UNRESOLVED (the parent's quartile spread is wider than "
                     "the bound): " + ", ".join(unresolved))
    if failures:
        lines.append("FAIL: worse than the parent beyond the bound: "
                     + ", ".join(failures))
    else:
        lines.append("OK: no end-to-end metric worse than the parent beyond "
                     "its bound")
    return not failures, "\n".join(lines)


# -- micro rows ----------------------------------------------------------------
def iter_timings(results: Dict, prefix: str = "") -> Iterator[Tuple[str, float]]:
    """Yield ``(dotted.path, seconds)`` for every timing leaf in a report."""
    for key, value in results.items():
        if key in _NON_TIMING_KEYS:
            continue
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            yield from iter_timings(value, path)
        elif isinstance(value, (int, float)):
            yield path, float(value)


def compare(
    baseline: Dict, candidate: Dict, tolerance: float
) -> Tuple[bool, str]:
    """Compare two micro reports of one runner; ``(ok, table)``."""
    base_timings = dict(iter_timings(baseline.get("results", {})))
    cand_timings = dict(iter_timings(candidate.get("results", {})))
    if not base_timings:
        return False, "baseline report contains no timings"

    width = max(len(path) for path in base_timings) + 2
    lines = [f"tolerance: {tolerance:.2f}x slowdown",
             f"{'micro row':<{width}}{'parent':>12}{'change':>12}{'ratio':>9}  status"]
    regressions = []
    for path, base in sorted(base_timings.items()):
        cand = cand_timings.get(path)
        if cand is None:
            lines.append(f"{path:<{width}}{base * 1e3:>10.2f}ms{'--':>12}{'--':>9}  MISSING")
            regressions.append(path)
            continue
        ratio = cand / base if base > 0 else float("inf")
        status = "ok"
        if ratio > tolerance:
            status = "REGRESSED"
            regressions.append(path)
        lines.append(f"{path:<{width}}{base * 1e3:>10.2f}ms{cand * 1e3:>10.2f}ms"
                     f"{ratio:>8.2f}x  {status}")
    lines.append("")
    if regressions:
        lines.append(f"FAIL: {len(regressions)} micro row(s) regressed beyond "
                     f"{tolerance:.2f}x or went missing: " + ", ".join(regressions))
    else:
        lines.append("OK: no micro row regressed beyond tolerance")
    return not regressions, "\n".join(lines)


# -- same-run floors -----------------------------------------------------------
def check_shard_speedup(candidate: Dict, minimum: float) -> Tuple[bool, str]:
    """Require the candidate's cell-sharding speedup to meet ``minimum``.

    The speedup (``summary.cell_sharding_speedup``) is a same-run,
    same-machine ratio -- one faithful-simulator cell unsharded over the
    same cell split into 4 sample shards on a 4-worker process pool.  The
    measuring runner's core count (``results.cell_sharding.config.cpu_count``)
    bounds that ratio: with fewer CPUs than shards the check passes as
    skipped, so the verdict does not depend on the runner's size.
    """
    sharding = (candidate.get("results") or {}).get("cell_sharding") or {}
    cpus = (sharding.get("config") or {}).get("cpu_count")
    if cpus is not None and int(cpus) < SHARD_FLOOR_SHARDS:
        return True, (
            f"cell-sharding speedup skipped: {int(cpus)} cpus < "
            f"{SHARD_FLOOR_SHARDS} shards"
        )
    speedup = (candidate.get("summary") or {}).get("cell_sharding_speedup")
    if speedup is None:
        return False, (
            "FAIL: candidate report has no summary.cell_sharding_speedup "
            "(bench_hot_paths.py too old?)"
        )
    if float(speedup) < minimum:
        return False, (
            f"FAIL: cell-sharding speedup {float(speedup):.2f}x is below "
            f"the required {minimum:.2f}x at 4 shards"
        )
    return True, (
        f"cell-sharding speedup {float(speedup):.2f}x "
        f">= required {minimum:.2f}x"
    )


def check_serving_speedup(candidate: Dict, minimum: float) -> Tuple[bool, str]:
    """Require the candidate's serving throughput speedup to meet ``minimum``.

    The speedup (``summary.serving_speedup``) is a same-run, same-machine
    ratio -- micro-batched transport throughput under concurrent clients
    over a sequential-singles loop on the same requests.
    """
    speedup = (candidate.get("summary") or {}).get("serving_speedup")
    if speedup is None:
        return False, (
            "FAIL: candidate report has no summary.serving_speedup "
            "(bench_hot_paths.py too old?)"
        )
    if float(speedup) < minimum:
        return False, (
            f"FAIL: serving throughput speedup {float(speedup):.2f}x is "
            f"below the required {minimum:.2f}x (micro-batched vs "
            f"sequential singles, transport evaluator)"
        )
    return True, (
        f"serving throughput speedup {float(speedup):.2f}x "
        f">= required {minimum:.2f}x"
    )


def load_json(path: str) -> Dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=None,
                        help="the parent's result directory; when given, the "
                             "candidate is compared against it")
    parser.add_argument("--candidate", required=True,
                        help="the change's result directory")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="micro row tolerance factor (default "
                             f"{DEFAULT_TOLERANCE})")
    parser.add_argument("--min-shard-speedup", type=float, default=None,
                        help="require the candidate's "
                             "summary.cell_sharding_speedup (same-run "
                             "unsharded/4-shard faithful-simulator cell) "
                             "to be at least this factor; skipped when the "
                             "candidate ran on fewer than 4 cpus")
    parser.add_argument("--min-serving-speedup", type=float, default=None,
                        help="require the candidate's "
                             "summary.serving_speedup (same-run "
                             "micro-batched vs sequential-singles transport "
                             "throughput) to be at least this factor")
    args = parser.parse_args(argv)

    if args.tolerance <= 0:
        print(f"tolerance must be positive, got {args.tolerance}", file=sys.stderr)
        return 2
    floors = args.min_shard_speedup is not None or args.min_serving_speedup is not None
    if args.baseline is None and not floors:
        print("nothing to check: give --baseline or a speedup floor", file=sys.stderr)
        return 2
    baseline_micro = (os.path.join(args.baseline, HOT_PATHS)
                      if args.baseline is not None else None)
    try:
        benchmark = load_json(BENCHMARK_PATH)
        candidate = load_json(os.path.join(args.candidate, HOT_PATHS))
        baseline = (load_json(baseline_micro)
                    if baseline_micro is not None and os.path.exists(baseline_micro)
                    else None)
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot load reports: {error}", file=sys.stderr)
        return 2

    ok = True
    if args.baseline is not None:
        ok, table = compare_perfbench(args.baseline, args.candidate, benchmark)
        print(table)
        print()
        if baseline is None:
            print(f"micro comparison skipped: {baseline_micro} is missing "
                  "(the change edits benchmarks/bench_hot_paths.py, so the "
                  "parent's micro report measures other rows)")
        else:
            micro_ok, table = compare(baseline, candidate, args.tolerance)
            print(table)
            ok = ok and micro_ok
    if args.min_shard_speedup is not None:
        shard_ok, message = check_shard_speedup(candidate, args.min_shard_speedup)
        print(message)
        ok = ok and shard_ok
    if args.min_serving_speedup is not None:
        serving_ok, message = check_serving_speedup(candidate, args.min_serving_speedup)
        print(message)
        ok = ok and serving_ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
