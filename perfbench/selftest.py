#!/usr/bin/env python3
"""Self-checks of the benchmark itself.

``python3 perfbench/selftest.py`` shows that the output checks catch one
perturbed output: a changed cell between two passes, a changed value on the
reference check, a program whose noise layer deletes nothing, and one changed
logit of a served request.

``python3 perfbench/selftest.py --mapping`` checks the per-layer to
end-to-end mapping of ``spec.json`` from the harness: it makes
``NoiseInjector.apply`` twice as slow and shows that ``samples_per_s`` drops
beyond its bound on the workloads the mapping says noise moves, and stays
within it on those where it predicts about zero.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import statistics
import subprocess
import sys
from concurrent.futures import Future

HERE = os.path.dirname(os.path.abspath(__file__))


def _perturbation_checks() -> int:
    import run

    run.configure_environment()
    run.ensure_trained()
    import numpy as np

    import repro.noise.injector as injector
    import workloads

    failures = 0

    def expect(label, run_checks, wanted_failures):
        nonlocal failures
        checks = workloads.Checks()
        run_checks(checks)
        ok = (checks.failed >= 1) if wanted_failures else (checks.failed == 0)
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {checks.failed} of {checks.attempted} flagged")

    # Repeat passes: a second pass whose one cell lost one correct sample.
    first = {
        "Table I|mnist|Rate+WS|0.5": workloads.cell_output(0.5, 0.9, 120.0),
        "Table I|mnist|TTFS+WS|0.5": workloads.cell_output(0.5, 0.8, 30.0),
    }
    second = copy.deepcopy(first)
    expect("repeat pass, clean", lambda c: c.compare(first, second, "repeat pass"), False)
    second["Table I|mnist|Rate+WS|0.5"]["accuracy"] = 0.875
    expect("repeat pass, one cell perturbed", lambda c: c.compare(first, second, "repeat pass"), True)

    # Reference check on the real program (paper-window's check input).
    window = workloads.PaperWindow(0, "", run.CACHE)
    window.setup()
    observed = window.reference_outputs()
    expect("reference, seed program", lambda c: c.against_reference(window.name, observed), False)
    shifted = copy.deepcopy(observed)
    shifted["ttfs|T=108"]["spikes"] *= 1.05
    expect("reference, one cell 5% more spikes",
           lambda c: c.against_reference(window.name, shifted), True)
    original = injector.NoiseInjector.apply
    injector.NoiseInjector.apply = lambda self, train, rng=None: train
    try:
        undeleted = window.reference_outputs()
    finally:
        injector.NoiseInjector.apply = original
    expect("reference, noise layer deletes nothing",
           lambda c: c.against_reference(window.name, undeleted), True)

    # Serving: a real short rung, then one response's logit moved by one ulp.
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as handle:
        serving = dict(json.load(handle)["serving"], checked_per_rung=40)
    serve = workloads.ServeMixed(0, "", run.CACHE, serving)
    serve.prepare_inputs()
    serve.setup()
    try:
        rng = np.random.default_rng(0)
        rung = serve._rung(100.0, 40, rng)
        result = workloads.PassResult(40, 1.0, [], {}, {"rungs": [rung]})
        expect("serve-mixed, clean", lambda c: serve.check([result], c), False)
        served = rung["futures"][7].result()
        logits = served.logits.copy()
        logits[0] = np.nextafter(logits[0], np.inf)
        perturbed = Future()
        perturbed.set_result(dataclasses.replace(served, logits=logits))
        rung["futures"][7] = perturbed
        expect("serve-mixed, one logit perturbed", lambda c: serve.check([result], c), True)
    finally:
        serve.teardown()
    return failures


def _mapping_check(seconds: float, seed: int, repeats: int) -> int:
    """Run three workloads with and without a 2x slower ``noise.apply``.

    The two sides alternate ``repeats`` times and each side's median is
    compared, so a slow spell of the machine does not land on one side only.
    """
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    bound = bounds["samples_per_s"]
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as handle:
        noise = next(row for row in json.load(handle)["mapping"] if "NoiseInjector.apply" in row["wraps"])
    # serve-mixed is left out: none of its requests go through the noise layer.
    predicted = {
        name: name in noise["moves"]["samples_per_s"]
        for name in ("sweep-transport", "paper-window", "sweep-timestep")
    }
    failures = 0
    for workload, moves in predicted.items():
        rates = {"none": [], "noise.apply": []}
        for repeat in range(repeats):
            for slow in rates:
                out = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                     "--seed", str(seed + repeat), "--seconds", str(seconds), "--slow-layer", slow],
                    check=True, capture_output=True, text=True,
                )
                metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
                rates[slow].append(metrics["samples_per_s"]["value"])
        base, slowed = (statistics.median(rates[side]) for side in ("none", "noise.apply"))
        change = slowed / base - 1.0
        ok = change < -bound if moves else abs(change) <= bound
        failures += not ok
        print(
            f"{'ok  ' if ok else 'FAIL'} {workload}: samples_per_s median {base:.2f} -> "
            f"{slowed:.2f} ({change:+.1%}) over {repeats} alternating pairs; predicted "
            f"{'a drop beyond' if moves else 'a change within'} the {bound:.0%} bound"
        )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mapping", action="store_true", help="run the 2x noise-delay mapping check")
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    sys.path.insert(0, HERE)
    failures = _mapping_check(args.seconds, args.seed, args.repeats) if args.mapping else _perturbation_checks()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
