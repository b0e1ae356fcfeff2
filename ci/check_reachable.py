"""Find code in ``src/`` that nothing outside ``tests/`` reaches, in two passes.

**Static pass** (the default; the CI lint job).  A public top-level function,
class or assignment in a ``src/`` module (not an ``__init__.py``) must be used
by some file under ``src/`` (``__init__.py`` re-exports do not count),
``examples/``, ``perfbench/``, ``benchmarks/`` or ``ci/``.  Python files count
a use by AST (a loaded name, an attribute or an imported name); shell scripts
count a whole-word match.  The definition itself does not count.  Methods and
UPPERCASE constants are exempt: a name match cannot tell whose method a use
calls.

**Traced pass** (``--trace``; the CI ``reachable`` smoke leg).  Runs the
production entry points in :data:`ENTRY_POINTS` -- the CI smokes, the
examples, a short pass of every perfbench workload and one CLI run per
figure, table, coding and noise flag -- under a profile hook
(``sys.setprofile`` and ``threading.setprofile``, installed by a
``sitecustomize`` module put first on ``PYTHONPATH``, so it reaches every
child process, pool worker and thread).  The hook logs each ``src/`` code
object the first time it runs, into a directory written into the hook
itself: no environment variable carries it, so nothing that scrubs the
environment (perfbench drops ``REPRO_*``) can lose it.  Every def in
``src/`` (methods and nested defs included) that was never entered is
listed.  A def matches a logged code object by file and by its ``def`` line
or one of its decorator lines, which covers every Python from 3.10 to 3.12.
Two kinds of def are exempt by kind: a body that only raises
``NotImplementedError`` and ``__repr__``.  Every other exemption is an entry
of :data:`EXEMPT` with its reason; an entry whose def is entered or no
longer exists fails the pass, so the table cannot go stale.  Branches are
not traced: a def that runs only part of its body is reached.

Run from the repository root::

    python ci/check_reachable.py            # static pass, a second or two
    python ci/check_reachable.py --trace    # traced pass, 2-2.5 minutes on 2 CPUs

Each exits 1 and lists each finding as ``path:line name``.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

SOURCES = ("src", "examples", "perfbench", "benchmarks", "ci")
ROOT = Path(__file__).resolve().parent.parent


def used_names(node: ast.AST) -> Counter:
    """Count every name ``node`` loads, reads as an attribute or imports."""
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.rpartition(".")[2]] += 1
    return names


def public_definitions(tree: ast.Module):
    """Yield ``(name, node)`` for each public top-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            pairs = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in pairs if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if not name.startswith("_") and not name.isupper():
                yield name, node


def static_pass(root: Path) -> int:
    uses: Counter = Counter()
    shell_text = []
    definitions = []
    for top in SOURCES:
        for path in sorted((root / top).rglob("*")):
            if path.suffix == ".sh":
                shell_text.append(path.read_text())
            if path.suffix != ".py" or (top == "src" and path.name == "__init__.py"):
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            uses += used_names(tree)
            if top == "src":
                definitions += [(path, name, node) for name, node in public_definitions(tree)]
    shell = "\n".join(shell_text)
    unreached = [
        (path, name, node)
        for path, name, node in definitions
        if uses[name] - used_names(node)[name] <= 0 and not re.search(rf"\b{name}\b", shell)
    ]
    for path, name, node in unreached:
        print(f"{path.relative_to(root)}:{node.lineno} {name}")
    if unreached:
        print(f"{len(unreached)} public name(s) in src/ reached only from tests/", file=sys.stderr)
    return 1 if unreached else 0


# ---------------------------------------------------------------------------
# Traced pass
# ---------------------------------------------------------------------------

#: CLI runs, made in one process (``repro.cli.main`` per argument list).
#: Figures and tables run with the CLI's defaults (datasets included) at
#: test scale; fig6, fig8 and table2 include TTAS(10), which does not fit
#: the 8-step test window, so they run at bench scale.  The attack entries
#: run on mnist (their tables' default) at two budgets: a greedy search over
#: the default budgets costs about 50 s per cifar10 figure.  ``--deletion 1``
#: reaches the all-deleted branch of event trains.
_EIGHT = ("--eval-size", "8")
_ATTACKS = ("adv-delete", "adv-insert", "adv-shift")
CLI_RUNS: Tuple[Tuple[str, ...], ...] = (
    *(("figure", "--name", name, "--scale", "test", *_EIGHT)
      for name in ("fault-burst", "fault-dead", "fault-stuck", "fig2", "fig3", "fig4", "fig7")),
    *(("figure", "--name", name, "--scale", "bench", *_EIGHT) for name in ("fig6", "fig8")),
    *(("figure", "--name", name, "--dataset", "mnist", "--scale", "test", "--eval-size", "4",
       "--budgets", "0", "2") for name in _ATTACKS),
    *(("table", "--name", name, "--scale", "test", *_EIGHT)
      for name in ("table1", "table3-burst", "table3-dead", "table3-stuck")),
    ("table", "--name", "table2", "--scale", "bench", *_EIGHT),
    *(("table", "--name", name, "--scale", "test", "--eval-size", "4", "--budgets", "2")
      for name in _ATTACKS),
    ("figure", "--name", "adv-delete", "--dataset", "mnist", "--scale", "test", "--eval-size", "4",
     "--budgets", "2", "--methods", "TTFS", "--attack-search", "beam"),
    ("figure", "--name", "fig2", "--dataset", "mnist", "--scale", "test", *_EIGHT,
     "--retries", "1"),
    ("figure", "--name", "fig2", "--dataset", "mnist", "--scale", "test", *_EIGHT,
     "--simulator", "timestep", "--methods", "Rate", "Phase", "TTFS",
     "--executor", "thread", "--max-workers", "2"),
    *(("evaluate", "--dataset", "mnist", "--coding", coding, "--scale", "test", *_EIGHT, *noise)
      for coding in ("rate", "phase", "burst", "ttfs", "ttas")
      for noise in ((), ("--deletion", "0.3"), ("--deletion", "1"), ("--jitter", "1"),
                    ("--deletion", "0.3", "--jitter", "1"), ("--dead", "0.1"),
                    ("--stuck", "0.1"), ("--burst-error", "0.2"),
                    ("--quant-bits", "4", "--weight-scaling"))),
    *(("evaluate", "--dataset", "mnist", "--coding", coding, "--scale", "test", *_EIGHT,
       "--simulator", "timestep", *noise)
      for coding in ("rate", "phase", "ttfs", "ttas")
      for noise in ((), ("--deletion", "0.3", "--jitter", "1"), ("--dead", "0.1", "--stuck", "0.1"),
                    ("--quant-bits", "4", "--weight-scaling"))),
)

_CLI_DRIVER = """\
import json, sys
from repro.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"repro {' '.join(argv)} failed")
"""

#: The production entry points, each run from the repository root.
#: ``smoke_store_compat.sh`` is left out: it runs the parent commit's code.
ENTRY_POINTS: Tuple[Tuple[str, ...], ...] = (
    *(("bash", f"ci/smoke_{name}.sh")
      for name in ("process_executor", "fused_simulator", "fault_tolerance",
                   "sample_sharding", "adversarial", "serving", "paper_window")),
    *(("python", f"examples/{name}.py")
      for name in ("quickstart", "deletion_robustness_study",
                   "jitter_robustness_study", "neuromorphic_deployment")),
    *(("python", "perfbench/run.py", "--workload", name, "--seconds", "3")
      for name in ("sweep-transport", "sweep-timestep", "paper-window", "serve-mixed")),
    ("python", "-c", _CLI_DRIVER, json.dumps(CLI_RUNS)),
)

#: Defs in ``src/`` that no entry point enters and that stay, keyed by
#: ``(path, qualified name)``, each with its reason.
_BENCHMARKS = "only benchmarks/ reaches it; ROADMAP item 4 replaces those benchmarks"
_ORACLE = "oracle support: the run_stepped equivalence tests need it"
_CELL_LOG = "failure path: names the cell in retry, hole and store-error log lines"
EXEMPT: Dict[Tuple[str, str], str] = {
    ("src/repro/coding/registry.py", "available_coders"):
        "input check: lists the valid names in the unknown-coder error",
    ("src/repro/core/analysis.py", "ActivationDistribution.probabilities"): _BENCHMARKS,
    ("src/repro/core/analysis.py", "decoded_samples"): _BENCHMARKS,
    ("src/repro/core/analysis.py", "activation_distribution"): _BENCHMARKS,
    ("src/repro/execution/attack.py", "AttackPlan.axis_label"): _CELL_LOG,
    ("src/repro/execution/attack.py", "find_attack_train"): _BENCHMARKS,
    ("src/repro/execution/engine.py", "CellEvaluationError.__init__"):
        "safety code: the error of a cell whose retries are spent",
    ("src/repro/execution/engine.py", "CellEvaluationError.__str__"):
        "safety code: the error of a cell whose retries are spent",
    ("src/repro/execution/plan.py", "CellPlan.cell_id"): _CELL_LOG,
    ("src/repro/execution/plan.py", "CellPlan.cell_plan"): "find_attack_train support: " + _BENCHMARKS,
    ("src/repro/execution/plan.py", "EvaluationPlan.axis_label"): _CELL_LOG,
    ("src/repro/experiments/figures.py", "figure5_activation_distribution"): _BENCHMARKS,
    ("src/repro/experiments/reporting.py", "format_activation_distributions"): _BENCHMARKS,
    ("src/repro/experiments/runner.py", "_workers_cannot_see"):
        "input check: refuses a hand-built workload on spawned process workers",
    ("src/repro/experiments/tables.py", "TableResult.rows_for"): _BENCHMARKS,
    ("src/repro/metrics/robustness.py", "area_under_accuracy_curve"): _BENCHMARKS,
    ("src/repro/noise/injector.py", "NoiseInjector.time_free"):
        "keeps the SpikeNoise contract: without it an injector inherits time_free = False",
    ("src/repro/noise/weights.py", "GaussianWeightNoise.__init__"): _BENCHMARKS,
    ("src/repro/noise/weights.py", "GaussianWeightNoise.perturb"): _BENCHMARKS,
    ("src/repro/noise/weights.py", "GaussianWeightNoise.reset"): _BENCHMARKS,
    ("src/repro/serving/registry.py", "_InFlightLoad.fail"):
        "safety code: hands a failed model load to every registration waiting on it",
    ("src/repro/serving/registry.py", "_InFlightLoad.wait"):
        "a concurrent register of a workload that is still loading waits here; "
        "the entry points register each workload once",
    ("src/repro/snn/neurons.py", "IFNeuron.step"): _ORACLE,
    ("src/repro/snn/neurons.py", "TTFSNeuron.step"): _ORACLE,
    ("src/repro/snn/simulator.py", "_SpikeRows.dense"):
        _ORACLE + " (record_spikes densifies the spike trains they compare)",
    ("src/repro/snn/spikes.py", "SpikeTrainArray.__eq__"): _ORACLE,
    ("src/repro/snn/spikes.py", "SpikeEvents.__eq__"): _ORACLE,
    ("src/repro/utils/serialization.py", "_NumpyJSONEncoder.default"):
        "safety code: the JSON fallback for a numpy value in a document",
}

_HOOK = """\
import os, sys, threading

_OUT, _SRC = {out!r}, {src!r}
_seen, _keep, _log = set(), [], {{}}


def _profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if id(code) in _seen:
        return
    _seen.add(id(code))
    _keep.append(code)  # an id is never reused while its code is held
    if not code.co_filename.startswith(_SRC) or code.co_name.startswith("<"):
        return
    pid = os.getpid()
    if pid not in _log:  # first entry in this process (or forked child)
        _log[pid] = os.open(os.path.join(_OUT, f"{{pid}}.log"),
                            os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    os.write(_log[pid], f"{{code.co_filename}}\\t{{code.co_firstlineno}}\\n".encode())


sys.setprofile(_profile)
threading.setprofile(_profile)
"""


def _walk_defs(node: ast.AST, prefix: str) -> Iterator[Tuple[str, ast.AST]]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _walk_defs(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _walk_defs(child, f"{prefix}{child.name}.")
        else:
            yield from _walk_defs(child, prefix)


def all_defs(src: Path) -> Iterator[Tuple[Path, str, ast.AST]]:
    """Yield ``(path, qualified name, node)`` for every def under ``src``."""
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, node in _walk_defs(tree, ""):
            yield path, name, node


def exempt_by_kind(node: ast.AST) -> bool:
    """``__repr__``, or a body (past its docstring) that only raises
    ``NotImplementedError``."""
    if node.name == "__repr__":
        return True
    body = node.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    raised = body[0].exc
    if isinstance(raised, ast.Call):
        raised = raised.func
    return isinstance(raised, ast.Name) and raised.id == "NotImplementedError"


def run_traced(root: Path, src: Path, entry_points: Sequence[Sequence[str]]) -> set:
    """Run ``entry_points`` from ``root`` under the hook; return the entered
    ``(file, first line)`` pairs of code objects under ``src``."""
    with tempfile.TemporaryDirectory(prefix="reachable-") as tmp:
        hook, out = Path(tmp, "hook"), Path(tmp, "log")
        hook.mkdir()
        out.mkdir()
        (hook / "sitecustomize.py").write_text(
            _HOOK.format(out=str(out), src=str(src.resolve()) + os.sep)
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook), str(src.resolve()), *filter(None, [os.environ.get("PYTHONPATH")])]
        )
        # A fresh weight cache: training runs (and is traced) on every machine.
        env["REPRO_CACHE_DIR"] = str(Path(tmp, "cache"))
        for argv in entry_points:
            argv = [sys.executable if argv[0] == "python" else argv[0], *argv[1:]]
            label = " ".join(argv[1:]) if argv[1] != "-c" else f"{len(CLI_RUNS)} CLI runs"
            start = time.perf_counter()
            done = subprocess.run(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            print(f"{time.perf_counter() - start:6.1f} s  {label}", file=sys.stderr)
            if done.returncode != 0:
                raise SystemExit(f"entry point failed ({done.returncode}): {label}\n{done.stderr}")
        entered = set()
        for log in out.iterdir():
            for line in log.read_text().splitlines():
                filename, lineno = line.rsplit("\t", 1)
                entered.add((os.path.realpath(filename), int(lineno)))
        return entered


def trace_findings(
    root: Path,
    src: Path,
    entered: set,
    exempt: Dict[Tuple[str, str], str],
) -> Tuple[List[str], List[str]]:
    """``(unentered, stale)`` as ``path:line name`` lines: the defs under
    ``src`` never entered nor exempt, and the ``exempt`` entries whose def
    was entered or no longer exists."""
    unentered, stale = [], []
    found = set()
    for path, name, node in all_defs(src):
        rel = path.relative_to(root).as_posix()
        lines = {node.lineno, *(d.lineno for d in node.decorator_list)}
        hit = any((os.path.realpath(path), line) in entered for line in lines)
        where = f"{rel}:{node.lineno} {name}"
        if (rel, name) in exempt:
            found.add((rel, name))
            if hit:
                stale.append(f"{where} is exempt but entered")
        elif not hit and not exempt_by_kind(node):
            unentered.append(where)
    stale += [f"{path}: {name} is exempt but no longer exists"
              for path, name in exempt if (path, name) not in found]
    return unentered, stale


def trace_pass(root: Path) -> int:
    src = root / "src"
    start = time.perf_counter()
    entered = run_traced(root, src, ENTRY_POINTS)
    unentered, stale = trace_findings(root, src, entered, EXEMPT)
    for line in unentered + stale:
        print(line)
    print(f"traced {len(ENTRY_POINTS)} entry points in {time.perf_counter() - start:.0f} s: "
          f"{len(unentered)} def(s) in src/ never entered, {len(stale)} stale exemption(s)",
          file=sys.stderr)
    return 1 if unentered or stale else 0


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", action="store_true",
                        help="run the production entry points and list the defs never entered")
    args = parser.parse_args(argv)
    return trace_pass(ROOT) if args.trace else static_pass(ROOT)


if __name__ == "__main__":
    sys.exit(main())
