#!/usr/bin/env bash
# Fault-tolerance (chaos) smoke run.
#
# (1) A worker SIGKILLed mid-cell must not cost the sweep anything -- the
# pool respawns, the sweep completes with every cell evaluated, and a
# resume re-runs zero cells; (2) a stuck-at-firing fault curve runs
# end-to-end through the process executor + result store with the same
# zero-rerun guarantee.
#
# Run from the repository root: bash ci/smoke_fault_tolerance.sh
set -euo pipefail

export PYTHONPATH="${PYTHONPATH:-src}"
STORE="${REPRO_SMOKE_STORE:-/tmp/repro-ci-faultstore}"
CHAOS_STORE="${REPRO_SMOKE_CHAOS_STORE:-/tmp/repro-ci-chaos-store}"
# The chaos sweep trains its workload in a private weight cache.
CHAOS_CACHE="${REPRO_SMOKE_CHAOS_CACHE:-/tmp/repro-ci-chaos-cache}"
rm -rf "$STORE" "$CHAOS_STORE" "$CHAOS_CACHE" /tmp/repro-ci-kill-sentinel

REPRO_CACHE_DIR="$CHAOS_CACHE" python - <<'EOF'
import multiprocessing, os, signal, sys

from repro.core.pipeline import EvaluationResult
from repro.execution import (
    EvaluationPlan, ProcessExecutor, ResultStore, WorkloadRef,
    build_sweep_plans, evaluate_plans,
)
from repro.execution.plan import evaluate_plan as real_evaluate_plan
from repro.experiments import prepare_workload
from repro.experiments.config import TEST_SCALE, MethodSpec, SweepConfig

if multiprocessing.get_start_method() != "fork":
    print("skipping worker-kill chaos: start method is not fork")
    sys.exit(0)

SENTINEL = "/tmp/repro-ci-kill-sentinel"

def killer(plan, workload):
    if (plan.method_label == "TTFS" and plan.level == 0.2
            and not os.path.exists(SENTINEL)):
        open(SENTINEL, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return real_evaluate_plan(plan, workload)

EvaluationPlan.evaluate = killer
config = SweepConfig(
    dataset="mnist",
    methods=(MethodSpec(coding="ttfs"), MethodSpec(coding="rate")),
    noise_kind="stuck", levels=(0.0, 0.2), scale=TEST_SCALE, seed=0,
)
workload = prepare_workload("mnist", scale=TEST_SCALE, seed=0)
ref = WorkloadRef.from_sweep_config(config)
plans = build_sweep_plans(config, eval_size=8)
store = ResultStore(os.environ.get("REPRO_SMOKE_CHAOS_STORE",
                                   "/tmp/repro-ci-chaos-store"))
with ProcessExecutor(2) as executor:
    evaluation = evaluate_plans(
        plans, executor=executor, store=store,
        workloads={ref: workload},
    )
assert os.path.exists(SENTINEL), "the worker kill never fired"
assert evaluation.stats.failed_cells == 0, evaluation.stats
assert all(isinstance(r, EvaluationResult) for r in evaluation.results)

EvaluationPlan.evaluate = real_evaluate_plan
resumed = evaluate_plans(plans, store=store, workloads={ref: workload})
assert resumed.stats.store_hits == len(plans), resumed.stats
assert resumed.stats.evaluated_cells == 0, resumed.stats
assert resumed.results == evaluation.results
print("worker-kill chaos: sweep completed, resume re-ran 0 cells")
EOF

python -m repro figure --name fault-stuck \
  --dataset mnist --scale test --eval-size 8 \
  --methods Rate+WS TTFS+WS --executor process --max-workers 2 \
  --result-store "$STORE"
test "$(find "$STORE/cells" -name '*.json' | wc -l)" -eq 10
touch "$STORE/sentinel"
python -m repro figure --name fault-stuck \
  --dataset mnist --scale test --eval-size 8 \
  --methods Rate+WS TTFS+WS --executor serial \
  --result-store "$STORE"
test "$(find "$STORE/cells" -name '*.json' -newer "$STORE/sentinel" | wc -l)" -eq 0
echo "fault-tolerance smoke: chaos sweep and fault curve resumed clean"
