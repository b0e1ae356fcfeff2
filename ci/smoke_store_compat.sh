#!/usr/bin/env bash
# Store-compatibility smoke run.
#
# A result store written by the parent commit must keep resuming at HEAD
# with zero re-evaluated cells, unless HEAD bumps a fingerprint schema on
# purpose.  The parent (HEAD^1; on a pull-request merge commit that is the
# base branch tip) is checked out in a git worktree, so the job needs the
# full history (fetch-depth: 0).  There six noise-cell batches (`table1`
# on class counts, `fig3` Phase/Burst on the class-count jitter, `fig3`
# Phase on the faithful simulator, whose input noise runs the dense jitter
# kernel, `fig4` TTFS/TTAS on the faithful simulator's TTFS and IFB neuron
# scans, and on cifar10, whose conv net average-pools, `fig2` Phase/TTFS
# on the faithful simulator and `table1` on the transport evaluator), a
# faithful `fault-stuck` batch (per-layer dead/stuck masks on the
# `("fault", i)` streams) and two attack-cell batches (`adv-delete` on TTFS,
# whose scorer runs on event lists, and Rate, whose scorer's deeper
# interfaces run on dense trains; and `adv-delete` transfer-evaluated on the
# faithful simulator) are written to a fresh store; all are then re-run at HEAD, and
# no cell document may be newer than a sentinel touched in between.  The
# same sweeps then run at HEAD into a second fresh store, and every cell's
# `result` block must equal the parent's for the same fingerprint:
# resuming is not enough, the values must match too.  Each differing cell
# is printed to stderr (its plan description, then the parent's and HEAD's
# `result`) before the count.
# When FINGERPRINT_SCHEMA or ATTACK_FINGERPRINT_SCHEMA differs between the
# two trees the script prints the bump and exits 0: a bump is a deliberate
# reset.
#
# Run from the repository root: bash ci/smoke_store_compat.sh
set -euo pipefail

WORK="$(mktemp -d)"
BASE="$WORK/base"
STORE="$WORK/store"
FRESH="$WORK/fresh"
# One weight cache for both trees: training is deterministic, so sharing
# it only saves the second run's training time.
export REPRO_CACHE_DIR="$WORK/weights"
git worktree add --quiet --detach "$BASE" HEAD^1
trap 'git worktree remove --force "$BASE"; rm -rf "$WORK"' EXIT

schemas() {
  PYTHONPATH="$1/src" python -c "
from repro.execution.attack import ATTACK_FINGERPRINT_SCHEMA
from repro.execution.plan import FINGERPRINT_SCHEMA
print(f'noise {FINGERPRINT_SCHEMA}, attack {ATTACK_FINGERPRINT_SCHEMA}')"
}
BASE_SCHEMAS="$(schemas "$BASE")"
HEAD_SCHEMAS="$(schemas "$PWD")"
if [ "$BASE_SCHEMAS" != "$HEAD_SCHEMAS" ]; then
  echo "store compat: fingerprint schema bumped ($BASE_SCHEMAS -> $HEAD_SCHEMAS);" \
    "stores written before it start over on purpose"
  exit 0
fi

# sweeps TREE STORE: run every checked batch of TREE into STORE.
sweeps() {
  PYTHONPATH="$1/src" python -m repro table --name table1 --datasets mnist \
    --scale test --eval-size 8 --result-store "$2" > /dev/null
  PYTHONPATH="$1/src" python -m repro figure --name fig3 --dataset mnist \
    --methods Phase Burst --scale test --eval-size 8 \
    --result-store "$2" > /dev/null
  PYTHONPATH="$1/src" python -m repro figure --name fig3 --dataset mnist \
    --methods Phase --scale test --eval-size 8 \
    --simulator timestep --result-store "$2" > /dev/null
  PYTHONPATH="$1/src" python -m repro figure --name fig4 --dataset mnist \
    --methods TTFS+WS "TTAS(5)+WS" --scale test --eval-size 8 \
    --simulator timestep --result-store "$2" > /dev/null
  PYTHONPATH="$1/src" python -m repro figure --name fig2 --dataset cifar10 \
    --methods Phase TTFS --scale test --eval-size 8 \
    --simulator timestep --result-store "$2" > /dev/null
  PYTHONPATH="$1/src" python -m repro table --name table1 --datasets cifar10 \
    --scale test --eval-size 8 --result-store "$2" > /dev/null
  PYTHONPATH="$1/src" python -m repro figure --name adv-delete --dataset mnist \
    --budgets 0 2 --methods TTFS Rate --scale test --eval-size 8 \
    --result-store "$2" > /dev/null
  PYTHONPATH="$1/src" python -m repro figure --name fault-stuck --dataset mnist \
    --methods Rate+WS Phase+WS TTFS+WS "TTAS(5)+WS" --scale test --eval-size 8 \
    --simulator timestep --result-store "$2" > /dev/null
  PYTHONPATH="$1/src" python -m repro figure --name adv-delete --dataset mnist \
    --budgets 0 2 --methods Rate Phase TTFS "TTAS(5)" --scale test \
    --eval-size 8 --simulator timestep --result-store "$2" > /dev/null
}

sweeps "$BASE" "$STORE"
CELLS="$(find "$STORE/cells" -name '*.json' | wc -l)"
test "$CELLS" -gt 0
touch "$STORE/sentinel"
sleep 1  # coarse mtimes must not hide a document written right after
sweeps "$PWD" "$STORE"
NEWER="$(find "$STORE/cells" -name '*.json' -newer "$STORE/sentinel" | wc -l)"
test "$(find "$STORE/cells" -name '*.json' | wc -l)" -eq "$CELLS"

sweeps "$PWD" "$FRESH"
DIFFERING="$(python - "$STORE/cells" "$FRESH/cells" <<'PY'
import json, pathlib, sys

base, fresh = (pathlib.Path(root) for root in sys.argv[1:])
names = sorted(path.relative_to(base) for path in base.rglob("*.json"))
assert names == sorted(path.relative_to(fresh) for path in fresh.rglob("*.json")), \
    "HEAD wrote a different set of cell fingerprints"
differing = 0
for name in names:
    old, new = (json.loads((root / name).read_text()) for root in (base, fresh))
    if old["result"] != new["result"]:
        differing += 1
        print(f"differing cell {name}: {json.dumps(old.get('plan'), sort_keys=True)}\n"
              f"  parent: {json.dumps(old['result'], sort_keys=True)}\n"
              f"  HEAD:   {json.dumps(new['result'], sort_keys=True)}", file=sys.stderr)
print(differing)
PY
)"
echo "store compat: $CELLS cells written at $(git rev-parse --short HEAD^1)" \
  "($BASE_SCHEMAS), $NEWER re-evaluated at HEAD, $DIFFERING differing" \
  "from a fresh HEAD run"
test "$NEWER" -eq 0
test "$DIFFERING" -eq 0
