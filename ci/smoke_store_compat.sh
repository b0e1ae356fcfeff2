#!/usr/bin/env bash
# Store-compatibility smoke run.
#
# A result store written by the parent commit must keep resuming at HEAD
# with zero re-evaluated cells, unless HEAD bumps a fingerprint schema on
# purpose.  The parent (HEAD^1; on a pull-request merge commit that is the
# base branch tip) is checked out in a git worktree, so the job needs the
# full history (fetch-depth: 0).  There a noise-cell batch (`table1`) and
# an attack-cell batch (`adv-delete`) are written to a fresh store; both
# are then re-run at HEAD, and no cell document may be newer than a
# sentinel touched in between.  When FINGERPRINT_SCHEMA or
# ATTACK_FINGERPRINT_SCHEMA differs between the two trees the script
# prints the bump and exits 0: a bump is a deliberate reset.
#
# Run from the repository root: bash ci/smoke_store_compat.sh
set -euo pipefail

WORK="$(mktemp -d)"
BASE="$WORK/base"
STORE="$WORK/store"
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

sweeps() {
  PYTHONPATH="$1/src" python -m repro table --name table1 --datasets mnist \
    --scale test --eval-size 8 --result-store "$STORE" > /dev/null
  PYTHONPATH="$1/src" python -m repro figure --name adv-delete --dataset mnist \
    --budgets 0 2 --methods TTFS --scale test --eval-size 8 \
    --result-store "$STORE" > /dev/null
}

sweeps "$BASE"
CELLS="$(find "$STORE/cells" -name '*.json' | wc -l)"
test "$CELLS" -gt 0
touch "$STORE/sentinel"
sleep 1  # coarse mtimes must not hide a document written right after
sweeps "$PWD"
NEWER="$(find "$STORE/cells" -name '*.json' -newer "$STORE/sentinel" | wc -l)"
echo "store compat: $CELLS cells written at $(git rev-parse --short HEAD^1)" \
  "($BASE_SCHEMAS), $NEWER re-evaluated at HEAD"
test "$NEWER" -eq 0
test "$(find "$STORE/cells" -name '*.json' | wc -l)" -eq "$CELLS"
