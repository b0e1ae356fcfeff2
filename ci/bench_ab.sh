#!/usr/bin/env bash
# Same-runner A/B benchmark gate.
#
# Measures the parent commit (HEAD^1; on a pull-request merge commit that is
# the base branch tip) and the working tree on the same runner, then judges
# the change with benchmarks/check_bench_regression.py.  The parent is
# checked out in a git worktree, so the job needs the full history
# (fetch-depth: 0).  Every workload of BENCHMARK.json runs through
# perfbench/run.py at its run_seconds, in --pairs alternating
# parent/change pairs (odd pairs run the parent first, even pairs the
# change), with one seed throughout so both sides do the same work.  Each
# tree's benchmarks/bench_hot_paths.py runs once.  Everything lands in
# bench-ab/ at the repository root:
#
#   bench-ab/{parent,head}/<workload>.<pair>.out   perfbench stdout per run
#   bench-ab/{parent,head}/<workload>.<pair>.err   perfbench stderr per run
#   bench-ab/{parent,head}/hot_paths.json          micro report per tree
#
# When perfbench/ or BENCHMARK.json differ between the two trees, the
# parent's numbers do not measure the same thing: the script measures only
# the change's micro report (which the speedup floors read), prints that the
# baseline is re-measured after merge, and exits 0.  When only
# benchmarks/bench_hot_paths.py differs, every perfbench pair still runs;
# the parent's micro report is not measured, so the gate skips the micro
# comparison and says so.
#
# Run from the repository root: bash ci/bench_ab.sh --pairs 5
set -euo pipefail

PAIRS=5
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) PAIRS="$2"; shift 2 ;;
    *) echo "usage: bash ci/bench_ab.sh [--pairs N]" >&2; exit 2 ;;
  esac
done

SEED=7
OUT="$PWD/bench-ab"
rm -rf "$OUT"
mkdir -p "$OUT/parent" "$OUT/head"

micro() {  # micro TREE SIDE
  python "$1/benchmarks/bench_hot_paths.py" --output "$OUT/$2/hot_paths.json" \
    > "$OUT/$2/hot_paths.out"
}

if ! git diff --quiet HEAD^1 -- perfbench BENCHMARK.json; then
  micro "$PWD" head
  echo "bench A/B: perfbench/ or BENCHMARK.json changed since" \
    "$(git rev-parse --short HEAD^1); the baseline is re-measured after merge"
  exit 0
fi

WORK="$(mktemp -d)"
BASE="$WORK/base"
git worktree add --quiet --detach "$BASE" HEAD^1
trap 'git worktree remove --force "$BASE"; rm -rf "$WORK"' EXIT

read -r SECONDS_PER_RUN WORKLOADS < <(python -c "
import json
spec = json.load(open('BENCHMARK.json'))
print(spec['run_seconds'], ' '.join(w['name'] for w in spec['workloads']))")

# run TREE SIDE WORKLOAD PAIR: one perfbench run; a crash leaves a file
# without a result line, which the gate counts as all failed.
run() {
  local start=$SECONDS
  python3 "$1/perfbench/run.py" --workload "$3" --seed "$SEED" \
    --seconds "$SECONDS_PER_RUN" --trace 0 \
    > "$OUT/$2/$3.$4.out" 2> "$OUT/$2/$3.$4.err" || true
  echo "pair $4/$PAIRS $3 $2: $((SECONDS - start)) s"
}

# A changed micro script measures other rows: the parent's report is left
# out, and the gate skips the micro comparison.
if git diff --quiet HEAD^1 -- benchmarks/bench_hot_paths.py; then
  micro "$BASE" parent
fi
micro "$PWD" head
for pair in $(seq 1 "$PAIRS"); do
  for workload in $WORKLOADS; do
    if [ $((pair % 2)) -eq 1 ]; then
      run "$BASE" parent "$workload" "$pair"
      run "$PWD" head "$workload" "$pair"
    else
      run "$PWD" head "$workload" "$pair"
      run "$BASE" parent "$workload" "$pair"
    fi
  done
done

echo "bench A/B: $(git rev-parse --short HEAD^1) (parent) vs the working tree," \
  "$PAIRS pairs, seed $SEED"
python benchmarks/check_bench_regression.py \
  --baseline "$OUT/parent" --candidate "$OUT/head"
