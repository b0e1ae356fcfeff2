#!/usr/bin/env bash
# Sample-sharding smoke run.
#
# End-to-end sweep with every cell split into 2 sample shards across a
# 2-worker process pool + result store: the first run evaluates shard-wise,
# merges and persists every cell, and must leave no shard documents behind
# (a merged cell garbage-collects its shard docs).  The second run repeats
# the sweep unsharded and must be served entirely from the merged cell
# documents -- a sentinel mtime check proves no document was rewritten,
# i.e. no cell was re-evaluated and sharding changed nothing the store can
# see.  In between, `repro store gc` runs on a dirty store: one orphaned
# shard document (a copy of a merged cell's document under that cell's
# shard directory) must be collected with a non-zero byte count, and a
# second gc collects nothing.
#
# Run from the repository root: bash ci/smoke_sample_sharding.sh
set -euo pipefail

export PYTHONPATH="${PYTHONPATH:-src}"
STORE="${REPRO_SMOKE_STORE:-/tmp/repro-ci-shard-store}"
rm -rf "$STORE"

python -m repro figure --name fig2 --dataset mnist \
  --scale test --eval-size 8 --batch-size 4 --shards 2 \
  --executor process --max-workers 2 --result-store "$STORE"
test "$(find "$STORE/cells" -name '*.json' | wc -l)" -eq 20
test "$(find "$STORE/shards" -name '*.json' 2>/dev/null | wc -l)" -eq 0

cell="$(find "$STORE/cells" -name '*.json' | sort | head -n 1)"
fp="$(basename "$cell" .json)"
mkdir -p "$STORE/shards/${fp:0:2}/$fp"
cp "$cell" "$STORE/shards/${fp:0:2}/$fp/$fp.json"
report="$(python -m repro store gc --result-store "$STORE")"
echo "$report"
test "$(grep -c '^collected          : 1 document(s)$' <<< "$report")" -eq 1
test "$(grep '^reclaimed' <<< "$report" | grep -vc ': 0 bytes$')" -eq 1
report="$(python -m repro store gc --result-store "$STORE")"
test "$(grep -c '^collected          : 0 document(s)$' <<< "$report")" -eq 1

touch "$STORE/sentinel"
python -m repro figure --name fig2 --dataset mnist \
  --scale test --eval-size 8 --batch-size 4 --executor serial \
  --result-store "$STORE"
test "$(find "$STORE/cells" -name '*.json' -newer "$STORE/sentinel" | wc -l)" -eq 0
echo "sample-sharding smoke: 20 cells sharded 2-way, 0 shard docs left," \
  "gc collected 1 orphaned shard," \
  "unsharded resume re-ran 0 cells"
