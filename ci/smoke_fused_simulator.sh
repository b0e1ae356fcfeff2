#!/usr/bin/env bash
# Fused-simulator smoke run.
#
# Faithful (time-stepped) sweep cells through the process executor + result
# store, covering a rate and three temporal methods (Phase on the IF scan,
# TTFS on the single-spike scan, TTAS(5)+WS on the IFB burst scan, whose
# drive spills into the layer's own window) via the per-layer temporal
# protocols, plus a faithful fault-stuck curve (per-layer dead and
# stuck-at-fire masks, gated chunk by chunk, under Phase, TTFS and TTAS(5)):
# the first runs evaluate and persist every cell, the re-runs must be
# served entirely from the store (0 cells evaluated) -- proven by the
# sentinel mtime check.  A burst attempt must fail with the per-capability
# refusal.
#
# Run from the repository root: bash ci/smoke_fused_simulator.sh
set -euo pipefail

export PYTHONPATH="${PYTHONPATH:-src}"
STORE="${REPRO_SMOKE_STORE:-/tmp/repro-ci-simstore}"
rm -rf "$STORE"

python -m repro figure --name fig2 --dataset mnist \
  --scale test --eval-size 8 --simulator timestep \
  --methods Rate Phase TTFS --executor process --max-workers 2 \
  --result-store "$STORE"
python -m repro figure --name fig4 --dataset mnist \
  --scale test --eval-size 8 --simulator timestep \
  --methods "TTAS(5)+WS" --executor process --max-workers 2 \
  --result-store "$STORE"
python -m repro figure --name fault-stuck --dataset mnist \
  --scale test --eval-size 8 --simulator timestep \
  --methods Phase+WS TTFS+WS "TTAS(5)+WS" --executor process --max-workers 2 \
  --result-store "$STORE"
test "$(find "$STORE/cells" -name '*.json' | wc -l)" -eq 35
touch "$STORE/sentinel"
python -m repro figure --name fig2 --dataset mnist \
  --scale test --eval-size 8 --simulator timestep \
  --methods Rate Phase TTFS --executor serial \
  --result-store "$STORE"
python -m repro figure --name fig4 --dataset mnist \
  --scale test --eval-size 8 --simulator timestep \
  --methods "TTAS(5)+WS" --executor serial \
  --result-store "$STORE"
python -m repro figure --name fault-stuck --dataset mnist \
  --scale test --eval-size 8 --simulator timestep \
  --methods Phase+WS TTFS+WS "TTAS(5)+WS" --executor serial \
  --result-store "$STORE"
test "$(find "$STORE/cells" -name '*.json' -newer "$STORE/sentinel" | wc -l)" -eq 0
if python -m repro evaluate --dataset mnist \
  --scale test --coding burst --simulator timestep --eval-size 8 \
  2> /tmp/burst-refusal.log; then
  echo "burst must be refused by the faithful simulator" >&2; exit 1
fi
grep -q "cannot faithfully model burst" /tmp/burst-refusal.log
echo "fused-simulator smoke: sweeps and fault-stuck curve resumed clean, burst refused"
