#!/usr/bin/env bash
# Traced reachability smoke run.
#
# Runs the production entry points (the other smokes but store_compat, the
# examples, a short pass of every perfbench workload and one CLI run per
# figure, table, coding and noise flag) under a profile hook and fails on
# any def in src/ that none of them entered and that has no reason in the
# script's exemption table (see ci/check_reachable.py).  About 2 minutes
# on 2 CPUs once the bench networks are trained, 4 from a cold cache.
#
# Run from the repository root: bash ci/smoke_reachable.sh
set -euo pipefail

python ci/check_reachable.py --trace
