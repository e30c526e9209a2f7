#!/usr/bin/env bash
# Writes the quick-mode reports pinned in results/golden/ into DIR, with
# the wall-clock "[... took N s]" lines stripped. CI regenerates them
# with a release build and diffs against the committed files.
#
# Usage: scripts/report-goldens.sh DIR [EXPERIMENTS_BINARY]
set -euo pipefail
out=$1
bin=${2:-target/release/experiments}
mkdir -p "$out"
report() {
    local name=$1
    shift
    "$bin" --quick "$@" | grep -v took > "$out/$name.txt"
}
report table4 table4
report table5 table5
report table6 table6
report fleet fleet --rooms 4 --players 2
report fleet-churn-steady fleet --rooms 4 --players 2 --churn steady
report fleet-predictor-vpm fleet --rooms 4 --players 2 --predictor vpm
report fleet-burst-loss fleet --rooms 2 --players 2 --net burst-loss
