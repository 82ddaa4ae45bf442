#!/usr/bin/env bash
# Bench regression gate: compare a fresh quick-mode bench run against the
# committed snapshots in bench/snapshots/ and fail if any histogram's p95
# latency slipped by more than 10%.
#
#   usage: scripts/bench_regression_gate.sh FRESH_DIR [SNAPSHOT_DIR]
#
# Both directories hold BENCH_<name>.json reports (aurora-bench's --json
# format). Only reports with a `histograms` block participate; a report
# present in the snapshots but missing from the fresh run is an error
# (a silently dropped benchmark must not pass the gate). A zero-valued
# snapshot p95 (at least 95% of the samples were 0) requires the fresh
# p95 to stay exactly 0.
#
# Refresh the snapshots after an intentional perf change:
#   AURORA_BENCH_QUICK=1 cargo run --release -p aurora-bench --bin bench_all -- --out bench/snapshots
set -euo pipefail

fresh_dir=${1:?usage: $0 FRESH_DIR [SNAPSHOT_DIR]}
snap_dir=${2:-$(dirname "$0")/../bench/snapshots}
slack=${BENCH_GATE_SLACK:-1.10}

fail=0
checked=0
for snap in "$snap_dir"/BENCH_*.json; do
    name=$(basename "$snap")
    if ! jq -e '.histograms' "$snap" >/dev/null 2>&1; then
        continue
    fi
    fresh="$fresh_dir/$name"
    if [ ! -f "$fresh" ]; then
        echo "GATE FAIL: $name has a committed snapshot but no fresh report in $fresh_dir" >&2
        fail=1
        continue
    fi
    for key in $(jq -r '.histograms | keys[]' "$snap"); do
        base=$(jq -r --arg k "$key" '.histograms[$k].p95' "$snap")
        cur=$(jq -r --arg k "$key" '.histograms[$k].p95 // empty' "$fresh")
        if [ -z "$cur" ]; then
            echo "GATE FAIL: $name: histogram '$key' vanished from the fresh run" >&2
            fail=1
            continue
        fi
        checked=$((checked + 1))
        # p95s come from log-linear histograms: exact below 32, else a
        # bucket midpoint within ~3% of the true sample. A zero baseline
        # means at least 95% of samples were 0; the fresh run must keep it.
        if ! jq -ne --argjson b "$base" --argjson c "$cur" --argjson s "$slack" \
            'if $b == 0 then $c == 0 else $c <= $b * $s end' >/dev/null; then
            echo "GATE FAIL: $name: '$key' p95 ${cur}ns > ${slack}x snapshot ${base}ns" >&2
            fail=1
        else
            echo "  ok: $name '$key' p95 ${cur}ns (snapshot ${base}ns)"
        fi
    done
done

if [ "$checked" -eq 0 ]; then
    echo "GATE FAIL: no histograms compared — wrong directories?" >&2
    exit 1
fi
if [ "$fail" -ne 0 ]; then
    echo "bench regression gate FAILED ($checked p95s checked)" >&2
    exit 1
fi
echo "bench regression gate passed ($checked p95s checked)"
