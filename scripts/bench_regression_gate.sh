#!/usr/bin/env bash
# Bench regression gate: a fresh quick-mode bench run must reproduce the
# committed snapshots in bench/snapshots/ byte for byte.
#
#   usage: scripts/bench_regression_gate.sh FRESH_DIR [SNAPSHOT_DIR]
#
# Both directories hold BENCH_<name>.json reports (aurora-bench's --json
# format). Every number in a quick report is virtual time or a count on
# the deterministic virtual clock, so two runs of the same code write
# identical bytes; any difference is a behaviour change. A report present
# in the snapshots but missing from the fresh run is an error (a silently
# dropped benchmark must not pass the gate).
#
# Refresh the snapshots after an intentional change, and review the diff:
#   AURORA_BENCH_QUICK=1 cargo run --release -p aurora-bench --bin bench_all -- --out bench/snapshots
set -euo pipefail

fresh_dir=${1:?usage: $0 FRESH_DIR [SNAPSHOT_DIR]}
snap_dir=${2:-$(dirname "$0")/../bench/snapshots}

fail=0
checked=0
for snap in "$snap_dir"/BENCH_*.json; do
    [ -e "$snap" ] || continue
    name=$(basename "$snap")
    fresh="$fresh_dir/$name"
    if [ ! -f "$fresh" ]; then
        echo "GATE FAIL: $name has a committed snapshot but no fresh report in $fresh_dir" >&2
        fail=1
        continue
    fi
    checked=$((checked + 1))
    if cmp -s "$snap" "$fresh"; then
        echo "  ok: $name"
    else
        echo "GATE FAIL: $name differs from its snapshot" >&2
        diff <(tr ',' '\n' <"$snap") <(tr ',' '\n' <"$fresh") | head -n 20 >&2 || true
        fail=1
    fi
done

if [ "$checked" -eq 0 ]; then
    echo "GATE FAIL: no reports compared — wrong directories?" >&2
    exit 1
fi
if [ "$fail" -ne 0 ]; then
    echo "bench regression gate FAILED ($checked reports checked)" >&2
    exit 1
fi
echo "bench regression gate passed ($checked reports checked)"
