#!/usr/bin/env bash
# Regenerates the full-mode table output of every arcane-bench bench
# into <out_dir>/<bench>.txt, with the wall-clock lines removed
# ("bench ... /iter" and "baseline ..."), so what remains is a
# deterministic function of the simulator.
#
# A refactor that must keep simulated cycles proves it by running this
# on the parent commit and on the change, then diffing the two trees:
#
#   scripts/bench_tables.sh /tmp/parent   # in a checkout of the parent
#   scripts/bench_tables.sh /tmp/change   # in the working tree
#   diff -r /tmp/parent /tmp/change
#
# Full mode takes a few minutes. Set CARGO_TARGET_DIR to keep two
# checkouts' builds apart.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <out_dir>" >&2
    exit 2
fi
out=$1
mkdir -p "$out"
cd "$(dirname "$0")/.."

benches="fig2_area_split fig3_overhead fig4_speedup table1_kernels table2_area
sec5c_comparison ablations nn_graphs fabric_scaling launch_path"

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT
for b in $benches; do
    echo "== $b" >&2
    env -u ARCANE_FAST -u ARCANE_BENCH_BASELINE ARCANE_BENCH_MS=20 \
        cargo bench -q --offline -p arcane-bench --bench "$b" >"$raw"
    # grep exits 1 when every line is filtered; that is not an error.
    grep -v -E '^(bench .*/iter|baseline )' "$raw" >"$out/$b.txt" || true
done
