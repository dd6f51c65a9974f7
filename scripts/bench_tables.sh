#!/usr/bin/env bash
# Regenerates the cycle ledger: the full-mode table output of every
# arcane-bench bench, written to BENCH_<bench>.txt at the repo root with
# the wall-clock lines removed ("bench ... /iter" and "baseline ..."),
# so what remains is a deterministic function of the simulator.
#
#   scripts/bench_tables.sh
#
# Exits non-zero when any ledger file is new or differs from the
# committed one: a change that moves a simulated cycle commits the
# rewritten rows, and its diff shows them.
set -euo pipefail
cd "$(dirname "$0")/.."

benches="fig2_area_split fig3_overhead fig4_speedup table1_kernels table2_area
sec5c_comparison ablations nn_graphs fabric_scaling"

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT
for b in $benches; do
    echo "== $b" >&2
    env -u ARCANE_FAST -u ARCANE_BENCH_BASELINE ARCANE_BENCH_MS=20 \
        cargo bench -q --offline -p arcane-bench --bench "$b" >"$raw"
    # grep exits 1 when every line is filtered; that is not an error.
    grep -v -E '^(bench .*/iter|baseline )' "$raw" >"BENCH_$b.txt" || true
done

moved=$(git status --porcelain -- 'BENCH_*.txt')
[ -z "$moved" ] || { printf 'cycle ledger moved:\n%s\n' "$moved" >&2; exit 1; }
