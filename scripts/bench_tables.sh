#!/usr/bin/env bash
# Regenerates the full-mode table output of every arcane-bench bench
# into <out_dir>/<bench>.txt, with the wall-clock lines removed
# ("bench ... /iter" and "baseline ..."), so what remains is a
# deterministic function of the simulator.
#
#   scripts/bench_tables.sh <out_dir>
#   scripts/bench_tables.sh --against <rev> <out_dir>
#
# The second form proves that a change keeps every simulated cycle: it
# `git archive`s <rev> into <out_dir>/src (copying this script in if
# <rev> predates it), builds and runs it with CARGO_TARGET_DIR
# <out_dir>/target into <out_dir>/parent, runs the working tree into
# <out_dir>/change, and exits with the status of
# `diff -r <out_dir>/parent <out_dir>/change` (0 = byte-identical).
#
# Full mode takes a few minutes per tree.
set -euo pipefail

usage() {
    echo "usage: $0 [--against <rev>] <out_dir>" >&2
    exit 2
}

here=$(cd "$(dirname "$0")/.." && pwd)

if [ "${1-}" = --against ]; then
    [ $# -eq 3 ] || usage
    rev=$2
    mkdir -p "$3"
    out=$(cd "$3" && pwd)
    rm -rf "$out/src" "$out/parent" "$out/change"
    mkdir -p "$out/src"
    git -C "$here" archive "$rev" | tar -x -C "$out/src"
    if [ ! -f "$out/src/scripts/bench_tables.sh" ]; then
        mkdir -p "$out/src/scripts"
        cp "$here/scripts/bench_tables.sh" "$out/src/scripts/"
    fi
    CARGO_TARGET_DIR="$out/target" "$out/src/scripts/bench_tables.sh" "$out/parent"
    "$here/scripts/bench_tables.sh" "$out/change"
    exec diff -r "$out/parent" "$out/change"
fi

[ $# -eq 1 ] || usage
mkdir -p "$1"
out=$(cd "$1" && pwd)
cd "$here"

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
