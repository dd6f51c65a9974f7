#!/usr/bin/env bash
# Prints the non-test line count of every crate under crates/*/src and
# the total: each .rs file is counted up to (not including) its first
# `#[cfg(test)]` line, or in full when it has none. Blank lines and
# comments count, so the number tracks what a reader has to read.
#
#   scripts/loc.sh            # per crate, then "total <n>"
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    n=0
    while IFS= read -r -d '' f; do
        c=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
        n=$((n + c))
    done < <(find "$dir/src" -name '*.rs' -print0)
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
