#!/usr/bin/env bash
# Prints the line counts refactors report, per crate under crates/ and
# in total. The first column counts non-test lines: each .rs file under
# crates/*/src up to (not including) its first `#[cfg(test)]` line, or
# in full when it has none. The second counts test lines: the rest of
# those files, plus every .rs file under crates/*/tests and (in its own
# row) the root tests/. Blank lines and comments count, so the numbers
# track what a reader has to read, and code moved into tests shows up
# in the second column instead of vanishing from the first.
#
#   scripts/loc.sh            # "<crate> <non-test> <test>" rows, then "total"
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints "<non-test> <test>" summed over the .rs files under $1.
count() {
    local files=()
    if [ -d "$1" ]; then
        while IFS= read -r -d '' f; do files+=("$f"); done < <(find "$1" -name '*.rs' -print0)
    fi
    awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        { if (in_test) t++; else n++ }
        END { print n + 0, t + 0 }' "${files[@]}" /dev/null
}

total=0
total_tests=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    read -r n t < <(count "$dir/src")
    read -r a b < <(count "$dir/tests")
    t=$((t + a + b))
    printf '%-10s %6d %6d\n' "$crate" "$n" "$t"
    total=$((total + n))
    total_tests=$((total_tests + t))
done
read -r a b < <(count tests)
t=$((a + b))
printf '%-10s %6s %6d\n' tests - "$t"
total_tests=$((total_tests + t))
printf '%-10s %6d %6d\n' total "$total" "$total_tests"
