#!/usr/bin/env bash
# Non-test line count per crate: the lines of crates/<crate>/src/**.rs
# before each file's first top-level `#[cfg(test)]` (one in column 0;
# an indented one, on an item inside a function or impl, does not end
# the count), raw and code-only (neither blank nor a `//` comment) —
# what a PR reports against ROADMAP aim 2.
# With a git revision, also that revision's counts and the difference.
#
#   scripts/loc.sh [<git-rev>]
set -euo pipefail
cd "$(dirname "$0")/.."

# "<raw> <code>" for the sources under $2 at revision $1 (empty = the
# working tree).
tally() {
    local rev=$1 dir=$2 f
    if [[ -n $rev ]]; then git ls-tree -r --name-only "$rev" -- "$dir"; else find "$dir" -type f; fi |
        grep '\.rs$' | while IFS= read -r f; do
            if [[ -n $rev ]]; then git show "$rev:$f"; else cat "$f"; fi |
                awk '/^#\[cfg\(test\)\]/ { test = 1 } !test'
        done | awk '{ raw++ } !/^[[:space:]]*(\/\/|$)/ { code++ } END { print raw + 0, code + 0 }'
}

base=${1:-}
printf '%-10s %6s %6s' crate raw code
[[ -n $base ]] && printf '  %8s %9s %6s %6s' raw@base code@base Δraw Δcode
echo
for dir in crates/*/src; do
    read -r raw code < <(tally "" "$dir")
    printf '%-10s %6d %6d' "$(basename "$(dirname "$dir")")" "$raw" "$code"
    if [[ -n $base ]]; then
        read -r braw bcode < <(tally "$base" "$dir")
        printf '  %8d %9d %+6d %+6d' "$braw" "$bcode" $((raw - braw)) $((code - bcode))
    fi
    echo
done
