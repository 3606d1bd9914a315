#!/usr/bin/env sh
# Non-test lines per crate: for each crates/*/src/**/*.rs, the lines before
# its first `#[cfg(test)]` (the whole file when it has none). The measure
# the simplicity PRs quote before and after; CI prints it and gates on
# nothing.
#
#   scripts/loc.sh             # one line per crate plus a total
#   scripts/loc.sh recorder    # one line per file of that crate
set -eu
cd "$(dirname "$0")/.."

non_test_lines() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

if [ $# -gt 0 ]; then
    total=0
    for f in $(find "crates/$1/src" -name '*.rs' | sort); do
        n=$(non_test_lines "$f")
        total=$((total + n))
        printf '%6d  %s\n' "$n" "$f"
    done
    printf '%6d  crates/%s/src\n' "$total" "$1"
    exit 0
fi

total=0
for dir in crates/*/src; do
    sum=0
    for f in $(find "$dir" -name '*.rs'); do
        sum=$((sum + $(non_test_lines "$f")))
    done
    total=$((total + sum))
    printf '%6d  %s\n' "$sum" "$dir"
done
printf '%6d  total\n' "$total"
