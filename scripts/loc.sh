#!/usr/bin/env bash
# Line count per crate — the ROADMAP's "tracked number".
#
#   scripts/loc.sh           print the table
#   scripts/loc.sh --check   also fail if any crate's `code` column is above
#                            scripts/loc.baseline (the table at the last PR
#                            that moved it; a PR that must grow a crate
#                            updates the baseline in the same diff)
#
# For every crate under crates/ prints the `wc -l` total of its src/*.rs
# and its non-test code lines: non-blank lines that do not start with `//`,
# above each file's last `#[cfg(test)]` (a file without one counts whole).
# Comments, docs, blank lines and unit-test modules therefore do not move
# the second number; code moved into tests/ or data files does not count
# as a reduction either — compare both columns.
set -euo pipefail
cd "$(dirname "$0")/.."

table() {
    printf '%-12s %8s %8s\n' crate total code
    for dir in crates/*/; do
        find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk -v crate="$(basename "$dir")" '
            FNR == 1 { flush() }
            { n++; line[n] = $0; if ($0 ~ /^[[:space:]]*#\[cfg\(test\)\]/) cut = n }
            function flush(   i, end) {
                total += n
                end = cut ? cut - 1 : n
                for (i = 1; i <= end; i++)
                    if (line[i] !~ /^[[:space:]]*$/ && line[i] !~ /^[[:space:]]*\/\//) code++
                n = 0; cut = 0
            }
            END { flush(); printf "%-12s %8d %8d\n", crate, total, code }'
    done
}

case "${1:-}" in
"") table ;;
--check)
    table | tee /dev/stderr | awk '
        NR == FNR { if (FNR > 1) base[$1] = $3; next }
        FNR == 1 { next }
        !($1 in base) { printf "loc: %s is not in scripts/loc.baseline\n", $1; bad = 1; next }
        $3 > base[$1] { printf "loc: %s code %d is above its baseline %d\n", $1, $3, base[$1]; bad = 1 }
        END { exit bad }' scripts/loc.baseline -
    ;;
*)
    echo "usage: scripts/loc.sh [--check]" >&2
    exit 2
    ;;
esac
