#!/usr/bin/env bash
# Structure gates that a line count cannot see.
#
# 1. The simulator's seam: `hierarchy.rs` decides and names no
#    synchronisation primitive; `machine.rs` synchronises and accesses no
#    cache.
# 2. The ART range scan collects no children: `art.rs` does not name
#    `Vec<NodeRef>`, the per-node list the full-tree walk needed.
# 3. The recovery harness borrows the harvested log: `recover.rs` names no
#    `.cloned()`, which is how the durable prefix used to be copied out of
#    the streams `log_streams()` had already copied.
# 4. DESIGN.md §3: in the inventory table, every back-ticked name in the
#    "Key modules" cell of a `crates/<dir>` row is a real
#    crates/<dir>/src/<name>.rs.
set -euo pipefail
cd "$(dirname "$0")/.."
bad=0

sim=crates/uarch_sim/src
if grep -nE 'Atomic|Mutex|RwLock|thread_token' "$sim/hierarchy.rs"; then
    echo "structure: hierarchy.rs names a synchronisation primitive" >&2
    bad=1
fi
if grep -nE '\.access(_at)?\(' "$sim/machine.rs"; then
    echo "structure: machine.rs accesses a cache" >&2
    bad=1
fi

if grep -n 'Vec<NodeRef>' crates/indexes/src/art.rs; then
    echo "structure: art.rs collects a node's children into a Vec again" >&2
    bad=1
fi

if grep -n '\.cloned()' crates/bench/src/recover.rs; then
    echo "structure: recover.rs clones the harvested log again" >&2
    bad=1
fi

while IFS='|' read -r _ crate _ modules _; do
    dir="$(sed -n 's/^ *`\(crates\/[a-z_]*\)`.*/\1/p' <<<"$crate")"
    [ -n "$dir" ] || continue
    for name in $(grep -o '`[^`]*`' <<<"$modules" | tr -d '`'); do
        if [ ! -f "$dir/src/$name.rs" ]; then
            echo "structure: DESIGN.md §3 lists \`$name\` under $dir, but $dir/src/$name.rs does not exist" >&2
            bad=1
        fi
    done
done < <(sed -n '/^## 3\. /,/^## 4\. /p' DESIGN.md)

exit "$bad"
