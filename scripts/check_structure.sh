#!/usr/bin/env bash
# Structure gates that a line count cannot see.
#
# 1. The simulator's seam: `hierarchy.rs` decides what an access does;
#    `machine.rs` routes it to a core and its events to the others, and
#    accesses no cache.
# 2. The ART range scan collects no children: `art.rs` does not name
#    `Vec<NodeRef>`, the per-node list the full-tree walk needed.
# 3. The recovery harness borrows the harvested log: `recover.rs` names no
#    `.cloned()`, which is how the durable prefix used to be copied out of
#    the streams `log_streams()` had already copied.
# 4. DESIGN.md §3: in the inventory table, every back-ticked name in the
#    "Key modules" cell of a `crates/<dir>` row is a real
#    crates/<dir>/src/<name>.rs.
# 5. The load protocol is written once, in `SystemBuilder::load`: under
#    crates/bench/src and crates/service/src nothing names `build_system`,
#    and only `ablations.rs` names `warm_data` — its multi-partition VoltDB
#    what-if builds a concrete `VoltDb` to flip `set_single_sited`, which a
#    `Box<dyn DurableDb>` cannot express.
# 6. The oracle tables come from `oracle::Counters`: `recover.rs` and
#    `chaos.rs` name no `TableDef::new`.
# 7. Lockstep is a loop: crates/core/src names no `Condvar`,
#    `thread::scope` or `thread::spawn` (every measured window runs on the
#    calling thread), and nothing under crates, src, tests or examples
#    names `Pacing::Free`.
# 8. Integer-keyed host maps use the one deterministic hasher
#    (`uarch_sim::rng::IntMap`): the lock manager, the buffer pool and the
#    CC protocols name no std `HashMap` or `HashSet`.
# 9. One thread owns a simulator: under crates/ the word `unsafe` appears
#    only in `forbid` lines, and crates/uarch_sim/src names no `Atomic`,
#    `Mutex`, `RwLock`, `UnsafeCell`, `OnceLock` or `thread_local`.
# 10. The row stores keep bytes, not a heap block per row: above its
#    first `#[cfg(test)]`, no code line of crates/storage/src/{page,heap,
#    memstore,mvcc}.rs names `Bytes` or `Box` (the per-row reference
#    stores the differential tests drive live below that line).
set -euo pipefail
cd "$(dirname "$0")/.."
bad=0

sim=crates/uarch_sim/src
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

harness="crates/bench/src crates/service/src"
if grep -rn 'build_system' $harness; then
    echo "structure: a harness builds its engine outside SystemBuilder::load" >&2
    bad=1
fi
if grep -rn 'warm_data' $harness | grep -v '^crates/bench/src/ablations\.rs:'; then
    echo "structure: a harness spells the load protocol (warm_data) itself" >&2
    bad=1
fi

if grep -n 'TableDef::new' crates/bench/src/recover.rs crates/bench/src/chaos.rs; then
    echo "structure: recover.rs or chaos.rs hand-rolls an oracle table again" >&2
    bad=1
fi

if grep -rnE 'Condvar|thread::(scope|spawn)' crates/core/src; then
    echo "structure: the experiment harness runs workers on threads again" >&2
    bad=1
fi
if grep -rn 'Pacing::Free' crates src tests examples; then
    echo "structure: Pacing::Free is back" >&2
    bad=1
fi

if grep -nE '\bHash(Map|Set)\b' crates/storage/src/lock.rs crates/storage/src/bufferpool.rs crates/oltp/src/cc.rs; then
    echo "structure: a lock, buffer-pool or CC map is keyed through SipHash again" >&2
    bad=1
fi

if grep -rn unsafe crates/ | grep -v 'forbid(unsafe_code)'; then
    echo "structure: unsafe outside a forbid line" >&2
    bad=1
fi
if grep -rnE 'Atomic|Mutex|RwLock|UnsafeCell|OnceLock|thread_local' "$sim"; then
    echo "structure: the simulator synchronises between threads again" >&2
    bad=1
fi

for f in crates/storage/src/{page,heap,memstore,mvcc}.rs; do
    if awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
            !/^[[:space:]]*\/\// && /(^|[^[:alnum:]_])(Bytes|Box)([^[:alnum:]_]|$)/ { print FILENAME ":" FNR ": " $0; hit = 1 }
            END { exit !hit }' "$f"; then
        echo "structure: $f keeps a heap block per row again" >&2
        bad=1
    fi
done

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
