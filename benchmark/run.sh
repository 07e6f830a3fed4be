#!/usr/bin/env bash
# Build the benchmark in release mode and run one workload in one process.
#
#   benchmark/run.sh <workload> [--seed N] [--trace [0|1]] [--smoke] [--seconds S]
#   benchmark/run.sh --workload <workload> --seed N --seconds S --trace 0|1
#   benchmark/run.sh --selfcheck [--seed N]
#
# Workloads: micro_ro tpcc_mix serve_10k durable_recover. The last line of
# standard output is one JSON object: correct, attempted, failed, metrics.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Cargo resolves a relative CARGO_TARGET_DIR against the caller's directory;
# resolve it the same way to find the binary. Default: benchmark/target.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac

CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
  --manifest-path "$here/Cargo.toml" >&2

# Pin the run to one CPU. Lockstep workers take turns, so at most one
# thread is ever runnable and nothing is lost; left to the scheduler, the
# two workers land on one CPU or on two from run to run, and a turn then
# costs 1 us or 18 us (README.md, "Why the run is pinned").
pin=()
if cpus="$(taskset -cp $$ 2>/dev/null)"; then
  cpu="${cpus##*: }"
  cpu="${cpu%%[,-]*}"
  if taskset -c "$cpu" true 2>/dev/null; then
    pin=(taskset -c "$cpu")
  fi
fi
if [ "${#pin[@]}" -eq 0 ]; then
  echo "run.sh: cannot set CPU affinity; running unpinned" >&2
fi

exec "${pin[@]}" "$target/release/imoltp-benchmark" "$@"
