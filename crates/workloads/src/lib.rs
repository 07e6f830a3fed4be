//! # workloads — the paper's three benchmarks
//!
//! * [`micro`] — the sensitivity micro-benchmark of §4: one two-column
//!   table (`Long`/`Long`, or two 50-byte `String`s for §6.2), read-only
//!   and read-write variants, N random index probes per transaction,
//!   database sizes from cache-resident to far-beyond-LLC;
//! * [`tpcb`] — TPC-B: the update-heavy banking benchmark with its single
//!   `AccountUpdate` transaction (§5.1);
//! * [`tpcc`] — TPC-C: nine tables, five transaction types in the
//!   45/43/4/4/4 mix, NURand skew, by-last-name customer selection, and
//!   index scans (§5.2);
//! * [`contention`] — a CCBench-style skewed read/write mix over a shared
//!   (un-partitioned) key space, used by the `bench cc-grid` sweep of the
//!   pluggable concurrency-control layer;
//! * [`driver`] — the [`driver::Workload`] abstraction the figure harness
//!   runs: partition-aware loading (one data partition per worker, all
//!   transactions single-sited, exactly as the paper configures VoltDB)
//!   and seeded per-worker request generation.
//!
//! Database "sizes" follow the substitution documented in DESIGN.md:
//! labels match the paper (1 MB / 10 MB / 10 GB / 100 GB); simulated row
//! counts preserve each label's relationship to the 20 MB LLC.

pub mod contention;
pub mod driver;
pub mod micro;
pub mod names;
pub mod tpcb;
pub mod tpcc;

pub use contention::{CcOp, Contention, Zipf};
pub use driver::Workload;
pub use micro::{DbSize, MicroBench};
pub use tpcb::TpcB;
pub use tpcc::TpcC;
