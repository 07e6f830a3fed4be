//! The workload abstraction the experiment harness drives.

use oltp::{Db, OltpResult, Session};

/// A benchmark: loads a database and generates one transaction at a time.
///
/// Loading is partition-aware: the workload is told how many workers will
/// run and places each worker's data on that worker's core/partition (by
/// opening one [`Session`] per worker during [`Workload::setup`]), so
/// partitioned engines (VoltDB, HyPer) see only single-site transactions —
/// exactly the paper's configuration ("we also use multiple data
/// partitions and ensure that all transactions access only a single
/// partition", §3).
///
/// Execution is session-based: each worker owns a [`Session`] and passes
/// it to [`Workload::exec`] together with its worker index (which selects
/// the worker's request stream / RNG). Workloads are `Send` so a driver
/// that runs workers on threads of their own (the threaded stress tests)
/// can share one behind a lock.
pub trait Workload: Send {
    /// Display name.
    fn name(&self) -> &'static str;

    /// Create tables and bulk-load the database for `workers` workers.
    /// Called exactly once, before any [`Workload::exec`].
    fn setup(&mut self, db: &mut dyn Db, workers: usize);

    /// Run one complete transaction for `worker` on its session `s`.
    fn exec(&mut self, s: &mut dyn Session, worker: usize) -> OltpResult<()>;
}
