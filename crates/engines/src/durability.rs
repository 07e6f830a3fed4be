//! Durable mode: the cross-engine surface of the durability tier.
//!
//! Default builds keep the paper's configuration — asynchronous logging,
//! Commit-only command logs on the partitioned engines, no device model —
//! so every historical digest stays bit-identical. Enabling durability
//! switches an engine's WAL(s) into a recoverable regime:
//!
//! * **record retention** with redo *and* undo payloads (the in-place 2PL
//!   engines capture before-images; the partitioned engines start logging
//!   data records alongside their Commit markers);
//! * **epoch group commit** — the group-flush size becomes the epoch, the
//!   knob the `bench recover` CSV sweeps against p99 commit latency;
//! * an **NVMe-like log device** ([`uarch_sim::LogDevice`], datacenter
//!   profile) so each group flush pays an fsync-equivalent cost in
//!   simulated cycles and commit latencies become measurable;
//! * a **high-water mark** bounding the unflushed tail at the log
//!   buffer's capacity — unlike the asynchronous default, where the tail
//!   may wrap the ring unbounded.
//!
//! [`DurableDb`] exposes the log streams (one per partition on VoltDB /
//! HyPer, one engine-wide otherwise) for the crash-recovery harness: cut
//! each at its flushed horizon — LSNs rise along a stream, so what
//! survives is a prefix and can be borrowed — and feed
//! [`storage::recovery::recover`]. A harness done with the engine takes
//! the streams ([`DurableDb::take_log_streams`]) rather than copying them.

use oltp::Db;
use storage::wal::{LogRecord, Lsn, Wal, WalStats};
use uarch_sim::{DeviceStats, Mem, NvmeProfile};

/// Configuration for [`DurableDb::enable_durability`].
#[derive(Clone, Copy, Debug)]
pub struct DurabilityCfg {
    /// Group-commit epoch: commits per group flush.
    pub epoch: u32,
}

impl Default for DurabilityCfg {
    fn default() -> Self {
        DurabilityCfg { epoch: 8 }
    }
}

/// One log stream's durability coordinates at a point in time.
#[derive(Clone, Copy, Debug, Default)]
pub struct LogStatus {
    /// Stream index (partition id, or 0 on engine-wide logs).
    pub stream: usize,
    /// LSN of the last appended record.
    pub horizon: Lsn,
    /// LSN up to which the log is durable.
    pub flushed: Lsn,
    /// Append/flush counters.
    pub stats: WalStats,
    /// Device counters, if a device is attached.
    pub device: Option<DeviceStats>,
}

/// A [`Db`] whose log(s) can be made durable and harvested for recovery.
pub trait DurableDb: Db {
    /// Switch the engine's log(s) into durable mode. Call before loading
    /// or running transactions (records appended earlier are not
    /// retained). Calling again re-applies the configuration and
    /// attaches a *fresh* device — an empty queue — without discarding
    /// retained records; harnesses use this to shed the device backlog
    /// an offline bulk load accumulates while the cycle clock stands
    /// still.
    fn enable_durability(&mut self, cfg: &DurabilityCfg);

    /// The retained records of every log stream, in stream order
    /// (partitioned engines: index = partition), each in append order
    /// with strictly increasing LSNs. Includes unflushed records — the
    /// prefix at or below [`LogStatus::flushed`] is what survives a crash.
    /// A copy, for callers that keep using the engine (the engine tests,
    /// the `benchmark` package's traced durable run); a harness that is
    /// done with the engine takes the records with
    /// [`DurableDb::take_log_streams`] instead.
    fn log_streams(&self) -> Vec<Vec<LogRecord>>;

    /// The same streams as [`DurableDb::log_streams`], moved out: no record
    /// is copied, and the engine retains none afterwards, so dropping it
    /// frees no log.
    fn take_log_streams(&mut self) -> Vec<Vec<LogRecord>>;

    /// Current horizon/flushed coordinates of every stream.
    fn log_status(&self) -> Vec<LogStatus>;

    /// Force a group flush on every stream (the checkpoint-complete
    /// barrier and the end-of-run drain).
    fn flush_all(&mut self);

    /// Drain the per-commit latency samples (simulated cycles between a
    /// Commit append and its group's device completion) from every
    /// stream. Empty until durability is enabled.
    fn take_commit_latencies(&mut self) -> Vec<f64>;
}

/// Apply `cfg` to one WAL (shared by every engine's implementation).
pub(crate) fn configure_wal(wal: &mut Wal, mem: &Mem, cfg: &DurabilityCfg) {
    wal.retain_records(true);
    wal.set_group_size(cfg.epoch);
    wal.set_high_water(wal.buf_size());
    wal.attach_device(mem, NvmeProfile::datacenter());
}

/// Snapshot one WAL's durability coordinates.
pub(crate) fn wal_status(stream: usize, wal: &Wal) -> LogStatus {
    LogStatus {
        stream,
        horizon: wal.horizon(),
        flushed: wal.flushed(),
        stats: wal.stats(),
        device: wal.device_stats(),
    }
}

/// Group-flush `wal` if it has an unflushed tail.
pub(crate) fn flush_behind(wal: &mut Wal, mem: &Mem) {
    if wal.flushed() < wal.horizon() {
        wal.flush(mem);
    }
}
