//! Write-ahead log with asynchronous group commit and an optional durable
//! log device.
//!
//! §3: "For all the systems, we use asynchronous logging. Therefore, there
//! is no delay due to I/O in the critical path." The log manager here
//! mirrors that by default: appends serialize records into a circular log
//! buffer in simulated memory (sequential line touches — good locality,
//! which is why logging is cheap at the micro-architectural level),
//! commits advance a group-commit horizon, and the "flush" is a
//! bookkeeping step with no latency.
//!
//! The durability tier (`bench recover`) upgrades this in place, opt-in
//! per WAL so default builds stay bit-identical:
//!
//! * [`Wal::attach_device`] binds an NVMe-like [`LogDevice`]: every group
//!   flush submits the unflushed bytes and the flushing core spins until
//!   the simulated completion time, so the fsync-equivalent cost lands in
//!   the counter profile and per-commit latency (append → group flush
//!   completion) becomes a measurable distribution;
//! * [`Wal::set_high_water`] bounds the unflushed tail: an append that
//!   would cross the mark forces a flush first (backpressure), so an
//!   idle group-commit daemon can't let the in-memory log grow without
//!   limit;
//! * records retained with [`Wal::retain_records`] carry redo *and* undo
//!   payloads, which is what lets [`crate::recovery`] roll unfinished
//!   transactions out of a fuzzy checkpoint image.

use bytes::Bytes;
use uarch_sim::{LogDevice, Mem, NvmeProfile};

use crate::txn::TxnId;

/// Log sequence number.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Lsn(pub u64);

/// Record type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogKind {
    /// Transaction begin.
    Begin,
    /// Row insert.
    Insert,
    /// Row update (before/after image sizes folded into `len`).
    Update,
    /// Row delete.
    Delete,
    /// Transaction commit.
    Commit,
    /// Transaction abort.
    Abort,
}

/// A retained record. When record retention is enabled (the in-memory
/// stand-in for the durable log device), data records also carry their
/// redo payload so [`crate::recovery`] can replay them, and — when the
/// engine captures one — the before-image so recovery can roll back
/// transactions that were in flight at the crash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogRecord {
    /// Record LSN.
    pub lsn: Lsn,
    /// Owning transaction.
    pub txn: TxnId,
    /// Record type.
    pub kind: LogKind,
    /// Serialized size in bytes (header included).
    pub len: u32,
    /// Table the record applies to (data records).
    pub table: u32,
    /// Key the record applies to (data records).
    pub key: u64,
    /// After-image (encoded row) for redo; `None` for control records
    /// and deletes.
    pub redo: Option<Bytes>,
    /// Before-image (encoded row) for undo; `None` for control records,
    /// for inserts (undo of an insert is a delete), and when the engine
    /// runs without undo capture (the default, image-free mode).
    pub undo: Option<Bytes>,
}

const RECORD_HEADER: u32 = 24;

/// Lifetime WAL counters (exposed through the recover harness CSV).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Bytes appended.
    pub bytes_appended: u64,
    /// Group flushes completed.
    pub flushes: u64,
    /// Flushes forced by the high-water mark rather than the group size.
    pub backpressure_flushes: u64,
}

/// The log manager.
pub struct Wal {
    /// Simulated base of the circular log buffer.
    buf_addr: u64,
    buf_size: u64,
    /// Write offset within the buffer.
    head: u64,
    next_lsn: u64,
    /// Highest LSN covered by a completed group flush.
    flushed: Lsn,
    /// Highest LSN appended.
    durable_horizon: Lsn,
    /// Commits since the last flush (group size accounting).
    pending_commits: u32,
    /// Flush every N commits (asynchronous group commit).
    group_size: u32,
    /// Unflushed bytes may not exceed this; an append that would forces a
    /// flush first. Disabled by default (`u64::MAX`): the paper's
    /// asynchronous-logging configuration lets the tail wrap the ring
    /// unbounded, and the group-commit phase of that mode is part of the
    /// golden counter digests. Durable mode sets a real mark.
    high_water: u64,
    /// Bytes appended since the last flush.
    unflushed_bytes: u64,
    /// Optionally retained records.
    retain: bool,
    records: Vec<LogRecord>,
    /// The durable log device, when attached (group flushes then carry
    /// real submit/complete latency).
    device: Option<LogDevice>,
    /// Simulated append times of commits awaiting the next group flush.
    pending_commit_at: Vec<f64>,
    /// Commit latencies (append → flush completion, cycles) accumulated
    /// since the last [`Wal::take_commit_latencies`].
    commit_latencies: Vec<f64>,
    /// Lifetime appended bytes.
    pub bytes_appended: u64,
    /// Lifetime flushes.
    pub flushes: u64,
    /// Flushes forced by the high-water mark.
    pub backpressure_flushes: u64,
}

/// The deterministic cycle clock: the machine's cycle model evaluated on
/// the core's cumulative counters — the same monotone "timestamp" the
/// tracing layer stamps spans with.
fn now(mem: &Mem) -> f64 {
    let sim = mem.sim();
    sim.config().cycles(&sim.counters(mem.core()))
}

impl Wal {
    /// A log manager with a `buf_size`-byte circular buffer, flushing every
    /// `group_size` commits.
    pub fn new(mem: &Mem, buf_size: u64, group_size: u32) -> Self {
        let buf_size = buf_size.max(4096).next_power_of_two();
        Wal {
            buf_addr: mem.alloc(buf_size, 64),
            buf_size,
            head: 0,
            next_lsn: 1,
            flushed: Lsn(0),
            durable_horizon: Lsn(0),
            pending_commits: 0,
            group_size: group_size.max(1),
            high_water: u64::MAX,
            unflushed_bytes: 0,
            retain: false,
            records: Vec::new(),
            device: None,
            pending_commit_at: Vec::new(),
            commit_latencies: Vec::new(),
            bytes_appended: 0,
            flushes: 0,
            backpressure_flushes: 0,
        }
    }

    /// Keep full records for inspection (tests) and recovery.
    pub fn retain_records(&mut self, yes: bool) {
        self.retain = yes;
    }

    /// Whether records are being retained (engines use this to gate
    /// undo-image capture off the default path).
    pub fn retaining(&self) -> bool {
        self.retain
    }

    /// Change the group-commit epoch (commits per flush).
    pub fn set_group_size(&mut self, group_size: u32) {
        self.group_size = group_size.max(1);
    }

    /// The group-commit epoch in force.
    pub fn group_size(&self) -> u32 {
        self.group_size
    }

    /// Bound the unflushed tail to `bytes` (clamped to the buffer size):
    /// an append that would cross the mark flushes first.
    pub fn set_high_water(&mut self, bytes: u64) {
        self.high_water = bytes.clamp(1, self.buf_size);
    }

    /// The circular buffer's size (the largest meaningful high-water
    /// mark).
    pub fn buf_size(&self) -> u64 {
        self.buf_size
    }

    /// Attach an NVMe-like log device; subsequent flushes submit to it
    /// and charge the completion wait to the flushing core.
    pub fn attach_device(&mut self, mem: &Mem, profile: NvmeProfile) {
        self.device = Some(LogDevice::new(mem, profile));
    }

    /// Stats of the attached device, if any.
    pub fn device_stats(&self) -> Option<uarch_sim::DeviceStats> {
        self.device.as_ref().map(|d| d.stats())
    }

    /// Drain the per-commit latency samples (cycles from the commit
    /// append to its group flush completing on the device). Empty unless
    /// a device is attached.
    pub fn take_commit_latencies(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.commit_latencies)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            bytes_appended: self.bytes_appended,
            flushes: self.flushes,
            backpressure_flushes: self.backpressure_flushes,
        }
    }

    /// Append a control record of `payload_len` body bytes.
    pub fn append(&mut self, mem: &Mem, txn: TxnId, kind: LogKind, payload_len: u32) -> Lsn {
        self.append_data(mem, txn, kind, 0, 0, None, None, payload_len)
    }

    /// Append a data record carrying its redo information and (optionally)
    /// its before-image (retained only when record retention is on; the
    /// simulated log-buffer traffic is identical either way).
    #[allow(clippy::too_many_arguments)]
    pub fn append_data(
        &mut self,
        mem: &Mem,
        txn: TxnId,
        kind: LogKind,
        table: u32,
        key: u64,
        redo: Option<&Bytes>,
        undo: Option<&Bytes>,
        payload_len: u32,
    ) -> Lsn {
        let len = RECORD_HEADER + payload_len;
        // Backpressure: never let the unflushed tail cross the high-water
        // mark — flush (device wait and all) before admitting the append.
        if self.unflushed_bytes + u64::from(len) > self.high_water && self.unflushed_bytes > 0 {
            self.backpressure_flushes += 1;
            self.flush(mem);
        }
        let lsn = Lsn(self.next_lsn);
        self.next_lsn += 1;
        // Serialize into the circular buffer: sequential writes.
        mem.exec(30 + u64::from(payload_len) / 16);
        let mut remaining = u64::from(len);
        while remaining > 0 {
            let chunk = remaining.min(self.buf_size - self.head);
            mem.write(self.buf_addr + self.head, chunk as u32);
            self.head = (self.head + chunk) % self.buf_size;
            remaining -= chunk;
        }
        self.bytes_appended += u64::from(len);
        self.unflushed_bytes += u64::from(len);
        self.durable_horizon = lsn;
        if self.retain {
            self.records.push(LogRecord {
                lsn,
                txn,
                kind,
                len,
                table,
                key,
                redo: redo.cloned(),
                undo: undo.cloned(),
            });
        }
        if matches!(kind, LogKind::Commit) {
            self.pending_commits += 1;
            if self.device.is_some() {
                self.pending_commit_at.push(now(mem));
            }
            if self.pending_commits >= self.group_size {
                self.flush(mem);
            }
        }
        lsn
    }

    /// Complete a group flush. Without a device this is asynchronous
    /// bookkeeping (no stall); with one, the unflushed bytes are submitted
    /// and the flushing core spins until the simulated completion.
    pub fn flush(&mut self, mem: &Mem) {
        mem.exec(80);
        if let Some(dev) = self.device.as_mut() {
            let t = now(mem);
            let done = dev.submit(mem, t, self.unflushed_bytes.max(1));
            // Group commit waits for the device: the flushing core spins
            // out the gap, so the fsync-equivalent cost is visible in its
            // counter profile like a PAUSE loop would be.
            let wait = (done - t).max(0.0) as u64;
            mem.exec(wait);
            for at in self.pending_commit_at.drain(..) {
                self.commit_latencies.push((done - at).max(0.0));
            }
        }
        self.flushed = self.durable_horizon;
        self.pending_commits = 0;
        self.unflushed_bytes = 0;
        self.flushes += 1;
    }

    /// Highest flushed LSN.
    pub fn flushed(&self) -> Lsn {
        self.flushed
    }

    /// Highest appended LSN.
    pub fn horizon(&self) -> Lsn {
        self.durable_horizon
    }

    /// Retained records (empty unless [`Wal::retain_records`] was enabled),
    /// in append order. Every append takes the next LSN and pushes its
    /// record under the same `&mut self`, so LSNs strictly increase along
    /// the slice and the records at or below any horizon are a prefix of
    /// it — `partition_point(|r| r.lsn <= flushed)` finds its end.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Move the retained records out, leaving none retained; appends keep
    /// retaining. LSNs go on from the horizon.
    pub fn take_records(&mut self) -> Vec<LogRecord> {
        std::mem::take(&mut self.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_sim::{MachineConfig, Sim};

    fn mem() -> Mem {
        Sim::new(MachineConfig::ivy_bridge(1)).mem(0)
    }

    #[test]
    fn lsns_are_monotone() {
        let mem = mem();
        let mut wal = Wal::new(&mem, 1 << 16, 4);
        let a = wal.append(&mem, TxnId(1), LogKind::Begin, 0);
        let b = wal.append(&mem, TxnId(1), LogKind::Update, 100);
        let c = wal.append(&mem, TxnId(1), LogKind::Commit, 0);
        assert!(a < b && b < c);
        assert_eq!(wal.horizon(), c);
    }

    #[test]
    fn group_commit_flushes_every_n_commits() {
        let mem = mem();
        let mut wal = Wal::new(&mem, 1 << 16, 3);
        for t in 0..9u64 {
            wal.append(&mem, TxnId(t), LogKind::Commit, 0);
        }
        assert_eq!(wal.flushes, 3);
        assert_eq!(wal.flushed(), wal.horizon());
    }

    #[test]
    fn uncommitted_tail_not_flushed() {
        let mem = mem();
        let mut wal = Wal::new(&mem, 1 << 16, 10);
        wal.append(&mem, TxnId(1), LogKind::Commit, 0);
        let tail = wal.append(&mem, TxnId(2), LogKind::Update, 64);
        assert!(wal.flushed() < tail);
    }

    #[test]
    fn buffer_wraps_without_panic() {
        let mem = mem();
        let mut wal = Wal::new(&mem, 4096, 1000);
        for _ in 0..100 {
            wal.append(&mem, TxnId(1), LogKind::Update, 200);
        }
        assert_eq!(wal.bytes_appended, 100 * (200 + 24));
    }

    #[test]
    fn retained_records_describe_appends() {
        let mem = mem();
        let mut wal = Wal::new(&mem, 1 << 16, 100);
        wal.retain_records(true);
        wal.append(&mem, TxnId(5), LogKind::Begin, 0);
        wal.append(&mem, TxnId(5), LogKind::Insert, 48);
        wal.append(&mem, TxnId(5), LogKind::Commit, 0);
        let kinds: Vec<LogKind> = wal.records().iter().map(|r| r.kind).collect();
        assert_eq!(kinds, [LogKind::Begin, LogKind::Insert, LogKind::Commit]);
        assert!(wal.records().iter().all(|r| r.txn == TxnId(5)));
    }

    #[test]
    fn retained_lsns_strictly_increase() {
        let mem = mem();
        // Group flushes, backpressure flushes and ring wrap-around all
        // happen inside the loop; none may reorder or skip a record.
        let mut wal = Wal::new(&mem, 4096, 3);
        wal.set_high_water(1024);
        wal.retain_records(true);
        for t in 0..200u64 {
            wal.append(&mem, TxnId(t), LogKind::Begin, 0);
            wal.append_data(&mem, TxnId(t), LogKind::Update, 0, t, None, None, 200);
            if t % 3 != 0 {
                wal.append(&mem, TxnId(t), LogKind::Commit, 0);
            }
            let recs = wal.records();
            assert!(recs.windows(2).all(|w| w[0].lsn < w[1].lsn));
            assert_eq!(recs.last().unwrap().lsn, wal.horizon());
            // The durable records are the prefix the horizon cuts.
            let cut = recs.partition_point(|r| r.lsn <= wal.flushed());
            assert!(recs[..cut].iter().all(|r| r.lsn <= wal.flushed()));
            assert!(recs[cut..].iter().all(|r| r.lsn > wal.flushed()));
        }
        assert!(wal.backpressure_flushes > 0 && wal.flushed() < wal.horizon());
    }

    #[test]
    fn high_water_mark_forces_backpressure_flushes() {
        let mem = mem();
        // Group size 1000 never triggers on its own; only the mark can.
        let mut wal = Wal::new(&mem, 1 << 16, 1000);
        wal.set_high_water(1024);
        for _ in 0..64 {
            wal.append(&mem, TxnId(1), LogKind::Update, 200);
        }
        assert!(wal.backpressure_flushes > 0, "mark never bit");
        assert!(
            wal.flushed() > Lsn(0),
            "backpressure flush advances the durable horizon"
        );
        // The unflushed tail is bounded by the mark at every step: with
        // 224-byte records and a 1 KiB mark, at most 4 records ride
        // between flushes, so the mark bites before appends 5, 9, … 61.
        let expected = (64u64 - 5) / 4 + 1;
        assert_eq!(wal.stats().flushes, expected);
        assert_eq!(wal.stats().backpressure_flushes, expected);
    }

    #[test]
    fn default_high_water_never_fires_under_group_commit() {
        let mem = mem();
        let mut wal = Wal::new(&mem, 1 << 16, 4);
        for t in 0..200u64 {
            wal.append_data(&mem, TxnId(t), LogKind::Update, 0, t, None, None, 128);
            wal.append(&mem, TxnId(t), LogKind::Commit, 0);
        }
        assert_eq!(wal.backpressure_flushes, 0);
    }

    #[test]
    fn attached_device_produces_commit_latencies() {
        let mem = mem();
        let mut wal = Wal::new(&mem, 1 << 16, 2);
        wal.attach_device(&mem, NvmeProfile::datacenter());
        for t in 0..8u64 {
            wal.append_data(&mem, TxnId(t), LogKind::Update, 0, t, None, None, 64);
            wal.append(&mem, TxnId(t), LogKind::Commit, 0);
        }
        let lat = wal.take_commit_latencies();
        assert_eq!(lat.len(), 8, "one latency sample per commit");
        let base = NvmeProfile::datacenter().base_latency;
        assert!(
            lat.iter().all(|&l| l >= base),
            "every commit waits at least the device write latency"
        );
        let stats = wal.device_stats().unwrap();
        assert_eq!(stats.submits, 4, "one device write per group flush");
        assert!(wal.take_commit_latencies().is_empty(), "drained");
    }

    #[test]
    fn device_wait_is_charged_to_the_flushing_core() {
        let sim = Sim::new(MachineConfig::ivy_bridge(1));
        let mem = sim.mem(0);
        let mut with = Wal::new(&mem, 1 << 16, 1);
        with.attach_device(&mem, NvmeProfile::datacenter());
        let before = sim.counters(0).instructions;
        with.append(&mem, TxnId(1), LogKind::Commit, 0);
        let spent = sim.counters(0).instructions - before;
        assert!(
            spent > 10_000,
            "commit+flush spun for the device write, spent only {spent}"
        );
    }
}
