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
//!
//! A row image reaches the log as bytes the writing session encoded once
//! and still owns; [`Wal::append_data`] borrows them. Only a retaining
//! log keeps a copy: it appends the image to the stream's open chunk of
//! [`CHUNK_BYTES`], so a logged row costs its bytes in a shared chunk, not
//! a heap block of its own. A record whose images sit in the open chunk
//! waits beside it with their offsets. When the next images do not fit,
//! the chunk is frozen into an `Arc` and the waiting records become
//! [`LogRecord`]s, each image an [`Image`] that views the frozen chunk.
//! So [`Wal::take_records`] freezes one chunk and moves the records out,
//! and [`Wal::records`] shares the frozen chunks and copies the open one.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use uarch_sim::{LogDevice, Mem, NvmeProfile};

use crate::arena::CHUNK_BYTES;
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
    pub redo: Option<Image>,
    /// Before-image (encoded row) for undo; `None` for control records,
    /// for inserts (undo of an insert is a delete), and when the engine
    /// runs without undo capture (the default, image-free mode).
    pub undo: Option<Image>,
}

/// A row image a [`LogRecord`] carries: `len` bytes at `at` of one frozen
/// chunk of its stream's images (see the module docs). Clones share the
/// chunk; the chunk is freed with the last image into it.
#[derive(Clone)]
pub struct Image {
    chunk: Arc<Vec<u8>>,
    at: u32,
    len: u32,
}

impl Image {
    /// An image in a chunk of its own, holding a copy of `bytes` (for
    /// records built by hand).
    pub fn copy_of(bytes: &[u8]) -> Image {
        Image {
            chunk: Arc::new(bytes.to_vec()),
            at: 0,
            len: bytes.len() as u32,
        }
    }
}

impl Deref for Image {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        let at = self.at as usize;
        &self.chunk[at..at + self.len as usize]
    }
}

impl PartialEq for Image {
    fn eq(&self, other: &Image) -> bool {
        **self == **other
    }
}

impl Eq for Image {}

impl fmt::Debug for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Image").field(&&**self).finish()
    }
}

/// A retained record whose images are still offsets into the open chunk.
struct Held {
    lsn: Lsn,
    txn: TxnId,
    kind: LogKind,
    len: u32,
    table: u32,
    key: u64,
    redo: Stored,
    undo: Stored,
}

/// Where an image sits in the open chunk; `len == NO_IMAGE` when there
/// is none.
#[derive(Clone, Copy)]
struct Stored {
    at: u32,
    len: u32,
}

const NO_IMAGE: u32 = u32::MAX;

impl Stored {
    fn keep(chunk: &mut Vec<u8>, bytes: Option<&[u8]>) -> Stored {
        let Some(b) = bytes else {
            return Stored {
                at: 0,
                len: NO_IMAGE,
            };
        };
        let at = chunk.len();
        chunk.extend_from_slice(b);
        Stored {
            at: u32::try_from(at).expect("a chunk under 4 GB"),
            len: u32::try_from(b.len()).expect("a row image under 4 GB"),
        }
    }

    fn image(self, chunk: &Arc<Vec<u8>>) -> Option<Image> {
        (self.len != NO_IMAGE).then(|| Image {
            chunk: Arc::clone(chunk),
            at: self.at,
            len: self.len,
        })
    }
}

impl Held {
    fn hand_out(&self, chunk: &Arc<Vec<u8>>) -> LogRecord {
        LogRecord {
            lsn: self.lsn,
            txn: self.txn,
            kind: self.kind,
            len: self.len,
            table: self.table,
            key: self.key,
            redo: self.redo.image(chunk),
            undo: self.undo.image(chunk),
        }
    }
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
    /// Optionally retained records: those whose images sit in frozen
    /// chunks, then those still waiting on the open chunk.
    retain: bool,
    records: Vec<LogRecord>,
    waiting: Vec<Held>,
    chunk: Vec<u8>,
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
            waiting: Vec::new(),
            chunk: Vec::new(),
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
    /// its before-image, both encoded rows the caller keeps. They are
    /// copied only when record retention is on; the simulated log-buffer
    /// traffic is identical either way.
    #[allow(clippy::too_many_arguments)]
    pub fn append_data(
        &mut self,
        mem: &Mem,
        txn: TxnId,
        kind: LogKind,
        table: u32,
        key: u64,
        redo: Option<&[u8]>,
        undo: Option<&[u8]>,
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
            let need = redo.map_or(0, <[u8]>::len) + undo.map_or(0, <[u8]>::len);
            if self.chunk.len() + need > CHUNK_BYTES {
                self.freeze();
            }
            if self.chunk.capacity() == 0 {
                // An image longer than a chunk gets a chunk of its size.
                self.chunk.reserve_exact(need.max(CHUNK_BYTES));
            }
            let redo = Stored::keep(&mut self.chunk, redo);
            let undo = Stored::keep(&mut self.chunk, undo);
            self.waiting.push(Held {
                lsn,
                txn,
                kind,
                len,
                table,
                key,
                redo,
                undo,
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

    /// Freeze the open chunk: the records waiting on it join the handed-out
    /// form, their images viewing the chunk through one shared `Arc`.
    fn freeze(&mut self) {
        let chunk = Arc::new(std::mem::take(&mut self.chunk));
        let waiting = self.waiting.drain(..);
        self.records.extend(waiting.map(|h| h.hand_out(&chunk)));
    }

    /// A copy of the retained records (empty unless
    /// [`Wal::retain_records`] was enabled), in append order. The copies
    /// share the frozen chunks and get a copy of the open one. Every
    /// append takes the next LSN and pushes its record under the same
    /// `&mut self`, so LSNs strictly increase along the records and the
    /// ones at or below any horizon are a prefix —
    /// `partition_point(|r| r.lsn <= flushed)` finds its end.
    pub fn records(&self) -> Vec<LogRecord> {
        let open = Arc::new(self.chunk.clone());
        let waiting = self.waiting.iter().map(|h| h.hand_out(&open));
        self.records.iter().cloned().chain(waiting).collect()
    }

    /// Move the retained records out, as [`Wal::records`] orders them,
    /// leaving none retained; appends keep retaining, into a new chunk.
    /// LSNs go on from the horizon. No image byte is copied.
    pub fn take_records(&mut self) -> Vec<LogRecord> {
        self.freeze();
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

    /// One append: `(txn, kind, table, key, redo, undo, payload_len)`.
    type Appended = (
        TxnId,
        LogKind,
        u32,
        u64,
        Option<Vec<u8>>,
        Option<Vec<u8>>,
        u32,
    );

    #[test]
    fn handed_out_records_are_the_appended_ones_byte_for_byte() {
        use crate::arena::CHUNK_BYTES;
        use uarch_sim::rng::XorShift64;

        let mem = mem();
        let mut wal = Wal::new(&mem, 1 << 16, 4);
        wal.retain_records(true);
        let mut rng = XorShift64::new(17);
        let mut appended: Vec<Appended> = Vec::new();
        // Images of 0-299 bytes cross several chunk boundaries; one fills
        // a chunk exactly and two are longer than a chunk.
        let special = [
            (700, CHUNK_BYTES),
            (1500, CHUNK_BYTES + 1),
            (2200, 3 * CHUNK_BYTES),
        ];
        for i in 0..3000u64 {
            let image = |rng: &mut XorShift64| {
                let len = special
                    .iter()
                    .find(|s| s.0 == i)
                    .map_or_else(|| rng.next_below(300) as usize, |s| s.1);
                (0..len).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>()
            };
            let pick = if special.iter().any(|s| s.0 == i) {
                1
            } else {
                rng.next_below(5)
            };
            let (kind, redo, undo) = match pick {
                0 => (LogKind::Begin, None, None),
                1 => (LogKind::Insert, Some(image(&mut rng)), None),
                2 => (
                    LogKind::Update,
                    Some(image(&mut rng)),
                    Some(image(&mut rng)),
                ),
                3 => (LogKind::Delete, None, Some(image(&mut rng))),
                _ => (LogKind::Commit, None, None),
            };
            let (txn, table, key) = (TxnId(i / 3), i as u32 % 7, rng.next_u64());
            let payload = rng.next_below(500) as u32;
            let (r, u) = (redo.as_deref(), undo.as_deref());
            wal.append_data(&mem, txn, kind, table, key, r, u, payload);
            appended.push((txn, kind, table, key, redo, undo, payload));
        }
        let copied = wal.records();
        let taken = wal.take_records();
        assert_eq!(copied, taken, "a copy and a take hand out the same records");
        assert_eq!(taken.len(), appended.len());
        for (i, (r, a)) in taken.iter().zip(&appended).enumerate() {
            let (txn, kind, table, key, redo, undo, payload) = a;
            assert_eq!(r.lsn, Lsn(i as u64 + 1));
            assert_eq!((r.txn, r.kind, r.table, r.key), (*txn, *kind, *table, *key));
            assert_eq!(r.len, RECORD_HEADER + payload);
            assert_eq!(r.redo.as_deref(), redo.as_deref(), "record {i}: redo");
            assert_eq!(r.undo.as_deref(), undo.as_deref(), "record {i}: undo");
        }
        // The images share a few chunks, one `Arc` each.
        let mut chunks: Vec<*const Vec<u8>> = taken
            .iter()
            .flat_map(|r| [&r.redo, &r.undo])
            .flatten()
            .map(|img| Arc::as_ptr(&img.chunk))
            .collect();
        chunks.sort_unstable();
        chunks.dedup();
        let bytes: usize = appended
            .iter()
            .flat_map(|a| [&a.4, &a.5])
            .flatten()
            .map(Vec::len)
            .sum();
        assert!(
            chunks.len() <= bytes / CHUNK_BYTES + 3,
            "{} chunks",
            chunks.len()
        );
        // Nothing is left behind; the log goes on from its horizon.
        assert!(wal.records().is_empty() && wal.take_records().is_empty());
        let lsn = wal.append_data(&mem, TxnId(9), LogKind::Insert, 1, 2, Some(b"xy"), None, 2);
        let next = wal.take_records();
        assert_eq!(next.len(), 1);
        assert_eq!(
            (next[0].lsn, next[0].redo.as_deref()),
            (lsn, Some(&b"xy"[..]))
        );
        assert_eq!(lsn, Lsn(appended.len() as u64 + 1));
    }

    #[test]
    fn a_log_that_does_not_retain_keeps_no_image() {
        let mem = mem();
        let mut wal = Wal::new(&mem, 1 << 16, 4);
        wal.append_data(
            &mem,
            TxnId(1),
            LogKind::Insert,
            0,
            1,
            Some(&[1; 64]),
            None,
            64,
        );
        assert_eq!(wal.chunk.capacity(), 0);
        assert!(wal.records().is_empty() && wal.take_records().is_empty());
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
