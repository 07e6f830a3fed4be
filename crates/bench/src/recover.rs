//! Crash-recovery harness: kill a durably-logging engine at a
//! deterministic point, replay checkpoint + durable log tail, and verify
//! that exactly the acknowledged work survives.
//!
//! One recover run builds an engine in durable mode
//! ([`engines::DurableDb`]): record retention with redo/undo payloads,
//! epoch group commit, and the simulated NVMe log device so every group
//! flush pays an fsync-equivalent cost in simulated cycles. Workers then
//! drive a lockstep schedule mixing
//!
//! * **verified counter increments** on worker-private rows of a
//!   `recover_counters` oracle table (the durability oracle),
//! * **deliberately aborted increments** on a separate `recover_scratch`
//!   table (the no-phantom-abort oracle),
//! * regular transactions of the configured workload, and
//! * **fuzzy checkpoint capture**: from `ckpt_start` on, each worker's
//!   [`storage::checkpoint::Checkpointer`] copies its own oracle rows in
//!   chunked read-only transactions interleaved with live traffic — no
//!   quiescing.
//!
//! The crash is a one-shot [`faults::FaultPlan`] trigger
//! (`recover/kill` at slot `kill_at`): under lockstep pacing every worker
//! observes it at the same slot ordinal, so the whole engine "loses
//! power" at a transaction boundary. What survives is exactly the log
//! prefix at or below each stream's flushed horizon — commits past it
//! were never acknowledged to the client (group commit acknowledges at
//! flush), so they are allowed to vanish; commits at or below it MUST
//! survive.
//!
//! Recovery then runs twice through [`storage::recovery::recover`]
//! (checkpoint image if complete, redo winners past the image horizon,
//! undo unfinished tails) into an empty [`ApplyDb`] each time, and a
//! strict reference re-execution replays the same durable prefix with
//! [`storage::recovery::replay`]. Verification:
//!
//! 1. zero lost updates: every acknowledged oracle increment is present;
//! 2. zero phantoms: no oracle value beyond what the engine committed,
//!    and no aborted scratch increment reappears;
//! 3. per-table FNV digests of the recovered state equal the reference
//!    re-execution, and the two recovery runs are bit-identical.
//!
//! Everything is deterministic, so a run is a pure function of its
//! manifest: `bench recover --plan <manifest.json>` replays it and
//! cross-checks the recorded digests.

use std::cell::RefCell;
use std::collections::btree_map::{BTreeMap, Entry};
use std::fs;
use std::path::Path;

use engines::{DurabilityCfg, SystemBuilder, SystemKind};
use faults::FaultPlan;
use microarch::{measure_workers, Measurement, Pacing, WindowSpec};
use obs::json::Json;
use obs::Phase;
use oltp::{check_image, tuple, OltpError, Session, TableId, Value};
use storage::checkpoint::{Checkpoint, Checkpointer};
use storage::recovery::{recover, replay, RecoveryStats, ReplayStats};
use storage::wal::{LogRecord, Lsn};
use uarch_sim::rng::Fnv;
use uarch_sim::MachineConfig;

use crate::names::{slug, system_cli};
use crate::oracle::{Counters, KEYS_PER_WORKER};
use crate::{scale_factor, WorkloadCfg};

/// Worker-private scratch rows per worker (aborted-increment oracle).
const SCRATCH_KEYS: u64 = 2;

/// Oracle keys captured per checkpoint step (chunked fuzzy capture).
const CKPT_CHUNK: usize = 2;

/// The one-shot kill site evaluated once per slot per worker.
const KILL_SITE: &str = "recover/kill";

/// Configuration of one crash-recovery run.
#[derive(Clone, Debug)]
pub struct RecoverCfg {
    /// Engine under test.
    pub system: SystemKind,
    /// Workload providing the realistic-traffic slots.
    pub workload: WorkloadCfg,
    /// Workload CLI name (for manifests and file slugs).
    pub workload_name: String,
    /// Fault-plan seed (recorded for replay; the kill itself is one-shot).
    pub seed: u64,
    /// Slot ordinal of the crash; `None` picks 60% of the window, and a
    /// value at or past the window means the run completes without a
    /// crash (a pure group-commit latency run).
    pub kill_at: Option<u64>,
    /// Slot ordinal where fuzzy checkpoint capture starts (default: 25%
    /// of the window).
    pub ckpt_start: Option<u64>,
    /// Group-commit epoch: commits per group flush.
    pub epoch: u32,
    /// Workers (= simulated cores = partitions).
    pub workers: usize,
    /// Measurement window; `None` uses the recover default scaled by
    /// `IMOLTP_SCALE`. Repetitions are forced to 1 (a crash has no
    /// meaning across reps).
    pub window: Option<WindowSpec>,
    /// Exact plan to install instead of the derived one-shot plan — used
    /// when replaying a manifest.
    pub plan_override: Option<FaultPlan>,
}

impl RecoverCfg {
    /// Defaults for `bench recover <system> <workload>`.
    pub fn new(system: SystemKind, workload: WorkloadCfg, workload_name: &str) -> Self {
        RecoverCfg {
            system,
            workload,
            workload_name: workload_name.to_string(),
            seed: 1,
            kill_at: None,
            ckpt_start: None,
            epoch: 8,
            workers: 2,
            window: None,
            plan_override: None,
        }
    }

    fn effective_window(&self) -> WindowSpec {
        let mut w = self.window.unwrap_or_else(|| {
            WindowSpec {
                warmup: 80,
                measured: 320,
                reps: 1,
            }
            .scaled(scale_factor())
        });
        w.reps = 1;
        w
    }
}

/// One run's resolved schedule coordinates.
#[derive(Clone, Copy, Debug)]
pub struct ScheduleInfo {
    /// Total transaction slots (warmup + measured).
    pub slots: u64,
    /// Resolved kill slot (may be >= `slots`: no crash).
    pub kill_at: u64,
    /// Resolved checkpoint-start slot.
    pub ckpt_start: u64,
}

/// Per-stream checkpoint outcome.
#[derive(Clone, Copy, Debug, Default)]
pub struct CkptOutcome {
    /// Whether the stream's merged image completed before the crash
    /// (capture done on every contributing worker AND its end horizon
    /// durable at the crash).
    pub complete: bool,
    /// Rows in the merged image.
    pub image_rows: u64,
}

/// Result of one crash-recovery run.
pub struct RecoverReport {
    /// Resolved schedule.
    pub schedule: ScheduleInfo,
    /// Whether the kill actually fired (false = ran to completion).
    pub crashed: bool,
    /// Oracle increments acknowledged durable at the crash (commit
    /// horizon at or below the stream's flushed LSN).
    pub confirmed: u64,
    /// Oracle increments the engine committed (durable or not); the
    /// recovered value may not exceed this.
    pub committed: u64,
    /// Acknowledged increments missing after recovery (MUST be 0).
    pub lost_updates: u64,
    /// Recovered increments beyond the committed bound (MUST be 0).
    pub phantom_updates: u64,
    /// Aborted scratch increments visible after recovery (MUST be 0).
    pub aborted_effects: u64,
    /// Per-stream checkpoint outcomes.
    pub checkpoints: Vec<CkptOutcome>,
    /// Summed ARIES-lite recovery statistics (first run).
    pub recovery: RecoveryStats,
    /// Summed strict reference-replay statistics.
    pub reference: ReplayStats,
    /// Per-table digests of the recovered state.
    pub digests: Vec<(u32, u64)>,
    /// Whether recovered digests match the reference re-execution.
    pub digests_match: bool,
    /// Whether a second recovery run was bit-identical to the first.
    pub second_match: bool,
    /// Group-commit latency samples (simulated cycles), sorted.
    pub commit_latencies: Vec<f64>,
    /// The windowed measurement (crashed runs idle their tail slots).
    pub measurement: Measurement,
    /// The replayable manifest.
    pub manifest: Json,
}

impl RecoverReport {
    /// Whether every durability gate held.
    pub fn consistent(&self) -> bool {
        self.lost_updates == 0
            && self.phantom_updates == 0
            && self.aborted_effects == 0
            && self.digests_match
            && self.second_match
    }

    /// Latency quantile in simulated cycles (0 when no device samples).
    pub fn latency_quantile(&self, q: f64) -> f64 {
        if self.commit_latencies.is_empty() {
            return 0.0;
        }
        let idx = ((self.commit_latencies.len() - 1) as f64 * q).round() as usize;
        self.commit_latencies[idx]
    }
}

/// Recovery target: a plain multi-table row store behind the [`Session`]
/// trait. Recovery replays *into* this instead of a live engine so the
/// recovered state can be digested per table and compared byte for byte
/// against an independent reference re-execution.
///
/// A table keeps its rows encoded in one byte arena, indexed by key: a
/// logged image is checked and appended as it is (the image methods), a
/// row insert encodes the row once, an update appends the new bytes and
/// leaves the old ones dead, a delete drops the key. No row owns an
/// allocation of its own: building and freeing a target costs the arena
/// and the key index's nodes.
#[derive(Default)]
pub struct ApplyDb {
    tables: BTreeMap<u32, Rows>,
    in_txn: bool,
}

/// One [`ApplyDb`] table.
#[derive(Default)]
struct Rows {
    /// Encoded rows, live and dead, end to end.
    arena: tuple::BytesMut,
    /// Each live row's byte range in `arena`.
    at: BTreeMap<u64, (usize, usize)>,
}

/// Encode `row` at the end of `arena`; its byte range there.
fn append(arena: &mut tuple::BytesMut, row: &[Value]) -> (usize, usize) {
    let start = arena.len();
    tuple::encode_into(row, arena);
    (start, arena.len())
}

/// Append the encoded row `image` to `arena`; its byte range there.
fn keep(arena: &mut tuple::BytesMut, image: &[u8]) -> (usize, usize) {
    let start = arena.len();
    arena.extend_from_slice(image);
    (start, arena.len())
}

/// Decode the row stored at `range` of `arena`.
fn row_at(arena: &[u8], (start, end): (usize, usize)) -> oltp::Row {
    tuple::decode(&arena[start..end]).expect("a stored row decodes")
}

impl ApplyDb {
    /// Empty target.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recovered row, if present.
    pub fn value(&self, table: u32, key: u64) -> Option<oltp::Row> {
        let rows = self.tables.get(&table)?;
        rows.at.get(&key).map(|&at| row_at(&rows.arena, at))
    }

    /// Whether `other` holds the same tables, and in each the same keys
    /// with byte-identical rows: what equal [`ApplyDb::digests`] stand
    /// for, without the hash.
    pub fn same_rows(&self, other: &ApplyDb) -> bool {
        let same_table = |a: &Rows, b: &Rows| {
            a.at.len() == b.at.len()
                && a.at
                    .iter()
                    .zip(&b.at)
                    .all(|((k, &x), (l, &y))| k == l && a.arena[x.0..x.1] == b.arena[y.0..y.1])
        };
        self.tables.len() == other.tables.len()
            && (self.tables.iter().zip(&other.tables))
                .all(|((t, a), (u, b))| t == u && same_table(a, b))
    }

    /// Per-table FNV digests over `(key, encoded row)` in key order.
    pub fn digests(&self) -> Vec<(u32, u64)> {
        self.tables
            .iter()
            .map(|(&t, rows)| {
                let mut h = Fnv::default();
                h.word(rows.at.len() as u64);
                for (&k, &(start, end)) in &rows.at {
                    h.word(k);
                    h.bytes(&rows.arena[start..end]);
                }
                (t, h.0)
            })
            .collect()
    }
}

impl Session for ApplyDb {
    fn name(&self) -> &'static str {
        "recover-apply"
    }
    fn core(&self) -> usize {
        0
    }
    fn begin(&mut self) {
        assert!(!self.in_txn, "ApplyDb: nested begin");
        self.in_txn = true;
    }
    fn commit(&mut self) -> oltp::OltpResult<()> {
        assert!(self.in_txn, "ApplyDb: commit outside txn");
        self.in_txn = false;
        Ok(())
    }
    fn abort(&mut self) {
        self.in_txn = false;
    }
    fn insert(&mut self, t: TableId, key: u64, row: &[Value]) -> oltp::OltpResult<()> {
        let Rows { arena, at } = self.tables.entry(t.0).or_default();
        match at.entry(key) {
            Entry::Occupied(_) => Err(OltpError::DuplicateKey { table: t, key }),
            Entry::Vacant(slot) => {
                slot.insert(append(arena, row));
                Ok(())
            }
        }
    }
    fn read_with(
        &mut self,
        t: TableId,
        key: u64,
        f: &mut dyn FnMut(&[Value]),
    ) -> oltp::OltpResult<bool> {
        Ok(self.value(t.0, key).map(|row| f(&row)).is_some())
    }
    fn update(
        &mut self,
        t: TableId,
        key: u64,
        f: &mut dyn FnMut(&mut oltp::Row),
    ) -> oltp::OltpResult<bool> {
        let Some(Rows { arena, at }) = self.tables.get_mut(&t.0) else {
            return Ok(false);
        };
        let Some(range) = at.get_mut(&key) else {
            return Ok(false);
        };
        let mut row = row_at(arena, *range);
        f(&mut row);
        *range = append(arena, &row);
        Ok(true)
    }
    fn scan(
        &mut self,
        t: TableId,
        lo: u64,
        hi: u64,
        f: &mut dyn FnMut(u64, &[Value]) -> bool,
    ) -> oltp::OltpResult<u64> {
        let mut n = 0;
        if let Some(rows) = self.tables.get(&t.0) {
            for (&k, &at) in rows.at.range(lo..=hi) {
                n += 1;
                if !f(k, &row_at(&rows.arena, at)) {
                    break;
                }
            }
        }
        Ok(n)
    }
    fn delete(&mut self, t: TableId, key: u64) -> oltp::OltpResult<bool> {
        Ok(self
            .tables
            .get_mut(&t.0)
            .is_some_and(|rows| rows.at.remove(&key).is_some()))
    }
    fn insert_image(&mut self, t: TableId, key: u64, image: &[u8]) -> oltp::OltpResult<()> {
        check_image(image)?;
        let Rows { arena, at } = self.tables.entry(t.0).or_default();
        match at.entry(key) {
            Entry::Occupied(_) => Err(OltpError::DuplicateKey { table: t, key }),
            Entry::Vacant(slot) => {
                slot.insert(keep(arena, image));
                Ok(())
            }
        }
    }
    fn update_image(&mut self, t: TableId, key: u64, image: &[u8]) -> oltp::OltpResult<bool> {
        check_image(image)?;
        let Some(Rows { arena, at }) = self.tables.get_mut(&t.0) else {
            return Ok(false);
        };
        let Some(range) = at.get_mut(&key) else {
            return Ok(false);
        };
        *range = keep(arena, image);
        Ok(true)
    }
    fn upsert_image(&mut self, t: TableId, key: u64, image: &[u8]) -> oltp::OltpResult<()> {
        check_image(image)?;
        let Rows { arena, at } = self.tables.entry(t.0).or_default();
        at.insert(key, keep(arena, image));
        Ok(())
    }
}

/// Per-worker harness state (a `RefCell` slot — only the owning worker
/// borrows it until the post-crash harvest).
struct RecoverWorker {
    worker: usize,
    /// Dropped (`None`) at the harvest, with the engine.
    session: Option<Box<dyn Session>>,
    keys: Vec<u64>,
    scratch: Vec<u64>,
    /// Engine-committed increments per oracle key.
    committed: Vec<u64>,
    /// Commit-time log horizons per oracle key (confirmed at the crash
    /// iff at or below the stream's flushed LSN).
    horizons: Vec<Vec<Lsn>>,
    /// Commit-stage errors per oracle key (effects cannot survive
    /// recovery, but they widen no bound: the engine logged an Abort).
    commit_errors: u64,
    txn_no: u64,
    /// Fuzzy capture state.
    cp: Option<Checkpointer>,
    cp_begin: Lsn,
    cp_started: bool,
    cp_image: Option<storage::checkpoint::TableImage>,
    cp_end: Option<Lsn>,
}

/// Crash coordinates, captured once by the first worker to observe the
/// kill (lockstep: no records are appended in or after the kill slot).
struct CrashInfo {
    slot: u64,
    status: Vec<engines::LogStatus>,
}

/// Which log stream a worker's transactions land on.
fn stream_of(system: SystemKind, worker: usize) -> usize {
    if system.partitioned() {
        worker
    } else {
        0
    }
}

/// What of one stream survives a crash: the records at or below its
/// flushed horizon. LSNs strictly increase along a stream
/// ([`storage::wal::Wal::records`]), so that is a prefix.
fn durable_prefix(recs: &[LogRecord], flushed: Lsn) -> &[LogRecord] {
    debug_assert!(recs.windows(2).all(|w| w[0].lsn < w[1].lsn));
    &recs[..recs.partition_point(|r| r.lsn <= flushed)]
}

/// Run one crash-recovery point end to end: durable run, deterministic
/// kill, double recovery, reference re-execution, oracle verification.
pub fn run(cfg: &RecoverCfg) -> RecoverReport {
    let workers = cfg.workers.max(1);
    let window = cfg.effective_window();
    let schedule = {
        let slots = window.warmup + window.measured;
        ScheduleInfo {
            slots,
            kill_at: cfg.kill_at.unwrap_or(slots * 3 / 5),
            ckpt_start: cfg.ckpt_start.unwrap_or(slots / 4),
        }
    };
    let plan = cfg
        .plan_override
        .clone()
        .unwrap_or_else(|| FaultPlan::uniform(cfg.seed, 0.0).site_at(KILL_SITE, schedule.kill_at));

    // Claim the process-global injector before loading (a concurrent
    // chaos/recover test must not see this plan early).
    let quiesced = faults::quiesce();

    let durability = DurabilityCfg { epoch: cfg.epoch };
    let mut w = cfg.workload.build();
    let mut tables = None;
    let (sim, mut db) = SystemBuilder::new(cfg.system)
        .cores(workers)
        .partitions(workers)
        .load(MachineConfig::ivy_bridge(workers), |db| {
            // Durable mode from the first record: the load itself is
            // logged, so recovery replays into a completely empty target.
            db.enable_durability(&durability);
            let counters = Counters::create(db, "recover_counters", workers, KEYS_PER_WORKER, 0);
            let scratch = Counters::create(db, "recover_scratch", workers, SCRATCH_KEYS, 1);
            for worker in 0..workers {
                let mut s = db.session(worker);
                counters.load(s.as_mut(), worker);
                scratch.load(s.as_mut(), worker);
            }
            tables = Some((counters, scratch));
            w.setup(db, workers);
        });
    let (counters, scratch) = tables.expect("the loader ran");
    let (ctable, stable) = (counters.table, scratch.table);
    // The load must survive any crash: force it durable. Then re-arm
    // durable mode: retention is untouched (the load's records stay on
    // the streams), but the log device is re-attached with an empty
    // queue — the offline bulk load pushed its whole volume through the
    // device while the cycle clock stood still, and the accumulated
    // queue backlog would otherwise dominate every measured commit
    // latency. Load-time latency samples are discarded with it (they
    // are not client-visible commits).
    db.flush_all();
    db.enable_durability(&durability);
    let _ = db.take_commit_latencies();

    // Sessions open under the armed plan.
    let installed = quiesced.install(plan.clone());

    let engine: &'static str = db.name();
    let system = cfg.system;
    let slots: Vec<RefCell<RecoverWorker>> = (0..workers)
        .map(|worker| {
            RefCell::new(RecoverWorker {
                worker,
                session: Some(db.session(worker)),
                keys: counters.keys(worker),
                scratch: scratch.keys(worker),
                committed: vec![0; KEYS_PER_WORKER as usize],
                horizons: vec![Vec::new(); KEYS_PER_WORKER as usize],
                commit_errors: 0,
                txn_no: 0,
                cp: None,
                cp_begin: Lsn(0),
                cp_started: false,
                cp_image: None,
                cp_end: None,
            })
        })
        .collect();

    let crash: RefCell<Option<CrashInfo>> = RefCell::new(None);

    let cores: Vec<usize> = (0..workers).collect();
    let wl = RefCell::new(w);
    let measurement = {
        let db = &*db;
        let wl = &wl;
        let slots = &slots;
        let crash = &crash;
        let (counters, scratch) = (&counters, &scratch);
        measure_workers(&sim, &cores, window, Pacing::Lockstep, |worker| {
            move |_| {
                if crash.borrow().is_some() {
                    return; // power is off: idle out the window
                }
                let slot = &mut *slots[worker].borrow_mut();
                let n = slot.txn_no;
                slot.txn_no += 1;
                if faults::fire(KILL_SITE, worker) {
                    // Lockstep: the plan fires at this ordinal before any
                    // work this slot, so the crash lands exactly at the
                    // slot boundary. The first worker to see it records
                    // the durable coordinates; the rest idle from here.
                    *crash.borrow_mut() = Some(CrashInfo {
                        slot: n,
                        status: db.log_status(),
                    });
                    return;
                }

                let stream = stream_of(system, worker);
                let s = slot.session.as_mut().expect("session open").as_mut();
                if n % 8 == 3 {
                    // Deliberately aborted increment: its effect must
                    // never survive recovery.
                    let _t = obs::span(engine, Phase::Txn, worker);
                    let key = slot.scratch[(n / 8 % SCRATCH_KEYS) as usize];
                    s.begin();
                    let _ = scratch.bump(s, key);
                    s.abort();
                } else if n.is_multiple_of(2) {
                    // Verified oracle increment.
                    let _t = obs::span(engine, Phase::Txn, worker);
                    let ki = (n / 2 % KEYS_PER_WORKER) as usize;
                    let key = slot.keys[ki];
                    s.begin();
                    match counters.bump(s, key) {
                        Ok(found) => {
                            debug_assert!(found, "oracle key {key} vanished");
                            match s.commit() {
                                Ok(()) => {
                                    slot.committed[ki] += 1;
                                    // Over-approximates the commit LSN on
                                    // shared streams: conservative (an
                                    // increment may count as unconfirmed)
                                    // but never unsound.
                                    slot.horizons[ki].push(db.log_status()[stream].horizon);
                                }
                                Err(_) => {
                                    s.abort();
                                    slot.commit_errors += 1;
                                }
                            }
                        }
                        Err(_) => s.abort(),
                    }
                } else {
                    // Realistic traffic; a 2PL conflict aborts and moves
                    // on (the durability oracle only tracks oracle rows).
                    let _t = obs::span(engine, Phase::Txn, worker);
                    let r = wl.borrow_mut().exec(s, worker);
                    if r.is_err() {
                        s.abort();
                    }
                }

                // Fuzzy checkpoint capture rides along after the slot's
                // transaction: chunked read-only copies of this worker's
                // own oracle rows, no quiescing.
                if n >= schedule.ckpt_start && slot.cp_image.is_none() {
                    let _t = obs::span(engine, Phase::Checkpoint, worker);
                    if !slot.cp_started {
                        slot.cp_started = true;
                        slot.cp_begin = db.log_status()[stream].horizon;
                        slot.cp = Some(Checkpointer::new(ctable, slot.keys.clone()));
                    }
                    if let Some(cp) = slot.cp.as_mut() {
                        // Transient capture errors (a locked row) retry
                        // on the next slot; progress is kept.
                        let _ = cp.step(s, CKPT_CHUNK);
                        if cp.done() {
                            let cp = slot.cp.take().expect("checkpointer present");
                            slot.cp_image = Some(cp.into_image());
                            slot.cp_end = Some(db.log_status()[stream].horizon);
                        }
                    }
                }
            }
        })
    };

    let fired = installed.fired_count();
    drop(installed); // disarm before harvesting
    let crash_info = crash.into_inner();
    let crashed = crash_info.is_some();
    let status = match crash_info {
        Some(c) => {
            debug_assert_eq!(c.slot, schedule.kill_at);
            debug_assert!(fired >= 1);
            c.status
        }
        None => {
            // Ran to completion: drain every stream so the whole run is
            // durable (the no-crash baseline of the epoch sweep).
            db.flush_all();
            db.log_status()
        }
    };

    // Harvest: the streams, the latency samples, merged checkpoints. The
    // streams are taken, not copied: the engine has nothing more to say
    // and goes — its last handle is the last worker's session, dropped
    // below — before the three passes build their targets.
    let streams = db.take_log_streams();
    let mut commit_latencies = db.take_commit_latencies();
    commit_latencies.sort_by(f64::total_cmp);
    drop(db);
    let durable: Vec<&[LogRecord]> = streams
        .iter()
        .zip(&status)
        .map(|(recs, st)| durable_prefix(recs, st.flushed))
        .collect();
    let mut ckpts: Vec<Option<Checkpoint>> = (0..streams.len()).map(|_| None).collect();
    let mut capture_done: Vec<bool> = vec![true; streams.len()];
    for slot in &slots {
        let mut slot = slot.borrow_mut();
        slot.session = None;
        let stream = stream_of(system, slot.worker);
        if !slot.cp_started {
            capture_done[stream] = false;
            continue;
        }
        let done = slot.cp_image.is_some();
        capture_done[stream] &= done;
        let part = Checkpoint {
            begin_lsn: slot.cp_begin,
            end_lsn: slot.cp_end.unwrap_or(slot.cp_begin),
            complete: false, // decided stream-wide below
            tables: match slot.cp_image.take() {
                Some(img) => vec![img],
                // Mid-capture rows still inside the Checkpointer are
                // discarded: the stream image is incomplete anyway.
                None => Vec::new(),
            },
        };
        match &mut ckpts[stream] {
            Some(c) => c.absorb(part),
            c @ None => *c = Some(part),
        }
    }
    let mut ckpt_outcomes = Vec::with_capacity(streams.len());
    for (i, c) in ckpts.iter_mut().enumerate() {
        let outcome = match c {
            Some(ck) => {
                // Complete iff every contributing capture finished AND its
                // end horizon is durable: any row state the image saw has
                // its originating record on the durable prefix, so undo
                // can always compensate.
                ck.complete = capture_done[i] && ck.end_lsn <= status[i].flushed;
                CkptOutcome {
                    complete: ck.complete,
                    image_rows: ck.rows(),
                }
            }
            None => CkptOutcome::default(),
        };
        ckpt_outcomes.push(outcome);
    }

    // Recovery (twice — bit-identical or bust) and the strict reference.
    let recover_once = || -> (ApplyDb, RecoveryStats) {
        let _t = obs::span(engine, Phase::Recovery, 0);
        let mut target = ApplyDb::new();
        let mut stats = RecoveryStats::default();
        for (i, recs) in durable.iter().enumerate() {
            let s = recover(ckpts[i].as_ref(), recs, &mut target).expect("recovery replay failed");
            stats.winners += s.winners;
            stats.aborted += s.aborted;
            stats.unfinished += s.unfinished;
            stats.image_rows += s.image_rows;
            stats.redo_applied += s.redo_applied;
            stats.redo_skipped += s.redo_skipped;
            stats.undo_applied += s.undo_applied;
            stats.undo_skipped += s.undo_skipped;
        }
        (target, stats)
    };
    let (rec_db, rec_stats) = recover_once();
    let (rec_db2, _) = recover_once();
    let second_match = rec_db.same_rows(&rec_db2);
    drop(rec_db2);

    let mut ref_db = ApplyDb::new();
    let mut ref_stats = ReplayStats::default();
    for recs in &durable {
        let s = replay(recs, &mut ref_db).expect("reference replay failed");
        ref_stats.txns += s.txns;
        ref_stats.losers += s.losers;
        ref_stats.applied += s.applied;
    }
    let digests_match = rec_db.same_rows(&ref_db);
    drop(ref_db);
    let digests = rec_db.digests();

    // Oracle verification against the recovered state.
    let mut confirmed = 0u64;
    let mut committed = 0u64;
    let mut lost = 0u64;
    let mut phantom = 0u64;
    let mut aborted_effects = 0u64;
    // A lost row counts as zero increments.
    let hits = |t: TableId, key| rec_db.value(t.0, key).map_or(0, |row| Counters::hits(&row));
    for slot in &slots {
        let slot = slot.borrow();
        let f = status[stream_of(system, slot.worker)].flushed;
        for ki in 0..KEYS_PER_WORKER as usize {
            let acked = slot.horizons[ki].iter().filter(|&&h| h <= f).count() as u64;
            let actual = hits(ctable, slot.keys[ki]);
            confirmed += acked;
            committed += slot.committed[ki];
            lost += acked.saturating_sub(actual);
            phantom += actual.saturating_sub(slot.committed[ki]);
        }
        for &key in &slot.scratch {
            aborted_effects += hits(stable, key);
        }
    }

    let mut report = RecoverReport {
        schedule,
        crashed,
        confirmed,
        committed,
        lost_updates: lost,
        phantom_updates: phantom,
        aborted_effects,
        checkpoints: ckpt_outcomes,
        recovery: rec_stats,
        reference: ref_stats,
        digests,
        digests_match,
        second_match,
        commit_latencies,
        measurement,
        manifest: Json::Null,
    };
    report.manifest = manifest_json(cfg, &plan, window, &report);
    report
}

fn manifest_json(
    cfg: &RecoverCfg,
    plan: &FaultPlan,
    window: WindowSpec,
    r: &RecoverReport,
) -> Json {
    Json::obj(vec![
        ("kind", Json::str("recover-manifest")),
        ("system", Json::str(cfg.system.label())),
        ("system_cli", Json::str(system_cli(cfg.system))),
        ("workload", Json::str(&cfg.workload_name)),
        ("workers", Json::u64(cfg.workers as u64)),
        ("epoch", Json::u64(u64::from(cfg.epoch))),
        ("kill_at", Json::u64(r.schedule.kill_at)),
        ("ckpt_start", Json::u64(r.schedule.ckpt_start)),
        (
            "window",
            Json::obj(vec![
                ("warmup", Json::u64(window.warmup)),
                ("measured", Json::u64(window.measured)),
                ("reps", Json::u64(u64::from(window.reps))),
            ]),
        ),
        ("plan", plan.to_json()),
        (
            "outcomes",
            Json::obj(vec![
                ("crashed", Json::Bool(r.crashed)),
                ("confirmed", Json::u64(r.confirmed)),
                ("committed", Json::u64(r.committed)),
                ("lost_updates", Json::u64(r.lost_updates)),
                ("phantom_updates", Json::u64(r.phantom_updates)),
                ("aborted_effects", Json::u64(r.aborted_effects)),
                ("winners", Json::u64(r.recovery.winners)),
                ("unfinished", Json::u64(r.recovery.unfinished)),
                ("aborted", Json::u64(r.recovery.aborted)),
                ("image_rows", Json::u64(r.recovery.image_rows)),
                ("redo_applied", Json::u64(r.recovery.redo_applied)),
                ("redo_skipped", Json::u64(r.recovery.redo_skipped)),
                ("undo_applied", Json::u64(r.recovery.undo_applied)),
                ("undo_skipped", Json::u64(r.recovery.undo_skipped)),
            ]),
        ),
        (
            "checkpoints",
            Json::Arr(
                r.checkpoints
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("complete", Json::Bool(c.complete)),
                            ("image_rows", Json::u64(c.image_rows)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "digests",
            Json::Arr(
                r.digests
                    .iter()
                    .map(|(t, d)| {
                        Json::obj(vec![
                            ("table", Json::u64(u64::from(*t))),
                            ("digest", Json::str(&format!("{d:#018x}"))),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("commit_p50_cycles", Json::Num(r.latency_quantile(0.5))),
        ("commit_p99_cycles", Json::Num(r.latency_quantile(0.99))),
        ("commit_samples", Json::u64(r.commit_latencies.len() as u64)),
        ("tps", Json::Num(r.measurement.tps)),
        ("txns", Json::u64(r.measurement.txns)),
    ])
}

/// Human-readable summary of one run.
pub fn render_run(report: &RecoverReport, cfg: &RecoverCfg) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "recover: {} / {} / {} worker(s), epoch {}, kill slot {} of {}",
        cfg.system.label(),
        cfg.workload_name,
        cfg.workers,
        cfg.epoch,
        report.schedule.kill_at,
        report.schedule.slots
    );
    let _ = writeln!(
        out,
        "  crashed {}  confirmed {}  committed {}  winners {}  unfinished {}  aborted {}",
        report.crashed,
        report.confirmed,
        report.committed,
        report.recovery.winners,
        report.recovery.unfinished,
        report.recovery.aborted
    );
    for (i, c) in report.checkpoints.iter().enumerate() {
        let _ = writeln!(
            out,
            "  checkpoint[{i}]: complete {}  image_rows {}",
            c.complete, c.image_rows
        );
    }
    let _ = writeln!(
        out,
        "  redo {} (skipped {})  undo {} (skipped {})  image rows {}",
        report.recovery.redo_applied,
        report.recovery.redo_skipped,
        report.recovery.undo_applied,
        report.recovery.undo_skipped,
        report.recovery.image_rows
    );
    let _ = writeln!(
        out,
        "  commit latency p50/p99 {:.0}/{:.0} cycles over {} samples",
        report.latency_quantile(0.5),
        report.latency_quantile(0.99),
        report.commit_latencies.len()
    );
    for (t, d) in &report.digests {
        let _ = writeln!(out, "  table {t} digest {d:#018x}");
    }
    let _ = writeln!(
        out,
        "  lost {}  phantom {}  aborted effects {}  digests match {}  re-recovery identical {}",
        report.lost_updates,
        report.phantom_updates,
        report.aborted_effects,
        report.digests_match,
        report.second_match
    );
    out
}

/// Write the manifest under `dir`; returns its path.
pub fn write_manifest(report: &RecoverReport, cfg: &RecoverCfg, dir: &Path) -> std::path::PathBuf {
    fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!(
        "recover_{}_{}.json",
        slug(cfg.system.label()),
        slug(&cfg.workload_name)
    ));
    fs::write(&path, report.manifest.render()).expect("write recover manifest");
    path
}

/// One row of the recover sweep CSV.
pub struct RecoverRow {
    /// Engine label.
    pub system: String,
    /// Workload CLI name.
    pub workload: String,
    /// Group-commit epoch.
    pub epoch: u32,
    /// Kill-point name (`early`/`mid`/`late`).
    pub kill: &'static str,
    /// The run's report.
    pub report: RecoverReport,
}

/// The nightly sweep: engines x kill points x group-commit epochs. The
/// `early` kill lands one slot after checkpoint capture starts (the
/// prefix-consistency stress), `mid` at 60%, `late` at 90% of the window.
/// Cells run one after another, not through [`crate::grid::fan_out`]: the
/// fault injector that delivers the kill is process-global.
pub fn sweep(smoke: bool) -> Vec<RecoverRow> {
    let systems: &[SystemKind] = if smoke {
        &[SystemKind::ShoreMt, SystemKind::HyPer]
    } else {
        &[
            SystemKind::ShoreMt,
            SystemKind::DbmsD,
            SystemKind::VoltDb,
            SystemKind::HyPer,
            SystemKind::DbmsM {
                index: engines::DbmsMIndex::Hash,
                compiled: true,
            },
        ]
    };
    let epochs: &[u32] = if smoke { &[8] } else { &[4, 32] };
    let kills: &[&'static str] = if smoke {
        &["early"]
    } else {
        &["early", "mid", "late"]
    };
    let window = if smoke {
        WindowSpec {
            warmup: 30,
            measured: 90,
            reps: 1,
        }
    } else {
        WindowSpec {
            warmup: 60,
            measured: 240,
            reps: 1,
        }
    };
    let slots = window.warmup + window.measured;
    let workload = WorkloadCfg::Micro {
        size: workloads::DbSize::Mb1,
        rows_per_txn: 1,
        read_only: false,
        strings: false,
    };
    let mut rows = Vec::new();
    for &system in systems {
        for &epoch in epochs {
            for &kill in kills {
                let mut cfg = RecoverCfg::new(system, workload.clone(), "micro-rw");
                cfg.epoch = epoch;
                cfg.window = Some(window);
                cfg.ckpt_start = Some(slots / 4);
                cfg.kill_at = Some(match kill {
                    "early" => slots / 4 + 1,
                    "mid" => slots * 3 / 5,
                    _ => slots * 9 / 10,
                });
                let report = run(&cfg);
                rows.push(RecoverRow {
                    system: system.label().to_string(),
                    workload: "micro-rw".to_string(),
                    epoch,
                    kill,
                    report,
                });
            }
        }
    }
    rows
}

/// Render sweep rows as CSV.
pub fn to_csv(rows: &[RecoverRow]) -> String {
    let mut out = String::from(
        "system,workload,epoch,kill,kill_at,slots,confirmed,committed,lost,phantom,\
         aborted_effects,ckpt_complete,image_rows,winners,unfinished,redo_applied,\
         undo_applied,commit_p50_cycles,commit_p99_cycles,consistent\n",
    );
    for r in rows {
        let rep = &r.report;
        let complete = rep.checkpoints.iter().filter(|c| c.complete).count();
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{}/{},{},{},{},{},{},{:.0},{:.0},{}\n",
            r.system,
            r.workload,
            r.epoch,
            r.kill,
            rep.schedule.kill_at,
            rep.schedule.slots,
            rep.confirmed,
            rep.committed,
            rep.lost_updates,
            rep.phantom_updates,
            rep.aborted_effects,
            complete,
            rep.checkpoints.len(),
            rep.recovery.image_rows,
            rep.recovery.winners,
            rep.recovery.unfinished,
            rep.recovery.redo_applied,
            rep.recovery.undo_applied,
            rep.latency_quantile(0.5),
            rep.latency_quantile(0.99),
            rep.consistent(),
        ));
    }
    out
}

/// Human-readable sweep summary.
pub fn render(rows: &[RecoverRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>5} {:>5} {:>9} {:>6} {:>8} {:>10} {:>10} {:>6}\n",
        "system", "epoch", "kill", "confirmed", "lost", "phantom", "p50(cyc)", "p99(cyc)", "ok"
    ));
    for r in rows {
        let rep = &r.report;
        out.push_str(&format!(
            "{:<22} {:>5} {:>5} {:>9} {:>6} {:>8} {:>10.0} {:>10.0} {:>6}\n",
            r.system,
            r.epoch,
            r.kill,
            rep.confirmed,
            rep.lost_updates,
            rep.phantom_updates + rep.aborted_effects,
            rep.latency_quantile(0.5),
            rep.latency_quantile(0.99),
            if rep.consistent() { "PASS" } else { "FAIL" }
        ));
    }
    out
}

/// CI gate over a sweep: every cell must hold every durability invariant.
pub fn smoke_check(rows: &[RecoverRow]) -> Result<(), String> {
    for r in rows {
        let rep = &r.report;
        if !rep.consistent() {
            return Err(format!(
                "{} epoch {} kill {}: lost {} phantom {} aborted_effects {} \
                 digests_match {} second_match {}",
                r.system,
                r.epoch,
                r.kill,
                rep.lost_updates,
                rep.phantom_updates,
                rep.aborted_effects,
                rep.digests_match,
                rep.second_match
            ));
        }
        if rep.confirmed == 0 && rep.schedule.kill_at > rep.schedule.slots / 10 {
            return Err(format!(
                "{} epoch {} kill {}: no confirmed commits — the oracle never engaged",
                r.system, r.epoch, r.kill
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(system: SystemKind, kill_at: Option<u64>) -> RecoverReport {
        let mut cfg = RecoverCfg::new(
            system,
            WorkloadCfg::Micro {
                size: workloads::DbSize::Mb1,
                rows_per_txn: 1,
                read_only: false,
                strings: false,
            },
            "micro-rw",
        );
        cfg.window = Some(WindowSpec {
            warmup: 20,
            measured: 60,
            reps: 1,
        });
        cfg.kill_at = kill_at;
        run(&cfg)
    }

    #[test]
    fn durable_prefix_is_what_filtering_by_the_flushed_lsn_kept() {
        // A killed run's streams: commits past the last group flush sit
        // above the flushed horizon on the shared log and on both
        // partition logs.
        for system in [SystemKind::ShoreMt, SystemKind::HyPer] {
            let (_sim, db) = SystemBuilder::new(system).cores(2).partitions(2).load(
                MachineConfig::ivy_bridge(2),
                |db| {
                    db.enable_durability(&DurabilityCfg { epoch: 8 });
                    let t = Counters::create(db, "t", 2, 21, 0);
                    for worker in 0..2 {
                        t.load(db.session(worker).as_mut(), worker);
                    }
                },
            );
            let (streams, status) = (db.log_streams(), db.log_status());
            assert_eq!(streams.len(), if system.partitioned() { 2 } else { 1 });
            for (recs, st) in streams.iter().zip(&status) {
                let kept: Vec<&LogRecord> = recs.iter().filter(|r| r.lsn <= st.flushed).collect();
                assert!(!kept.is_empty() && kept.len() < recs.len());
                assert!(durable_prefix(recs, st.flushed).iter().eq(kept));
            }
        }
    }

    #[test]
    fn crashed_run_recovers_consistently() {
        let r = tiny(SystemKind::ShoreMt, None);
        assert!(r.crashed, "the one-shot kill must fire");
        assert!(r.confirmed > 0, "group commit confirmed nothing");
        assert!(
            r.consistent(),
            "lost {} phantom {} aborted {} digests {} second {}",
            r.lost_updates,
            r.phantom_updates,
            r.aborted_effects,
            r.digests_match,
            r.second_match
        );
    }

    #[test]
    fn uncrashed_run_is_fully_durable() {
        let r = tiny(SystemKind::HyPer, Some(u64::MAX));
        assert!(!r.crashed);
        // Post-run flush makes everything durable: confirmed == committed.
        assert_eq!(r.confirmed, r.committed);
        assert!(r.consistent());
        assert!(
            !r.commit_latencies.is_empty(),
            "the log device produced no latency samples"
        );
    }

    /// The target [`ApplyDb`] replaced, kept as the reference the flat one
    /// is checked against: one `Vec<Value>` per row.
    #[derive(Default)]
    struct Reference {
        tables: BTreeMap<u32, BTreeMap<u64, Vec<Value>>>,
        in_txn: bool,
    }

    impl Reference {
        fn digests(&self) -> Vec<(u32, u64)> {
            let mut encoded = tuple::BytesMut::new();
            self.tables
                .iter()
                .map(|(&t, rows)| {
                    let mut h = Fnv::default();
                    h.word(rows.len() as u64);
                    for (&k, row) in rows {
                        h.word(k);
                        encoded.clear();
                        tuple::encode_into(row, &mut encoded);
                        h.bytes(&encoded);
                    }
                    (t, h.0)
                })
                .collect()
        }
    }

    impl Session for Reference {
        fn name(&self) -> &'static str {
            "recover-reference"
        }
        fn core(&self) -> usize {
            0
        }
        fn begin(&mut self) {
            assert!(!self.in_txn, "Reference: nested begin");
            self.in_txn = true;
        }
        fn commit(&mut self) -> oltp::OltpResult<()> {
            assert!(self.in_txn, "Reference: commit outside txn");
            self.in_txn = false;
            Ok(())
        }
        fn abort(&mut self) {
            self.in_txn = false;
        }
        fn insert(&mut self, t: TableId, key: u64, row: &[Value]) -> oltp::OltpResult<()> {
            match self.tables.entry(t.0).or_default().entry(key) {
                Entry::Occupied(_) => Err(OltpError::DuplicateKey { table: t, key }),
                Entry::Vacant(slot) => {
                    slot.insert(row.to_vec());
                    Ok(())
                }
            }
        }
        fn read_with(
            &mut self,
            t: TableId,
            key: u64,
            f: &mut dyn FnMut(&[Value]),
        ) -> oltp::OltpResult<bool> {
            let row = self.tables.get(&t.0).and_then(|rows| rows.get(&key));
            Ok(row.map(|r| f(r)).is_some())
        }
        fn update(
            &mut self,
            t: TableId,
            key: u64,
            f: &mut dyn FnMut(&mut oltp::Row),
        ) -> oltp::OltpResult<bool> {
            let row = self
                .tables
                .get_mut(&t.0)
                .and_then(|rows| rows.get_mut(&key));
            Ok(row.map(f).is_some())
        }
        fn scan(
            &mut self,
            t: TableId,
            lo: u64,
            hi: u64,
            f: &mut dyn FnMut(u64, &[Value]) -> bool,
        ) -> oltp::OltpResult<u64> {
            let mut n = 0;
            if let Some(rows) = self.tables.get(&t.0) {
                for (&k, r) in rows.range(lo..=hi) {
                    n += 1;
                    if !f(k, r) {
                        break;
                    }
                }
            }
            Ok(n)
        }
        fn delete(&mut self, t: TableId, key: u64) -> oltp::OltpResult<bool> {
            Ok(self
                .tables
                .get_mut(&t.0)
                .is_some_and(|rows| rows.remove(&key).is_some()))
        }
    }

    const ENGINES: [SystemKind; 5] = [
        SystemKind::ShoreMt,
        SystemKind::DbmsD,
        SystemKind::VoltDb,
        SystemKind::HyPer,
        SystemKind::DbmsM {
            index: engines::DbmsMIndex::Hash,
            compiled: true,
        },
    ];

    /// Committed oracle increments and workload transactions, `rounds` per
    /// worker, with every third increment aborted.
    fn traffic(
        c: &Counters,
        w: &mut dyn workloads::Workload,
        sessions: &mut [Box<dyn Session>],
        rounds: u64,
    ) {
        for n in 0..rounds {
            for s in sessions.iter_mut() {
                let (worker, s) = (s.core(), s.as_mut());
                s.begin();
                let key = c.keys(worker)[(n % KEYS_PER_WORKER) as usize];
                if c.bump(s, key).is_err() || n % 3 == 2 || s.commit().is_err() {
                    s.abort();
                }
                if w.exec(s, worker).is_err() {
                    s.abort();
                }
            }
        }
    }

    /// A small durable run on `system`, killed with one oracle increment in
    /// flight: every stream's durable prefix, and per stream a complete
    /// checkpoint of its workers' oracle rows taken halfway.
    fn killed_run(system: SystemKind) -> (Vec<Vec<LogRecord>>, Vec<Checkpoint>) {
        let mut w = WorkloadCfg::Micro {
            size: workloads::DbSize::Mb1,
            rows_per_txn: 2,
            read_only: false,
            strings: false,
        }
        .build();
        let mut counters = None;
        let (_sim, mut db) = SystemBuilder::new(system).cores(2).partitions(2).load(
            MachineConfig::ivy_bridge(2),
            |db| {
                db.enable_durability(&DurabilityCfg { epoch: 4 });
                let c = Counters::create(db, "counters", 2, KEYS_PER_WORKER, 0);
                for worker in 0..2 {
                    c.load(db.session(worker).as_mut(), worker);
                }
                w.setup(db, 2);
                counters = Some(c);
            },
        );
        let c = counters.expect("the loader ran");
        db.flush_all();
        let mut sessions: Vec<Box<dyn Session>> = (0..2).map(|worker| db.session(worker)).collect();
        traffic(&c, w.as_mut(), &mut sessions, 12);

        let streams = db.log_status().len();
        let mut ckpts: Vec<Checkpoint> = Vec::new();
        for (worker, s) in sessions.iter_mut().enumerate() {
            let stream = stream_of(system, worker);
            let begin_lsn = db.log_status()[stream].horizon;
            let mut cp = Checkpointer::new(c.table, c.keys(worker));
            while !cp.done() {
                cp.step(s.as_mut(), CKPT_CHUNK)
                    .expect("an idle engine lets a capture read");
            }
            let part = Checkpoint {
                begin_lsn,
                end_lsn: db.log_status()[stream].horizon,
                complete: true,
                tables: vec![cp.into_image()],
            };
            match ckpts.get_mut(stream) {
                Some(ck) => ck.absorb(part),
                None => ckpts.push(part),
            }
        }
        assert_eq!(ckpts.len(), streams);
        db.flush_all();
        traffic(&c, w.as_mut(), &mut sessions, 12);

        // In flight at the kill: worker 0's increment; worker 1's commits
        // after it close a group, which takes its records along on a
        // shared stream.
        let s = sessions[0].as_mut();
        s.begin();
        c.bump(s, c.keys(0)[1]).expect("an uncontended increment");
        traffic(&c, w.as_mut(), &mut sessions[1..], 6);

        let status = db.log_status();
        let logs = db.take_log_streams();
        let durable = logs.iter().zip(&status);
        let durable = durable.map(|(recs, st)| durable_prefix(recs, st.flushed).to_vec());
        (durable.collect(), ckpts)
    }

    fn assert_same(flat: &ApplyDb, reference: &Reference, what: &str) {
        assert_eq!(flat.digests(), reference.digests(), "{what}: digests");
        assert_eq!(flat.tables.len(), reference.tables.len(), "{what}: tables");
        for (&t, rows) in &reference.tables {
            assert_eq!(
                flat.tables[&t].at.len(),
                rows.len(),
                "{what}: table {t} rows"
            );
            for (&k, row) in rows {
                assert_eq!(
                    flat.value(t, k).as_ref(),
                    Some(row),
                    "{what}: table {t} key {k}"
                );
            }
        }
    }

    #[test]
    fn the_flat_target_recovers_and_replays_as_the_reference_does() {
        let mut seen = RecoveryStats::default();
        for system in ENGINES {
            let (logs, ckpts) = killed_run(system);
            // No checkpoint, a crashed (incomplete) one, a complete one.
            for complete in [None, Some(false), Some(true)] {
                let what = format!("{} recover, checkpoint {complete:?}", system.label());
                let (mut flat, mut reference) = (ApplyDb::new(), Reference::default());
                for (recs, ck) in logs.iter().zip(&ckpts) {
                    let ck = complete.map(|complete| Checkpoint {
                        complete,
                        ..ck.clone()
                    });
                    let got = recover(ck.as_ref(), recs, &mut flat).expect("flat recovery");
                    let want =
                        recover(ck.as_ref(), recs, &mut reference).expect("reference recovery");
                    assert_eq!(got, want, "{what}: stats");
                    seen.image_rows += got.image_rows;
                    seen.unfinished += got.unfinished;
                    seen.undo_applied += got.undo_applied;
                }
                assert_same(&flat, &reference, &what);
            }
            let (mut flat, mut reference) = (ApplyDb::new(), Reference::default());
            for recs in &logs {
                let got = replay(recs, &mut flat).expect("flat replay");
                let want = replay(recs, &mut reference).expect("reference replay");
                assert_eq!(got, want, "{}: replay stats", system.label());
            }
            assert_same(&flat, &reference, &format!("{} replay", system.label()));
        }
        // The runs reached the image load and the undo pass.
        assert!(seen.image_rows > 0 && seen.unfinished > 0 && seen.undo_applied > 0);
    }

    /// The [`Session`] contract both targets keep; `t` holds nothing yet.
    fn session_contract(s: &mut dyn Session, t: TableId) {
        let row = |v: i64| vec![Value::Long(v), Value::from("row")];
        let missing = TableId(t.0 + 1);
        s.begin();
        for k in [5, 1, 9, 3] {
            s.insert(t, k, &row(k as i64)).expect("a fresh key inserts");
        }
        let dup = Err(OltpError::DuplicateKey { table: t, key: 5 });
        assert_eq!(s.insert(t, 5, &row(0)), dup);
        for (table, key) in [(t, 7), (missing, 1)] {
            assert_eq!(s.update(table, key, &mut |_| panic!("no row")), Ok(false));
            assert_eq!(s.delete(table, key), Ok(false));
            assert_eq!(
                s.read_with(table, key, &mut |_| panic!("no row")),
                Ok(false)
            );
        }
        assert_eq!(s.update(t, 3, &mut |r| r[0] = Value::Long(30)), Ok(true));
        assert_eq!(s.delete(t, 9), Ok(true));
        let mut seen = Vec::new();
        let scanned = s.scan(t, 0, 100, &mut |k, r| {
            seen.push((k, r.to_vec()));
            true
        });
        assert_eq!(scanned, Ok(3));
        let updated = vec![Value::Long(30), Value::from("row")];
        assert_eq!(seen, [(1, row(1)), (3, updated), (5, row(5))]);
        assert_eq!(s.scan(t, 2, 100, &mut |k, _| k != 3), Ok(1));
        let mut read = None;
        assert_eq!(
            s.read_with(t, 5, &mut |r| read = Some(r.to_vec())),
            Ok(true)
        );
        assert_eq!(read, Some(row(5)));
        s.commit().expect("the target commits");
    }

    fn encoded(row: &[Value]) -> Vec<u8> {
        let mut buf = tuple::BytesMut::new();
        tuple::encode_into(row, &mut buf);
        buf.to_vec()
    }

    /// A winner inserts `(1, 10)` under key 1 of table 0; a second winner
    /// writes key `key` (1: an update, 2: an insert) with `image`.
    fn two_winners(key: u64, image: &[u8]) -> Vec<LogRecord> {
        use storage::wal::{Image, LogKind};
        use storage::TxnId;
        let rec = |lsn, txn, kind, key, redo: Option<&[u8]>| LogRecord {
            lsn: Lsn(lsn),
            txn: TxnId(txn),
            kind,
            len: 40,
            table: 0,
            key,
            redo: redo.map(Image::copy_of),
            undo: None,
        };
        let kind = if key == 1 {
            LogKind::Update
        } else {
            LogKind::Insert
        };
        let first = encoded(&[Value::Long(1), Value::Long(10)]);
        vec![
            rec(1, 1, LogKind::Begin, 0, None),
            rec(2, 1, LogKind::Insert, 1, Some(&first)),
            rec(3, 1, LogKind::Commit, 0, None),
            rec(4, 2, LogKind::Begin, 0, None),
            rec(5, 2, kind, key, Some(image)),
            rec(6, 2, LogKind::Commit, 0, None),
        ]
    }

    #[test]
    fn a_corrupt_image_stops_either_pass_and_is_not_stored() {
        use storage::recovery::ReplayError;
        use storage::TxnId;

        let first = vec![Value::Long(1), Value::Long(10)];
        let good = encoded(&[Value::Long(2), Value::Long(20)]);
        let truncated = good[..good.len() - 1].to_vec();
        let mut bad_tag = good.clone();
        bad_tag[2 + 9] = 0x7F; // the second column's tag
        let systems = [ENGINES[0], ENGINES[3], ENGINES[4]];
        for bad in [&truncated, &bad_tag] {
            for key in [1, 2] {
                let records = two_winners(key, bad);
                for recovering in [true, false] {
                    let what = format!("key {key}, recover {recovering}, image {bad:?}");
                    let pass = |s: &mut dyn Session| {
                        let r = match recovering {
                            true => recover(None, &records, s).map(drop),
                            false => replay(&records, s).map(drop),
                        };
                        assert!(
                            matches!(r, Err(ReplayError::MissingRedo(TxnId(2)))),
                            "{what}: {r:?}"
                        );
                    };
                    let mut flat = ApplyDb::new();
                    pass(&mut flat);
                    assert_eq!(flat.value(0, 1), Some(first.clone()), "{what}");
                    assert_eq!(flat.tables[&0].at.len(), 1, "{what}");
                    for system in systems {
                        let mut table = None;
                        let (_sim, db) =
                            SystemBuilder::new(system).load(MachineConfig::ivy_bridge(1), |db| {
                                table = Some(Counters::create(db, "t", 1, 4, 0).table);
                            });
                        let t = table.expect("the loader ran");
                        let mut s = db.session(0);
                        pass(s.as_mut());
                        // The failed pass leaves its transaction open, and
                        // it sees what the first winner wrote and no more.
                        assert_eq!(s.read(t, 1).unwrap(), Some(first.clone()), "{what}");
                        assert_eq!(s.read(t, 2).unwrap(), None, "{what}");
                    }
                }
            }
        }
        // The same log with a good image applies.
        let mut flat = ApplyDb::new();
        recover(None, &two_winners(2, &good), &mut flat).expect("a good image applies");
        assert_eq!(
            flat.value(0, 2),
            Some(vec![Value::Long(2), Value::Long(20)])
        );
    }

    #[test]
    fn same_rows_is_what_equal_digests_stand_for() {
        let row = |v: i64| [Value::Long(v), Value::from("row")];
        // One target filled through the image methods, one through rows.
        let (mut images, mut rows) = (ApplyDb::new(), ApplyDb::new());
        for k in 0..50u64 {
            images
                .upsert_image(TableId(k as u32 % 3), k, &encoded(&row(k as i64)))
                .unwrap();
            rows.insert(TableId(k as u32 % 3), k, &row(k as i64))
                .unwrap();
        }
        images
            .update_image(TableId(1), 4, &encoded(&row(-4)))
            .unwrap();
        rows.update(TableId(1), 4, &mut |r| r[0] = Value::Long(-4))
            .unwrap();
        assert!(images.same_rows(&rows) && rows.same_rows(&images));
        assert_eq!(images.digests(), rows.digests());
        // A changed row, a missing row and an emptied table each differ.
        let differs = |f: &mut dyn FnMut(&mut ApplyDb)| {
            let mut other = ApplyDb::new();
            for k in 0..50u64 {
                other
                    .insert(TableId(k as u32 % 3), k, &row(k as i64))
                    .unwrap();
            }
            other
                .update(TableId(1), 4, &mut |r| r[0] = Value::Long(-4))
                .unwrap();
            f(&mut other);
            assert!(!images.same_rows(&other) && !other.same_rows(&images));
            assert_ne!(images.digests(), other.digests());
        };
        differs(&mut |db| {
            db.update(TableId(2), 5, &mut |r| r[1] = Value::from("rox"))
                .unwrap();
        });
        differs(&mut |db| {
            db.delete(TableId(0), 3).unwrap();
        });
        differs(&mut |db| {
            db.insert(TableId(7), 1, &row(1)).unwrap();
            db.delete(TableId(7), 1).unwrap();
        });
    }

    #[test]
    fn both_targets_keep_the_session_contract() {
        let (mut flat, mut reference) = (ApplyDb::new(), Reference::default());
        session_contract(&mut flat, TableId(3));
        session_contract(&mut reference, TableId(3));
        assert_same(&flat, &reference, "contract");
        assert_eq!(flat.value(3, 9), None);
    }
}
