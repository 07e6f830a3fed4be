//! Pluggable concurrency control.
//!
//! The paper's five engine archetypes each hard-wire one CC protocol, so
//! protocol effects and architecture effects cannot be separated. This
//! module factors the protocol decision out into a [`ConcurrencyControl`]
//! trait the engines consult at their existing lock/claim/validate sites:
//!
//! * [`CcPolicy::TwoPlNoWait`] — per-key S/X locks, immediate abort on
//!   conflict (Shore-MT's historical rule, generalized to every engine).
//! * [`CcPolicy::TwoPlWaitDie`] — per-key S/X locks with wait-die
//!   deadlock avoidance: an older requester "waits" (surfaces a retryable
//!   [`OltpError::Conflict`]; the retry layer's bounded backoff models the
//!   wait), a younger requester dies with
//!   [`OltpError::DeadlockVictim`].
//! * [`CcPolicy::PartitionSerial`] — VoltDB-style coarse claims: the key
//!   space is hashed into `parts` stripes and a transaction owns every
//!   stripe it touches until commit; a stripe owned by another transaction
//!   is an immediate conflict.
//! * [`CcPolicy::Occ`] — Silo-style OCC: reads record a per-key version,
//!   writes take no-wait exclusive write locks, and commit-time validation
//!   re-checks every read version ([`OltpError::ValidationFailed`] on
//!   mismatch).
//! * [`CcPolicy::Mvto`] — basic timestamp ordering over the monotone
//!   transaction-id stream (the MVTO flavor `storage::mvcc` timestamps
//!   support): per-key read/write timestamps, out-of-order access aborts.
//!
//! Engines keep their historical inline protocol when no CC object is
//! installed ([`CcPolicy::EngineDefault`]); that path is untouched, so
//! default-built engines reproduce the golden digests bit-for-bit.
//!
//! Every hook charges simulated instructions to the caller's [`Mem`], so
//! protocol choice is visible in IPC/SPKI exactly like the engines' own
//! lock managers are. Per-protocol abort/validation/lock-wait counters are
//! published through `obs::metrics` under a `protocol` label.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::{Mutex, OnceLock};

use uarch_sim::rng::{Fnv, IntMap};
use uarch_sim::Mem;

use crate::engine::OltpError;
use crate::schema::TableId;

/// Instruction charges for the shared CC layer (simulated instructions;
/// same order of magnitude as the engines' native lock paths so protocol
/// swaps shift, not erase, the CC component).
mod cost {
    /// Hash probe + bookkeeping on every hook.
    pub const HOOK: u64 = 90;
    /// Installing a lock-table / claim entry.
    pub const ACQUIRE: u64 = 140;
    /// Fixed validation overhead at commit.
    pub const VALIDATE_BASE: u64 = 120;
    /// Per read-set entry re-checked during validation.
    pub const VALIDATE_ENTRY: u64 = 45;
    /// Releasing one held entry at commit/abort.
    pub const RELEASE_ENTRY: u64 = 35;
}

/// Which protocol an engine is built with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CcPolicy {
    /// The engine's historical inline protocol (bit-identical defaults).
    EngineDefault,
    /// Two-phase locking, no-wait conflict resolution.
    TwoPlNoWait,
    /// Two-phase locking, wait-die deadlock avoidance.
    TwoPlWaitDie,
    /// Coarse hashed-stripe ownership (VoltDB-style, generalized).
    PartitionSerial,
    /// Silo-style optimistic validation.
    Occ,
    /// Basic timestamp ordering (MVTO-flavored).
    Mvto,
}

impl CcPolicy {
    /// The pluggable (non-default) protocols, for grid sweeps.
    pub const ALL: [CcPolicy; 5] = [
        CcPolicy::TwoPlNoWait,
        CcPolicy::TwoPlWaitDie,
        CcPolicy::PartitionSerial,
        CcPolicy::Occ,
        CcPolicy::Mvto,
    ];

    /// CLI / metrics-label name.
    pub fn label(self) -> &'static str {
        match self {
            CcPolicy::EngineDefault => "default",
            CcPolicy::TwoPlNoWait => "2pl-nowait",
            CcPolicy::TwoPlWaitDie => "2pl-waitdie",
            CcPolicy::PartitionSerial => "part-serial",
            CcPolicy::Occ => "occ",
            CcPolicy::Mvto => "mvto",
        }
    }

    /// Inverse of [`CcPolicy::label`].
    pub fn parse(s: &str) -> Option<CcPolicy> {
        Some(match s {
            "default" => CcPolicy::EngineDefault,
            "2pl-nowait" => CcPolicy::TwoPlNoWait,
            "2pl-waitdie" => CcPolicy::TwoPlWaitDie,
            "part-serial" => CcPolicy::PartitionSerial,
            "occ" => CcPolicy::Occ,
            "mvto" => CcPolicy::Mvto,
            _ => return None,
        })
    }
}

/// Why a hook refused the operation. Carries the contended key so the
/// engine can surface the same diagnostics its native protocol does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CcViolation {
    /// Lost a lock/claim race; retryable with backoff.
    Conflict { table: TableId, key: u64 },
    /// Chosen as the wait-die victim; retryable with backoff.
    DeadlockVictim { table: TableId, key: u64 },
    /// Optimistic/timestamp validation failed; retryable with backoff.
    ValidationFailed { table: TableId, key: u64 },
}

impl CcViolation {
    /// Map onto the engine error the retry layer classifies.
    pub fn into_error(self) -> OltpError {
        match self {
            CcViolation::Conflict { table, key } => OltpError::Conflict { table, key },
            CcViolation::DeadlockVictim { table, key } => OltpError::DeadlockVictim { table, key },
            CcViolation::ValidationFailed { table, key } => {
                OltpError::ValidationFailed { table, key }
            }
        }
    }
}

/// Hook result.
pub type CcResult = Result<(), CcViolation>;

/// A pluggable concurrency-control protocol.
///
/// One instance is shared by every session of an engine; implementations
/// keep their state in `RefCell`s. Transaction ids come
/// from the engine's `TxnManager` and are monotone across sessions, so
/// they double as begin timestamps (smaller = older).
///
/// Hook placement contract (what the engines guarantee):
/// * `on_read`/`on_write` run **before** the physical access — a refused
///   write never mutates the store.
/// * `validate` runs at the start of commit, before the commit log;
///   on refusal the engine calls `abort` and surfaces the mapped error.
/// * Exactly one of `commit`/`abort` ends every transaction that called
///   `begin`.
pub trait ConcurrencyControl {
    /// Metrics/CLI label of the protocol.
    fn label(&self) -> &'static str;

    /// A transaction began on `core` with id/timestamp `txn`.
    fn begin(&self, txn: u64, core: usize, mem: &Mem);

    /// About to read `key` of `table`.
    fn on_read(&self, txn: u64, table: TableId, key: u64, core: usize, mem: &Mem) -> CcResult;

    /// About to write (insert/update/delete) `key` of `table`.
    fn on_write(&self, txn: u64, table: TableId, key: u64, core: usize, mem: &Mem) -> CcResult;

    /// Commit-time validation (before the commit becomes durable).
    fn validate(&self, txn: u64, core: usize, mem: &Mem) -> CcResult;

    /// The transaction committed: release/install its CC state.
    fn commit(&self, txn: u64, core: usize, mem: &Mem);

    /// The transaction aborted: drop its CC state.
    fn abort(&self, txn: u64, core: usize, mem: &Mem);
}

/// Build the protocol object for `policy`; `None` for
/// [`CcPolicy::EngineDefault`] (the engine keeps its inline path).
/// `partitions` seeds the stripe count of
/// [`CcPolicy::PartitionSerial`].
pub fn build(policy: CcPolicy, partitions: usize) -> Option<Rc<dyn ConcurrencyControl>> {
    match policy {
        CcPolicy::EngineDefault => None,
        CcPolicy::TwoPlNoWait => Some(Rc::new(LockCc::new(false))),
        CcPolicy::TwoPlWaitDie => Some(Rc::new(LockCc::new(true))),
        CcPolicy::PartitionSerial => Some(Rc::new(PartitionSerialCc::new(partitions.max(1)))),
        CcPolicy::Occ => Some(Rc::new(OccCc::new())),
        CcPolicy::Mvto => Some(Rc::new(MvtoCc::new())),
    }
}

/// Per-protocol metric handles, labeled `protocol=<label>`.
struct CcMetrics {
    aborts: obs::metrics::Counter,
    validation_failures: obs::metrics::Counter,
    lock_waits: obs::metrics::Counter,
}

impl CcMetrics {
    fn new(label: &'static str) -> &'static CcMetrics {
        // One static slot per protocol: protocol objects may be built per
        // run, but registry handles are process-wide.
        static SLOTS: OnceLock<Mutex<BTreeMap<&'static str, &'static CcMetrics>>> = OnceLock::new();
        let slots = SLOTS.get_or_init(|| Mutex::new(BTreeMap::new()));
        let mut slots = slots.lock().unwrap();
        slots.entry(label).or_insert_with(|| {
            let r = obs::metrics::registry();
            Box::leak(Box::new(CcMetrics {
                aborts: r.counter("cc_aborts_total", &[("protocol", label)]),
                validation_failures: r
                    .counter("cc_validation_failures_total", &[("protocol", label)]),
                lock_waits: r.counter("cc_lock_waits_total", &[("protocol", label)]),
            }))
        })
    }

    fn count(&self, v: &CcViolation, shard: usize) {
        self.aborts.inc(shard);
        if matches!(v, CcViolation::ValidationFailed { .. }) {
            self.validation_failures.inc(shard);
        }
    }
}

type Key = (u64, u64);

fn key_of(table: TableId, key: u64) -> Key {
    (u64::from(table.0), key)
}

// ---------------------------------------------------------------------
// 2PL (no-wait and wait-die)
// ---------------------------------------------------------------------

#[derive(Default)]
struct LockEntry {
    /// Exclusive owner, if any.
    xowner: Option<u64>,
    /// Shared holders (disjoint from `xowner`).
    sholders: Vec<u64>,
}

#[derive(Default)]
struct LockState {
    locks: IntMap<Key, LockEntry>,
    /// Keys each live transaction holds (for release at commit/abort).
    held: IntMap<u64, Vec<Key>>,
}

/// Two-phase locking over a shared hash lock table. `wait_die` selects
/// the conflict rule: false = no-wait (requester always aborts), true =
/// wait-die (older requester retries as a "wait", younger dies).
struct LockCc {
    wait_die: bool,
    state: RefCell<LockState>,
}

impl LockCc {
    fn new(wait_die: bool) -> Self {
        LockCc {
            wait_die,
            state: RefCell::new(LockState::default()),
        }
    }

    fn metrics(&self) -> &'static CcMetrics {
        CcMetrics::new(self.label())
    }

    /// Resolve a conflict between requester `txn` and `holders`.
    fn lose(
        &self,
        txn: u64,
        holders: &[u64],
        table: TableId,
        key: u64,
        core: usize,
    ) -> CcViolation {
        let m = self.metrics();
        let v = if self.wait_die {
            // Wait-die: die if ANY conflicting holder is older; otherwise
            // the requester is the oldest and may wait (a retryable
            // conflict — the retry layer's backoff stands in for the
            // blocked wait, which a no-block simulator cannot express).
            if holders.iter().any(|&h| h < txn) {
                CcViolation::DeadlockVictim { table, key }
            } else {
                m.lock_waits.inc(core);
                CcViolation::Conflict { table, key }
            }
        } else {
            CcViolation::Conflict { table, key }
        };
        m.count(&v, core);
        v
    }

    fn acquire(
        &self,
        txn: u64,
        table: TableId,
        key: u64,
        exclusive: bool,
        core: usize,
        mem: &Mem,
    ) -> CcResult {
        mem.exec(cost::HOOK);
        let k = key_of(table, key);
        let mut st = self.state.borrow_mut();
        let st = &mut *st;
        let e = st.locks.entry(k).or_default();
        let already_x = e.xowner == Some(txn);
        if exclusive {
            let mut others: Vec<u64> = e.sholders.iter().copied().filter(|&h| h != txn).collect();
            if let Some(x) = e.xowner {
                if x != txn {
                    others.push(x);
                }
            }
            if !others.is_empty() {
                return Err(self.lose(txn, &others, table, key, core));
            }
            if !already_x {
                mem.exec(cost::ACQUIRE);
                e.sholders.retain(|&h| h != txn); // S -> X upgrade
                e.xowner = Some(txn);
                st.held.entry(txn).or_default().push(k);
            }
        } else {
            if let Some(x) = e.xowner {
                if x != txn {
                    return Err(self.lose(txn, &[x], table, key, core));
                }
                // Own X lock covers the read.
            } else if !e.sholders.contains(&txn) {
                mem.exec(cost::ACQUIRE);
                e.sholders.push(txn);
                st.held.entry(txn).or_default().push(k);
            }
        }
        Ok(())
    }

    fn release_all(&self, txn: u64, mem: &Mem) {
        let mut st = self.state.borrow_mut();
        let st = &mut *st;
        if let Some(keys) = st.held.remove(&txn) {
            mem.exec(cost::RELEASE_ENTRY * keys.len() as u64);
            for k in keys {
                if let Some(e) = st.locks.get_mut(&k) {
                    if e.xowner == Some(txn) {
                        e.xowner = None;
                    }
                    e.sholders.retain(|&h| h != txn);
                    if e.xowner.is_none() && e.sholders.is_empty() {
                        st.locks.remove(&k);
                    }
                }
            }
        }
    }
}

impl ConcurrencyControl for LockCc {
    fn label(&self) -> &'static str {
        if self.wait_die {
            "2pl-waitdie"
        } else {
            "2pl-nowait"
        }
    }

    fn begin(&self, _txn: u64, _core: usize, mem: &Mem) {
        mem.exec(cost::HOOK);
    }

    fn on_read(&self, txn: u64, table: TableId, key: u64, core: usize, mem: &Mem) -> CcResult {
        self.acquire(txn, table, key, false, core, mem)
    }

    fn on_write(&self, txn: u64, table: TableId, key: u64, core: usize, mem: &Mem) -> CcResult {
        self.acquire(txn, table, key, true, core, mem)
    }

    fn validate(&self, _txn: u64, _core: usize, mem: &Mem) -> CcResult {
        mem.exec(cost::VALIDATE_BASE);
        Ok(()) // 2PL is valid by construction at commit.
    }

    fn commit(&self, txn: u64, _core: usize, mem: &Mem) {
        self.release_all(txn, mem);
    }

    fn abort(&self, txn: u64, _core: usize, mem: &Mem) {
        self.release_all(txn, mem);
    }
}

// ---------------------------------------------------------------------
// Partition-serial (VoltDB-style coarse stripes)
// ---------------------------------------------------------------------

/// Coarse ownership: keys hash into `parts` stripes; a transaction owns
/// every stripe it touches until commit/abort, no-wait on conflict. With
/// `parts == 1` this is literal serial execution through one claim — the
/// single-site VoltDB discipline expressed as a protocol.
struct PartitionSerialCc {
    parts: usize,
    owners: RefCell<Vec<Option<u64>>>,
}

impl PartitionSerialCc {
    fn new(parts: usize) -> Self {
        PartitionSerialCc {
            parts,
            owners: RefCell::new(vec![None; parts]),
        }
    }

    fn stripe(&self, table: TableId, key: u64) -> usize {
        // FNV-1a over (table, key): stable, spreads adjacent keys.
        let h = Fnv::default().word(u64::from(table.0)).word(key).0;
        (h % self.parts as u64) as usize
    }

    fn claim(&self, txn: u64, table: TableId, key: u64, core: usize, mem: &Mem) -> CcResult {
        mem.exec(cost::HOOK);
        let stripe = self.stripe(table, key);
        let mut owners = self.owners.borrow_mut();
        match owners[stripe] {
            None => {
                mem.exec(cost::ACQUIRE);
                owners[stripe] = Some(txn);
                Ok(())
            }
            Some(o) if o == txn => Ok(()),
            Some(_) => {
                let v = CcViolation::Conflict { table, key };
                CcMetrics::new(self.label()).count(&v, core);
                Err(v)
            }
        }
    }

    fn release(&self, txn: u64, mem: &Mem) {
        let mut owners = self.owners.borrow_mut();
        for o in owners.iter_mut() {
            if *o == Some(txn) {
                mem.exec(cost::RELEASE_ENTRY);
                *o = None;
            }
        }
    }
}

impl ConcurrencyControl for PartitionSerialCc {
    fn label(&self) -> &'static str {
        "part-serial"
    }

    fn begin(&self, _txn: u64, _core: usize, mem: &Mem) {
        mem.exec(cost::HOOK);
    }

    fn on_read(&self, txn: u64, table: TableId, key: u64, core: usize, mem: &Mem) -> CcResult {
        self.claim(txn, table, key, core, mem)
    }

    fn on_write(&self, txn: u64, table: TableId, key: u64, core: usize, mem: &Mem) -> CcResult {
        self.claim(txn, table, key, core, mem)
    }

    fn validate(&self, _txn: u64, _core: usize, mem: &Mem) -> CcResult {
        mem.exec(cost::VALIDATE_BASE);
        Ok(())
    }

    fn commit(&self, txn: u64, _core: usize, mem: &Mem) {
        self.release(txn, mem);
    }

    fn abort(&self, txn: u64, _core: usize, mem: &Mem) {
        self.release(txn, mem);
    }
}

// ---------------------------------------------------------------------
// OCC (Silo-style validation)
// ---------------------------------------------------------------------

#[derive(Default)]
struct OccTxn {
    /// `(key, version-at-read)` pairs, deduplicated on first read.
    reads: Vec<(Key, u64)>,
    /// Keys write-locked by this transaction.
    writes: Vec<Key>,
}

#[derive(Default)]
struct OccState {
    /// Committed version counter per key (absent = 0).
    versions: IntMap<Key, u64>,
    /// No-wait exclusive write locks.
    wlocks: IntMap<Key, u64>,
    /// Live transactions.
    txns: IntMap<u64, OccTxn>,
}

/// Silo-style OCC: version-stamped reads, write locks at write time (so a
/// refused write never dirties an in-place engine), and commit-time
/// read-set validation.
struct OccCc {
    state: RefCell<OccState>,
}

impl OccCc {
    fn new() -> Self {
        OccCc {
            state: RefCell::new(OccState::default()),
        }
    }
}

impl ConcurrencyControl for OccCc {
    fn label(&self) -> &'static str {
        "occ"
    }

    fn begin(&self, txn: u64, _core: usize, mem: &Mem) {
        mem.exec(cost::HOOK);
        self.state.borrow_mut().txns.insert(txn, OccTxn::default());
    }

    fn on_read(&self, txn: u64, table: TableId, key: u64, _core: usize, mem: &Mem) -> CcResult {
        mem.exec(cost::HOOK);
        let k = key_of(table, key);
        let mut st = self.state.borrow_mut();
        let st = &mut *st;
        let v = st.versions.get(&k).copied().unwrap_or(0);
        let t = st.txns.entry(txn).or_default();
        if !t.reads.iter().any(|&(rk, _)| rk == k) {
            t.reads.push((k, v));
        }
        Ok(())
    }

    fn on_write(&self, txn: u64, table: TableId, key: u64, core: usize, mem: &Mem) -> CcResult {
        mem.exec(cost::HOOK);
        let k = key_of(table, key);
        let mut st = self.state.borrow_mut();
        let st = &mut *st;
        match st.wlocks.get(&k) {
            Some(&o) if o != txn => {
                let v = CcViolation::Conflict { table, key };
                CcMetrics::new(self.label()).count(&v, core);
                Err(v)
            }
            Some(_) => Ok(()),
            None => {
                mem.exec(cost::ACQUIRE);
                st.wlocks.insert(k, txn);
                st.txns.entry(txn).or_default().writes.push(k);
                Ok(())
            }
        }
    }

    fn validate(&self, txn: u64, core: usize, mem: &Mem) -> CcResult {
        mem.exec(cost::VALIDATE_BASE);
        let st = self.state.borrow();
        let Some(t) = st.txns.get(&txn) else {
            return Ok(());
        };
        mem.exec(cost::VALIDATE_ENTRY * t.reads.len() as u64);
        for &(k, read_v) in &t.reads {
            let cur = st.versions.get(&k).copied().unwrap_or(0);
            let locked_by_other = st.wlocks.get(&k).is_some_and(|&o| o != txn);
            if cur != read_v || locked_by_other {
                let v = CcViolation::ValidationFailed {
                    table: TableId(k.0 as u32),
                    key: k.1,
                };
                CcMetrics::new(self.label()).count(&v, core);
                return Err(v);
            }
        }
        Ok(())
    }

    fn commit(&self, txn: u64, _core: usize, mem: &Mem) {
        let mut st = self.state.borrow_mut();
        let st = &mut *st;
        if let Some(t) = st.txns.remove(&txn) {
            mem.exec(cost::RELEASE_ENTRY * t.writes.len() as u64);
            for k in t.writes {
                *st.versions.entry(k).or_insert(0) += 1;
                st.wlocks.remove(&k);
            }
        }
    }

    fn abort(&self, txn: u64, _core: usize, mem: &Mem) {
        let mut st = self.state.borrow_mut();
        let st = &mut *st;
        if let Some(t) = st.txns.remove(&txn) {
            mem.exec(cost::RELEASE_ENTRY * t.writes.len() as u64);
            for k in t.writes {
                if st.wlocks.get(&k) == Some(&txn) {
                    st.wlocks.remove(&k);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// MVTO-style basic timestamp ordering
// ---------------------------------------------------------------------

#[derive(Default, Clone, Copy)]
struct KeyTs {
    max_read: u64,
    last_write: u64,
}

#[derive(Default)]
struct ToState {
    ts: IntMap<Key, KeyTs>,
    /// Keys written (pending) per live transaction.
    pending: IntMap<u64, Vec<Key>>,
}

/// Basic timestamp ordering keyed by the monotone transaction id (the
/// begin timestamp `storage::mvcc::TxnManager` hands out). Accesses that
/// arrive out of timestamp order abort with
/// [`OltpError::ValidationFailed`]; pending write timestamps install at
/// commit, MVTO-style.
struct MvtoCc {
    state: RefCell<ToState>,
}

impl MvtoCc {
    fn new() -> Self {
        MvtoCc {
            state: RefCell::new(ToState::default()),
        }
    }

    fn refuse(&self, table: TableId, key: u64, core: usize) -> CcViolation {
        let v = CcViolation::ValidationFailed { table, key };
        CcMetrics::new(self.label()).count(&v, core);
        v
    }
}

impl ConcurrencyControl for MvtoCc {
    fn label(&self) -> &'static str {
        "mvto"
    }

    fn begin(&self, _txn: u64, _core: usize, mem: &Mem) {
        mem.exec(cost::HOOK);
    }

    fn on_read(&self, txn: u64, table: TableId, key: u64, core: usize, mem: &Mem) -> CcResult {
        mem.exec(cost::HOOK);
        let mut st = self.state.borrow_mut();
        let e = st.ts.entry(key_of(table, key)).or_default();
        if e.last_write > txn {
            return Err(self.refuse(table, key, core));
        }
        e.max_read = e.max_read.max(txn);
        Ok(())
    }

    fn on_write(&self, txn: u64, table: TableId, key: u64, core: usize, mem: &Mem) -> CcResult {
        mem.exec(cost::HOOK);
        let k = key_of(table, key);
        let mut st = self.state.borrow_mut();
        let st = &mut *st;
        let e = st.ts.entry(k).or_default();
        if e.max_read > txn || e.last_write > txn {
            return Err(self.refuse(table, key, core));
        }
        mem.exec(cost::ACQUIRE);
        st.pending.entry(txn).or_default().push(k);
        Ok(())
    }

    fn validate(&self, _txn: u64, _core: usize, mem: &Mem) -> CcResult {
        mem.exec(cost::VALIDATE_BASE);
        Ok(()) // T/O refuses at access time; commit is unconditional.
    }

    fn commit(&self, txn: u64, _core: usize, mem: &Mem) {
        let mut st = self.state.borrow_mut();
        let st = &mut *st;
        if let Some(keys) = st.pending.remove(&txn) {
            mem.exec(cost::RELEASE_ENTRY * keys.len() as u64);
            for k in keys {
                let e = st.ts.entry(k).or_default();
                e.last_write = e.last_write.max(txn);
            }
        }
    }

    fn abort(&self, txn: u64, _core: usize, mem: &Mem) {
        let mut st = self.state.borrow_mut();
        if let Some(keys) = st.pending.remove(&txn) {
            mem.exec(cost::RELEASE_ENTRY * keys.len() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_sim::{MachineConfig, Sim};

    fn mem() -> (Sim, Mem) {
        let sim = Sim::new(MachineConfig::ivy_bridge(1));
        let m = sim.mem(0);
        (sim, m)
    }

    const T: TableId = TableId(1);

    #[test]
    fn policy_labels_round_trip() {
        for p in CcPolicy::ALL.into_iter().chain([CcPolicy::EngineDefault]) {
            assert_eq!(CcPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(CcPolicy::parse("nope"), None);
        assert!(build(CcPolicy::EngineDefault, 1).is_none());
        for p in CcPolicy::ALL {
            let cc = build(p, 2).expect("protocol built");
            assert_eq!(cc.label(), p.label());
        }
    }

    #[test]
    fn nowait_conflicts_and_releases() {
        let (_sim, m) = mem();
        let cc = LockCc::new(false);
        cc.begin(1, 0, &m);
        cc.begin(2, 0, &m);
        assert!(cc.on_write(1, T, 7, 0, &m).is_ok());
        assert_eq!(
            cc.on_write(2, T, 7, 0, &m),
            Err(CcViolation::Conflict { table: T, key: 7 })
        );
        assert_eq!(
            cc.on_read(2, T, 7, 0, &m),
            Err(CcViolation::Conflict { table: T, key: 7 })
        );
        // Shared readers coexist; a writer conflicts with them.
        assert!(cc.on_read(1, T, 9, 0, &m).is_ok());
        assert!(cc.on_read(2, T, 9, 0, &m).is_ok());
        assert_eq!(
            cc.on_write(1, T, 9, 0, &m),
            Err(CcViolation::Conflict { table: T, key: 9 })
        );
        cc.commit(1, 0, &m);
        // Released: txn 2 can now take the X lock (its own S upgrades).
        assert!(cc.on_write(2, T, 7, 0, &m).is_ok());
        assert!(cc.on_write(2, T, 9, 0, &m).is_ok());
        cc.abort(2, 0, &m);
        assert!(cc.state.borrow().locks.is_empty());
    }

    #[test]
    fn waitdie_older_waits_younger_dies() {
        let (_sim, m) = mem();
        let cc = LockCc::new(true);
        assert!(cc.on_write(5, T, 1, 0, &m).is_ok());
        // Requester 9 is younger than holder 5: it dies.
        assert_eq!(
            cc.on_write(9, T, 1, 0, &m),
            Err(CcViolation::DeadlockVictim { table: T, key: 1 })
        );
        // Requester 3 is older than holder 5: it "waits" (retryable).
        assert_eq!(
            cc.on_write(3, T, 1, 0, &m),
            Err(CcViolation::Conflict { table: T, key: 1 })
        );
    }

    #[test]
    fn lock_upgrade_from_own_shared() {
        let (_sim, m) = mem();
        let cc = LockCc::new(false);
        assert!(cc.on_read(1, T, 4, 0, &m).is_ok());
        assert!(cc.on_write(1, T, 4, 0, &m).is_ok(), "own S upgrades to X");
        assert!(cc.on_read(1, T, 4, 0, &m).is_ok(), "own X covers reads");
        cc.commit(1, 0, &m);
    }

    #[test]
    fn partition_serial_claims_stripes() {
        let (_sim, m) = mem();
        let cc = PartitionSerialCc::new(1); // one stripe: fully serial
        assert!(cc.on_read(1, T, 100, 0, &m).is_ok());
        assert_eq!(
            cc.on_read(2, T, 999, 0, &m),
            Err(CcViolation::Conflict { table: T, key: 999 }),
            "any key maps to the single claimed stripe"
        );
        cc.commit(1, 0, &m);
        assert!(cc.on_read(2, T, 999, 0, &m).is_ok());
        cc.abort(2, 0, &m);
    }

    #[test]
    fn occ_validation_catches_stale_reads() {
        let (_sim, m) = mem();
        let cc = OccCc::new();
        cc.begin(1, 0, &m);
        cc.begin(2, 0, &m);
        assert!(cc.on_read(1, T, 3, 0, &m).is_ok());
        assert!(cc.on_read(2, T, 3, 0, &m).is_ok());
        assert!(cc.on_write(2, T, 3, 0, &m).is_ok());
        // Writer 2 commits first: bumps the version under reader 1.
        assert!(cc.validate(2, 0, &m).is_ok());
        cc.commit(2, 0, &m);
        assert_eq!(
            cc.validate(1, 0, &m),
            Err(CcViolation::ValidationFailed { table: T, key: 3 })
        );
        cc.abort(1, 0, &m);
        // A fresh reader sees the new version and validates.
        cc.begin(3, 0, &m);
        assert!(cc.on_read(3, T, 3, 0, &m).is_ok());
        assert!(cc.validate(3, 0, &m).is_ok());
        cc.commit(3, 0, &m);
    }

    #[test]
    fn occ_write_locks_are_no_wait() {
        let (_sim, m) = mem();
        let cc = OccCc::new();
        cc.begin(1, 0, &m);
        cc.begin(2, 0, &m);
        assert!(cc.on_write(1, T, 8, 0, &m).is_ok());
        assert_eq!(
            cc.on_write(2, T, 8, 0, &m),
            Err(CcViolation::Conflict { table: T, key: 8 })
        );
        cc.abort(1, 0, &m);
        assert!(cc.on_write(2, T, 8, 0, &m).is_ok());
        cc.commit(2, 0, &m);
    }

    #[test]
    fn mvto_rejects_out_of_order_access() {
        let (_sim, m) = mem();
        let cc = MvtoCc::new();
        // Txn 5 reads key 2; an older writer (3) then violates T/O.
        assert!(cc.on_read(5, T, 2, 0, &m).is_ok());
        assert_eq!(
            cc.on_write(3, T, 2, 0, &m),
            Err(CcViolation::ValidationFailed { table: T, key: 2 })
        );
        // A younger writer is fine; after it commits, an older reader is
        // too late.
        assert!(cc.on_write(7, T, 2, 0, &m).is_ok());
        assert!(cc.validate(7, 0, &m).is_ok());
        cc.commit(7, 0, &m);
        assert_eq!(
            cc.on_read(6, T, 2, 0, &m),
            Err(CcViolation::ValidationFailed { table: T, key: 2 })
        );
        assert!(cc.on_read(8, T, 2, 0, &m).is_ok());
    }

    #[test]
    fn violations_map_to_distinct_errors() {
        let c = CcViolation::Conflict { table: T, key: 1 }.into_error();
        let d = CcViolation::DeadlockVictim { table: T, key: 1 }.into_error();
        let v = CcViolation::ValidationFailed { table: T, key: 1 }.into_error();
        assert!(matches!(c, OltpError::Conflict { .. }));
        assert!(matches!(d, OltpError::DeadlockVictim { .. }));
        assert!(matches!(v, OltpError::ValidationFailed { .. }));
    }
}
