//! DBMS M archetype: the in-memory OLTP engine of a traditional
//! commercial vendor.
//!
//! Characteristics the paper attributes to it (§3, §4.1.3, §6):
//!
//! * **Optimistic multi-version concurrency control** — no partitioning,
//!   no centralized locking; reads run against a snapshot, writes install
//!   new versions at commit with first-writer-wins validation.
//! * **Two index structures** — a hash index (micro-benchmark, TPC-B) and
//!   a cache-conscious B-tree (TPC-C and anything needing range scans).
//! * **Transaction compilation** that can be toggled (§6.1 measures both),
//!   affecting only the storage-manager operation code.
//! * **A lot of legacy code** borrowed from its disk-based parent product:
//!   "DBMS M incurs the highest number of instruction stalls among the
//!   in-memory systems per transaction due to the large amount of legacy
//!   code" (§8) — its frontend modules are sized and shaped accordingly.
//!
//! Concurrency model: the version store, indexes, and timestamp counter
//! sit in one engine `RefCell`; each worker's [`Session`] buffers its
//! write set privately and borrows the engine state per operation. Losing
//! the first-writer-wins race surfaces as [`OltpError::Conflict`] at
//! commit.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use indexes::{CcBTree, HashIndex, Index};
use obs::Phase;
use oltp::{tuple, CcPolicy, Db, OltpError, OltpResult, Row, Session, TableDef, TableId, Value};
use storage::wal::LogRecord;
use storage::{mvcc::InstallOutcome, LogKind, RowId, TxnId, TxnManager, VersionStore, Wal};
use uarch_sim::{Mem, Sim};

pub use crate::common::DbmsMIndex;
use crate::durability::{configure_wal, flush_behind, wal_status, DurabilityCfg, LogStatus};
use crate::scaffold::{
    cc_validate_fault, str_key, table_index, EngineCore, LatchModel, Module, Ports,
};

/// Engine name used for span attribution (matches [`Db::name`]).
const ENGINE: &str = "DBMS M";

/// Instruction budgets.
mod cost {
    // Legacy frontend (per transaction).
    pub const NET: u64 = 5300;
    pub const SESSION: u64 = 5900; // parser/session/legacy glue
    pub const TXN_BEGIN: u64 = 1200;
    // Per operation.
    pub const EXEC_LEGACY: u64 = 4400; // interpreted executor: statement entry
    pub const EXEC_LEGACY_NEXT: u64 = 2600; // interpreted iterator glue
    pub const SM_COMPILED: u64 = 1350; // compiled txn fragment (plan + SM access)
    pub const SM_INTERP: u64 = 4600; // interpreted storage-manager path
                                     // Commit.
    pub const VALIDATE: u64 = 1100;
    pub const INSTALL: u64 = 450; // per write installed
    pub const LOG_COMMIT: u64 = 1950;
    pub const TXN_END: u64 = 1400;
    pub const ABORT: u64 = 800;
    pub const SCAN_NEXT: u64 = 60;
    /// Value processing per row byte: interpreted vs compiled SM.
    pub const VALUE_PER_BYTE_INTERP: u64 = 8;
    pub const VALUE_PER_BYTE_COMPILED: u64 = 3;
    /// String-key comparison per tree level (or per hash-chain compare).
    pub const STR_CMP_PER_LEVEL: u64 = 520;
    /// Latch spin per other open session at the serialized engine entries
    /// (timestamp allocation, validation/install critical section, log
    /// tail). Shorter than the disk-based engines' — OCC keeps its
    /// critical sections small — but still a shared-everything tax.
    pub const LATCH_SPIN: u64 = 150;
}

/// Configuration (§6 sweeps both axes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DbmsMOptions {
    /// Index structure.
    pub index: DbmsMIndex,
    /// Transaction-compilation optimizations.
    pub compiled: bool,
}

impl Default for DbmsMOptions {
    fn default() -> Self {
        DbmsMOptions {
            index: DbmsMIndex::Hash,
            compiled: true,
        }
    }
}

/// Code modules in registration order; the consts below index it.
const MODULES: &[Module] = &[
    Module::new("dbmsm/network", 36 << 10, 1.5, 0.26),
    Module::new("dbmsm/session-legacy", 44 << 10, 1.4, 0.32),
    Module::new("dbmsm/executor-legacy", 36 << 10, 1.6, 0.26),
    Module::new("dbmsm/txn-ts", 16 << 10, 2.0, 0.18).engine_side(),
    Module::new("dbmsm/sm-compiled", 10 << 10, 4.5, 0.02).engine_side(),
    Module::new("dbmsm/sm-interp", 80 << 10, 1.35, 0.22).engine_side(),
    Module::new("dbmsm/index", 14 << 10, 2.6, 0.14).engine_side(),
    Module::new("dbmsm/version-store", 16 << 10, 2.4, 0.16).engine_side(),
    Module::new("dbmsm/log", 14 << 10, 2.2, 0.16).engine_side(),
];
const NET: usize = 0;
const SESSION: usize = 1;
const EXEC: usize = 2;
const TXN: usize = 3;
const SM_COMPILED: usize = 4;
const SM_INTERP: usize = 5;
const INDEX: usize = 6;
const MVCC: usize = 7;
const LOG: usize = 8;

enum AnyIndex {
    Hash(HashIndex),
    BTree(CcBTree),
}

impl AnyIndex {
    fn as_index(&mut self) -> &mut dyn Index {
        match self {
            AnyIndex::Hash(h) => h,
            AnyIndex::BTree(b) => b,
        }
    }
}

struct Table {
    def: TableDef,
    index: AnyIndex,
    versions: VersionStore,
    /// Whether the primary-key column is a string.
    str_key: bool,
}

enum WriteKind {
    Insert(Bytes),
    Update(RowId, Bytes),
    Delete(RowId),
}

struct WriteOp {
    table: usize,
    key: u64,
    kind: WriteKind,
}

/// Transaction-local state: the snapshot and the private write set. Lives
/// in the session, NOT in the engine state — buffering writes is the
/// whole point of OCC.
struct ActiveTxn {
    id: TxnId,
    snapshot: u64,
    writes: Vec<WriteOp>,
}

/// Mutable engine state shared by all sessions.
struct Inner {
    tables: Vec<Table>,
    tm: TxnManager,
    wal: Wal,
    /// Transactions aborted by commit-time validation (diagnostics).
    validation_aborts: u64,
}

struct Shared {
    core: EngineCore,
    opts: DbmsMOptions,
    latches: LatchModel,
    inner: RefCell<Inner>,
}

/// The DBMS M engine. See the module docs.
pub struct DbmsM {
    shared: Rc<Shared>,
}

/// One worker's connection to a [`DbmsM`] engine.
struct DbmsMSession {
    shared: Rc<Shared>,
    ports: Ports,
    cur: Option<ActiveTxn>,
    ops_in_txn: u32,
}

impl DbmsM {
    /// Build the engine.
    pub fn new(sim: &Sim, opts: DbmsMOptions) -> Self {
        Self::with_cc(sim, opts, CcPolicy::EngineDefault)
    }

    /// Build the engine with a pluggable CC protocol.
    /// [`CcPolicy::EngineDefault`] keeps the historical OCC snapshot
    /// validation through the [`VersionStore`].
    pub fn with_cc(sim: &Sim, opts: DbmsMOptions, policy: CcPolicy) -> Self {
        let core = EngineCore::new(sim, ENGINE, MODULES, policy, sim.cores());
        let inner = Inner {
            tables: Vec::new(),
            tm: TxnManager::new(),
            wal: Wal::new(&sim.mem(0), 1 << 20, 8),
            validation_aborts: 0,
        };
        DbmsM {
            shared: Rc::new(Shared {
                latches: LatchModel::new(cost::LATCH_SPIN, &core),
                core,
                opts,
                inner: RefCell::new(inner),
            }),
        }
    }

    /// Transactions aborted by commit-time validation (diagnostics).
    pub fn validation_aborts(&self) -> u64 {
        self.shared.inner.borrow().validation_aborts
    }
}

impl crate::durability::DurableDb for DbmsM {
    fn enable_durability(&mut self, cfg: &DurabilityCfg) {
        let mem = self.shared.core.mem(0, LOG);
        configure_wal(&mut self.shared.inner.borrow_mut().wal, &mem, cfg);
    }

    fn log_streams(&self) -> Vec<Vec<LogRecord>> {
        vec![self.shared.inner.borrow().wal.records().to_vec()]
    }

    fn take_log_streams(&mut self) -> Vec<Vec<LogRecord>> {
        vec![self.shared.inner.borrow_mut().wal.take_records()]
    }

    fn log_status(&self) -> Vec<LogStatus> {
        vec![wal_status(0, &self.shared.inner.borrow().wal)]
    }

    fn flush_all(&mut self) {
        let mem = self.shared.core.mem(0, LOG);
        flush_behind(&mut self.shared.inner.borrow_mut().wal, &mem);
    }

    fn take_commit_latencies(&mut self) -> Vec<f64> {
        let inner = &mut *self.shared.inner.borrow_mut();
        inner.wal.take_commit_latencies()
    }
}

impl DbmsMSession {
    /// Per-operation code — the §6.1 toggle. With compilation the whole
    /// transaction program (plan dispatch *and* storage-manager access
    /// code) runs as one compiled fragment; without it, the legacy
    /// interpreted executor drives an interpreted SM path.
    fn op_overhead(&mut self) {
        let _d = self.ports.span(Phase::Dispatch);
        if self.shared.opts.compiled {
            self.ports.mem(SM_COMPILED).exec(cost::SM_COMPILED);
        } else {
            let n = if self.ops_in_txn == 0 {
                cost::EXEC_LEGACY
            } else {
                cost::EXEC_LEGACY_NEXT
            };
            self.ports.mem(EXEC).exec(n);
            self.ports.mem(SM_INTERP).exec(cost::SM_INTERP);
        }
        self.ops_in_txn += 1;
    }

    fn active(&self) -> OltpResult<&ActiveTxn> {
        self.cur.as_ref().ok_or(OltpError::NoActiveTxn)
    }

    /// Value processing proportional to row bytes (§6.2); runs in the
    /// compiled or interpreted SM fragment per configuration.
    fn value_work(&self, bytes: usize) {
        if self.shared.opts.compiled {
            self.ports
                .mem(SM_COMPILED)
                .exec(bytes as u64 * cost::VALUE_PER_BYTE_COMPILED);
        } else {
            self.ports
                .mem(SM_INTERP)
                .exec(bytes as u64 * cost::VALUE_PER_BYTE_INTERP);
        }
    }

    /// Extra string-key comparison work during an index probe.
    fn key_work(&self, inner: &Inner, ti: usize) {
        if !inner.tables[ti].str_key {
            return;
        }
        let levels = match &inner.tables[ti].index {
            AnyIndex::Hash(_) => 2,
            AnyIndex::BTree(b) => u64::from(b.stats().height),
        };
        self.ports.mem(INDEX).exec(levels * cost::STR_CMP_PER_LEVEL);
    }

    /// Consult the pluggable CC layer for one key access. No-op when the
    /// engine runs its historical OCC path (`cc` is `None`).
    fn cc_access(&self, t: TableId, key: u64, write: bool) -> OltpResult<()> {
        let core = &self.shared.core;
        if core.cc.is_none() {
            return Ok(());
        }
        let id = self.active()?.id;
        let _v = self.ports.span(Phase::Cc);
        let mem = self.ports.mem(TXN);
        core.cc_access(id.0, t, key, write, self.ports.core, mem)
            .unwrap_or(Ok(()))
    }

    /// A commit lost validation (first-writer-wins, a duplicate created
    /// since the insert's check, or the pluggable protocol's verdict).
    /// The caller's abort() is a no-op once the txn is taken from the
    /// session, so protocol state is dropped here, charged to `cc_mem`.
    fn validation_abort(&self, inner: &mut Inner, id: TxnId, cc_mem: &Mem) {
        inner.validation_aborts += 1;
        self.shared.core.metrics.conflicts.inc(self.ports.core);
        if let Some(cc) = &self.shared.core.cc {
            cc.abort(id.0, self.ports.core, cc_mem);
        }
        if inner.wal.retaining() {
            // Durable mode: mark the rollback so recovery classifies this
            // txn aborted, not crashed mid-flight.
            inner.wal.append(self.ports.mem(LOG), id, LogKind::Abort, 0);
        }
    }

    /// Read-your-writes: check the transaction's own write set first.
    fn own_write(&self, ti: usize, key: u64) -> Option<Option<&Bytes>> {
        let txn = self.cur.as_ref()?;
        txn.writes
            .iter()
            .rev()
            .find(|w| w.table == ti && w.key == key)
            .map(|w| match &w.kind {
                WriteKind::Insert(b) | WriteKind::Update(_, b) => Some(b),
                WriteKind::Delete(_) => None,
            })
    }
}

impl Drop for DbmsMSession {
    fn drop(&mut self) {
        self.shared.latches.session_closed();
    }
}

/// The commit-prologue fault sites, separated out so `commit()` can drop
/// pluggable-protocol state before surfacing the error (`txn` is already
/// taken from the session there, making the caller's abort() a no-op).
fn commit_injects(core: usize) -> OltpResult<()> {
    if faults::fire("dbms_m/latch", core) {
        return Err(OltpError::LatchTimeout("dbms_m/latch"));
    }
    // Forced OCC validation failure; the txn's buffered writes are simply
    // discarded — exactly the clean-abort path. The victim table/key are
    // synthetic (there is no real conflicting row).
    if faults::fire("dbms_m/validate", core) {
        return Err(OltpError::ValidationFailed {
            table: TableId(0),
            key: 0,
        });
    }
    Ok(())
}

impl Db for DbmsM {
    fn name(&self) -> &'static str {
        ENGINE
    }

    fn create_table(&mut self, def: TableDef) -> TableId {
        let mem = self.shared.core.mem(0, INDEX);
        let inner = &mut *self.shared.inner.borrow_mut();
        let id = TableId(inner.tables.len() as u32);
        let index = match self.shared.opts.index {
            // Range-scanned tables get the tree even in the hash
            // configuration (per-table index choice, as a DBA would).
            DbmsMIndex::Hash if !def.needs_range => {
                AnyIndex::Hash(HashIndex::with_capacity(&mem, def.expected_rows))
            }
            _ => AnyIndex::BTree(CcBTree::new(&mem)),
        };
        inner.tables.push(Table {
            str_key: str_key(&def),
            def,
            index,
            versions: VersionStore::new(),
        });
        id
    }

    fn row_count(&self, t: TableId) -> u64 {
        let inner = self.shared.inner.borrow();
        let table = inner.tables.get(t.0 as usize);
        table.map_or(0, |tb| tb.versions.live())
    }

    fn session(&self, core: usize) -> Box<dyn Session> {
        let ports = Ports::open(&self.shared.core, core);
        self.shared.latches.session_opened();
        Box::new(DbmsMSession {
            shared: Rc::clone(&self.shared),
            ports,
            cur: None,
            ops_in_txn: 0,
        })
    }
}

impl Session for DbmsMSession {
    fn name(&self) -> &'static str {
        ENGINE
    }

    fn core(&self) -> usize {
        self.ports.core
    }

    fn begin(&mut self) {
        assert!(self.cur.is_none(), "transaction already active");
        let shared = Rc::clone(&self.shared);
        let _d = self.ports.span(Phase::Dispatch);
        self.ports.mem(NET).exec(cost::NET);
        self.ports.mem(SESSION).exec(cost::SESSION);
        self.ports.mem(TXN).exec(cost::TXN_BEGIN);
        let inner = &mut *shared.inner.borrow_mut();
        let (id, snapshot) = inner.tm.begin();
        shared
            .latches
            .latch_contention(self.ports.core, self.ports.mem(TXN));
        if let Some(cc) = &self.shared.core.cc {
            cc.begin(id.0, self.ports.core, self.ports.mem(TXN));
        }
        self.ops_in_txn = 0;
        let _l = self.ports.span(Phase::Log);
        let mem = self.ports.mem(LOG);
        inner.wal.append(mem, id, LogKind::Begin, 0);
        self.cur = Some(ActiveTxn {
            id,
            snapshot,
            writes: Vec::new(),
        });
    }

    fn commit(&mut self) -> OltpResult<()> {
        let txn = self.cur.take().ok_or(OltpError::NoActiveTxn)?;
        let shared = Rc::clone(&self.shared);
        let inner = &mut *shared.inner.borrow_mut();
        let core = self.ports.core;
        let mem_txn = self.ports.mem(TXN);
        let _c = self.ports.span(Phase::Commit);
        {
            let _v = self.ports.span(Phase::Cc);
            mem_txn.exec(cost::VALIDATE);
            shared.latches.latch_contention(core, mem_txn);
            if let Err(e) = commit_injects(core) {
                // The caller's abort() is a no-op once the txn is taken:
                // drop any pluggable-protocol state (e.g. 2PL locks) here.
                if let Some(cc) = &shared.core.cc {
                    cc.abort(txn.id.0, core, mem_txn);
                }
                return Err(e);
            }
        }
        if let Some(cc) = &shared.core.cc {
            let _v = self.ports.span(Phase::Cc);
            let verdict = cc_validate_fault(core).and_then(|()| {
                cc.validate(txn.id.0, core, mem_txn)
                    .map_err(|v| v.into_error())
            });
            if let Err(e) = verdict {
                self.validation_abort(inner, txn.id, mem_txn);
                return Err(e);
            }
        }
        let commit_ts = inner.tm.commit_ts();
        let mem_mvcc = self.ports.mem(MVCC);
        let mem_index = self.ports.mem(INDEX);
        let mem_log = self.ports.mem(LOG);
        let mut log_bytes = 0u32;
        for w in &txn.writes {
            // Redo logging: in-memory engines recover from the redo
            // stream (there are no pages to replay into). No
            // before-images: uncommitted MVCC writes are never visible
            // outside the transaction, so recovery has nothing to roll
            // back (undo stays `None`).
            {
                let _l = self.ports.span(Phase::Log);
                let (kind, redo, len) = match &w.kind {
                    WriteKind::Insert(data) => (LogKind::Insert, Some(data), data.len() as u32),
                    WriteKind::Update(_, data) => (LogKind::Update, Some(data), data.len() as u32),
                    WriteKind::Delete(_) => (LogKind::Delete, None, 16),
                };
                let table = w.table as u32;
                inner
                    .wal
                    .append_data(mem_log, txn.id, kind, table, w.key, redo, None, len);
            }
            let _s = self.ports.span(Phase::Storage);
            mem_mvcc.exec(cost::INSTALL);
            let table = &mut inner.tables[w.table];
            let installed = match &w.kind {
                WriteKind::Insert(data) => {
                    log_bytes += data.len() as u32;
                    let id = table.versions.insert(mem_mvcc, data, commit_ts);
                    // `false`: a duplicate was created since our check.
                    let _i = self.ports.span(Phase::Index);
                    table.index.as_index().insert(mem_index, w.key, id.to_u64())
                }
                WriteKind::Update(id, data) => {
                    log_bytes += data.len() as u32 * 2;
                    table
                        .versions
                        .install(mem_mvcc, *id, data, txn.snapshot, commit_ts)
                        == InstallOutcome::Installed
                }
                WriteKind::Delete(id) => {
                    log_bytes += 16;
                    let outcome = table
                        .versions
                        .delete(mem_mvcc, *id, txn.snapshot, commit_ts);
                    if outcome == InstallOutcome::Installed {
                        let _i = self.ports.span(Phase::Index);
                        table.index.as_index().remove(mem_index, w.key);
                    }
                    outcome == InstallOutcome::Installed
                }
            };
            if !installed {
                self.validation_abort(inner, txn.id, mem_mvcc);
                return Err(OltpError::ValidationFailed {
                    table: TableId(w.table as u32),
                    key: w.key,
                });
            }
        }
        {
            let _l = self.ports.span(Phase::Log);
            mem_log.exec(cost::LOG_COMMIT);
            inner
                .wal
                .append(mem_log, txn.id, LogKind::Commit, 24 + log_bytes);
        }
        mem_txn.exec(cost::TXN_END);
        if let Some(cc) = &shared.core.cc {
            cc.commit(txn.id.0, core, mem_txn);
        }
        shared.core.metrics.commits.inc(core);
        Ok(())
    }

    fn abort(&mut self) {
        if let Some(txn) = self.cur.take() {
            let _c = self.ports.span(Phase::Commit);
            self.ports.mem(TXN).exec(cost::ABORT);
            if let Some(cc) = &self.shared.core.cc {
                cc.abort(txn.id.0, self.ports.core, self.ports.mem(TXN));
            }
            self.shared.core.metrics.aborts.inc(self.ports.core);
        }
    }

    fn insert(&mut self, t: TableId, key: u64, row: &[Value]) -> OltpResult<()> {
        let shared = Rc::clone(&self.shared);
        let inner = &mut *shared.inner.borrow_mut();
        let ti = table_index(inner.tables.len(), t)?;
        self.active()?;
        debug_assert!(
            inner.tables[ti].def.schema.check(row),
            "row/schema mismatch"
        );
        self.op_overhead();
        self.cc_access(t, key, true)?;
        // Duplicate check against the committed index + own writes.
        let mem_index = self.ports.mem(INDEX);
        if let Some(own) = self.own_write(ti, key) {
            if own.is_some() {
                return Err(OltpError::DuplicateKey { table: t, key });
            }
        } else {
            let probe = {
                let _i = self.ports.span(Phase::Index);
                inner.tables[ti].index.as_index().get(mem_index, key)
            };
            if let Some(payload) = probe {
                // Visible committed entry?
                let snapshot = self.active()?.snapshot;
                let _s = self.ports.span(Phase::Storage);
                let mem_mvcc = self.ports.mem(MVCC);
                if inner.tables[ti].versions.is_visible(
                    mem_mvcc,
                    RowId::from_u64(payload),
                    snapshot,
                ) {
                    return Err(OltpError::DuplicateKey { table: t, key });
                }
            }
        }
        let data = tuple::encode(row);
        {
            let _s = self.ports.span(Phase::Storage);
            self.value_work(data.len());
        }
        {
            let _i = self.ports.span(Phase::Index);
            self.key_work(inner, ti);
        }
        let txn = self.cur.as_mut().expect("checked active");
        txn.writes.push(WriteOp {
            table: ti,
            key,
            kind: WriteKind::Insert(data),
        });
        Ok(())
    }

    fn read_with(&mut self, t: TableId, key: u64, f: &mut dyn FnMut(&[Value])) -> OltpResult<bool> {
        let shared = Rc::clone(&self.shared);
        let inner = &mut *shared.inner.borrow_mut();
        let ti = table_index(inner.tables.len(), t)?;
        let snapshot = self.active()?.snapshot;
        self.op_overhead();
        self.cc_access(t, key, false)?;
        {
            let _i = self.ports.span(Phase::Index);
            self.key_work(inner, ti);
        }
        // Own writes win.
        if let Some(own) = self.own_write(ti, key) {
            return match own {
                Some(bytes) => {
                    let row = tuple::decode(bytes).expect("own write decodes");
                    f(&row);
                    Ok(true)
                }
                None => Ok(false),
            };
        }
        let mem_index = self.ports.mem(INDEX);
        let probe = {
            let _i = self.ports.span(Phase::Index);
            inner.tables[ti].index.as_index().get(mem_index, key)
        };
        let Some(payload) = probe else {
            return Ok(false);
        };
        let _s = self.ports.span(Phase::Storage);
        let mem_mvcc = self.ports.mem(MVCC);
        let mut decoded: Option<Row> = None;
        let mut bytes = 0;
        inner.tables[ti]
            .versions
            .read(mem_mvcc, RowId::from_u64(payload), snapshot, &mut |d| {
                if !d.is_empty() {
                    bytes = d.len();
                    decoded = tuple::decode(d).ok();
                }
            });
        self.value_work(bytes);
        match decoded {
            Some(row) => {
                f(&row);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn update(&mut self, t: TableId, key: u64, f: &mut dyn FnMut(&mut Row)) -> OltpResult<bool> {
        let shared = Rc::clone(&self.shared);
        let inner = &mut *shared.inner.borrow_mut();
        let ti = table_index(inner.tables.len(), t)?;
        let snapshot = self.active()?.snapshot;
        self.op_overhead();
        self.cc_access(t, key, true)?;
        {
            let _i = self.ports.span(Phase::Index);
            self.key_work(inner, ti);
        }
        // Updating an own write rewrites the buffered bytes.
        if let Some(own) = self.own_write(ti, key) {
            let Some(bytes) = own else { return Ok(false) };
            let mut row = tuple::decode(bytes).expect("own write decodes");
            f(&mut row);
            let data = tuple::encode(&row);
            let txn = self.cur.as_mut().expect("active");
            let w = txn
                .writes
                .iter_mut()
                .rev()
                .find(|w| w.table == ti && w.key == key)
                .expect("own write exists");
            match &mut w.kind {
                WriteKind::Insert(b) | WriteKind::Update(_, b) => *b = data,
                WriteKind::Delete(_) => unreachable!("own_write returned Some"),
            }
            return Ok(true);
        }
        let mem_index = self.ports.mem(INDEX);
        let probe = {
            let _i = self.ports.span(Phase::Index);
            inner.tables[ti].index.as_index().get(mem_index, key)
        };
        let Some(payload) = probe else {
            return Ok(false);
        };
        let id = RowId::from_u64(payload);
        let mem_mvcc = self.ports.mem(MVCC);
        let mut row: Option<Row> = None;
        {
            let _s = self.ports.span(Phase::Storage);
            inner.tables[ti]
                .versions
                .read(mem_mvcc, id, snapshot, &mut |d| {
                    if !d.is_empty() {
                        row = tuple::decode(d).ok();
                    }
                });
        }
        let Some(mut row) = row else { return Ok(false) };
        f(&mut row);
        debug_assert!(
            inner.tables[ti].def.schema.check(&row),
            "row/schema mismatch"
        );
        let data = tuple::encode(&row);
        {
            let _s = self.ports.span(Phase::Storage);
            self.value_work(data.len() * 2);
        }
        let txn = self.cur.as_mut().expect("active");
        txn.writes.push(WriteOp {
            table: ti,
            key,
            kind: WriteKind::Update(id, data),
        });
        Ok(true)
    }

    fn scan(
        &mut self,
        t: TableId,
        lo: u64,
        hi: u64,
        f: &mut dyn FnMut(u64, &[Value]) -> bool,
    ) -> OltpResult<u64> {
        let shared = Rc::clone(&self.shared);
        let inner = &mut *shared.inner.borrow_mut();
        let ti = table_index(inner.tables.len(), t)?;
        let snapshot = self.active()?.snapshot;
        self.op_overhead();
        self.cc_access(t, lo, false)?;
        let mem_index = self.ports.mem(INDEX);
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        let supported = {
            let _i = self.ports.span(Phase::Index);
            inner.tables[ti]
                .index
                .as_index()
                .scan(mem_index, lo, hi, &mut |k, v| {
                    pairs.push((k, v));
                    true
                })
                .is_some()
        };
        if !supported {
            return Err(OltpError::Unsupported("range scan on hash index"));
        }
        let _s = self.ports.span(Phase::Storage);
        let mem_mvcc = self.ports.mem(MVCC);
        let mut visited = 0;
        for (k, payload) in pairs {
            self.ports.mem(MVCC).exec(cost::SCAN_NEXT);
            let mut decoded: Option<Row> = None;
            let mut bytes = 0;
            inner.tables[ti].versions.read(
                mem_mvcc,
                RowId::from_u64(payload),
                snapshot,
                &mut |d| {
                    if !d.is_empty() {
                        bytes = d.len();
                        decoded = tuple::decode(d).ok();
                    }
                },
            );
            self.value_work(bytes);
            if let Some(row) = decoded {
                visited += 1;
                if !f(k, &row) {
                    break;
                }
            }
        }
        Ok(visited)
    }

    fn delete(&mut self, t: TableId, key: u64) -> OltpResult<bool> {
        let shared = Rc::clone(&self.shared);
        let inner = &mut *shared.inner.borrow_mut();
        let ti = table_index(inner.tables.len(), t)?;
        let snapshot = self.active()?.snapshot;
        self.op_overhead();
        self.cc_access(t, key, true)?;
        if let Some(own) = self.own_write(ti, key) {
            if own.is_none() {
                return Ok(false);
            }
            // Deleting an own insert/update: mark the latest write deleted.
            let txn = self.cur.as_mut().expect("active");
            let pos = txn
                .writes
                .iter()
                .rposition(|w| w.table == ti && w.key == key)
                .expect("own write exists");
            match &txn.writes[pos].kind {
                WriteKind::Insert(_) => {
                    txn.writes.remove(pos);
                }
                WriteKind::Update(id, _) => {
                    let id = *id;
                    txn.writes[pos].kind = WriteKind::Delete(id);
                }
                WriteKind::Delete(_) => unreachable!("own_write returned Some"),
            }
            return Ok(true);
        }
        let mem_index = self.ports.mem(INDEX);
        let probe = {
            let _i = self.ports.span(Phase::Index);
            inner.tables[ti].index.as_index().get(mem_index, key)
        };
        let Some(payload) = probe else {
            return Ok(false);
        };
        let id = RowId::from_u64(payload);
        let mem_mvcc = self.ports.mem(MVCC);
        let visible = {
            let _s = self.ports.span(Phase::Storage);
            inner.tables[ti].versions.is_visible(mem_mvcc, id, snapshot)
        };
        if !visible {
            return Ok(false);
        }
        let txn = self.cur.as_mut().expect("active");
        txn.writes.push(WriteOp {
            table: ti,
            key,
            kind: WriteKind::Delete(id),
        });
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oltp::{Column, DataType, Schema};
    use uarch_sim::MachineConfig;

    fn setup(index: DbmsMIndex, compiled: bool) -> DbmsM {
        let sim = Sim::new(MachineConfig::ivy_bridge(1));
        DbmsM::new(&sim, DbmsMOptions { index, compiled })
    }

    fn micro_table(db: &mut DbmsM) -> TableId {
        db.create_table(TableDef::new(
            "t",
            Schema::new(vec![
                Column::new("key", DataType::Long),
                Column::new("val", DataType::Long),
            ]),
            1000,
        ))
    }

    #[test]
    fn writes_invisible_until_commit_then_visible() {
        let mut db = setup(DbmsMIndex::Hash, true);
        let t = micro_table(&mut db);
        let mut s = db.session(0);
        s.begin();
        s.insert(t, 5, &[Value::Long(5), Value::Long(1)]).unwrap();
        // Own write visible inside the txn.
        assert!(s.read(t, 5).unwrap().is_some());
        s.abort();
        // Aborted: nothing committed.
        s.begin();
        assert!(s.read(t, 5).unwrap().is_none());
        s.commit().unwrap();
    }

    #[test]
    fn scan_unsupported_on_hash_supported_on_btree() {
        let mut db = setup(DbmsMIndex::Hash, true);
        let t = micro_table(&mut db);
        let mut s = db.session(0);
        s.begin();
        assert!(matches!(
            s.scan(t, 0, 10, &mut |_, _| true),
            Err(OltpError::Unsupported(_))
        ));
        s.commit().unwrap();

        let mut db = setup(DbmsMIndex::BTree, true);
        let t = micro_table(&mut db);
        let mut s = db.session(0);
        s.begin();
        for k in 0..20u64 {
            s.insert(t, k, &[Value::Long(k as i64), Value::Long(k as i64)])
                .unwrap();
        }
        s.commit().unwrap();
        s.begin();
        assert_eq!(s.scan(t, 3, 7, &mut |_, _| true).unwrap(), 5);
        s.commit().unwrap();
    }

    #[test]
    fn compilation_reduces_instructions() {
        let run = |compiled: bool| {
            let sim = Sim::new(MachineConfig::ivy_bridge(1));
            let mut db = DbmsM::new(
                &sim,
                DbmsMOptions {
                    index: DbmsMIndex::Hash,
                    compiled,
                },
            );
            let t = micro_table(&mut db);
            let mut s = db.session(0);
            s.begin();
            for k in 0..500u64 {
                s.insert(t, k, &[Value::Long(k as i64), Value::Long(0)])
                    .unwrap();
            }
            s.commit().unwrap();
            let before = sim.counters(0).instructions;
            for k in 0..50u64 {
                s.begin();
                let _ = s.read(t, (k * 13) % 500).unwrap();
                s.commit().unwrap();
            }
            sim.counters(0).instructions - before
        };
        assert!(
            run(true) < run(false),
            "compiled path should retire fewer instructions"
        );
    }

    #[test]
    fn delete_of_own_insert_cancels_out() {
        let mut db = setup(DbmsMIndex::Hash, true);
        let t = micro_table(&mut db);
        let mut s = db.session(0);
        s.begin();
        s.insert(t, 9, &[Value::Long(9), Value::Long(9)]).unwrap();
        assert!(s.delete(t, 9).unwrap());
        assert!(s.read(t, 9).unwrap().is_none());
        s.commit().unwrap();
        assert_eq!(db.row_count(t), 0);
    }

    #[test]
    fn snapshot_isolation_across_two_sessions() {
        // T1 snapshots, T2 commits an update through its own session, T1
        // must still see the old value — all through the public API.
        let sim = Sim::new(MachineConfig::ivy_bridge(1));
        let mut db = DbmsM::new(&sim, DbmsMOptions::default());
        let t = micro_table(&mut db);
        let mut s1 = db.session(0);
        let mut s2 = db.session(0);
        s1.begin();
        s1.insert(t, 1, &[Value::Long(1), Value::Long(100)])
            .unwrap();
        s1.commit().unwrap();

        // T1 begins and reads.
        s1.begin();
        let t1_snapshot_val = s1.read(t, 1).unwrap().unwrap()[1].long();
        assert_eq!(t1_snapshot_val, 100);
        // T2 commits a newer version while T1 is still open.
        s2.begin();
        s2.update(t, 1, &mut |r| r[1] = Value::Long(999)).unwrap();
        s2.commit().unwrap();
        // T1 still sees its snapshot.
        assert_eq!(s1.read(t, 1).unwrap().unwrap()[1].long(), t1_snapshot_val);
        s1.commit().unwrap();
        // A fresh transaction sees the newer version.
        s1.begin();
        assert_eq!(s1.read(t, 1).unwrap().unwrap()[1].long(), 999);
        s1.commit().unwrap();
    }

    #[test]
    fn write_write_conflict_aborts_at_commit() {
        let sim = Sim::new(MachineConfig::ivy_bridge(1));
        let mut db = DbmsM::new(&sim, DbmsMOptions::default());
        let t = micro_table(&mut db);
        let mut s1 = db.session(0);
        let mut s2 = db.session(0);
        s1.begin();
        s1.insert(t, 1, &[Value::Long(1), Value::Long(1)]).unwrap();
        s1.commit().unwrap();
        // T1 buffers an update...
        s1.begin();
        s1.update(t, 1, &mut |r| r[1] = Value::Long(2)).unwrap();
        // ...while T2 installs a newer version first.
        s2.begin();
        s2.update(t, 1, &mut |r| r[1] = Value::Long(3)).unwrap();
        s2.commit().unwrap();
        // T1's commit must now fail first-writer-wins validation.
        assert_eq!(
            s1.commit().unwrap_err(),
            OltpError::ValidationFailed { table: t, key: 1 }
        );
        assert_eq!(db.validation_aborts(), 1);
    }
}
