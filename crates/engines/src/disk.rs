//! The shared-everything disk-based kernel: buffer pool + heap file,
//! hierarchical 2PL through the storage [`LockManager`], one engine-wide
//! WAL — instantiated by the [`crate::shore_mt`] and [`crate::dbms_d`]
//! profiles.
//!
//! The paper's central Shore-MT vs DBMS D contrast (§4.1.2) is "same
//! storage architecture, very different instruction footprint", and the
//! code says the same: this file owns the one copy of the transaction
//! pipeline (begin → cc → index → storage → log → commit/abort), sessions,
//! spans, fault sites, the latch model and durability; a [`DiskProfile`]
//! contributes only what the two systems do not share — code-module
//! footprints, per-phase instruction budgets, the B+tree node layout, and
//! the frontend work charged around the storage manager.
//!
//! Shared-everything concurrency: the storage structures (buffer pool,
//! lock table, WAL, heap/index) live in one engine-wide `RefCell` inside
//! an `Rc`; every worker opens a [`Session`] bound to its core. Each
//! operation borrows the engine state only for its own duration, while
//! 2PL row/table locks persist across operations — so interleaved
//! sessions conflict exactly where the lock manager says they do.

use std::cell::RefCell;
use std::rc::Rc;

use indexes::Index;
use obs::Phase;
use oltp::{tuple, CcPolicy, Db, OltpError, OltpResult, Row, Session, TableDef, TableId, Value};
use storage::wal::LogRecord;
use storage::{
    lock::LockOutcome, BufferPool, HeapFile, LockManager, LockMode, LockTarget, LogKind, Rid,
    TxnId, TxnManager, Wal,
};
use uarch_sim::{Mem, Sim};

use crate::durability::{configure_wal, flush_behind, wal_status, DurabilityCfg, LogStatus};
use crate::scaffold::{table_index, EngineCore, LatchModel, Module, Ports, RowImages};

/// Per-phase instruction budgets of the storage manager (tuned against the
/// paper's bars; see results/figures.md).
pub struct DiskCost {
    pub begin: u64,
    pub commit: u64,
    pub abort: u64,
    pub log_commit: u64,
    pub log_update: u64,
    /// Per lock acquisition.
    pub lock_wrap: u64,
    pub release: u64,
    /// Latch/SMO checks around an index descent.
    pub index_wrap: u64,
    pub heap_wrap: u64,
    /// Per scanned row.
    pub scan_next: u64,
    /// Latch spin per other open session (see [`LatchModel`]).
    pub latch_spin: u64,
}

/// Positions of the storage-manager modules in [`DiskProfile::MODULES`].
pub struct DiskRoles {
    pub txn: usize,
    pub lock: usize,
    pub btree: usize,
    pub bpool: usize,
    pub heap: usize,
    pub log: usize,
}

/// What distinguishes one disk-based system from another. Consts and types
/// where the difference is data; statically dispatched hooks where the
/// instruction stream itself differs (each hook charges through the
/// session's [`Ports`], indexed like [`DiskProfile::MODULES`]).
pub trait DiskProfile: 'static {
    /// Display name, span and metrics label.
    const LABEL: &'static str;
    /// Fault site probed on every lock-manager entry.
    const LATCH_SITE: &'static str;
    /// Fault site probed before the commit record is appended.
    const WAL_SITE: &'static str;
    /// Code modules in registration order.
    const MODULES: &'static [Module];
    const ROLES: DiskRoles;
    const COST: DiskCost;
    /// The 8 KB-page B+tree variant.
    type Index: Index;

    fn new_index(mem: &Mem) -> Self::Index;
    /// Frontend work before the storage manager sees a new transaction.
    fn charge_begin(ports: &Ports);
    /// Per-statement dispatch; `first` on a transaction's first operation.
    fn charge_op(ports: &Ports, first: bool);
    /// Frontend work after commit or abort (the reply).
    fn charge_reply(ports: &Ports);
    /// Value processing proportional to row bytes (§6.2).
    fn value_work(ports: &Ports, bytes: usize);
}

struct Table<I> {
    def: TableDef,
    heap: HeapFile,
    index: I,
}

/// Mutable engine state shared by all sessions.
struct Inner<I> {
    pool: BufferPool,
    locks: LockManager,
    wal: Wal,
    tm: TxnManager,
    tables: Vec<Table<I>>,
}

/// Immutable handle state + the engine-wide state.
struct Shared<P: DiskProfile> {
    core: EngineCore,
    latches: LatchModel,
    inner: RefCell<Inner<P::Index>>,
}

/// A disk-based engine; see the module docs and the profile's.
pub struct DiskEngine<P: DiskProfile> {
    shared: Rc<Shared<P>>,
}

/// One worker's connection to a [`DiskEngine`].
struct DiskSession<P: DiskProfile> {
    shared: Rc<Shared<P>>,
    ports: Ports,
    cur: Option<TxnId>,
    ops_in_txn: u32,
    images: RowImages,
}

/// Buffer-pool frames: sized to keep every experiment memory-resident
/// (the paper's setup; eviction is still exercised by dedicated tests).
const POOL_FRAMES: usize = 96 * 1024;

impl<P: DiskProfile> DiskEngine<P> {
    /// Build the engine on a simulator.
    pub fn new(sim: &Sim) -> Self {
        Self::with_cc(sim, CcPolicy::EngineDefault)
    }

    /// Build the engine with a pluggable CC protocol.
    /// [`CcPolicy::EngineDefault`] keeps the historical hierarchical 2PL
    /// (no-wait) through the storage [`LockManager`].
    pub fn with_cc(sim: &Sim, policy: CcPolicy) -> Self {
        let core = EngineCore::new(sim, P::LABEL, P::MODULES, policy, sim.cores());
        let mem = sim.mem(0);
        let inner = Inner {
            pool: BufferPool::new(&mem, POOL_FRAMES),
            locks: LockManager::new(&mem, 64 * 1024),
            wal: Wal::new(&mem, 1 << 20, 8),
            tm: TxnManager::new(),
            tables: Vec::new(),
        };
        DiskEngine {
            shared: Rc::new(Shared {
                latches: LatchModel::new(P::COST.latch_spin, &core),
                core,
                inner: RefCell::new(inner),
            }),
        }
    }

    #[cfg(test)]
    pub(crate) fn lock_entries(&self) -> usize {
        self.shared.inner.borrow().locks.entries()
    }
}

impl<P: DiskProfile> crate::durability::DurableDb for DiskEngine<P> {
    fn enable_durability(&mut self, cfg: &DurabilityCfg) {
        let mem = self.shared.core.mem(0, P::ROLES.log);
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
        let mem = self.shared.core.mem(0, P::ROLES.log);
        flush_behind(&mut self.shared.inner.borrow_mut().wal, &mem);
    }

    fn take_commit_latencies(&mut self) -> Vec<f64> {
        let inner = &mut *self.shared.inner.borrow_mut();
        inner.wal.take_commit_latencies()
    }
}

impl<P: DiskProfile> Db for DiskEngine<P> {
    fn name(&self) -> &'static str {
        P::LABEL
    }

    fn create_table(&mut self, def: TableDef) -> TableId {
        let mem = self.shared.core.mem(0, P::ROLES.btree);
        let inner = &mut *self.shared.inner.borrow_mut();
        let id = TableId(inner.tables.len() as u32);
        inner.tables.push(Table {
            def,
            heap: HeapFile::new(),
            index: P::new_index(&mem),
        });
        id
    }

    fn row_count(&self, t: TableId) -> u64 {
        let inner = self.shared.inner.borrow();
        inner
            .tables
            .get(t.0 as usize)
            .map_or(0, |tb| tb.heap.rows())
    }

    fn session(&self, core: usize) -> Box<dyn Session> {
        let ports = Ports::open(&self.shared.core, core);
        self.shared.latches.session_opened();
        Box::new(DiskSession {
            shared: Rc::clone(&self.shared),
            ports,
            cur: None,
            ops_in_txn: 0,
            images: RowImages::default(),
        })
    }
}

impl<P: DiskProfile> Drop for DiskSession<P> {
    fn drop(&mut self) {
        self.shared.latches.session_closed();
    }
}

impl<P: DiskProfile> DiskSession<P> {
    fn txn(&self) -> OltpResult<TxnId> {
        self.cur.ok_or(OltpError::NoActiveTxn)
    }

    fn exec_op(&mut self) {
        let _d = self.ports.span(Phase::Dispatch);
        P::charge_op(&self.ports, self.ops_in_txn == 0);
        self.ops_in_txn += 1;
    }

    fn acquire(
        &self,
        inner: &mut Inner<P::Index>,
        t: TableId,
        key: u64,
        target: LockTarget,
        mode: LockMode,
    ) -> OltpResult<()> {
        let txn = self.txn()?;
        let core = self.ports.core;
        let _cc = self.ports.span(Phase::Cc);
        let mem = self.ports.mem(P::ROLES.lock);
        mem.exec(P::COST.lock_wrap);
        self.shared.latches.latch_contention(core, mem);
        if faults::fire(P::LATCH_SITE, core) {
            return Err(OltpError::LatchTimeout(P::LATCH_SITE));
        }
        let write = matches!(mode, LockMode::X | LockMode::Ix);
        if let Some(r) = self.shared.core.cc_access(txn.0, t, key, write, core, mem) {
            return r;
        }
        match inner.locks.lock(mem, txn, target, mode) {
            LockOutcome::Granted => Ok(()),
            LockOutcome::Conflict => {
                self.shared.core.metrics.conflicts.inc(core);
                Err(OltpError::Conflict { table: t, key })
            }
        }
    }

    fn lock_pair(
        &self,
        inner: &mut Inner<P::Index>,
        t: TableId,
        key: u64,
        write: bool,
    ) -> OltpResult<()> {
        let (tm, rm) = if write {
            (LockMode::Ix, LockMode::X)
        } else {
            (LockMode::Is, LockMode::S)
        };
        // Under a pluggable protocol the table-intent level collapses into
        // the per-key hook, so each operation consults the CC layer once.
        if self.shared.core.cc.is_none() {
            self.acquire(inner, t, key, LockTarget::Table(t.0), tm)?;
        }
        self.acquire(inner, t, key, LockTarget::Row(t.0, key), rm)
    }

    /// Index probe under its latch/SMO wrapper.
    fn probe(&self, table: &mut Table<P::Index>, key: u64) -> Option<u64> {
        let _i = self.ports.span(Phase::Index);
        let mem = self.ports.mem(P::ROLES.btree);
        mem.exec(P::COST.index_wrap);
        table.index.get(mem, key)
    }

    /// The shared tail of commit and abort: drop the transaction's locks
    /// (or protocol state), then send the reply.
    fn release(&mut self, inner: &mut Inner<P::Index>, txn: TxnId, commit: bool) {
        {
            let core = self.ports.core;
            let _cc = self.ports.span(Phase::Cc);
            let mem = self.ports.mem(P::ROLES.lock);
            if commit {
                mem.exec(P::COST.release);
            }
            match (&self.shared.core.cc, commit) {
                (Some(cc), true) => cc.commit(txn.0, core, mem),
                (Some(cc), false) => cc.abort(txn.0, core, mem),
                (None, _) => inner.locks.release_all(mem, txn),
            }
        }
        P::charge_reply(&self.ports);
        self.cur = None;
    }
}

impl<P: DiskProfile> Session for DiskSession<P> {
    fn name(&self) -> &'static str {
        P::LABEL
    }

    fn core(&self) -> usize {
        self.ports.core
    }

    fn begin(&mut self) {
        assert!(self.cur.is_none(), "transaction already active");
        let shared = Rc::clone(&self.shared);
        let inner = &mut *shared.inner.borrow_mut();
        let core = self.ports.core;
        let _d = self.ports.span(Phase::Dispatch);
        let (txn, _) = inner.tm.begin();
        self.cur = Some(txn);
        self.ops_in_txn = 0;
        P::charge_begin(&self.ports);
        let mem = self.ports.mem(P::ROLES.txn);
        mem.exec(P::COST.begin);
        shared.latches.latch_contention(core, mem);
        if let Some(cc) = &shared.core.cc {
            cc.begin(txn.0, core, self.ports.mem(P::ROLES.lock));
        }
        let _l = self.ports.span(Phase::Log);
        inner
            .wal
            .append(self.ports.mem(P::ROLES.log), txn, LogKind::Begin, 0);
    }

    fn commit(&mut self) -> OltpResult<()> {
        let txn = self.txn()?;
        let shared = Rc::clone(&self.shared);
        let inner = &mut *shared.inner.borrow_mut();
        let core = self.ports.core;
        let _c = self.ports.span(Phase::Commit);
        self.ports.mem(P::ROLES.txn).exec(P::COST.commit);
        if let Some(cc) = &shared.core.cc {
            let mem = self.ports.mem(P::ROLES.lock);
            shared.core.cc_validate(cc.as_ref(), txn.0, core, mem)?;
        }
        {
            let _l = self.ports.span(Phase::Log);
            let mem = self.ports.mem(P::ROLES.log);
            mem.exec(P::COST.log_commit);
            shared.latches.latch_contention(core, mem);
            // WAL write failure: the txn stays open with its locks held;
            // the caller aborts, which releases them.
            if faults::fire(P::WAL_SITE, core) {
                return Err(OltpError::LogWriteFailed(P::WAL_SITE));
            }
            inner.wal.append(mem, txn, LogKind::Commit, 16);
        }
        self.release(inner, txn, true);
        shared.core.metrics.commits.inc(core);
        Ok(())
    }

    fn abort(&mut self) {
        if let Some(txn) = self.cur.take() {
            let shared = Rc::clone(&self.shared);
            let inner = &mut *shared.inner.borrow_mut();
            let _c = self.ports.span(Phase::Commit);
            self.ports.mem(P::ROLES.txn).exec(P::COST.abort);
            {
                let _l = self.ports.span(Phase::Log);
                inner
                    .wal
                    .append(self.ports.mem(P::ROLES.log), txn, LogKind::Abort, 0);
            }
            self.release(inner, txn, false);
            shared.core.metrics.aborts.inc(self.ports.core);
        }
    }

    fn insert(&mut self, t: TableId, key: u64, row: &[Value]) -> OltpResult<()> {
        let shared = Rc::clone(&self.shared);
        let inner = &mut *shared.inner.borrow_mut();
        let ti = table_index(inner.tables.len(), t)?;
        let txn = self.txn()?;
        debug_assert!(
            inner.tables[ti].def.schema.check(row),
            "row/schema mismatch"
        );
        self.exec_op();
        self.lock_pair(inner, t, key, true)?;
        let data = self.images.encode(row);
        P::value_work(&self.ports, data.len());
        let len = data.len() as u32;
        let (tables, pool) = (&mut inner.tables, &mut inner.pool);
        let mem_heap = self.ports.mem(P::ROLES.heap);
        let rid = {
            let _s = self.ports.span(Phase::Storage);
            mem_heap.exec(P::COST.heap_wrap);
            tables[ti].heap.insert(pool, mem_heap, data)
        };
        let inserted = {
            let _i = self.ports.span(Phase::Index);
            let mem = self.ports.mem(P::ROLES.btree);
            mem.exec(P::COST.index_wrap);
            tables[ti].index.insert(mem, key, rid.to_u64())
        };
        if !inserted {
            // Undo the heap insert (simplified physical undo).
            let _s = self.ports.span(Phase::Storage);
            tables[ti].heap.delete(pool, mem_heap, rid);
            return Err(OltpError::DuplicateKey { table: t, key });
        }
        let _l = self.ports.span(Phase::Log);
        let mem = self.ports.mem(P::ROLES.log);
        mem.exec(P::COST.log_update);
        inner
            .wal
            .append_data(mem, txn, LogKind::Insert, t.0, key, Some(data), None, len);
        Ok(())
    }

    fn read_with(&mut self, t: TableId, key: u64, f: &mut dyn FnMut(&[Value])) -> OltpResult<bool> {
        let shared = Rc::clone(&self.shared);
        let inner = &mut *shared.inner.borrow_mut();
        let ti = table_index(inner.tables.len(), t)?;
        self.exec_op();
        self.lock_pair(inner, t, key, false)?;
        let Some(payload) = self.probe(&mut inner.tables[ti], key) else {
            return Ok(false);
        };
        let _s = self.ports.span(Phase::Storage);
        let mem = self.ports.mem(P::ROLES.bpool);
        mem.exec(P::COST.heap_wrap);
        let mut decoded: Option<Row> = None;
        let (tables, pool) = (&mut inner.tables, &mut inner.pool);
        tables[ti]
            .heap
            .read(pool, mem, Rid::from_u64(payload), &mut |d| {
                decoded = tuple::decode(d).ok();
            });
        // A stored tuple that fails to decode reads as absent (engines
        // only read back what `tuple::encode_into` wrote).
        let Some(row) = decoded else { return Ok(false) };
        P::value_work(&self.ports, tuple::encoded_len(&row));
        f(&row);
        Ok(true)
    }

    fn update(&mut self, t: TableId, key: u64, f: &mut dyn FnMut(&mut Row)) -> OltpResult<bool> {
        let shared = Rc::clone(&self.shared);
        let inner = &mut *shared.inner.borrow_mut();
        let ti = table_index(inner.tables.len(), t)?;
        let txn = self.txn()?;
        self.exec_op();
        self.lock_pair(inner, t, key, true)?;
        let Some(payload) = self.probe(&mut inner.tables[ti], key) else {
            return Ok(false);
        };
        let rid = Rid::from_u64(payload);
        let mem = self.ports.mem(P::ROLES.bpool);
        let (tables, pool) = (&mut inner.tables, &mut inner.pool);
        let mut row: Option<Row> = None;
        // Before-image for undo-capable recovery (durable mode only).
        let keep_undo = inner.wal.retaining();
        let images = &mut self.images;
        {
            let _s = self.ports.span(Phase::Storage);
            mem.exec(P::COST.heap_wrap);
            tables[ti].heap.read(pool, mem, rid, &mut |d| {
                row = tuple::decode(d).ok();
                if keep_undo {
                    images.keep_undo(d);
                }
            });
        }
        let Some(mut row) = row else { return Ok(false) };
        f(&mut row);
        debug_assert!(tables[ti].def.schema.check(&row), "row/schema mismatch");
        let data = images.encode(&row);
        let len = data.len() as u32;
        let new_rid = {
            let _s = self.ports.span(Phase::Storage);
            P::value_work(&self.ports, data.len() * 2);
            tables[ti]
                .heap
                .update(pool, mem, rid, data)
                .expect("row vanished mid-update")
        };
        if new_rid != rid {
            let _i = self.ports.span(Phase::Index);
            let mem = self.ports.mem(P::ROLES.btree);
            tables[ti].index.replace(mem, key, new_rid.to_u64());
        }
        let _l = self.ports.span(Phase::Log);
        let mem = self.ports.mem(P::ROLES.log);
        mem.exec(P::COST.log_update);
        inner.wal.append_data(
            mem,
            txn,
            LogKind::Update,
            t.0,
            key,
            Some(&images.redo),
            keep_undo.then_some(&images.undo),
            len * 2,
        );
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
        self.exec_op();
        // Range scans take a table-level S lock (no next-key locking).
        self.acquire(inner, t, lo, LockTarget::Table(t.0), LockMode::S)?;
        let (tables, pool) = (&mut inner.tables, &mut inner.pool);
        let mut rids: Vec<(u64, u64)> = Vec::new();
        {
            let _i = self.ports.span(Phase::Index);
            let mem = self.ports.mem(P::ROLES.btree);
            mem.exec(P::COST.index_wrap);
            tables[ti].index.scan(mem, lo, hi, &mut |k, p| {
                rids.push((k, p));
                true
            });
        }
        let _s = self.ports.span(Phase::Storage);
        let mem = self.ports.mem(P::ROLES.bpool);
        let mut visited = 0;
        for (k, p) in rids {
            mem.exec(P::COST.scan_next);
            let mut decoded: Option<Row> = None;
            tables[ti].heap.read(pool, mem, Rid::from_u64(p), &mut |d| {
                decoded = tuple::decode(d).ok();
            });
            if let Some(row) = decoded {
                P::value_work(&self.ports, tuple::encoded_len(&row));
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
        let txn = self.txn()?;
        self.exec_op();
        self.lock_pair(inner, t, key, true)?;
        let removed = {
            let _i = self.ports.span(Phase::Index);
            let mem = self.ports.mem(P::ROLES.btree);
            mem.exec(P::COST.index_wrap);
            inner.tables[ti].index.remove(mem, key)
        };
        let Some(payload) = removed else {
            return Ok(false);
        };
        let rid = Rid::from_u64(payload);
        let mut captured = false;
        {
            let _s = self.ports.span(Phase::Storage);
            let mem = self.ports.mem(P::ROLES.heap);
            mem.exec(P::COST.heap_wrap);
            let (tables, pool) = (&mut inner.tables, &mut inner.pool);
            if inner.wal.retaining() {
                // Before-image read so recovery can restore the row if
                // this transaction never commits (durable mode only).
                tables[ti].heap.read(pool, mem, rid, &mut |d| {
                    self.images.keep_undo(d);
                    captured = true;
                });
            }
            tables[ti].heap.delete(pool, mem, rid);
        }
        let _l = self.ports.span(Phase::Log);
        let mem = self.ports.mem(P::ROLES.log);
        mem.exec(P::COST.log_update);
        let undo = captured.then_some(&self.images.undo[..]);
        inner
            .wal
            .append_data(mem, txn, LogKind::Delete, t.0, key, None, undo, 16);
        Ok(true)
    }
}
