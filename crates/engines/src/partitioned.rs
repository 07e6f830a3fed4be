//! The partitioned in-memory kernel: partition-per-core serial execution —
//! instantiated by the [`crate::voltdb`] and [`crate::hyper`] profiles.
//!
//! §2.1/§3: both systems physically partition the data and run exactly one
//! worker thread per partition, so single-partition transactions need *no*
//! locking or latching. What separates them is how a transaction's code
//! reaches the data — interpreted plan fragments behind a Java runtime and
//! a cache-conscious B+tree versus machine code compiled per procedure and
//! an ART — and that is all a [`PartitionProfile`] contributes. This file
//! owns the one copy of everything else: per-partition [`MemStore`] +
//! index + log, the owner claim, sessions, spans, fault sites, NUMA
//! homing, the multi-partition path and durability.
//!
//! Concurrency model: each [`Session`] maps its core onto one data
//! partition (`core % partitions`). Partitions are independent islands,
//! each in its own `RefCell` — in the paper's deployment (one worker per
//! partition) no two workers share one. If more workers than partitions
//! are opened, a no-wait owner-claim scheme makes the serial-execution
//! rule visible: the first transaction to touch a partition owns it until
//! commit/abort, and any other transaction's operation fails with
//! [`OltpError::Conflict`].

use std::cell::RefCell;
use std::rc::Rc;

use indexes::Index;
use obs::Phase;
use oltp::{tuple, CcPolicy, Db, OltpError, OltpResult, Row, Session, TableDef, TableId, Value};
use storage::wal::LogRecord;
use storage::{LogKind, MemStore, RowId, TxnId, TxnManager, Wal};
use uarch_sim::{AllocHomeGuard, Mem, Sim};

use crate::durability::{configure_wal, flush_behind, wal_status, DurabilityCfg, LogStatus};
use crate::placement::Placement;
use crate::scaffold::{str_key, table_index, EngineCore, Module, Ports, RowImages};

/// Budgets of the steps the kernel itself charges (everything else is
/// charged inside profile hooks).
pub struct PartitionCost {
    /// Commits per group flush of a partition's log.
    pub wal_group: u32,
    /// Asynchronous command/redo-log append at commit.
    pub log_commit: u64,
    /// Payload bytes of the commit record.
    pub commit_record: u32,
    /// Cross-partition dispatch when the own-partition probe misses.
    pub mp_coord: u64,
    /// Fragment entry on each remote partition probed.
    pub mp_probe: u64,
}

/// Positions in [`PartitionProfile::MODULES`] of the modules the kernel
/// charges to.
pub struct PartitionRoles {
    /// Protocol begin/validate/commit/abort under a pluggable CC.
    pub cc_txn: usize,
    /// Protocol read/write hooks under a pluggable CC.
    pub cc_access: usize,
    pub index: usize,
    pub store: usize,
    pub log: usize,
    pub mp_coord: usize,
    pub mp_probe: usize,
}

/// One table's replica on one partition.
pub struct PTable<I> {
    pub store: MemStore,
    pub index: I,
    /// Whether the primary-key column is a string (extra compare work).
    pub str_key: bool,
}

/// What distinguishes one partitioned system from another. Consts and
/// types where the difference is data; statically dispatched hooks where
/// the instruction stream itself differs. Hooks charge through the
/// session's [`Ports`] (indexed like [`PartitionProfile::MODULES`]); a hook
/// documented as owning its spans opens them itself, because the two
/// systems order those steps differently.
pub trait PartitionProfile: 'static {
    /// Display name, span and metrics label.
    const LABEL: &'static str;
    /// Fault site probed on every partition claim.
    const CLAIM_SITE: &'static str;
    /// Fault site probed before the commit record is appended.
    const LOG_SITE: &'static str;
    /// Code modules in registration order.
    const MODULES: &'static [Module];
    const ROLES: PartitionRoles;
    const COST: PartitionCost;
    /// Whether the commit's log span stays open across a pluggable
    /// protocol's commit-time release (attributing it to the log phase).
    const LOG_SPAN_COVERS_CC_RELEASE: bool;
    type Index: Index;
    /// Engine-wide profile state.
    type State: Default;

    fn new_index(mem: &Mem) -> Self::Index;
    /// Request intake, inside the kernel's dispatch span.
    fn charge_begin(ports: &Ports, state: &Self::State);
    /// Per-operation dispatch, inside the kernel's dispatch span; `first`
    /// on a transaction's first operation.
    fn charge_op(ports: &Ports, first: bool);
    /// Inside the kernel's commit span, before validation and logging.
    fn charge_commit(ports: &Ports, state: &Self::State);
    fn charge_abort(ports: &Ports);
    /// Key-comparison work ahead of a point probe. Owns its spans.
    fn key_work(ports: &Ports, table: &PTable<Self::Index>);
    /// Value processing proportional to row bytes (§6.2), inside the
    /// kernel's storage span.
    fn value_work(ports: &Ports, table: &PTable<Self::Index>, bytes: usize);
    /// Process a new row's values and place it in the store. Owns its
    /// spans.
    fn store_insert(ports: &Ports, table: &mut PTable<Self::Index>, data: &[u8]) -> RowId;
    /// One row of a range scan (step, dereference, value work), inside
    /// the kernel's storage span. `None` if the row does not decode.
    fn scan_row(ports: &Ports, store: &MemStore, id: RowId) -> Option<Row>;
}

/// One partition's private state: its table replicas, its command/redo log
/// (no shared log-buffer lines), and the single-sited execution claim.
struct PartState<I> {
    tables: Vec<PTable<I>>,
    wal: Wal,
    /// The transaction currently executing on this partition, if any
    /// (serial execution: one transaction at a time per partition).
    owner: Option<TxnId>,
}

struct Shared<P: PartitionProfile> {
    core: EngineCore,
    state: P::State,
    defs: RefCell<Vec<TableDef>>,
    parts: Vec<RefCell<PartState<P::Index>>>,
    tm: RefCell<TxnManager>,
    /// NUMA placement: decides which home tag each partition's
    /// allocations carry (no effect on single-socket machines).
    placement: Placement,
}

/// Scope partition `p`'s allocations to its home-tag arena (NUMA machines
/// with a tagging placement only).
fn home_guard(sim: &Sim, placement: Placement, p: usize) -> Option<AllocHomeGuard> {
    if sim.sockets() <= 1 {
        return None;
    }
    placement.partition_tag(p).map(|t| sim.alloc_home_guard(t))
}

/// A partitioned engine; see the module docs and the profile's.
pub struct PartitionedEngine<P: PartitionProfile> {
    shared: Rc<Shared<P>>,
}

/// One worker's connection to a [`PartitionedEngine`], pinned to the
/// partition `core % partitions`.
struct PartitionSession<P: PartitionProfile> {
    shared: Rc<Shared<P>>,
    ports: Ports,
    cur: Option<TxnId>,
    ops_in_txn: u32,
    /// Behind a `RefCell` because a cross-partition update rewrites its
    /// row from inside [`PartitionSession::mp_route`], which holds `&self`.
    images: RefCell<RowImages>,
}

impl<P: PartitionProfile> PartitionedEngine<P> {
    /// Build the engine with `partitions` single-threaded partitions
    /// (the paper configures one partition in single-threaded runs and one
    /// per worker otherwise, with all transactions single-sited).
    pub fn new(sim: &Sim, partitions: usize) -> Self {
        Self::with_cc_placed(sim, partitions, CcPolicy::EngineDefault, Placement::Spread)
    }

    /// Build the engine with a pluggable CC protocol
    /// ([`CcPolicy::EngineDefault`] keeps the historical no-wait
    /// partition-owner claim) and an explicit NUMA placement: partition
    /// allocations carry the placement's home tag so a multi-socket
    /// simulator can charge remote accesses by partition home.
    pub fn with_cc_placed(
        sim: &Sim,
        partitions: usize,
        policy: CcPolicy,
        placement: Placement,
    ) -> Self {
        assert!(partitions >= 1);
        let core = EngineCore::new(sim, P::LABEL, P::MODULES, policy, partitions);
        let mem = sim.mem(0);
        let parts = (0..partitions)
            .map(|p| {
                // Home each partition's log with its data.
                let _h = home_guard(sim, placement, p);
                RefCell::new(PartState {
                    tables: Vec::new(),
                    wal: Wal::new(&mem, 1 << 20, P::COST.wal_group),
                    owner: None,
                })
            })
            .collect();
        PartitionedEngine {
            shared: Rc::new(Shared {
                core,
                state: P::State::default(),
                defs: RefCell::new(Vec::new()),
                parts,
                tm: RefCell::new(TxnManager::new()),
                placement,
            }),
        }
    }

    /// The profile's engine-wide state.
    pub fn state(&self) -> &P::State {
        &self.shared.state
    }

    /// `f` over every partition's log, with the port its flushes charge.
    fn each_wal<R>(&self, mut f: impl FnMut(usize, &mut Wal, &Mem) -> R) -> Vec<R> {
        let core = &self.shared.core;
        let parts = self.shared.parts.iter().enumerate();
        parts
            .map(|(p, part)| {
                let mem = core.mem(p % core.sim.cores(), P::ROLES.log);
                f(p, &mut part.borrow_mut().wal, &mem)
            })
            .collect()
    }
}

impl<P: PartitionProfile> crate::durability::DurableDb for PartitionedEngine<P> {
    fn enable_durability(&mut self, cfg: &DurabilityCfg) {
        self.each_wal(|_, wal, mem| configure_wal(wal, mem, cfg));
    }

    fn log_streams(&self) -> Vec<Vec<LogRecord>> {
        self.each_wal(|_, wal, _| wal.records().to_vec())
    }

    fn take_log_streams(&mut self) -> Vec<Vec<LogRecord>> {
        self.each_wal(|_, wal, _| wal.take_records())
    }

    fn log_status(&self) -> Vec<LogStatus> {
        self.each_wal(|p, wal, _| wal_status(p, wal))
    }

    fn flush_all(&mut self) {
        self.each_wal(|_, wal, mem| flush_behind(wal, mem));
    }

    fn take_commit_latencies(&mut self) -> Vec<f64> {
        let per_part = self.each_wal(|_, wal, _| wal.take_commit_latencies());
        per_part.into_iter().flatten().collect()
    }
}

impl<P: PartitionProfile> Db for PartitionedEngine<P> {
    fn name(&self) -> &'static str {
        P::LABEL
    }

    fn partitions(&self) -> usize {
        self.shared.parts.len()
    }

    fn create_table(&mut self, def: TableDef) -> TableId {
        let shared = &self.shared;
        let defs = &mut *shared.defs.borrow_mut();
        let id = TableId(defs.len() as u32);
        let str_key = str_key(&def);
        defs.push(def);
        for (p, part) in shared.parts.iter().enumerate() {
            let _h = home_guard(&shared.core.sim, shared.placement, p);
            let mem = shared.core.mem(p % shared.core.sim.cores(), P::ROLES.index);
            part.borrow_mut().tables.push(PTable {
                store: MemStore::new(),
                index: P::new_index(&mem),
                str_key,
            });
        }
        id
    }

    fn row_count(&self, t: TableId) -> u64 {
        let live = |p: &RefCell<PartState<P::Index>>| {
            let part = p.borrow();
            part.tables
                .get(t.0 as usize)
                .map_or(0, |tb| tb.store.live())
        };
        self.shared.parts.iter().map(live).sum()
    }

    fn session(&self, core: usize) -> Box<dyn Session> {
        Box::new(PartitionSession {
            shared: Rc::clone(&self.shared),
            ports: Ports::open(&self.shared.core, core),
            cur: None,
            ops_in_txn: 0,
            images: RefCell::default(),
        })
    }
}

impl<P: PartitionProfile> PartitionSession<P> {
    fn part(&self) -> usize {
        self.ports.core % self.shared.parts.len()
    }

    fn txn(&self) -> OltpResult<TxnId> {
        self.cur.ok_or(OltpError::NoActiveTxn)
    }

    fn table(&self, t: TableId) -> OltpResult<usize> {
        table_index(self.shared.defs.borrow().len(), t)
    }

    fn exec_op(&mut self) {
        let _d = self.ports.span(Phase::Dispatch);
        P::charge_op(&self.ports, self.ops_in_txn == 0);
        self.ops_in_txn += 1;
    }

    /// Serial-execution claim: the first transaction to touch a partition
    /// owns it until commit/abort; any other transaction's operation is a
    /// no-wait [`OltpError::Conflict`]. Never fires in the paper's
    /// one-worker-per-partition deployment. Under a pluggable protocol the
    /// claim is delegated to the CC layer's read/write hooks instead.
    fn claim(
        &self,
        part: &mut PartState<P::Index>,
        t: TableId,
        key: u64,
        write: bool,
    ) -> OltpResult<()> {
        let Some(txn) = self.cur else { return Ok(()) };
        let core = self.ports.core;
        if faults::fire(P::CLAIM_SITE, core) {
            return Err(OltpError::Conflict { table: t, key });
        }
        let mem = self.ports.mem(P::ROLES.cc_access);
        if let Some(r) = self.shared.core.cc_access(txn.0, t, key, write, core, mem) {
            return r;
        }
        match part.owner {
            None => {
                part.owner = Some(txn);
                Ok(())
            }
            Some(o) if o == txn => Ok(()),
            Some(_) => {
                self.shared.core.metrics.conflicts.inc(core);
                Err(OltpError::Conflict { table: t, key })
            }
        }
    }

    fn probe(&self, table: &mut PTable<P::Index>, key: u64) -> Option<u64> {
        let _i = self.ports.span(Phase::Index);
        table.index.get(self.ports.mem(P::ROLES.index), key)
    }

    /// Read the row at `payload` and hand it to `f`; `false` if it does
    /// not decode.
    fn read_row(
        &self,
        table: &PTable<P::Index>,
        payload: u64,
        f: &mut dyn FnMut(&[Value]),
    ) -> bool {
        let _s = self.ports.span(Phase::Storage);
        let mut decoded: Option<Row> = None;
        let mut bytes = 0;
        let mem = self.ports.mem(P::ROLES.store);
        table.store.read(mem, RowId::from_u64(payload), &mut |d| {
            bytes = d.len();
            decoded = tuple::decode(d).ok();
        });
        P::value_work(&self.ports, table, bytes);
        decoded.is_some_and(|row| {
            f(&row);
            true
        })
    }

    /// Read-modify-write the row at `payload` in place, leaving the
    /// after-image (and, when `keep_undo`, the before-image) in
    /// `self.images`. `false` if the stored row does not decode.
    fn rewrite_row(
        &self,
        table: &mut PTable<P::Index>,
        ti: usize,
        payload: u64,
        keep_undo: bool,
        f: &mut dyn FnMut(&mut Row),
    ) -> bool {
        let id = RowId::from_u64(payload);
        let mem = self.ports.mem(P::ROLES.store);
        let images = &mut *self.images.borrow_mut();
        let mut row: Option<Row> = None;
        {
            let _s = self.ports.span(Phase::Storage);
            table.store.read(mem, id, &mut |d| {
                row = tuple::decode(d).ok();
                if keep_undo {
                    images.keep_undo(d);
                }
            });
        }
        let Some(mut row) = row else { return false };
        f(&mut row);
        debug_assert!(
            self.shared.defs.borrow()[ti].schema.check(&row),
            "row/schema mismatch"
        );
        let encoded = images.encode(&row);
        let _s = self.ports.span(Phase::Storage);
        P::value_work(&self.ports, table, encoded.len() * 2);
        table.store.update(mem, id, encoded);
        true
    }

    /// Own-partition probe missed on a multi-socket machine: the key may
    /// belong to another partition (a cross-socket request in the islands
    /// workload). Route through the coordinator, probe the remaining
    /// partitions, and run `body` on the first hit. The remote partition
    /// is *not* claimed — the coordinator serializes the fragment, and
    /// commit only releases this session's own partition. Single-socket
    /// machines return `None` before touching anything, keeping the
    /// historical single-partition behaviour bit-identical.
    fn mp_route<R>(
        &self,
        ti: usize,
        key: u64,
        skip: usize,
        body: impl FnOnce(&mut PTable<P::Index>, u64) -> R,
    ) -> Option<R> {
        let shared = &self.shared;
        if shared.core.sim.sockets() <= 1 || shared.parts.len() <= 1 {
            return None;
        }
        {
            let _d = self.ports.span(Phase::Dispatch);
            self.ports.mem(P::ROLES.mp_coord).exec(P::COST.mp_coord);
        }
        for q in (0..shared.parts.len()).filter(|&q| q != skip) {
            let part = &mut *shared.parts[q].borrow_mut();
            self.ports.mem(P::ROLES.mp_probe).exec(P::COST.mp_probe);
            let table = &mut part.tables[ti];
            if let Some(payload) = self.probe(table, key) {
                return Some(body(table, payload));
            }
        }
        None
    }
}

impl<P: PartitionProfile> Session for PartitionSession<P> {
    fn name(&self) -> &'static str {
        P::LABEL
    }

    fn core(&self) -> usize {
        self.ports.core
    }

    fn begin(&mut self) {
        assert!(self.cur.is_none(), "transaction already active");
        let _d = self.ports.span(Phase::Dispatch);
        let (txn, _) = self.shared.tm.borrow_mut().begin();
        self.cur = Some(txn);
        self.ops_in_txn = 0;
        P::charge_begin(&self.ports, &self.shared.state);
        if let Some(cc) = &self.shared.core.cc {
            let mem = self.ports.mem(P::ROLES.cc_txn);
            cc.begin(txn.0, self.ports.core, mem);
        }
    }

    fn commit(&mut self) -> OltpResult<()> {
        let txn = self.txn()?;
        let shared = Rc::clone(&self.shared);
        let core = self.ports.core;
        let _c = self.ports.span(Phase::Commit);
        P::charge_commit(&self.ports, &shared.state);
        let cc_mem = self.ports.mem(P::ROLES.cc_txn);
        if let Some(cc) = &shared.core.cc {
            // Validation failure leaves the txn open (writes may have
            // applied in place); the caller aborts, dropping CC state.
            shared.core.cc_validate(cc.as_ref(), txn.0, core, cc_mem)?;
        }
        let log = self.ports.span(Phase::Log);
        let mem = self.ports.mem(P::ROLES.log);
        mem.exec(P::COST.log_commit);
        // Log write failure: the txn stays open (writes may have applied);
        // the caller aborts, releasing the partition claim.
        if faults::fire(P::LOG_SITE, core) {
            return Err(OltpError::LogWriteFailed(P::LOG_SITE));
        }
        {
            let part = &mut *shared.parts[self.part()].borrow_mut();
            part.wal
                .append(mem, txn, LogKind::Commit, P::COST.commit_record);
            if part.owner == Some(txn) {
                part.owner = None;
            }
        }
        let log = P::LOG_SPAN_COVERS_CC_RELEASE.then_some(log);
        if let Some(cc) = &shared.core.cc {
            cc.commit(txn.0, core, cc_mem);
        }
        drop(log);
        self.cur = None;
        shared.core.metrics.commits.inc(core);
        Ok(())
    }

    fn abort(&mut self) {
        if let Some(txn) = self.cur.take() {
            let core = self.ports.core;
            let _c = self.ports.span(Phase::Commit);
            P::charge_abort(&self.ports);
            let part = &mut *self.shared.parts[self.part()].borrow_mut();
            if part.owner == Some(txn) {
                part.owner = None;
            }
            if part.wal.retaining() {
                // Durable mode: mark the rollback so recovery classifies
                // this txn aborted, not crashed mid-flight.
                let mem = self.ports.mem(P::ROLES.log);
                part.wal.append(mem, txn, LogKind::Abort, 0);
            }
            if let Some(cc) = &self.shared.core.cc {
                cc.abort(txn.0, core, self.ports.mem(P::ROLES.cc_txn));
            }
            self.shared.core.metrics.aborts.inc(core);
        }
    }

    fn insert(&mut self, t: TableId, key: u64, row: &[Value]) -> OltpResult<()> {
        let shared = Rc::clone(&self.shared);
        let ti = self.table(t)?;
        let txn = self.txn()?;
        debug_assert!(
            shared.defs.borrow()[ti].schema.check(row),
            "row/schema mismatch"
        );
        self.exec_op();
        let p = self.part();
        // Rows and index nodes land in the partition's home-tag arena.
        let _h = home_guard(&shared.core.sim, shared.placement, p);
        let part = &mut *shared.parts[p].borrow_mut();
        self.claim(part, t, key, true)?;
        let data = self.images.get_mut().encode(row);
        let table = &mut part.tables[ti];
        let id = P::store_insert(&self.ports, table, data);
        let inserted = {
            let _i = self.ports.span(Phase::Index);
            let mem = self.ports.mem(P::ROLES.index);
            table.index.insert(mem, key, id.to_u64())
        };
        if !inserted {
            let _s = self.ports.span(Phase::Storage);
            table.store.delete(self.ports.mem(P::ROLES.store), id);
            return Err(OltpError::DuplicateKey { table: t, key });
        }
        // Durable mode: the log carries data records too (the default
        // command/redo log appends only Commit markers).
        if part.wal.retaining() {
            let _l = self.ports.span(Phase::Log);
            let mem = self.ports.mem(P::ROLES.log);
            let len = data.len() as u32;
            part.wal
                .append_data(mem, txn, LogKind::Insert, t.0, key, Some(data), None, len);
        }
        Ok(())
    }

    fn read_with(&mut self, t: TableId, key: u64, f: &mut dyn FnMut(&[Value])) -> OltpResult<bool> {
        let shared = Rc::clone(&self.shared);
        let ti = self.table(t)?;
        self.exec_op();
        let p = self.part();
        {
            let part = &mut *shared.parts[p].borrow_mut();
            self.claim(part, t, key, false)?;
            let table = &mut part.tables[ti];
            P::key_work(&self.ports, table);
            if let Some(payload) = self.probe(table, key) {
                return Ok(self.read_row(table, payload, f));
            }
        }
        let hit = self.mp_route(ti, key, p, |table, payload| {
            self.read_row(table, payload, f)
        });
        Ok(hit.unwrap_or(false))
    }

    fn update(&mut self, t: TableId, key: u64, f: &mut dyn FnMut(&mut Row)) -> OltpResult<bool> {
        let shared = Rc::clone(&self.shared);
        let ti = self.table(t)?;
        let txn = self.txn()?;
        self.exec_op();
        let p = self.part();
        {
            let part = &mut *shared.parts[p].borrow_mut();
            self.claim(part, t, key, true)?;
            // Durable mode logs the update with its before-image.
            let durable = part.wal.retaining();
            let table = &mut part.tables[ti];
            P::key_work(&self.ports, table);
            if let Some(payload) = self.probe(table, key) {
                if !self.rewrite_row(table, ti, payload, durable, f) {
                    return Ok(false);
                }
                if durable {
                    let _l = self.ports.span(Phase::Log);
                    let mem = self.ports.mem(P::ROLES.log);
                    let images = self.images.get_mut();
                    let len = images.redo.len() as u32;
                    part.wal.append_data(
                        mem,
                        txn,
                        LogKind::Update,
                        t.0,
                        key,
                        Some(&images.redo),
                        Some(&images.undo),
                        len * 2,
                    );
                }
                return Ok(true);
            }
        }
        let hit = self.mp_route(ti, key, p, |table, payload| {
            self.rewrite_row(table, ti, payload, false, f)
        });
        Ok(hit.unwrap_or(false))
    }

    fn scan(
        &mut self,
        t: TableId,
        lo: u64,
        hi: u64,
        f: &mut dyn FnMut(u64, &[Value]) -> bool,
    ) -> OltpResult<u64> {
        let shared = Rc::clone(&self.shared);
        let ti = self.table(t)?;
        self.exec_op();
        let part = &mut *shared.parts[self.part()].borrow_mut();
        self.claim(part, t, lo, false)?;
        let table = &mut part.tables[ti];
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        {
            let _i = self.ports.span(Phase::Index);
            let mem = self.ports.mem(P::ROLES.index);
            table.index.scan(mem, lo, hi, &mut |k, v| {
                pairs.push((k, v));
                true
            });
        }
        let _s = self.ports.span(Phase::Storage);
        let mut visited = 0;
        for (k, payload) in pairs {
            let row = P::scan_row(&self.ports, &table.store, RowId::from_u64(payload));
            if let Some(row) = row {
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
        let ti = self.table(t)?;
        let txn = self.txn()?;
        self.exec_op();
        let part = &mut *shared.parts[self.part()].borrow_mut();
        self.claim(part, t, key, true)?;
        let table = &mut part.tables[ti];
        let removed = {
            let _i = self.ports.span(Phase::Index);
            table.index.remove(self.ports.mem(P::ROLES.index), key)
        };
        let Some(payload) = removed else {
            return Ok(false);
        };
        let id = RowId::from_u64(payload);
        let images = self.images.get_mut();
        let mut captured = false;
        {
            let _s = self.ports.span(Phase::Storage);
            let mem = self.ports.mem(P::ROLES.store);
            if part.wal.retaining() {
                // Before-image read so recovery can restore the row if
                // this transaction never commits (durable mode only).
                table.store.read(mem, id, &mut |d| {
                    images.keep_undo(d);
                    captured = true;
                });
            }
            table.store.delete(mem, id);
        }
        if part.wal.retaining() {
            let _l = self.ports.span(Phase::Log);
            let mem = self.ports.mem(P::ROLES.log);
            let undo = captured.then_some(&images.undo[..]);
            part.wal
                .append_data(mem, txn, LogKind::Delete, t.0, key, None, undo, 16);
        }
        Ok(true)
    }
}
