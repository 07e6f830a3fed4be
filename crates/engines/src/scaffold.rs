//! Cross-engine scaffolding: the plumbing every engine family needs in the
//! same form, kept in one place so a cross-cutting change (a new fault
//! site, a metric, a durability knob) lands once.
//!
//! * [`Module`] — a code module's §2.1 characterization as `const` data;
//!   [`EngineCore::new`] registers a profile's table in order (registration
//!   order fixes module ids and code addresses, so it is behaviour).
//! * [`EngineCore`] — simulator handle, module ids, metrics, and the
//!   pluggable-CC hook-up (`on_read`/`on_write`, validation and its
//!   `cc/validate` fault site).
//! * [`Ports`] — one session's core and a [`Mem`] per module.
//! * [`LatchModel`] — the `open_sessions` contention tax of the
//!   shared-everything engines.
//! * [`RowImages`] — a session's reusable buffers for the encoded rows
//!   its writes store and log.
//!
//! The module is private and its items `pub`: profiles name them in trait
//! signatures, code outside the crate cannot.

use std::cell::Cell;
use std::rc::Rc;

use obs::metrics::{Counter, EngineMetrics};
use obs::{Phase, SpanGuard};
use oltp::tuple::{self, BytesMut};
use oltp::{CcPolicy, ConcurrencyControl, OltpError, OltpResult, TableDef, TableId, Value};
use uarch_sim::{Mem, ModuleId, ModuleSpec, Sim};

/// One code module of an engine: footprint / reuse / branchiness per the
/// paper's §2.1 characterization. `engine_side` marks storage-manager code
/// for the Figure 7 breakdown.
pub struct Module {
    name: &'static str,
    footprint: u32,
    reuse: f64,
    branchiness: f64,
    engine_side: bool,
}

impl Module {
    /// A frontend-side module.
    pub const fn new(name: &'static str, footprint: u32, reuse: f64, branchiness: f64) -> Self {
        Module {
            name,
            footprint,
            reuse,
            branchiness,
            engine_side: false,
        }
    }

    /// Mark the module as inside the storage manager.
    pub const fn engine_side(self) -> Self {
        Module {
            engine_side: true,
            ..self
        }
    }
}

/// State every engine shares whatever its storage and CC family.
pub struct EngineCore {
    pub sim: Sim,
    /// Display name; also the engine label on spans and metrics.
    pub label: &'static str,
    /// Registered ids, indexed like the profile's [`Module`] table.
    pub mods: Vec<ModuleId>,
    pub metrics: EngineMetrics,
    /// Pluggable protocol; `None` = the engine's own historical path
    /// (bit-identical to pre-CC-layer builds).
    pub cc: Option<Rc<dyn ConcurrencyControl>>,
}

impl EngineCore {
    /// Register `modules` in table order and build the protocol for
    /// `policy` (`stripes` seeds partition-serial's stripe count).
    pub fn new(
        sim: &Sim,
        label: &'static str,
        modules: &[Module],
        policy: CcPolicy,
        stripes: usize,
    ) -> Self {
        let mods = modules
            .iter()
            .map(|m| {
                sim.register_module(
                    ModuleSpec::new(m.name, m.footprint)
                        .reuse(m.reuse)
                        .branchiness(m.branchiness)
                        .engine_side(m.engine_side),
                )
            })
            .collect();
        EngineCore {
            sim: sim.clone(),
            label,
            mods,
            metrics: EngineMetrics::new(label),
            cc: oltp::cc::build(policy, stripes),
        }
    }

    /// Port of `core` bound to module `module` (setup-time paths; sessions
    /// use their cached [`Ports`]).
    pub fn mem(&self, core: usize, module: usize) -> Mem {
        self.sim.mem(core).with_module(self.mods[module])
    }

    /// Consult the pluggable protocol for one key access. `None` when the
    /// engine runs its own default path.
    pub fn cc_access(
        &self,
        txn: u64,
        t: TableId,
        key: u64,
        write: bool,
        core: usize,
        mem: &Mem,
    ) -> Option<OltpResult<()>> {
        let cc = self.cc.as_ref()?;
        let r = if write {
            cc.on_write(txn, t, key, core, mem)
        } else {
            cc.on_read(txn, t, key, core, mem)
        };
        Some(r.map_err(|v| {
            self.metrics.conflicts.inc(core);
            v.into_error()
        }))
    }

    /// Commit-time validation under a pluggable protocol, in its own CC
    /// span. Validation precedes durability; on failure the transaction
    /// stays open and the caller aborts, dropping CC state.
    pub fn cc_validate(
        &self,
        cc: &dyn ConcurrencyControl,
        txn: u64,
        core: usize,
        mem: &Mem,
    ) -> OltpResult<()> {
        cc_validate_fault(core)?;
        let _v = obs::span(self.label, Phase::Cc, core);
        cc.validate(txn, core, mem).map_err(|v| {
            self.metrics.conflicts.inc(core);
            v.into_error()
        })
    }
}

/// Forced pluggable-protocol validation failure. The victim table/key are
/// synthetic (there is no real conflicting row).
pub fn cc_validate_fault(core: usize) -> OltpResult<()> {
    if faults::fire("cc/validate", core) {
        return Err(OltpError::ValidationFailed {
            table: TableId(0),
            key: 0,
        });
    }
    Ok(())
}

/// One session's window onto the simulator.
pub struct Ports {
    pub core: usize,
    /// Engine label on this session's spans.
    label: &'static str,
    /// One port per engine module, indexed like the profile's table.
    mems: Vec<Mem>,
}

impl Ports {
    pub fn open(engine: &EngineCore, core: usize) -> Self {
        assert!(core < engine.sim.cores());
        let mem = engine.sim.mem(core);
        Ports {
            core,
            label: engine.label,
            mems: engine.mods.iter().map(|&m| mem.with_module(m)).collect(),
        }
    }

    #[inline]
    pub fn mem(&self, module: usize) -> &Mem {
        &self.mems[module]
    }

    /// Open a phase span on this session's core.
    pub fn span(&self, phase: Phase) -> SpanGuard {
        obs::span(self.label, phase, self.core)
    }
}

/// Contention model of the shared-everything engines' internal latches
/// (lock-table buckets, transaction manager, log tail): each concurrently
/// open session beyond the caller costs a deterministic burst of spin
/// instructions on every serialized engine entry. The partitioned engines
/// own their data outright and have no such tax.
pub struct LatchModel {
    /// Open sessions; >1 means the internal latches are contended.
    open_sessions: Cell<usize>,
    /// Spin instructions per *other* open session.
    spin: u64,
    waits: Counter,
}

impl LatchModel {
    pub fn new(spin: u64, engine: &EngineCore) -> Self {
        LatchModel {
            open_sessions: Cell::new(0),
            spin,
            waits: engine.metrics.latch_waits.clone(),
        }
    }

    pub fn session_opened(&self) {
        self.open_sessions.set(self.open_sessions.get() + 1);
    }

    pub fn session_closed(&self) {
        self.open_sessions.set(self.open_sessions.get() - 1);
    }

    /// Spin on a contended latch. Free with a single session open, so
    /// single-worker runs are bit-identical to the pre-concurrency engines.
    pub fn latch_contention(&self, core: usize, mem: &Mem) {
        let others = self.open_sessions.get().saturating_sub(1);
        if others > 0 {
            mem.exec(self.spin * others as u64);
            self.waits.inc(core);
        }
    }
}

/// A session's row images, reused across its writes: each written row is
/// encoded once into `redo`, and the same bytes go to the store and to
/// the log; in durable mode the row's stored bytes are copied into `undo`
/// first, as the before-image the log keeps.
#[derive(Default)]
pub struct RowImages {
    pub redo: BytesMut,
    pub undo: BytesMut,
}

impl RowImages {
    /// Encode `row` as the after-image, replacing the last one.
    pub fn encode(&mut self, row: &[Value]) -> &[u8] {
        self.redo.clear();
        tuple::encode_into(row, &mut self.redo);
        &self.redo
    }

    /// Copy `stored` as the before-image, replacing the last one.
    pub fn keep_undo(&mut self, stored: &[u8]) {
        self.undo.clear();
        self.undo.extend_from_slice(stored);
    }
}

/// Bounds-check a table id against the engine's table count.
pub fn table_index(tables: usize, t: TableId) -> OltpResult<usize> {
    if (t.0 as usize) < tables {
        Ok(t.0 as usize)
    } else {
        Err(OltpError::NoSuchTable(t))
    }
}

/// Whether the primary-key column is a string (extra compare work, §6.2).
pub fn str_key(def: &TableDef) -> bool {
    matches!(
        def.schema.columns().first().map(|c| c.ty),
        Some(oltp::DataType::Str)
    )
}
