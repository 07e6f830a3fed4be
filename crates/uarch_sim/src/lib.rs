//! # uarch-sim — a software stand-in for the paper's Ivy Bridge server
//!
//! Sirin et al. (SIGMOD'16) measure OLTP systems with hardware counters on a
//! two-socket Intel Xeon E5-2640 v2. Their metrics are pure functions of a
//! handful of events — instructions retired, and instruction/data misses at
//! L1, L2 and the shared LLC — combined with fixed per-level miss penalties
//! (8 / 19 / 167 cycles, Table 1 of the paper).
//!
//! This crate simulates exactly that observable surface:
//!
//! * [`cache::Cache`] — set-associative, LRU, write-allocate caches;
//! * [`machine::Machine`] — per-core L1I/L1D/L2 plus one LLC per socket,
//!   with write-invalidation between cores applied before each store
//!   returns, a 48-bit simulated address space, and an instruction-fetch
//!   engine that walks per-module *code segments*;
//! * [`counters::EventCounts`] — the VTune-like raw event set, attributable
//!   per core and per code module;
//! * [`config::MachineConfig`] — the Table 1 geometry, the miss penalties,
//!   and the out-of-order cycle model (ideal IPC 3.0 — the paper's measured
//!   no-miss loop — with per-event stall overlap factors).
//!
//! Database engines built on top of this crate do *real* work on real data
//! structures; the simulator only observes the memory traffic they generate,
//! the same way VTune observes a real server process. One host thread owns
//! a machine and drives all of its cores, as the paper observes one server
//! process through per-thread counters.
//!
//! ```
//! use uarch_sim::{Sim, config::MachineConfig, code::ModuleSpec};
//!
//! let sim = Sim::new(MachineConfig::ivy_bridge(1));
//! let m = sim.register_module(ModuleSpec::new("txn_logic", 64 << 10).reuse(2.0));
//! let buf = sim.alloc(4096, 64);
//! let mut mem = sim.mem(0).with_module(m);
//! mem.exec(10_000);          // retire 10k instructions from `txn_logic`
//! mem.read(buf, 64);         // and touch one cache line of data
//! let c = sim.counters(0);
//! assert_eq!(c.instructions, 10_000);
//! assert!(c.misses.iter().sum::<u64>() > 0); // cold caches miss
//! ```

#![forbid(unsafe_code)]

pub mod addr;
pub mod cache;
pub mod code;
pub mod config;
pub mod counters;
mod hierarchy;
pub mod iodev;
mod llc;
pub mod machine;
mod numa;
pub mod rng;

use std::rc::Rc;

pub use code::{CodeDesc, ModuleId, ModuleSpec};
pub use config::MachineConfig;
pub use counters::{EventCounts, StallEvent};
pub use iodev::{DeviceStats, LogDevice, NvmeProfile};
pub use machine::{BatchOp, Machine, MAX_HOME_TAGS};

/// Cache-line size used throughout the simulator (bytes). Ivy Bridge uses
/// 64-byte lines at every level.
pub const LINE: u64 = 64;

/// Shared handle to a simulated machine.
///
/// Engines, sessions and memory ports ([`Mem`]) each hold a clone, all on
/// the one thread that built the machine and drives every core in turn
/// (see [`machine`]).
///
/// Everything a [`Machine`] offers through `&self` — registering modules,
/// counter snapshots, offline switches, NUMA homes — is called on the
/// handle directly.
#[derive(Clone)]
pub struct Sim(Rc<Machine>);

impl std::ops::Deref for Sim {
    type Target = Machine;

    fn deref(&self) -> &Machine {
        &self.0
    }
}

impl Sim {
    /// Build a fresh machine with cold caches.
    pub fn new(cfg: MachineConfig) -> Self {
        Sim(Rc::new(Machine::new(cfg)))
    }

    /// The underlying machine.
    pub fn machine(&self) -> &Machine {
        &self.0
    }

    /// Allocate simulated data memory.
    pub fn alloc(&self, size: u64, align: u64) -> u64 {
        self.alloc_data(size, align)
    }

    /// A memory port bound to `core` (and, initially, to no code module).
    pub fn mem(&self, core: usize) -> Mem {
        Mem {
            sim: self.clone(),
            core,
            module: ModuleId::UNATTRIBUTED,
            desc: self.code_desc(ModuleId::UNATTRIBUTED),
        }
    }

    /// Snapshot of every core's aggregate counters, in core order — the
    /// export hook metric reporters use to mirror the machine state
    /// without touching it (reads never charge the simulation).
    pub fn counters_all(&self) -> Vec<EventCounts> {
        (0..self.cores()).map(|c| self.counters(c)).collect()
    }

    /// Full module specs in `ModuleId` order (for report attribution).
    pub fn module_specs(&self) -> Vec<ModuleSpec> {
        (0..self.module_names().len())
            .map(|i| self.module(ModuleId(i as u16)).spec)
            .collect()
    }

    /// Machine configuration (cloned; it is small).
    pub fn config(&self) -> MachineConfig {
        self.0.config().clone()
    }

    /// Run `f` with simulation suppressed (bulk loading). The machine is
    /// brought back online even if `f` panics (drop guard), so a failing
    /// loader inside a `catch_unwind` harness cannot leave the simulator
    /// silently dead.
    pub fn offline<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Online<'a>(&'a Sim);
        impl Drop for Online<'_> {
            fn drop(&mut self) {
                self.0.set_offline(false);
            }
        }
        self.set_offline(true);
        let _guard = Online(self);
        f()
    }

    /// Scope the ambient allocation home tag: until the guard drops,
    /// [`Sim::alloc`] places data in `tag`'s arena, whose home socket is
    /// set with [`Machine::set_tag_home`]. Placement code wraps a partition's
    /// table creation / bulk load in one guard.
    pub fn alloc_home_guard(&self, tag: usize) -> AllocHomeGuard {
        let prev = self.set_alloc_home(Some(tag));
        AllocHomeGuard {
            sim: self.clone(),
            prev,
        }
    }
}

/// RAII scope for the ambient allocation home tag; see
/// [`Sim::alloc_home_guard`]. Restores the previous tag on drop.
pub struct AllocHomeGuard {
    sim: Sim,
    prev: Option<usize>,
}

impl Drop for AllocHomeGuard {
    fn drop(&mut self) {
        self.sim.set_alloc_home(self.prev);
    }
}

/// A memory/execution port: the handle engines use for every simulated
/// instruction fetch and data access. Cheap to clone; carries the core it is
/// bound to, the code module the activity is attributed to, and a snapshot
/// of that module's immutable fetch descriptor — so `exec` never looks the
/// module up.
#[derive(Clone)]
pub struct Mem {
    sim: Sim,
    core: usize,
    module: ModuleId,
    desc: CodeDesc,
}

impl Mem {
    /// Rebind the port to a different code module (builder style).
    #[must_use]
    pub fn with_module(&self, module: ModuleId) -> Mem {
        Mem {
            sim: self.sim.clone(),
            core: self.core,
            module,
            desc: self.sim.code_desc(module),
        }
    }

    /// The core this port is bound to.
    pub fn core(&self) -> usize {
        self.core
    }

    /// The module this port attributes activity to.
    pub fn module(&self) -> ModuleId {
        self.module
    }

    /// The owning simulator handle.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Retire `n` instructions from this port's code module, streaming the
    /// corresponding instruction-cache line fetches.
    #[inline]
    pub fn exec(&self, n: u64) {
        self.sim
            .fetch_code_desc(self.core, self.module, n, &self.desc);
    }

    /// Simulated data load of `len` bytes at `addr` (touches every spanned
    /// cache line).
    #[inline]
    pub fn read(&self, addr: u64, len: u32) {
        self.sim
            .data_access(self.core, self.module, addr, len, false);
    }

    /// Simulated data store of `len` bytes at `addr`.
    #[inline]
    pub fn write(&self, addr: u64, len: u32) {
        self.sim
            .data_access(self.core, self.module, addr, len, true);
    }

    /// Allocate simulated data memory (convenience passthrough).
    pub fn alloc(&self, size: u64, align: u64) -> u64 {
        self.sim.alloc(size, align)
    }

    /// Run an op slice (exec/read/write mixed) under one borrow of the
    /// core. Semantically identical to issuing the ops one by one; hot
    /// loops stage the ops in a stack array.
    #[inline]
    pub fn run_ops(&self, ops: &[BatchOp]) {
        self.sim.run_batch(self.core, self.module, &self.desc, ops);
    }
}
