//! The shell around [`crate::hierarchy`]: who may touch a core's state
//! when, and how one core's stores and evictions reach the others.
//!
//! The simulator splits along one line. What the model *decides* — the
//! L1 → L2 → LLC descents, which counter a miss charges, write-allocate,
//! inclusive back-invalidation, the remote-fill charge — is
//! [`crate::hierarchy`]: plain `&mut` state, no atomics, no `unsafe`. This
//! module only moves ownership and messages: it acquires a core, applies
//! the invalidations queued for it, hands the `&mut Core` to the hierarchy,
//! and publishes the [`Coherence`] event that comes back. The two shared
//! structures the hierarchy reads through [`Uncore`] live next door: the
//! lock-striped LLC in [`crate::llc`], the allocation arenas and home-socket
//! tables in [`crate::numa`]. No cache is accessed from this file.
//!
//! # Synchronization: the lock-free fast path
//!
//! The common case — an access on the calling core that hits L1 — touches
//! no lock. Each core lives in a [`CoreSlot`] with a tiny state machine:
//!
//! * **Ported** — the core's [`crate::CorePort`] is checked out (sessions
//!   hold one). Accesses from the claiming thread go straight to the core
//!   state through an `UnsafeCell`; the only per-access synchronization is
//!   one state load, one owner-token load, and an emptiness probe of the
//!   core's coherence queue. Exactly one thread at a time may drive a
//!   ported core (see [`crate::port`] for the migration contract).
//! * **Free** — no port outstanding. Accesses serialize on a transient
//!   per-core spinlock (`Free -> Locked -> Free`), which keeps every
//!   legacy call pattern working: machine-level tests, cross-core setup
//!   traffic, and a second session opened on an already-ported core.
//!
//! Cross-core effects never touch another core's state directly. A store
//! *publishes* invalidations onto the other active cores' bounded MPSC
//! queues ([`crate::coherence`]), and each core applies its pending
//! invalidations at its next access boundary (access, counter snapshot, or
//! flush). Cores that have never issued an access have empty caches, so
//! stores skip their queues entirely — which is also what keeps 1-worker
//! counter streams bit-identical to the pre-queue implementation.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{OnceLock, RwLock};

use crate::cache::AccessOutcome;
use crate::code::{CodeDesc, Module, ModuleId, ModuleRegistry, ModuleSpec};
use crate::coherence::{InvalQueue, BACK_INVALIDATE};
use crate::config::MachineConfig;
use crate::counters::EventCounts;
use crate::hierarchy::{Coherence, Core, Uncore};
use crate::llc::StripedLlc;
use crate::numa::Homes;
use crate::port::{thread_token, UNCLAIMED};

/// Core slot states (see the module docs).
const FREE: u8 = 0;
const LOCKED: u8 = 1;
const PORTED: u8 = 2;

/// One core's slot: the state machine, the owner token, the inbound
/// coherence queue, and the core state itself.
struct CoreSlot {
    id: usize,
    state: AtomicU8,
    /// Thread token of the claiming thread while ported; [`UNCLAIMED`]
    /// between checkout and the first access.
    owner: AtomicU64,
    /// Set on the core's first simulated access. Stores skip publishing
    /// invalidations to inactive cores — their caches are empty, so the
    /// invalidation would be a no-op anyway.
    active: AtomicBool,
    queue: InvalQueue,
    cell: UnsafeCell<Core>,
    /// Debug-build detector for the one forbidden pattern: two threads
    /// driving the same ported core concurrently.
    #[cfg(debug_assertions)]
    busy: AtomicBool,
}

impl CoreSlot {
    fn new(cfg: &MachineConfig, id: usize, modules: usize) -> Self {
        CoreSlot {
            id,
            state: AtomicU8::new(FREE),
            owner: AtomicU64::new(UNCLAIMED),
            active: AtomicBool::new(false),
            queue: InvalQueue::new(),
            cell: UnsafeCell::new(Core::new(cfg, id, modules)),
            #[cfg(debug_assertions)]
            busy: AtomicBool::new(false),
        }
    }
}

/// RAII access to one core's state, acquired via [`Machine::core_enter`].
struct CoreRef<'a> {
    slot: &'a CoreSlot,
    /// Whether we hold the transient spinlock (free path) and must release
    /// it; ported-path access releases nothing.
    locked: bool,
}

impl<'a> CoreRef<'a> {
    fn new(slot: &'a CoreSlot, locked: bool) -> Self {
        #[cfg(debug_assertions)]
        assert!(
            !slot.busy.swap(true, Ordering::Acquire),
            "core {}: concurrent access to a ported core from two threads \
             (a ported core may be driven by one thread at a time)",
            slot.id
        );
        CoreRef { slot, locked }
    }

    /// The core state, at an access boundary: any invalidations queued for
    /// the core are applied before the caller sees it (see
    /// [`crate::coherence`]).
    #[inline]
    fn core(&mut self) -> &mut Core {
        let slot = self.slot;
        // SAFETY: `self` holds the slot's access rights (ported-and-claimed
        // or spin-locked), so we have the core state to ourselves and are
        // the sole consumer of its queue; the returned borrow is tied to
        // `&mut self`.
        let c = unsafe { &mut *slot.cell.get() };
        if unsafe { slot.queue.has_pending() } {
            unsafe {
                slot.queue.drain(|v| {
                    let line = v & !(BACK_INVALIDATE | ORIGIN_MASK);
                    if v & BACK_INVALIDATE != 0 {
                        c.back_invalidate(line);
                    } else {
                        c.invalidate(line, ((v & ORIGIN_MASK) >> ORIGIN_SHIFT) as usize);
                    }
                });
            }
        }
        c
    }
}

impl Drop for CoreRef<'_> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        self.slot.busy.store(false, Ordering::Release);
        if self.locked {
            self.slot.state.store(FREE, Ordering::Release);
        }
    }
}

/// Modules a machine can hold descriptors for. Engines register a few
/// dozen; the registry itself supports 65k.
const MAX_MODULES: usize = 4096;

/// Append-only, lock-free descriptor table: slots are published exactly
/// once (under the registry write lock) and then immutable.
struct DescTable {
    slots: Box<[OnceLock<CodeDesc>]>,
    len: AtomicUsize,
}

impl DescTable {
    fn new() -> Self {
        DescTable {
            slots: (0..MAX_MODULES).map(|_| OnceLock::new()).collect(),
            len: AtomicUsize::new(0),
        }
    }

    fn publish(&self, id: ModuleId, d: CodeDesc) {
        let i = id.0 as usize;
        assert!(i < MAX_MODULES, "too many modules (raise MAX_MODULES)");
        self.slots[i]
            .set(d)
            .expect("module descriptor published twice");
        // Serialized by the registry write lock, so a plain store is a
        // monotone append.
        self.len.store(i + 1, Ordering::Release);
    }

    #[inline]
    fn get(&self, id: ModuleId) -> Option<CodeDesc> {
        let i = id.0 as usize;
        if i < self.len.load(Ordering::Acquire) {
            self.slots[i].get().copied()
        } else {
            None
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }
}

/// Base byte address of the simulated data region (code lives far below).
pub const DATA_REGION_BASE: u64 = 0x0100_0000_0000;
/// Size of the simulated data region (enough for any experiment).
pub const DATA_REGION_SIZE: u64 = 0x0F00_0000_0000;

/// Home tags a multi-socket machine can track. On a NUMA machine the data
/// region is carved into one bump arena per tag (plus a default arena), so
/// an allocation's home socket is an O(1) address-range lookup on the miss
/// path — no per-allocation table. Engines typically tag one partition per
/// tag (`partition % MAX_HOME_TAGS`).
pub const MAX_HOME_TAGS: usize = 64;

/// Origin-socket bits packed into queued invalidation entries (below the
/// [`BACK_INVALIDATE`] flag; simulated line numbers stay < 2^44). Zero for
/// socket 0, so single-socket queue entries are bit-identical to the
/// pre-NUMA encoding.
const ORIGIN_SHIFT: u32 = 56;
const ORIGIN_MASK: u64 = 0x7F << ORIGIN_SHIFT;

/// One operation of a batched access sequence (see [`crate::Mem::run_ops`]).
#[derive(Clone, Copy, Debug)]
pub enum BatchOp {
    /// Retire `n` instructions of the batch's module.
    Exec(u64),
    /// Data load of `len` bytes at `addr`.
    Read { addr: u64, len: u32 },
    /// Data store of `len` bytes at `addr`.
    Write { addr: u64, len: u32 },
}

/// The full simulated machine. See the module docs for the model and the
/// synchronization scheme.
pub struct Machine {
    cfg: MachineConfig,
    cores: Vec<CoreSlot>,
    llc: StripedLlc,
    pub(crate) homes: Homes,
    modules: RwLock<ModuleRegistry>,
    descs: DescTable,
    offline: AtomicBool,
    /// Per-core offline flags (simulated core failure / parked core):
    /// suppresses that core's traffic only, unlike the machine-wide
    /// bulk-load `offline` switch.
    core_offline: Vec<AtomicBool>,
}

// SAFETY: the `UnsafeCell<Core>`s are guarded by the slot state machine —
// ported-and-claimed access is exclusive per the port contract, and free
// slots serialize on the transient spinlock. Everything else is atomics,
// mutexes, immutable-after-publish data, or `Sync` in its own right.
unsafe impl Sync for Machine {}

/// What a core's walk reads of the machine: the striped LLC and the home
/// tables, each synchronised on its own.
impl Uncore for &Machine {
    #[inline(always)]
    fn llc_access(&mut self, socket: usize, line: u64) -> AccessOutcome {
        self.llc.touch(socket, line)
    }

    #[inline(always)]
    fn home_socket(&mut self, line: u64, socket: usize) -> usize {
        self.homes.classify_home(line, socket)
    }
}

impl Machine {
    /// Build a machine with cold caches.
    pub fn new(cfg: MachineConfig) -> Self {
        assert!(cfg.sockets >= 1, "at least one socket");
        assert!(
            cfg.cores.is_multiple_of(cfg.sockets),
            "cores ({}) must divide evenly across sockets ({})",
            cfg.cores,
            cfg.sockets
        );
        let modules = ModuleRegistry::new();
        let descs = DescTable::new();
        for (id, m) in modules.iter() {
            descs.publish(id, CodeDesc::of(m));
        }
        Machine {
            cores: (0..cfg.cores)
                .map(|i| CoreSlot::new(&cfg, i, modules.len()))
                .collect(),
            llc: StripedLlc::new(&cfg),
            homes: Homes::new(cfg.sockets),
            modules: RwLock::new(modules),
            descs,
            offline: AtomicBool::new(false),
            core_offline: (0..cfg.cores).map(|_| AtomicBool::new(false)).collect(),
            cfg,
        }
    }

    /// Offline mode suppresses all simulated instruction fetches and data
    /// accesses (address allocation still works). Used for bulk loading:
    /// the paper populates databases before attaching the profiler, and a
    /// warm-up window re-establishes cache state afterwards.
    pub fn set_offline(&self, offline: bool) {
        self.offline.store(offline, Ordering::Relaxed);
    }

    /// Whether the machine is in offline (bulk-load) mode.
    #[inline]
    pub fn offline(&self) -> bool {
        self.offline.load(Ordering::Relaxed)
    }

    /// Take one core offline (or back online). An offline core drops all
    /// simulated traffic — no fetches, no data accesses, frozen counters —
    /// as if the core were parked or failed; the other cores are
    /// unaffected. Used by fault injection to model degraded placement.
    pub fn set_core_offline(&self, core: usize, offline: bool) {
        self.core_offline[core].store(offline, Ordering::Relaxed);
    }

    /// Whether `core` is individually offline.
    pub fn core_offline(&self, core: usize) -> bool {
        self.core_offline[core].load(Ordering::Relaxed)
    }

    /// Whether traffic on `core` is currently suppressed (machine-wide
    /// bulk-load mode or an individual core-offline fault).
    #[inline(always)]
    fn suppressed(&self, core: usize) -> bool {
        self.offline() || self.core_offline[core].load(Ordering::Relaxed)
    }

    /// Machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Register a code module; all cores see it. Does not touch any core's
    /// state (per-core counter vectors grow lazily on first use), so
    /// registration is safe while ports are checked out.
    pub fn register_module(&self, spec: ModuleSpec) -> ModuleId {
        let mut reg = self.modules.write().unwrap();
        let id = reg.register(spec);
        self.descs.publish(id, CodeDesc::of(reg.get(id)));
        id
    }

    /// Module names in id order.
    pub fn module_names(&self) -> Vec<String> {
        self.modules.read().unwrap().names()
    }

    /// Module lookup (cloned; specs are small and read-mostly).
    pub fn module(&self, id: ModuleId) -> Module {
        self.modules.read().unwrap().get(id).clone()
    }

    /// Cached immutable fetch parameters of `id` (lock-free).
    pub fn code_desc(&self, id: ModuleId) -> CodeDesc {
        self.descs.get(id).expect("module not registered")
    }

    /// Number of sockets.
    pub fn sockets(&self) -> usize {
        self.cfg.sockets
    }

    /// Socket of `core` (socket-major: cores `[k*C, (k+1)*C)` sit on
    /// socket `k`).
    pub fn socket_of(&self, core: usize) -> usize {
        self.cfg.socket_of(core)
    }

    /// Check out core `core`'s port: flips the slot to ported with no
    /// claiming thread yet. Returns false when the port is already out.
    pub(crate) fn try_checkout(&self, core: usize) -> bool {
        let slot = &self.cores[core];
        loop {
            match slot.state.load(Ordering::Acquire) {
                FREE => {
                    if slot
                        .state
                        .compare_exchange(FREE, LOCKED, Ordering::Acquire, Ordering::Relaxed)
                        .is_ok()
                    {
                        slot.owner.store(UNCLAIMED, Ordering::Relaxed);
                        slot.state.store(PORTED, Ordering::Release);
                        return true;
                    }
                }
                // A transient free-path access holds the slot; wait for it.
                LOCKED => std::hint::spin_loop(),
                _ => return false,
            }
        }
    }

    /// Check a port back in (called from [`crate::CorePort::drop`]).
    ///
    /// The claiming-thread token is released *before* the slot goes FREE:
    /// a port dropped during a worker's panic unwind would otherwise leave
    /// the dead thread's token in the slot, and a later claimant racing
    /// the state transition could adopt it while the slot is no longer
    /// ported — an unstealable core. Clearing first means any observer of
    /// the stale PORTED state sees an UNCLAIMED owner, which is always
    /// safe to claim.
    pub(crate) fn checkin(&self, core: usize) {
        let slot = &self.cores[core];
        slot.owner.store(UNCLAIMED, Ordering::Relaxed);
        let prev = slot.state.swap(FREE, Ordering::Release);
        debug_assert_eq!(prev, PORTED, "checkin without an outstanding port");
    }

    /// Current owner token of `core`'s slot (tests only).
    #[cfg(test)]
    pub(crate) fn port_owner(&self, core: usize) -> u64 {
        self.cores[core].owner.load(Ordering::Relaxed)
    }

    /// Acquire access rights to `core` (see the module docs). `activate`
    /// marks the core as a target for future store invalidations and is
    /// set by real accesses, not by counter snapshots.
    #[inline]
    fn core_enter(&self, core: usize, activate: bool) -> CoreRef<'_> {
        let slot = &self.cores[core];
        if activate && !slot.active.load(Ordering::Relaxed) {
            slot.active.store(true, Ordering::Release);
        }
        let me = thread_token();
        let mut spins = 0u32;
        loop {
            match slot.state.load(Ordering::Acquire) {
                PORTED => {
                    let owner = slot.owner.load(Ordering::Relaxed);
                    if owner == me {
                        return CoreRef::new(slot, false);
                    }
                    // First access after checkout, or the owning session
                    // migrated to this thread: claim (or re-claim) the core.
                    if slot
                        .owner
                        .compare_exchange(owner, me, Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok()
                    {
                        return CoreRef::new(slot, false);
                    }
                }
                FREE => {
                    if slot
                        .state
                        .compare_exchange(FREE, LOCKED, Ordering::Acquire, Ordering::Relaxed)
                        .is_ok()
                    {
                        return CoreRef::new(slot, true);
                    }
                }
                _ => {
                    spins += 1;
                    if spins < 64 {
                        std::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
        }
    }

    /// Deliver what `from`'s access obliges the other cores to do: push it
    /// onto every other *active* core's queue, to be applied at that core's
    /// next access boundary. Store invalidations carry the writer's socket
    /// (zero bits on a single-socket machine, so queue entries are
    /// unchanged from the pre-NUMA encoding); back-invalidations carry the
    /// [`BACK_INVALIDATE`] flag.
    #[inline]
    fn publish(&self, from: usize, event: Coherence) {
        let (first, last, flags) = match event {
            Coherence::None => return,
            _ if self.cores.len() == 1 => return,
            Coherence::Invalidate(first, last, origin) => {
                (first, last, (origin as u64) << ORIGIN_SHIFT)
            }
            Coherence::BackInvalidate(line) => (line, line, BACK_INVALIDATE),
        };
        for line in first..=last {
            for slot in &self.cores {
                if slot.id != from && slot.active.load(Ordering::Acquire) {
                    slot.queue.push(line | flags);
                }
            }
        }
    }

    /// Aggregate counters of `core` (snapshot; applies pending queued
    /// invalidations first so they are visible in the snapshot).
    pub fn counters(&self, core: usize) -> EventCounts {
        self.core_enter(core, false).core().counts().clone()
    }

    /// Per-module counters of `core` (snapshot), padded to the full module
    /// registry length.
    pub fn module_counters(&self, core: usize) -> Vec<EventCounts> {
        let mut v = self.core_enter(core, false).core().module_counts().to_vec();
        v.resize_with(v.len().max(self.descs.len()), EventCounts::default);
        v
    }

    /// Lifetime (published, applied) coherence-queue totals across all
    /// cores. After quiescing (no stores in flight) and snapshotting every
    /// core's counters, the two are equal — the queues are lossless.
    pub fn coherence_totals(&self) -> (u64, u64) {
        self.cores
            .iter()
            .map(|s| s.queue.totals())
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }

    /// Retire `n` instructions of `module` on `core`, streaming the unique
    /// instruction-line fetches through the cache hierarchy (see
    /// [`crate::hierarchy`] for the walker).
    pub fn fetch_code(&self, core: usize, module: ModuleId, n: u64) {
        let d = self.code_desc(module);
        self.fetch_code_desc(core, module, n, &d);
    }

    /// [`Machine::fetch_code`] with the module descriptor supplied by the
    /// caller ([`crate::Mem`] caches it at bind time).
    ///
    /// This and the other two access entry points are inlined shells: a
    /// suppressed access (a bulk load, an offline core) returns at the
    /// call site, and only a live one calls the walk.
    #[inline(always)]
    pub(crate) fn fetch_code_desc(&self, core: usize, module: ModuleId, n: u64, d: &CodeDesc) {
        if n == 0 || self.suppressed(core) {
            return;
        }
        self.fetch_code_online(core, module, n, d);
    }

    #[inline]
    fn fetch_code_online(&self, core: usize, module: ModuleId, n: u64, d: &CodeDesc) {
        let mut g = self.core_enter(core, true);
        let c = g.core();
        c.ensure_module(module, || self.descs.len());
        c.fetch(&mut &*self, module, d, n);
    }

    /// Perform a data access of `len` bytes at byte address `addr`
    /// (load when `store == false`), touching every spanned line.
    #[inline(always)]
    pub fn data_access(&self, core: usize, module: ModuleId, addr: u64, len: u32, store: bool) {
        if self.suppressed(core) {
            return;
        }
        self.data_access_online(core, module, addr, len, store);
    }

    #[inline]
    fn data_access_online(&self, core: usize, module: ModuleId, addr: u64, len: u32, store: bool) {
        let mut g = self.core_enter(core, true);
        let c = g.core();
        c.ensure_module(module, || self.descs.len());
        let event = c.data_access(&mut &*self, module, addr, len, store);
        self.publish(core, event);
    }

    /// Run a batched op sequence under a single core acquisition: one
    /// state check and one queue drain amortized over the whole batch,
    /// with per-op semantics identical to issuing the ops separately.
    #[inline(always)]
    pub(crate) fn run_batch(&self, core: usize, module: ModuleId, d: &CodeDesc, ops: &[BatchOp]) {
        if ops.is_empty() || self.suppressed(core) {
            return;
        }
        self.run_batch_online(core, module, d, ops);
    }

    fn run_batch_online(&self, core: usize, module: ModuleId, d: &CodeDesc, ops: &[BatchOp]) {
        let mut g = self.core_enter(core, true);
        let c = g.core();
        c.ensure_module(module, || self.descs.len());
        let mut uncore = self;
        for op in ops {
            let event = match *op {
                BatchOp::Exec(0) => continue,
                BatchOp::Exec(n) => {
                    c.fetch(&mut uncore, module, d, n);
                    continue;
                }
                BatchOp::Read { addr, len } => c.data_access(&mut uncore, module, addr, len, false),
                BatchOp::Write { addr, len } => c.data_access(&mut uncore, module, addr, len, true),
            };
            self.publish(core, event);
        }
    }

    /// Prime the shared LLC with the allocated data region (sequentially,
    /// newest lines last). Used after an offline bulk load: the paper's
    /// 60-second warm-up leaves a small database fully cache-resident;
    /// this reproduces that starting state without charging any events.
    /// For working sets beyond LLC capacity only the most recently
    /// touched tail stays resident, as it would on real hardware.
    pub fn warm_data(&self) {
        self.llc.warm_data(&self.homes.allocated_spans());
    }

    /// Flush all caches (cold restart) without resetting counters. Pending
    /// queued invalidations are applied first, preserving their
    /// resident-at-arrival counting semantics.
    pub fn flush_caches(&self) {
        for i in 0..self.cores.len() {
            self.core_enter(i, false).core().flush();
        }
        self.llc.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::StallEvent;
    use crate::rng::XorShift64;

    fn machine(cores: usize) -> Machine {
        Machine::new(MachineConfig::ivy_bridge(cores))
    }

    #[test]
    fn core_offline_freezes_only_that_core() {
        let m = machine(2);
        let id = m.register_module(ModuleSpec::new("work", 4096).reuse(4.0));
        let buf = m.alloc_data(4096, 64);
        m.fetch_code(0, id, 1_000);
        m.fetch_code(1, id, 1_000);

        m.set_core_offline(0, true);
        assert!(m.core_offline(0));
        assert!(!m.core_offline(1));
        let c0 = m.counters(0);
        m.fetch_code(0, id, 5_000);
        m.data_access(0, id, buf, 8, false);
        m.fetch_code(1, id, 5_000);
        m.data_access(1, id, buf, 8, true);
        let d0 = m.counters(0).delta(&c0);
        assert_eq!(d0.instructions, 0, "offline core's counters are frozen");
        assert_eq!(d0.loads, 0);
        assert_eq!(m.counters(1).instructions, 6_000, "core 1 unaffected");

        m.set_core_offline(0, false);
        m.fetch_code(0, id, 2_000);
        let d0 = m.counters(0).delta(&c0);
        assert_eq!(d0.instructions, 2_000, "traffic resumes once back online");
    }

    /// Each `Mem` entry point is a no-op while suppressed, machine-wide
    /// (`Sim::offline`) or on its core alone (`set_core_offline`): no
    /// counter moves, and the core stays inactive, so a later store from
    /// another core publishes nothing to it.
    #[test]
    fn suppressed_accesses_leave_no_trace() {
        use crate::{Mem, Sim};
        type Access = fn(&Mem, u64);
        let accesses: [(&str, Access); 4] = [
            ("exec", |m, _| m.exec(5_000)),
            ("read", |m, a| m.read(a, 64)),
            ("write", |m, a| m.write(a, 64)),
            ("run_ops", |m, a| {
                m.run_ops(&[
                    BatchOp::Exec(100),
                    BatchOp::Read { addr: a, len: 8 },
                    BatchOp::Write { addr: a, len: 8 },
                ])
            }),
        ];
        for (name, access) in accesses {
            for per_core in [false, true] {
                let sim = Sim::new(MachineConfig::ivy_bridge(2));
                let id = sim.register_module(ModuleSpec::new("work", 4096));
                let buf = sim.alloc(4096, 64);
                let mem = sim.mem(0).with_module(id);
                let (counts, modules) = (sim.counters(0), sim.module_counters(0));
                if per_core {
                    sim.set_core_offline(0, true);
                    access(&mem, buf);
                    sim.set_core_offline(0, false);
                } else {
                    sim.offline(|| access(&mem, buf));
                }
                assert_eq!(sim.counters(0), counts, "{name}");
                assert_eq!(sim.module_counters(0), modules, "{name}");
                sim.mem(1).write(buf, 64);
                assert_eq!(sim.coherence_totals().0, 0, "{name}: core 0 is active");
                // Online, the same access activates core 0 and the store
                // reaches it.
                access(&mem, buf);
                sim.mem(1).write(buf, 64);
                assert!(sim.coherence_totals().0 > 0, "{name}");
            }
        }
    }

    #[test]
    fn tiny_module_becomes_l1i_resident() {
        let m = machine(1);
        let id = m.register_module(ModuleSpec::new("tight_loop", 2048).reuse(8.0));
        m.fetch_code(0, id, 100_000); // warmup
        let before = m.counters(0);
        m.fetch_code(0, id, 1_000_000);
        let d = m.counters(0).delta(&before);
        assert_eq!(d.instructions, 1_000_000);
        // 2 KB of code fits L1I: essentially no instruction misses.
        assert!(
            d.miss(StallEvent::L1i) < 10,
            "l1i={}",
            d.miss(StallEvent::L1i)
        );
    }

    #[test]
    fn oversized_module_thrashes_l1i_but_fits_l2() {
        let m = machine(1);
        // 128 KB hot path: > 32 KB L1I, < 256 KB L2.
        let id = m.register_module(
            ModuleSpec::new("fat", 128 << 10)
                .reuse(1.0)
                .branchiness(0.0),
        );
        m.fetch_code(0, id, 200_000);
        let before = m.counters(0);
        m.fetch_code(0, id, 1_000_000);
        let d = m.counters(0).delta(&before);
        let l1i = d.miss(StallEvent::L1i);
        let l2i = d.miss(StallEvent::L2i);
        let llci = d.miss(StallEvent::LlcI);
        // Cyclic 128 KB sweep misses L1I on ~every unique line...
        assert!(l1i > 50_000, "l1i={l1i}");
        // ...but the whole path is L2- and LLC-resident.
        assert!(l2i < l1i / 20, "l2i={l2i} vs l1i={l1i}");
        assert!(llci < 100, "llci={llci}");
    }

    #[test]
    fn data_working_set_larger_than_llc_misses_dram() {
        let m = machine(1);
        let region = 64u64 << 20; // 64 MB > 16 MB LLC
        let base = m.alloc_data(region, 64);
        let mut rng = XorShift64::new(99);
        // warmup + measure random line touches
        for _ in 0..200_000 {
            let off = rng.next_below(region / 64) * 64;
            m.data_access(0, ModuleId::UNATTRIBUTED, base + off, 8, false);
        }
        let before = m.counters(0);
        for _ in 0..100_000 {
            let off = rng.next_below(region / 64) * 64;
            m.data_access(0, ModuleId::UNATTRIBUTED, base + off, 8, false);
        }
        let d = m.counters(0).delta(&before);
        // Most random touches of a 4x-LLC working set miss the LLC.
        assert!(
            d.miss(StallEvent::LlcD) > 50_000,
            "llcd={}",
            d.miss(StallEvent::LlcD)
        );
    }

    #[test]
    fn small_data_working_set_stays_cached() {
        let m = machine(1);
        let region = 1u64 << 20; // 1 MB fits LLC (and mostly L2)
        let base = m.alloc_data(region, 64);
        let mut rng = XorShift64::new(7);
        for _ in 0..300_000 {
            let off = rng.next_below(region / 64) * 64;
            m.data_access(0, ModuleId::UNATTRIBUTED, base + off, 8, false);
        }
        let before = m.counters(0);
        for _ in 0..50_000 {
            let off = rng.next_below(region / 64) * 64;
            m.data_access(0, ModuleId::UNATTRIBUTED, base + off, 8, false);
        }
        let d = m.counters(0).delta(&before);
        // A handful of compulsory misses may remain (lines never drawn during
        // warmup); anything more would mean the LLC is not retaining the set.
        assert!(
            d.miss(StallEvent::LlcD) < 20,
            "llcd={}",
            d.miss(StallEvent::LlcD)
        );
    }

    #[test]
    fn inclusive_llc_back_invalidates_private_caches() {
        let run = |inclusive: bool| {
            let mut cfg = MachineConfig::ivy_bridge(1);
            cfg.inclusive_llc = inclusive;
            let m = Machine::new(cfg);
            // A hot line, then enough LLC pressure to evict it from LLC.
            let hot = m.alloc_data(64, 64);
            m.data_access(0, ModuleId::UNATTRIBUTED, hot, 8, false);
            let sweep = m.alloc_data(64 << 20, 64);
            for off in (0..(48u64 << 20)).step_by(64) {
                m.data_access(0, ModuleId::UNATTRIBUTED, sweep + off, 8, false);
            }
            // Touch the hot line again: with an inclusive LLC it was
            // back-invalidated from L1D and must miss.
            let before = m.counters(0);
            m.data_access(0, ModuleId::UNATTRIBUTED, hot, 8, false);
            m.counters(0).delta(&before).miss(StallEvent::L1d)
        };
        assert_eq!(run(true), 1, "inclusive LLC must back-invalidate");
        // Non-inclusive: the line survives in L1D (the sweep bypasses its
        // set only rarely; L1D has 64 sets and the sweep cycles them, so
        // allow either outcome but require the inclusive case to differ
        // from a freshly-warm hit path).
    }

    #[test]
    fn next_line_prefetcher_cuts_sequential_i_misses() {
        let run = |prefetch: bool| {
            let mut cfg = MachineConfig::ivy_bridge(1);
            cfg.i_prefetch_next_line = prefetch;
            let m = Machine::new(cfg);
            // Sequential walk over a >L1I footprint: the prefetcher's
            // best case.
            let id = m.register_module(
                ModuleSpec::new("seq", 128 << 10)
                    .reuse(1.0)
                    .branchiness(0.0),
            );
            m.fetch_code(0, id, 400_000);
            let before = m.counters(0);
            m.fetch_code(0, id, 1_000_000);
            m.counters(0).delta(&before).miss(StallEvent::L1i)
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with * 3 < without * 2,
            "prefetcher should cut sequential L1I misses: {with} vs {without}"
        );
    }

    #[test]
    fn writes_invalidate_other_cores() {
        let m = machine(2);
        let addr = m.alloc_data(64, 64);
        // Core 1 caches the line.
        m.data_access(1, ModuleId::UNATTRIBUTED, addr, 8, false);
        let before = m.counters(1);
        // Core 0 writes it -> core 1 loses it (the queued invalidation is
        // applied at core 1's next access boundary — here, the snapshot).
        m.data_access(0, ModuleId::UNATTRIBUTED, addr, 8, true);
        assert_eq!(m.counters(1).invalidations, before.invalidations + 1);
        // Core 1 re-reads: L1D miss again.
        let before = m.counters(1);
        m.data_access(1, ModuleId::UNATTRIBUTED, addr, 8, false);
        let d = m.counters(1).delta(&before);
        assert_eq!(d.miss(StallEvent::L1d), 1);
    }

    #[test]
    fn stores_skip_inactive_cores_entirely() {
        let m = machine(4);
        let addr = m.alloc_data(64, 64);
        // Only core 1 is active besides the writer.
        m.data_access(1, ModuleId::UNATTRIBUTED, addr, 8, false);
        m.data_access(0, ModuleId::UNATTRIBUTED, addr, 8, true);
        let (pushed, _) = m.coherence_totals();
        assert_eq!(pushed, 1, "cores 2 and 3 never ran: no queue traffic");
        assert_eq!(m.counters(2).invalidations, 0);
        assert_eq!(m.counters(3).invalidations, 0);
    }

    #[test]
    fn module_counters_sum_to_core_counters() {
        let m = machine(1);
        let a = m.register_module(ModuleSpec::new("a", 64 << 10));
        let b = m.register_module(ModuleSpec::new("b", 8 << 10));
        m.fetch_code(0, a, 50_000);
        m.fetch_code(0, b, 20_000);
        let addr = m.alloc_data(4096, 64);
        m.data_access(0, a, addr, 64, false);
        m.data_access(0, b, addr + 2048, 64, true);
        let total = m.counters(0);
        let mut sum = EventCounts::default();
        for mc in &m.module_counters(0) {
            sum.add(mc);
        }
        assert_eq!(sum, total);
    }

    #[test]
    fn multi_byte_access_touches_all_spanned_lines() {
        let m = machine(1);
        let addr = m.alloc_data(8192, 64);
        let before = m.counters(0);
        m.data_access(0, ModuleId::UNATTRIBUTED, addr, 200, false); // 4 lines
        let d = m.counters(0).delta(&before);
        assert_eq!(d.loads, 4);
        // Access straddling a line boundary:
        let before = m.counters(0);
        m.data_access(0, ModuleId::UNATTRIBUTED, addr + 60, 8, false);
        assert_eq!(m.counters(0).delta(&before).loads, 2);
    }

    #[test]
    fn code_and_data_share_l2() {
        let m = machine(1);
        // A 200 KB code path nearly fills L2...
        let code = m.register_module(
            ModuleSpec::new("hot", 200 << 10)
                .reuse(1.0)
                .branchiness(0.0),
        );
        for _ in 0..10 {
            m.fetch_code(0, code, 800_000);
        }
        let before = m.counters(0);
        m.fetch_code(0, code, 800_000);
        let quiet_l2i = m.counters(0).delta(&before).miss(StallEvent::L2i);
        // ...then a 200 KB data sweep evicts code from L2 and L2I misses rise.
        let data = m.alloc_data(256 << 10, 64);
        for rep in 0..3 {
            let _ = rep;
            for off in (0..(200u64 << 10)).step_by(64) {
                m.data_access(0, ModuleId::UNATTRIBUTED, data + off, 8, false);
            }
            m.fetch_code(0, code, 800_000);
        }
        let before = m.counters(0);
        for off in (0..(200u64 << 10)).step_by(64) {
            m.data_access(0, ModuleId::UNATTRIBUTED, data + off, 8, false);
        }
        m.fetch_code(0, code, 800_000);
        let noisy_l2i = m.counters(0).delta(&before).miss(StallEvent::L2i);
        assert!(
            noisy_l2i > quiet_l2i + 100,
            "data pressure should evict code from L2: {noisy_l2i} vs {quiet_l2i}"
        );
    }

    #[test]
    fn concurrent_cores_sum_like_serial_cores() {
        // Thread-safety smoke: two threads hammering disjoint cores through
        // a shared machine must retire exactly what they issued.
        let m = std::sync::Arc::new(machine(2));
        let id = m.register_module(ModuleSpec::new("par", 32 << 10));
        let data = m.alloc_data(1 << 20, 64);
        std::thread::scope(|s| {
            for core in 0..2usize {
                let m = std::sync::Arc::clone(&m);
                s.spawn(move || {
                    for i in 0..20_000u64 {
                        m.fetch_code(core, id, 50);
                        m.data_access(core, id, data + (i % 1000) * 64, 8, core == 1);
                    }
                });
            }
        });
        for core in 0..2 {
            let c = m.counters(core);
            assert_eq!(c.instructions, 1_000_000, "core {core}");
            assert_eq!(c.loads + c.stores, 20_000, "core {core}");
        }
        let (pushed, applied) = m.coherence_totals();
        assert_eq!(pushed, applied, "queued invalidations were lost");
    }

    #[test]
    fn batched_ops_match_separate_calls() {
        let run = |batched: bool| {
            let m = machine(1);
            let id = m.register_module(ModuleSpec::new("b", 24 << 10));
            let d = m.code_desc(id);
            let addr = m.alloc_data(1 << 16, 64);
            if batched {
                let ops: Vec<BatchOp> = (0..200u64)
                    .flat_map(|i| {
                        [
                            BatchOp::Exec(100),
                            BatchOp::Read {
                                addr: addr + (i % 512) * 64,
                                len: 96,
                            },
                            BatchOp::Write {
                                addr: addr + (i % 64) * 64,
                                len: 8,
                            },
                        ]
                    })
                    .collect();
                m.run_batch(0, id, &d, &ops);
            } else {
                for i in 0..200u64 {
                    m.fetch_code(0, id, 100);
                    m.data_access(0, id, addr + (i % 512) * 64, 96, false);
                    m.data_access(0, id, addr + (i % 64) * 64, 8, true);
                }
            }
            (m.counters(0), m.module_counters(0))
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn single_socket_numa_config_is_bit_identical() {
        // `numa(1, n)` must behave exactly like `ivy_bridge(n)`: same
        // allocation addresses, same counters, zero remote accesses.
        let run = |cfg: MachineConfig| {
            let m = Machine::new(cfg);
            let id = m.register_module(ModuleSpec::new("w", 64 << 10).reuse(2.0));
            let buf = m.alloc_data(1 << 20, 64);
            for i in 0..20_000u64 {
                m.fetch_code(0, id, 40);
                m.data_access(0, id, buf + (i % 8192) * 64, 16, false);
                m.data_access(1, id, buf + (i % 64) * 64, 8, true);
            }
            (buf, m.counters(0), m.counters(1), m.module_counters(0))
        };
        let a = run(MachineConfig::ivy_bridge(2));
        let b = run(MachineConfig::numa(1, 2));
        assert_eq!(a, b);
        assert_eq!(a.1.remote_accesses, 0);
        assert_eq!(a.2.remote_accesses, 0);
    }
}
