//! The simulated machine: private per-core caches, a shared LLC with
//! write-invalidation, the instruction-fetch walker, and event accounting.
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
//!
//! The shared LLC is sharded into lock stripes keyed by set index, so
//! concurrent cores' misses only serialize when they land on the same
//! stripe. Striping is invisible to the cache model: set contents and LRU
//! order are per-set properties, and each set maps to exactly one stripe.

use std::cell::UnsafeCell;
use std::sync::atomic::{
    AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
};
use std::sync::{Mutex, OnceLock, RwLock};

use crate::addr::AddressSpace;
use crate::cache::{AccessOutcome, Cache};
use crate::code::{Module, ModuleId, ModuleRegistry, ModuleSpec, INSTRS_PER_LINE};
use crate::coherence::{InvalQueue, BACK_INVALIDATE};
use crate::config::MachineConfig;
use crate::counters::{EventCounts, StallEvent};
use crate::port::{thread_token, UNCLAIMED};
use crate::rng::XorShift64;
use crate::LINE;

/// Per-core private state.
struct Core {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    /// The socket this core sits on (socket-major layout, fixed at build).
    socket: usize,
    counts: EventCounts,
    /// Counters per module id (grown lazily; see [`Machine::module_counters`]).
    module_counts: Vec<EventCounts>,
    /// Fetch-walker cursor per module id (line offset within the segment).
    cursors: Vec<u64>,
    rng: XorShift64,
}

impl Core {
    fn new(cfg: &MachineConfig, id: usize, modules: usize) -> Self {
        Core {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            socket: id / cfg.cores_per_socket(),
            counts: EventCounts::default(),
            module_counts: vec![EventCounts::default(); modules],
            cursors: vec![0; modules],
            rng: XorShift64::new(0xC0FE + id as u64 * 0x9E37),
        }
    }

    fn grow_modules(&mut self, n: usize) {
        if self.module_counts.len() < n {
            self.module_counts.resize_with(n, EventCounts::default);
            self.cursors.resize(n, 0);
        }
    }
}

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

    /// The slot and the core state, borrowed together.
    #[inline]
    fn parts(&mut self) -> (&CoreSlot, &mut Core) {
        // Sound: `self` holds the slot's access rights (ported-and-claimed
        // or spin-locked), and the returned borrow is tied to `&mut self`.
        (self.slot, unsafe { &mut *self.slot.cell.get() })
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

/// Immutable fetch parameters of one code module, cached outside the
/// registry lock. [`crate::Mem`] snapshots this at bind time so `exec`
/// never touches the registry's `RwLock`.
#[derive(Clone, Copy, Debug)]
pub struct CodeDesc {
    pub base_line: u64,
    pub seg_lines: u64,
    pub reuse: f64,
    pub branchiness: f64,
}

impl CodeDesc {
    fn of(m: &Module) -> Self {
        CodeDesc {
            base_line: m.base_line,
            seg_lines: m.spec.lines(),
            reuse: m.spec.reuse,
            branchiness: m.spec.branchiness,
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

/// Maximum LLC lock stripes (power of two; reduced until it divides the
/// LLC set count).
const MAX_LLC_STRIPES: usize = 64;

/// One LLC lock stripe: a spinlock over a slice of the LLC's sets. A
/// spinlock (not a `Mutex`) because the critical section is a handful of
/// tag compares — nanoseconds — and striping keeps contention rare, so
/// the uncontended cost is what matters.
struct LlcStripe {
    locked: AtomicBool,
    cell: UnsafeCell<Cache>,
}

impl LlcStripe {
    fn new(cache: Cache) -> Self {
        LlcStripe {
            locked: AtomicBool::new(false),
            cell: UnsafeCell::new(cache),
        }
    }

    #[inline]
    fn lock(&self) -> LlcGuard<'_> {
        let mut spins = 0u32;
        while self
            .locked
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            spins += 1;
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        LlcGuard { stripe: self }
    }
}

struct LlcGuard<'a> {
    stripe: &'a LlcStripe,
}

impl LlcGuard<'_> {
    /// The stripe's cache; exclusive while the guard lives.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    fn cache(&mut self) -> &mut Cache {
        // Sound: the spinlock is held and the borrow is tied to `&mut self`.
        unsafe { &mut *self.stripe.cell.get() }
    }
}

impl Drop for LlcGuard<'_> {
    fn drop(&mut self) {
        self.stripe.locked.store(false, Ordering::Release);
    }
}

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
    /// LLC lock stripes, one full stripe set per socket: stripes of socket
    /// `k` occupy `llc[k * stripes_per_socket ..]`. Within a socket, the
    /// stripe of global set `s` is `s % stripes`; the local set index
    /// within the stripe is `s / stripes`.
    llc: Vec<LlcStripe>,
    llc_sets: u64,
    /// `llc_sets - 1` when the set count is a power of two (the Table 1
    /// geometry), `u64::MAX` otherwise — same mask trick as `Cache`.
    llc_set_mask: u64,
    llc_stripe_mask: usize,
    llc_stripe_shift: u32,
    llc_stripes_per_socket: usize,
    /// `cfg.cores / cfg.sockets` (socket-major core layout).
    cores_per_socket: usize,
    /// `sockets > 1` — gates every NUMA-only branch off the fast path.
    numa: bool,
    modules: RwLock<ModuleRegistry>,
    descs: DescTable,
    /// Data arenas: one bump allocator on a single-socket machine, one per
    /// home tag (plus the untagged arena 0) on a NUMA machine.
    data: Mutex<Vec<AddressSpace>>,
    /// Bytes covered by each arena (`DATA_REGION_SIZE / arena count`).
    arena_size: u64,
    /// Ambient home tag applied to allocations (-1 = untagged / arena 0).
    alloc_home: AtomicI64,
    /// Home socket for untagged data (-1 = 4 KB-chunk interleave).
    default_home: AtomicI64,
    /// Home socket per tag (index = tag).
    tag_home: Box<[AtomicU32]>,
    /// LLC-fill accesses per (tag, socket) — `tag * sockets + socket` —
    /// feeding [`Machine::rehome_hot_tags`].
    tag_hits: Box<[AtomicU64]>,
    offline: AtomicBool,
    /// Per-core offline flags (simulated core failure / parked core):
    /// suppresses that core's traffic only, unlike the machine-wide
    /// bulk-load `offline` switch.
    core_offline: Vec<AtomicBool>,
}

// SAFETY: the `UnsafeCell<Core>`s are guarded by the slot state machine —
// ported-and-claimed access is exclusive per the port contract, and free
// slots serialize on the transient spinlock. Everything else is atomics,
// mutexes, or immutable-after-publish data.
unsafe impl Sync for Machine {}

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
        let cores: Vec<CoreSlot> = (0..cfg.cores)
            .map(|i| CoreSlot::new(&cfg, i, modules.len()))
            .collect();
        let llc_sets = cfg.llc.sets();
        let mut stripes = MAX_LLC_STRIPES;
        while stripes > 1 && !llc_sets.is_multiple_of(stripes as u64) {
            stripes /= 2;
        }
        // One LLC per socket, each sharded into the same stripe layout.
        let llc = (0..cfg.sockets * stripes)
            .map(|_| {
                LlcStripe::new(Cache::with_sets(
                    llc_sets / stripes as u64,
                    cfg.llc.ways as usize,
                ))
            })
            .collect();
        // Single-socket machines keep the whole region in one arena, so
        // allocation addresses (and everything downstream — warm-up walks,
        // counter streams, digests) are bit-identical to the pre-NUMA
        // simulator. NUMA machines carve one arena per home tag.
        let arenas = if cfg.sockets > 1 {
            MAX_HOME_TAGS + 1
        } else {
            1
        };
        // Rounded down to a 4 KB boundary so every arena starts page- (and
        // line-) aligned; the single-arena size is unchanged
        // (`DATA_REGION_SIZE` is page-aligned).
        let arena_size = (DATA_REGION_SIZE / arenas as u64) & !4095;
        let data = (0..arenas as u64)
            .map(|i| AddressSpace::new(DATA_REGION_BASE + i * arena_size, arena_size))
            .collect();
        Machine {
            llc,
            llc_sets,
            llc_set_mask: if llc_sets.is_power_of_two() {
                llc_sets - 1
            } else {
                u64::MAX
            },
            llc_stripe_mask: stripes - 1,
            llc_stripe_shift: stripes.trailing_zeros(),
            llc_stripes_per_socket: stripes,
            cores_per_socket: cfg.cores_per_socket(),
            numa: cfg.sockets > 1,
            cores,
            modules: RwLock::new(modules),
            descs,
            data: Mutex::new(data),
            arena_size,
            alloc_home: AtomicI64::new(-1),
            default_home: AtomicI64::new(-1),
            tag_home: (0..MAX_HOME_TAGS).map(|_| AtomicU32::new(0)).collect(),
            tag_hits: (0..MAX_HOME_TAGS * cfg.sockets)
                .map(|_| AtomicU64::new(0))
                .collect(),
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
    #[inline]
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

    /// Allocate simulated data memory. On a NUMA machine the allocation
    /// lands in the arena of the ambient home tag (see
    /// [`Machine::set_alloc_home`]), or the untagged arena when none is set.
    pub fn alloc_data(&self, size: u64, align: u64) -> u64 {
        let arena = if self.numa {
            match self.alloc_home.load(Ordering::Relaxed) {
                t if t >= 0 => 1 + t as usize,
                _ => 0,
            }
        } else {
            0
        };
        self.data.lock().unwrap()[arena].alloc(size, align)
    }

    /// Number of sockets.
    pub fn sockets(&self) -> usize {
        self.cfg.sockets
    }

    /// Socket of `core` (socket-major: cores `[k*C, (k+1)*C)` sit on
    /// socket `k`).
    #[inline]
    pub fn socket_of(&self, core: usize) -> usize {
        if self.numa {
            core / self.cores_per_socket
        } else {
            0
        }
    }

    /// Set (or clear) the ambient home tag applied to subsequent
    /// [`Machine::alloc_data`] calls, returning the previous value so
    /// callers can scope it. No-op signal on a single-socket machine
    /// (allocations always go to the one arena). Tags are machine-global:
    /// placement code sets one around a partition's bulk load, which is
    /// single-threaded in every engine.
    pub fn set_alloc_home(&self, tag: Option<usize>) -> Option<usize> {
        if let Some(t) = tag {
            assert!(t < MAX_HOME_TAGS, "home tag {t} out of range");
        }
        let prev = self
            .alloc_home
            .swap(tag.map_or(-1, |t| t as i64), Ordering::Relaxed);
        (prev >= 0).then_some(prev as usize)
    }

    /// Set the home socket of untagged data, or `None` to restore the
    /// default 4 KB-chunk interleave. Models the OS page policy
    /// (first-touch-on-one-socket vs interleaved).
    pub fn set_default_home(&self, socket: Option<usize>) {
        if let Some(s) = socket {
            assert!(s < self.cfg.sockets, "socket {s} out of range");
        }
        self.default_home
            .store(socket.map_or(-1, |s| s as i64), Ordering::Relaxed);
    }

    /// Re-home all data allocated under `tag` to `socket`. O(1): homes are
    /// looked up per miss, so migration is an atomic store (the simulated
    /// analogue of `move_pages` on a partition's arena).
    pub fn set_tag_home(&self, tag: usize, socket: usize) {
        assert!(tag < MAX_HOME_TAGS, "home tag {tag} out of range");
        assert!(socket < self.cfg.sockets, "socket {socket} out of range");
        self.tag_home[tag].store(socket as u32, Ordering::Relaxed);
    }

    /// Current home socket of `tag`.
    pub fn tag_home(&self, tag: usize) -> usize {
        self.tag_home[tag].load(Ordering::Relaxed) as usize
    }

    /// Migrate every tag whose observed LLC-fill traffic since the last
    /// call is dominated by a socket other than its current home: at least
    /// `min_hits` fills total and a `margin` fraction (e.g. `0.6`) of them
    /// from the winning socket. Returns the number of tags moved and
    /// resets the observation window of every tag that reached `min_hits`.
    pub fn rehome_hot_tags(&self, min_hits: u64, margin: f64) -> usize {
        if !self.numa {
            return 0;
        }
        let sockets = self.cfg.sockets;
        let mut moved = 0;
        for tag in 0..MAX_HOME_TAGS {
            let row = &self.tag_hits[tag * sockets..(tag + 1) * sockets];
            let mut total = 0u64;
            let (mut best, mut best_hits) = (0usize, 0u64);
            for (s, h) in row.iter().enumerate() {
                let v = h.load(Ordering::Relaxed);
                total += v;
                if v > best_hits {
                    best_hits = v;
                    best = s;
                }
            }
            if total < min_hits {
                continue;
            }
            let cur = self.tag_home[tag].load(Ordering::Relaxed) as usize;
            if best != cur && best_hits as f64 >= margin * total as f64 {
                self.tag_home[tag].store(best as u32, Ordering::Relaxed);
                moved += 1;
            }
            for h in row {
                h.store(0, Ordering::Relaxed);
            }
        }
        moved
    }

    /// Home socket of a data line, bumping the (tag, socket) observation
    /// counter for tagged data. Only called on the LLC-miss path of a NUMA
    /// machine.
    #[inline]
    fn classify_home(&self, line: u64, socket: usize) -> usize {
        let addr = line * LINE;
        if addr >= DATA_REGION_BASE {
            let arena = ((addr - DATA_REGION_BASE) / self.arena_size) as usize;
            if (1..=MAX_HOME_TAGS).contains(&arena) {
                let tag = arena - 1;
                self.tag_hits[tag * self.cfg.sockets + socket].fetch_add(1, Ordering::Relaxed);
                return self.tag_home[tag].load(Ordering::Relaxed) as usize;
            }
        }
        let d = self.default_home.load(Ordering::Relaxed);
        if d >= 0 {
            d as usize
        } else {
            // Interleave by 4 KB chunk (64 lines), like an OS interleaved
            // page policy.
            ((line >> 6) as usize) % self.cfg.sockets
        }
    }

    /// Charge a cross-socket access if the demand LLC fill of `line` on
    /// `socket` is homed remotely.
    #[inline]
    fn note_llc_fill(&self, c: &mut Core, mi: usize, socket: usize, line: u64) {
        if self.classify_home(line, socket) != socket {
            c.counts.remote_accesses += 1;
            c.module_counts[mi].remote_accesses += 1;
        }
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

    /// Apply any pending queued invalidations to the core (access
    /// boundary; see [`crate::coherence`]).
    #[inline]
    fn drain_pending(&self, slot: &CoreSlot, c: &mut Core) {
        // SAFETY: we hold the core's access rights, so we are the sole
        // consumer of its queue.
        if unsafe { !slot.queue.has_pending() } {
            return;
        }
        unsafe {
            slot.queue.drain(|v| {
                let line = v & !(BACK_INVALIDATE | ORIGIN_MASK);
                if v & BACK_INVALIDATE != 0 {
                    // Inclusive-LLC back-invalidation: drop everywhere,
                    // charge nothing.
                    c.l1i.invalidate(line);
                    c.l1d.invalidate(line);
                    c.l2.invalidate(line);
                } else if c.l1d.invalidate(line) | c.l2.invalidate(line) {
                    // MESI write-invalidation: count only if resident.
                    c.counts.invalidations += 1;
                    // A resident line invalidated by a writer on another
                    // socket crossed the interconnect (snoop + later
                    // cache-to-cache refill); charge the receiver one
                    // remote access. Zero on single-socket machines.
                    if self.numa {
                        let origin = ((v & ORIGIN_MASK) >> ORIGIN_SHIFT) as usize;
                        if origin != c.socket {
                            c.counts.remote_accesses += 1;
                        }
                    }
                }
            });
        }
    }

    /// Grow the core's per-module vectors if `module` is newer than they
    /// are (modules registered after the machine's cores were built).
    #[inline]
    fn ensure_modules(&self, c: &mut Core, module: ModuleId) {
        if module.0 as usize >= c.module_counts.len() {
            c.grow_modules(self.descs.len());
        }
    }

    /// Access `socket`'s striped LLC: one spinlock per stripe, stripe keyed
    /// by the global set index so each set lives in exactly one stripe.
    #[inline]
    fn llc_access(&self, socket: usize, line: u64) -> AccessOutcome {
        let set = if self.llc_set_mask != u64::MAX {
            (line & self.llc_set_mask) as usize
        } else {
            (line % self.llc_sets) as usize
        };
        let stripe = set & self.llc_stripe_mask;
        let local = set >> self.llc_stripe_shift;
        self.llc[socket * self.llc_stripes_per_socket + stripe]
            .lock()
            .cache()
            .access_at(local, line)
    }

    /// Aggregate counters of `core` (snapshot; applies pending queued
    /// invalidations first so they are visible in the snapshot).
    pub fn counters(&self, core: usize) -> EventCounts {
        let mut g = self.core_enter(core, false);
        let (slot, c) = g.parts();
        self.drain_pending(slot, c);
        c.counts.clone()
    }

    /// Per-module counters of `core` (snapshot), padded to the full module
    /// registry length.
    pub fn module_counters(&self, core: usize) -> Vec<EventCounts> {
        let n = self.descs.len();
        let mut g = self.core_enter(core, false);
        let (slot, c) = g.parts();
        self.drain_pending(slot, c);
        let mut v = c.module_counts.clone();
        if v.len() < n {
            v.resize_with(n, EventCounts::default);
        }
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
    /// instruction-line fetches through the cache hierarchy.
    ///
    /// The walker keeps a persistent per-(core, module) cursor: successive
    /// invocations continue through the segment (different call paths,
    /// different branches) and cycle across its whole footprint over many
    /// transactions. A module whose footprint fits L1I therefore becomes
    /// I-cache resident, while a large one keeps missing — the per-system
    /// property §4 of the paper measures. Far jumps (`branchiness`) break
    /// pure cyclic order so over-capacity footprints degrade smoothly
    /// instead of hitting the LRU cliff.
    pub fn fetch_code(&self, core: usize, module: ModuleId, n: u64) {
        let d = self.code_desc(module);
        self.fetch_code_desc(core, module, n, &d);
    }

    /// [`Machine::fetch_code`] with the module descriptor supplied by the
    /// caller ([`crate::Mem`] caches it at bind time).
    #[inline]
    pub(crate) fn fetch_code_desc(&self, core: usize, module: ModuleId, n: u64, d: &CodeDesc) {
        if n == 0 || self.suppressed(core) {
            return;
        }
        let mut g = self.core_enter(core, true);
        let (slot, c) = g.parts();
        self.drain_pending(slot, c);
        self.ensure_modules(c, module);
        self.fetch_code_in(c, module, d, n);
    }

    /// The fetch walker proper; requires core access rights.
    fn fetch_code_in(&self, c: &mut Core, module: ModuleId, d: &CodeDesc, n: u64) {
        let unique = (((n as f64) / (INSTRS_PER_LINE as f64 * d.reuse)).ceil() as u64).max(1);
        c.counts.instructions += n;
        c.counts.code_fetches += n.div_ceil(INSTRS_PER_LINE);
        // Branch mispredictions scale with how branchy the module is
        // (~0.12 mispredicted branches per branch-dense instruction).
        let expected_mp = n as f64 * d.branchiness * 0.12;
        let mp = expected_mp as u64 + u64::from(c.rng.chance(expected_mp - expected_mp.floor()));
        c.counts.mispredicts += mp;
        let mi = module.0 as usize;
        let mc = &mut c.module_counts[mi];
        mc.instructions += n;
        mc.code_fetches += n.div_ceil(INSTRS_PER_LINE);
        mc.mispredicts += mp;

        let prefetch = self.cfg.i_prefetch_next_line;
        let far_jump = XorShift64::chance_threshold(d.branchiness);
        // Misses per level, added to the counters once after the walk.
        let (mut l1i, mut l2i, mut llc_i) = (0u64, 0u64, 0u64);
        let mut cursor = c.cursors[mi] % d.seg_lines;
        for _ in 0..unique {
            let line = d.base_line + cursor;
            // L1I -> L2 -> LLC
            if !c.l1i.access(line).hit {
                l1i += 1;
                if !c.l2.access(line).hit {
                    l2i += 1;
                    llc_i += u64::from(!self.llc_access(c.socket, line).hit);
                }
                if prefetch && cursor + 1 < d.seg_lines {
                    // Pull the next line alongside the demand miss; no
                    // stall is charged for the prefetch itself.
                    c.l1i.access(line + 1);
                    c.l2.access(line + 1);
                    self.llc_access(c.socket, line + 1);
                }
            }
            if c.rng.chance_below(far_jump) {
                cursor = c.rng.next_below(d.seg_lines);
            } else {
                // `cursor < seg_lines` always holds here, so the wrap is a
                // compare instead of a modulo (identical result).
                cursor += 1;
                if cursor == d.seg_lines {
                    cursor = 0;
                }
            }
        }
        c.cursors[mi] = cursor;
        for (e, n) in [
            (StallEvent::L1i, l1i),
            (StallEvent::L2i, l2i),
            (StallEvent::LlcI, llc_i),
        ] {
            c.counts.misses[e as usize] += n;
            c.module_counts[mi].misses[e as usize] += n;
        }
    }

    /// Perform a data access of `len` bytes at byte address `addr`
    /// (load when `store == false`), touching every spanned line.
    ///
    /// Only the first line of a multi-line access is charged as a demand
    /// miss: the spatial/adjacent-line prefetcher of a real core streams
    /// the rest of a sequential object read behind it (they still fill the
    /// caches and count as prefetch fills, not stalls).
    #[inline]
    pub fn data_access(&self, core: usize, module: ModuleId, addr: u64, len: u32, store: bool) {
        if self.suppressed(core) {
            return;
        }
        let mut g = self.core_enter(core, true);
        let (slot, c) = g.parts();
        self.drain_pending(slot, c);
        self.ensure_modules(c, module);
        self.span_access(c, core, module, addr, len, store);
    }

    /// Run a batched op sequence under a single core acquisition: one
    /// state check and one queue drain amortized over the whole batch,
    /// with per-op semantics identical to issuing the ops separately.
    pub(crate) fn run_batch(&self, core: usize, module: ModuleId, d: &CodeDesc, ops: &[BatchOp]) {
        if ops.is_empty() || self.suppressed(core) {
            return;
        }
        let mut g = self.core_enter(core, true);
        let (slot, c) = g.parts();
        self.drain_pending(slot, c);
        self.ensure_modules(c, module);
        for op in ops {
            match *op {
                BatchOp::Exec(n) => {
                    if n > 0 {
                        self.fetch_code_in(c, module, d, n);
                    }
                }
                BatchOp::Read { addr, len } => self.span_access(c, core, module, addr, len, false),
                BatchOp::Write { addr, len } => self.span_access(c, core, module, addr, len, true),
            }
        }
    }

    /// One data access (all spanned lines); requires core access rights.
    #[inline]
    fn span_access(
        &self,
        c: &mut Core,
        core: usize,
        module: ModuleId,
        addr: u64,
        len: u32,
        store: bool,
    ) {
        let first = addr / LINE;
        let last = (addr + u64::from(len.max(1)) - 1) / LINE;
        self.line_demand(c, core, module, first, store);
        for line in first + 1..=last {
            self.line_prefetch(c, core, module, line, store);
        }
    }

    /// Demand access to one line (the first line of an access).
    #[inline]
    fn line_demand(&self, c: &mut Core, core: usize, module: ModuleId, line: u64, store: bool) {
        let mi = module.0 as usize;
        if store {
            c.counts.stores += 1;
            c.module_counts[mi].stores += 1;
            // Stores retire into the store buffer: the write-allocate
            // fill updates the caches but produces no retirement stall,
            // and the paper's counters are load events. Tracked
            // separately. The LLC fill (write-allocate) happens on the
            // L2-miss path; inclusive-victim handling is load-side only.
            let mut missed = false;
            if !c.l1d.access(line).hit {
                missed = true;
                if !c.l2.access(line).hit {
                    let out = self.llc_access(c.socket, line);
                    if self.numa && !out.hit {
                        // Remote-homed write-allocate fill: one QPI hop.
                        self.note_llc_fill(c, mi, c.socket, line);
                    }
                }
            }
            if missed {
                c.counts.store_misses += 1;
                c.module_counts[mi].store_misses += 1;
            }
            // Write-invalidation: a store by one core removes the line
            // from every other core's private caches (MESI downgrade-to-
            // invalid) — published to their queues, applied at their next
            // access boundary.
            if self.cores.len() > 1 {
                self.publish_invalidate(core, line);
            }
        } else {
            c.counts.loads += 1;
            c.module_counts[mi].loads += 1;
            if !c.l1d.access(line).hit {
                Self::bump(c, module, StallEvent::L1d);
                if !c.l2.access(line).hit {
                    Self::bump(c, module, StallEvent::L2d);
                    let out = self.llc_access(c.socket, line);
                    if !out.hit {
                        Self::bump(c, module, StallEvent::LlcD);
                        if self.numa {
                            // DRAM fill from a remote socket's memory:
                            // one QPI hop on top of the local miss.
                            self.note_llc_fill(c, mi, c.socket, line);
                        }
                        if self.cfg.inclusive_llc {
                            if let Some(v) = out.evicted {
                                // Inclusive-LLC back-invalidation: this
                                // core inline, the others via their queues.
                                c.l1i.invalidate(v);
                                c.l1d.invalidate(v);
                                c.l2.invalidate(v);
                                self.publish_back_invalidate(core, v);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Fill `line` through the hierarchy without charging stall-class
    /// misses (hardware-prefetched trailing lines of a sequential read).
    #[inline]
    fn line_prefetch(&self, c: &mut Core, core: usize, module: ModuleId, line: u64, store: bool) {
        let mi = module.0 as usize;
        if store {
            c.counts.stores += 1;
            c.module_counts[mi].stores += 1;
        } else {
            c.counts.loads += 1;
            c.module_counts[mi].loads += 1;
        }
        if !c.l1d.access(line).hit {
            c.l2.access(line);
            self.llc_access(c.socket, line);
        }
        if store && self.cores.len() > 1 {
            self.publish_invalidate(core, line);
        }
    }

    /// Publish a store invalidation to every other *active* core's queue,
    /// tagged with the writer's socket (zero bits on a single-socket
    /// machine, so queue entries are unchanged from the pre-NUMA encoding).
    fn publish_invalidate(&self, from: usize, line: u64) {
        let tagged = line | ((self.socket_of(from) as u64) << ORIGIN_SHIFT);
        for slot in &self.cores {
            if slot.id != from && slot.active.load(Ordering::Acquire) {
                slot.queue.push(tagged);
            }
        }
    }

    /// Publish an inclusive-LLC back-invalidation to the other active
    /// cores (the evicting core applies it inline).
    fn publish_back_invalidate(&self, from: usize, line: u64) {
        for slot in &self.cores {
            if slot.id != from && slot.active.load(Ordering::Acquire) {
                slot.queue.push(line | BACK_INVALIDATE);
            }
        }
    }

    #[inline]
    fn bump(core: &mut Core, module: ModuleId, e: StallEvent) {
        core.counts.record_miss(e);
        core.module_counts[module.0 as usize].record_miss(e);
    }

    /// Prime the shared LLC with the allocated data region (sequentially,
    /// newest lines last). Used after an offline bulk load: the paper's
    /// 60-second warm-up leaves a small database fully cache-resident;
    /// this reproduces that starting state without charging any events.
    /// For working sets beyond LLC capacity only the most recently
    /// touched tail stays resident, as it would on real hardware.
    pub fn warm_data(&self) {
        // Line spans of every arena with allocations (one span on a
        // single-socket machine — identical to the pre-NUMA walk).
        let spans: Vec<(u64, u64)> = self
            .data
            .lock()
            .unwrap()
            .iter()
            .filter(|a| a.used() > 0)
            .map(|a| {
                (
                    a.base() / crate::LINE,
                    (a.base() + a.used()).div_ceil(crate::LINE),
                )
            })
            .collect();
        // Walk stripe by stripe instead of line by line: one lock
        // acquisition per stripe and a sequential sweep of that stripe's
        // sets, instead of bouncing across all stripes every line. The
        // lines of stripe `s` are exactly those with `line % stripes == s`
        // (stripes divides the set count), and stepping by `stripes`
        // preserves the within-set access order, so the resulting
        // residency and LRU state are identical to the flat walk. Every
        // socket's LLC is warmed the same way: after a bulk load any
        // socket may serve the first reads, and warm-up windows converge
        // residency to steady state anyway.
        let stripes = self.llc_stripes_per_socket as u64;
        for socket in 0..self.cfg.sockets {
            for s in 0..stripes {
                let mut guard = self.llc[socket * self.llc_stripes_per_socket + s as usize].lock();
                let cache = guard.cache();
                for &(base, end) in &spans {
                    let mut line = base + (s + stripes - base % stripes) % stripes;
                    while line < end {
                        let set = if self.llc_set_mask != u64::MAX {
                            (line & self.llc_set_mask) as usize
                        } else {
                            (line % self.llc_sets) as usize
                        };
                        debug_assert_eq!(set & self.llc_stripe_mask, s as usize);
                        cache.access_at(set >> self.llc_stripe_shift, line);
                        line += stripes;
                    }
                }
            }
        }
    }

    /// Flush all caches (cold restart) without resetting counters. Pending
    /// queued invalidations are applied first, preserving their
    /// resident-at-arrival counting semantics.
    pub fn flush_caches(&self) {
        for i in 0..self.cores.len() {
            let mut g = self.core_enter(i, false);
            let (slot, c) = g.parts();
            self.drain_pending(slot, c);
            c.l1i.flush();
            c.l1d.flush();
            c.l2.flush();
        }
        for stripe in &self.llc {
            stripe.lock().cache().flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn alloc_home_routes_allocations_to_tag_arenas() {
        let m = Machine::new(MachineConfig::numa(2, 1));
        let arena = (DATA_REGION_SIZE / (MAX_HOME_TAGS as u64 + 1)) & !4095;
        let untagged = m.alloc_data(64, 64);
        assert!(untagged < DATA_REGION_BASE + arena);
        assert_eq!(m.set_alloc_home(Some(3)), None);
        let tagged = m.alloc_data(64, 64);
        assert_eq!(m.set_alloc_home(None), Some(3));
        assert_eq!((tagged - DATA_REGION_BASE) / arena, 4, "arena 1 + tag");
    }

    #[test]
    fn remote_homed_fills_charge_remote_accesses() {
        // Two sockets, one core each. Tag 0 homed on socket 0, tag 1 on
        // socket 1; each core reads both regions cold (compulsory LLC
        // misses) and must be charged only for the remote-homed one.
        let m = Machine::new(MachineConfig::numa(2, 1));
        m.set_alloc_home(Some(0));
        let on0 = m.alloc_data(64 << 10, 64);
        m.set_alloc_home(Some(1));
        let on1 = m.alloc_data(64 << 10, 64);
        m.set_alloc_home(None);
        m.set_tag_home(0, 0);
        m.set_tag_home(1, 1);
        for i in 0..1024u64 {
            m.data_access(0, ModuleId::UNATTRIBUTED, on0 + i * 64, 8, false);
            m.data_access(1, ModuleId::UNATTRIBUTED, on1 + i * 64, 8, false);
        }
        assert_eq!(m.counters(0).remote_accesses, 0, "local reads stay local");
        assert_eq!(m.counters(1).remote_accesses, 0);
        for i in 0..1024u64 {
            m.data_access(0, ModuleId::UNATTRIBUTED, on1 + i * 64, 8, false);
        }
        let c0 = m.counters(0);
        assert_eq!(c0.remote_accesses, 1024, "every cold fill crossed QPI");
        assert_eq!(c0.miss(StallEvent::LlcD), 2048);
    }

    #[test]
    fn remote_invalidations_charge_the_receiver() {
        // Writer on the other socket: the receiver's resident line was
        // downgraded across the interconnect.
        let m = Machine::new(MachineConfig::numa(2, 1));
        // Home the data on the reader's socket so the only cross-socket
        // event is the invalidation itself.
        m.set_default_home(Some(1));
        let addr = m.alloc_data(64, 64);
        m.data_access(1, ModuleId::UNATTRIBUTED, addr, 8, false);
        m.data_access(0, ModuleId::UNATTRIBUTED, addr, 8, true);
        let c1 = m.counters(1);
        assert_eq!(c1.invalidations, 1);
        assert_eq!(c1.remote_accesses, 1);

        // Writer on the same socket: an invalidation but no QPI crossing.
        let m = Machine::new(MachineConfig::numa(2, 2));
        let addr = m.alloc_data(64, 64);
        m.data_access(1, ModuleId::UNATTRIBUTED, addr, 8, false);
        m.data_access(0, ModuleId::UNATTRIBUTED, addr, 8, true);
        let c1 = m.counters(1);
        assert_eq!(c1.invalidations, 1);
        assert_eq!(c1.remote_accesses, 0);
    }

    #[test]
    fn rehome_hot_tags_follows_dominant_socket() {
        let m = Machine::new(MachineConfig::numa(2, 1));
        m.set_alloc_home(Some(5));
        let buf = m.alloc_data(1 << 20, 64);
        m.set_alloc_home(None);
        m.set_tag_home(5, 0);
        // Socket 1 does all the (cold, LLC-missing) traffic on tag 5.
        for i in 0..4096u64 {
            m.data_access(1, ModuleId::UNATTRIBUTED, buf + i * 64, 8, false);
        }
        let before = m.counters(1);
        assert_eq!(before.remote_accesses, 4096);
        assert_eq!(m.rehome_hot_tags(100, 0.6), 1, "tag 5 migrates");
        assert_eq!(m.tag_home(5), 1);
        // After migration, fresh cold fills on socket 1 are local. Flush
        // so the same lines miss the LLC again.
        m.flush_caches();
        for i in 0..4096u64 {
            m.data_access(1, ModuleId::UNATTRIBUTED, buf + i * 64, 8, false);
        }
        assert_eq!(m.counters(1).delta(&before).remote_accesses, 0);
        // The observation window was reset: no further migration.
        assert_eq!(m.rehome_hot_tags(100, 0.6), 0);
    }

    #[test]
    fn llc_striping_is_observation_equivalent_to_single_lock() {
        // The striped LLC must hit/miss/evict exactly like one monolithic
        // cache: sets are independent, and each maps to one stripe.
        let cfg = MachineConfig::ivy_bridge(1);
        let mut mono = Cache::new(cfg.llc);
        let m = Machine::new(cfg);
        let mut rng = XorShift64::new(1234);
        for _ in 0..200_000 {
            // Random lines over 64 MB: deep LLC pressure with evictions.
            let line = (DATA_REGION_BASE / 64) + rng.next_below(1 << 20);
            let a = mono.access(line);
            let b = m.llc_access(0, line);
            assert_eq!(a, b);
        }
        assert_eq!(mono.misses(), {
            let mut misses = 0;
            for s in &m.llc {
                misses += s.lock().cache().misses();
            }
            misses
        });
    }
}
