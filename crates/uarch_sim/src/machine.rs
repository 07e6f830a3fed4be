//! The shell around [`crate::hierarchy`]: it holds every core, hands one
//! to the walk, and delivers what the walk says the other cores must do.
//!
//! The simulator splits along one line. What the model *decides* — the
//! L1 → L2 → LLC descents, which counter a miss charges, write-allocate,
//! inclusive back-invalidation, the remote-fill charge — is
//! [`crate::hierarchy`]. This module only routes: it borrows a core, hands
//! the `&mut Core` to the hierarchy with the socket LLCs and home tables
//! behind [`Uncore`], and applies the [`Coherence`] event that comes back
//! to the other cores before the access returns. The LLC is in
//! [`crate::llc`], the allocation arenas and home-socket tables in
//! [`crate::numa`]. No cache is accessed from this file.
//!
//! One thread owns a machine: [`crate::Sim`] is an `Rc`, and each core is
//! a `RefCell`, borrowed for one access (or one batch) at a time.

use std::cell::{Cell, RefCell, RefMut};

use crate::cache::AccessOutcome;
use crate::code::{CodeDesc, Module, ModuleId, ModuleRegistry, ModuleSpec};
use crate::config::MachineConfig;
use crate::counters::EventCounts;
use crate::hierarchy::{Coherence, Core, Uncore};
use crate::llc::Llc;
use crate::numa::Homes;

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

/// The full simulated machine. See the module docs.
pub struct Machine {
    cfg: MachineConfig,
    cores: Vec<RefCell<Core>>,
    llc: RefCell<Llc>,
    pub(crate) homes: Homes,
    modules: RefCell<ModuleRegistry>,
    offline: Cell<bool>,
    /// Per-core offline flags (simulated core failure / parked core):
    /// suppresses that core's traffic only, unlike the machine-wide
    /// bulk-load `offline` switch.
    core_offline: Vec<Cell<bool>>,
}

/// What a core's walk reads of the machine: the socket LLCs and the home
/// tables.
struct Shared<'a> {
    llc: RefMut<'a, Llc>,
    homes: &'a Homes,
}

impl Uncore for Shared<'_> {
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
        Machine {
            cores: (0..cfg.cores)
                .map(|i| RefCell::new(Core::new(&cfg, i, modules.len())))
                .collect(),
            llc: RefCell::new(Llc::new(&cfg)),
            homes: Homes::new(cfg.sockets),
            modules: RefCell::new(modules),
            offline: Cell::new(false),
            core_offline: (0..cfg.cores).map(|_| Cell::new(false)).collect(),
            cfg,
        }
    }

    /// Offline mode suppresses all simulated instruction fetches and data
    /// accesses (address allocation still works). Used for bulk loading:
    /// the paper populates databases before attaching the profiler, and a
    /// warm-up window re-establishes cache state afterwards.
    pub fn set_offline(&self, offline: bool) {
        self.offline.set(offline);
    }

    /// Whether the machine is in offline (bulk-load) mode.
    #[inline]
    pub fn offline(&self) -> bool {
        self.offline.get()
    }

    /// Take one core offline (or back online). An offline core drops all
    /// simulated traffic — no fetches, no data accesses, frozen counters —
    /// as if the core were parked or failed; the other cores are
    /// unaffected. Used by fault injection to model degraded placement.
    pub fn set_core_offline(&self, core: usize, offline: bool) {
        self.core_offline[core].set(offline);
    }

    /// Whether `core` is individually offline.
    pub fn core_offline(&self, core: usize) -> bool {
        self.core_offline[core].get()
    }

    /// Whether traffic on `core` is currently suppressed (machine-wide
    /// bulk-load mode or an individual core-offline fault).
    #[inline(always)]
    fn suppressed(&self, core: usize) -> bool {
        self.offline() || self.core_offline[core].get()
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
    /// state (per-core counter vectors grow lazily on first use).
    pub fn register_module(&self, spec: ModuleSpec) -> ModuleId {
        self.modules.borrow_mut().register(spec)
    }

    /// Module names in id order.
    pub fn module_names(&self) -> Vec<String> {
        self.modules.borrow().names()
    }

    /// Module lookup (cloned; specs are small).
    pub fn module(&self, id: ModuleId) -> Module {
        self.modules.borrow().get(id).clone()
    }

    /// Fetch parameters of `id`.
    pub fn code_desc(&self, id: ModuleId) -> CodeDesc {
        CodeDesc::of(self.modules.borrow().get(id))
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

    /// Borrow `core` for one access (or batch), with room for `module`.
    #[inline]
    fn core(&self, core: usize, module: ModuleId) -> RefMut<'_, Core> {
        let mut c = self.cores[core].borrow_mut();
        c.ensure_module(module, || self.modules.borrow().len());
        c
    }

    /// Deliver what `from`'s access obliges the other cores to do, before
    /// the access returns.
    #[inline]
    fn publish(&self, from: usize, event: Coherence) {
        if event == Coherence::None {
            return;
        }
        for (i, core) in self.cores.iter().enumerate() {
            if i == from {
                continue;
            }
            let mut core = core.borrow_mut();
            match event {
                Coherence::None => {}
                Coherence::Invalidate(first, last, origin) => {
                    for line in first..=last {
                        core.invalidate(line, origin);
                    }
                }
                Coherence::BackInvalidate(line) => core.back_invalidate(line),
            }
        }
    }

    /// Aggregate counters of `core` (snapshot).
    pub fn counters(&self, core: usize) -> EventCounts {
        self.cores[core].borrow().counts().clone()
    }

    /// Per-module counters of `core` (snapshot), padded to the full module
    /// registry length.
    pub fn module_counters(&self, core: usize) -> Vec<EventCounts> {
        let mut v = self.cores[core].borrow().module_counts().to_vec();
        v.resize_with(
            v.len().max(self.modules.borrow().len()),
            EventCounts::default,
        );
        v
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
        let mut c = self.core(core, module);
        c.fetch(&mut self.shared(), module, d, n);
    }

    /// The LLC and home tables, for one walk.
    #[inline(always)]
    fn shared(&self) -> Shared<'_> {
        Shared {
            llc: self.llc.borrow_mut(),
            homes: &self.homes,
        }
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
        let mut c = self.core(core, module);
        let event = c.data_access(&mut self.shared(), module, addr, len, store);
        self.publish(core, event);
    }

    /// Run a batched op sequence under one borrow of the core, with per-op
    /// semantics identical to issuing the ops separately.
    #[inline(always)]
    pub(crate) fn run_batch(&self, core: usize, module: ModuleId, d: &CodeDesc, ops: &[BatchOp]) {
        if ops.is_empty() || self.suppressed(core) {
            return;
        }
        self.run_batch_online(core, module, d, ops);
    }

    fn run_batch_online(&self, core: usize, module: ModuleId, d: &CodeDesc, ops: &[BatchOp]) {
        let mut c = self.core(core, module);
        let mut shared = self.shared();
        for op in ops {
            let event = match *op {
                BatchOp::Exec(0) => continue,
                BatchOp::Exec(n) => {
                    c.fetch(&mut shared, module, d, n);
                    continue;
                }
                BatchOp::Read { addr, len } => c.data_access(&mut shared, module, addr, len, false),
                BatchOp::Write { addr, len } => c.data_access(&mut shared, module, addr, len, true),
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
        self.llc
            .borrow_mut()
            .warm_data(&self.homes.allocated_spans());
    }

    /// Flush all caches (cold restart) without resetting counters.
    pub fn flush_caches(&self) {
        for core in &self.cores {
            core.borrow_mut().flush();
        }
        self.llc.borrow_mut().flush();
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
    /// counter moves, and no line reaches the core's caches, so a later
    /// store from another core invalidates nothing there.
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
                sim.mem(1).write(buf, 64);
                assert_eq!(sim.counters(0), counts, "{name}");
                assert_eq!(sim.module_counters(0), modules, "{name}");
                // Online, a data access caches the line and the store
                // takes it back.
                access(&mem, buf);
                sim.mem(1).write(buf, 64);
                let held = u64::from(name != "exec");
                assert_eq!(sim.counters(0).invalidations, held, "{name}");
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
        // Core 0 writes it -> core 1 loses it.
        m.data_access(0, ModuleId::UNATTRIBUTED, addr, 8, true);
        assert_eq!(m.counters(1).invalidations, before.invalidations + 1);
        // Core 1 re-reads: L1D miss again.
        let before = m.counters(1);
        m.data_access(1, ModuleId::UNATTRIBUTED, addr, 8, false);
        let d = m.counters(1).delta(&before);
        assert_eq!(d.miss(StallEvent::L1d), 1);
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
