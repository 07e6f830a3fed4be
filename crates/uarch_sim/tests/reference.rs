//! A reference machine for the simulator, written from the model's
//! description and sharing no code with it, and a seeded differential
//! fuzzer that drives both in lockstep through the public `Sim`/`Mem` API.
//!
//! The reference is the slow, obvious form of every rule the simulator
//! charges events by:
//!
//! * each cache level is a `Vec` of LRU lists, most recent first, with the
//!   Table 1 geometry; every miss fills (write-allocate);
//! * the fetch walk retires `n` instructions as `⌈n / (16 · reuse)⌉` line
//!   touches from a per-module cursor, with far jumps and mispredict draws
//!   from the core's `XorShift64`;
//! * only the first line of a data access is a demand access; the rest
//!   fill the caches and charge no miss;
//! * a store removes its lines from every other core's L1D and L2 at once
//!   (MESI-lite), and an inclusive LLC's victim leaves every core's private
//!   caches at once;
//! * the next-line I-prefetcher, NUMA homes and the remote charge.
//!
//! Every effect on another core is applied the moment it happens. The
//! simulator must report the same per-core and per-module `EventCounts`,
//! whatever way it delivers them.

use uarch_sim::code::INSTRS_PER_LINE;
use uarch_sim::config::CacheGeometry;
use uarch_sim::rng::XorShift64;
use uarch_sim::{BatchOp, CodeDesc, EventCounts, MachineConfig, ModuleId, ModuleSpec, Sim};

const LINE: u64 = 64;
/// The stall classes, in `EventCounts::misses` order.
const L1I: usize = 0;
const L2I: usize = 1;
const LLC_I: usize = 2;
const L1D: usize = 3;
const L2D: usize = 4;
const LLC_D: usize = 5;
/// Home tags the fuzzer allocates under on a multi-socket machine.
const TAGS: usize = 4;

/// One cache level: per set, the resident lines most recent first.
struct Lru {
    sets: Vec<Vec<u64>>,
    ways: usize,
}

impl Lru {
    fn new(g: CacheGeometry) -> Self {
        Lru {
            sets: (0..g.sets()).map(|_| Vec::new()).collect(),
            ways: g.ways as usize,
        }
    }

    fn set(&mut self, line: u64) -> &mut Vec<u64> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line % n) as usize]
    }

    /// Use `line`: whether it was resident, and the line a miss evicted.
    fn access(&mut self, line: u64) -> (bool, Option<u64>) {
        let ways = self.ways;
        let set = self.set(line);
        let hit = match set.iter().position(|&l| l == line) {
            Some(i) => {
                set.remove(i);
                true
            }
            None => false,
        };
        set.insert(0, line);
        let evicted = if set.len() > ways { set.pop() } else { None };
        (hit, evicted)
    }

    fn remove(&mut self, line: u64) -> bool {
        let set = self.set(line);
        let found = set.iter().position(|&l| l == line);
        found.map(|i| set.remove(i)).is_some()
    }

    fn flush(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
    }
}

/// The level that served a demand access.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
enum Level {
    L1,
    L2,
    Llc,
    Memory,
}

struct RefCore {
    l1i: Lru,
    l1d: Lru,
    l2: Lru,
    socket: usize,
    counts: EventCounts,
    modules: Vec<EventCounts>,
    cursors: Vec<u64>,
    rng: XorShift64,
}

impl RefCore {
    /// Add to the core's counters and to `module`'s alike.
    fn charge(&mut self, module: usize, f: impl Fn(&mut EventCounts)) {
        f(&mut self.counts);
        f(&mut self.modules[module]);
    }
}

struct Reference {
    cores: Vec<RefCore>,
    llc: Vec<Lru>,
    sockets: usize,
    prefetch: bool,
    inclusive: bool,
    /// `(first line, end line, home tag)` of every allocation.
    buffers: Vec<(u64, u64, Option<usize>)>,
    tag_home: [usize; TAGS],
    default_home: Option<usize>,
    offline: Vec<bool>,
    /// Back-invalidations that removed a resident line (liveness only).
    back_invalidated: u64,
}

impl Reference {
    fn new(cfg: &MachineConfig, modules: usize) -> Self {
        let per_socket = cfg.cores / cfg.sockets;
        let core = |id: usize| RefCore {
            l1i: Lru::new(cfg.l1i),
            l1d: Lru::new(cfg.l1d),
            l2: Lru::new(cfg.l2),
            socket: id / per_socket,
            counts: EventCounts::default(),
            modules: vec![EventCounts::default(); modules],
            cursors: vec![0; modules],
            rng: XorShift64::new(0xC0FE + id as u64 * 0x9E37),
        };
        Reference {
            cores: (0..cfg.cores).map(core).collect(),
            llc: (0..cfg.sockets).map(|_| Lru::new(cfg.llc)).collect(),
            sockets: cfg.sockets,
            prefetch: cfg.i_prefetch_next_line,
            inclusive: cfg.inclusive_llc,
            buffers: Vec::new(),
            tag_home: [0; TAGS],
            default_home: None,
            offline: vec![false; cfg.cores],
            back_invalidated: 0,
        }
    }

    fn add_module(&mut self) {
        for c in &mut self.cores {
            c.modules.push(EventCounts::default());
            c.cursors.push(0);
        }
    }

    /// L1 (L1I for a fetch) → L2 → the socket's LLC, stopping at the
    /// first hit; every level that missed now holds the line.
    fn demand(&mut self, core: usize, fetch: bool, line: u64) -> (Level, Option<u64>) {
        let c = &mut self.cores[core];
        let l1 = if fetch { &mut c.l1i } else { &mut c.l1d };
        if l1.access(line).0 {
            return (Level::L1, None);
        }
        if c.l2.access(line).0 {
            return (Level::L2, None);
        }
        match self.llc[c.socket].access(line) {
            (true, _) => (Level::Llc, None),
            (false, victim) => (Level::Memory, victim),
        }
    }

    fn fill_below(&mut self, core: usize, line: u64) {
        let c = &mut self.cores[core];
        c.l2.access(line);
        self.llc[c.socket].access(line);
    }

    fn exec(&mut self, core: usize, module: usize, d: &CodeDesc, n: u64) {
        if n == 0 || self.offline[core] {
            return;
        }
        let c = &mut self.cores[core];
        let expected = n as f64 * d.branchiness * 0.12;
        let mispredicts = expected as u64 + u64::from(c.rng.chance(expected - expected.floor()));
        c.charge(module, |e| {
            e.instructions += n;
            e.code_fetches += n.div_ceil(INSTRS_PER_LINE);
            e.mispredicts += mispredicts;
        });
        let lines = ((n as f64 / (INSTRS_PER_LINE as f64 * d.reuse)).ceil() as u64).max(1);
        let mut cursor = c.cursors[module] % d.seg_lines;
        for _ in 0..lines {
            let line = d.base_line + cursor;
            let (level, _) = self.demand(core, true, line);
            let c = &mut self.cores[core];
            c.charge(module, |e| {
                e.misses[L1I] += u64::from(level > Level::L1);
                e.misses[L2I] += u64::from(level > Level::L2);
                e.misses[LLC_I] += u64::from(level == Level::Memory);
            });
            if level > Level::L1 && self.prefetch && cursor + 1 < d.seg_lines {
                c.l1i.access(line + 1);
                self.fill_below(core, line + 1);
            }
            let c = &mut self.cores[core];
            cursor = if c.rng.chance(d.branchiness) {
                c.rng.next_below(d.seg_lines)
            } else {
                (cursor + 1) % d.seg_lines
            };
        }
        self.cores[core].cursors[module] = cursor;
    }

    /// Home socket of a data line: its tag's, else the default home, else
    /// the 4 KB-chunk interleave.
    fn home(&self, line: u64) -> usize {
        let tag = self
            .buffers
            .iter()
            .find(|&&(first, end, _)| (first..end).contains(&line))
            .and_then(|b| b.2);
        match (tag, self.default_home) {
            (Some(t), _) => self.tag_home[t],
            (None, Some(s)) => s,
            (None, None) => (line / 64) as usize % self.sockets,
        }
    }

    fn access(&mut self, core: usize, module: usize, addr: u64, len: u32, store: bool) {
        if self.offline[core] {
            return;
        }
        let first = addr / LINE;
        let last = (addr + u64::from(len.max(1)) - 1) / LINE;
        let (level, victim) = self.demand(core, false, first);
        let socket = self.cores[core].socket;
        let remote = self.sockets > 1 && level == Level::Memory && self.home(first) != socket;
        self.cores[core].charge(module, |e| {
            if store {
                e.stores += last - first + 1;
                e.store_misses += u64::from(level > Level::L1);
            } else {
                e.loads += last - first + 1;
                e.misses[L1D] += u64::from(level > Level::L1);
                e.misses[L2D] += u64::from(level > Level::L2);
                e.misses[LLC_D] += u64::from(level == Level::Memory);
            }
            e.remote_accesses += u64::from(remote);
        });
        if let (false, true, Some(v)) = (store, self.inclusive, victim) {
            for c in &mut self.cores {
                let removed = [c.l1i.remove(v), c.l1d.remove(v), c.l2.remove(v)];
                self.back_invalidated += removed.iter().filter(|&&r| r).count() as u64;
            }
        }
        for line in first + 1..=last {
            if !self.cores[core].l1d.access(line).0 {
                self.fill_below(core, line);
            }
        }
        if store {
            for line in first..=last {
                for (i, c) in self.cores.iter_mut().enumerate() {
                    if i != core && (c.l1d.remove(line) | c.l2.remove(line)) {
                        c.counts.invalidations += 1;
                        c.counts.remote_accesses += u64::from(c.socket != socket);
                    }
                }
            }
        }
    }

    fn flush(&mut self) {
        for c in &mut self.cores {
            c.l1i.flush();
            c.l1d.flush();
            c.l2.flush();
        }
        self.llc.iter_mut().for_each(Lru::flush);
    }
}

/// What the fuzzer issued, counted apart from both models.
#[derive(Default)]
struct Issued {
    instructions: Vec<u64>,
    loads: Vec<u64>,
    stores: Vec<u64>,
}

/// Both machines, the buffers the fuzzer reads and writes, and the modules.
struct Pair {
    sim: Sim,
    reference: Reference,
    modules: Vec<(ModuleId, CodeDesc)>,
    /// `(base, bytes)`: a hot region every core shares, then ever larger
    /// ones (within L2, within the Table 1 LLC, beyond it).
    regions: Vec<(u64, u64)>,
    issued: Issued,
}

impl Pair {
    fn new(cfg: MachineConfig) -> Self {
        let sim = Sim::new(cfg.clone());
        let reference = Reference::new(&cfg, 1);
        let mut pair = Pair {
            modules: vec![(
                ModuleId::UNATTRIBUTED,
                sim.code_desc(ModuleId::UNATTRIBUTED),
            )],
            regions: Vec::new(),
            issued: Issued {
                instructions: vec![0; cfg.cores],
                loads: vec![0; cfg.cores],
                stores: vec![0; cfg.cores],
            },
            sim,
            reference,
        };
        for (footprint, reuse, branchiness) in [
            (6 << 10, 4.0, 0.01),
            (48 << 10, 1.5, 0.02),
            (200 << 10, 1.0, 0.0),
            (1 << 20, 1.2, 0.3),
        ] {
            pair.register(footprint, reuse, branchiness);
        }
        let tags = if cfg.sockets > 1 { TAGS } else { 0 };
        for (i, bytes) in [32 << 10, 192 << 10, 4 << 20, 40 << 20]
            .into_iter()
            .enumerate()
        {
            pair.alloc(bytes, None);
            if i < tags {
                pair.alloc(bytes.min(2 << 20), Some(i));
            }
        }
        pair
    }

    fn register(&mut self, footprint: u32, reuse: f64, branchiness: f64) {
        let name = format!("m{}", self.modules.len());
        let spec = ModuleSpec::new(name, footprint)
            .reuse(reuse)
            .branchiness(branchiness);
        let id = self.sim.register_module(spec);
        self.modules.push((id, self.sim.code_desc(id)));
        self.reference.add_module();
    }

    fn alloc(&mut self, bytes: u64, tag: Option<usize>) {
        let _home = tag.map(|t| self.sim.alloc_home_guard(t));
        let base = self.sim.alloc(bytes, LINE);
        self.regions.push((base, bytes));
        self.reference
            .buffers
            .push((base / LINE, (base + bytes) / LINE, tag));
    }

    /// Every core's counters, aggregate and per module, in both machines.
    fn compare(&self, context: &str) {
        for (core, r) in self.reference.cores.iter().enumerate() {
            assert_eq!(self.sim.counters(core), r.counts, "{context}: core {core}");
            assert_eq!(
                self.sim.module_counters(core),
                r.modules,
                "{context}: core {core} per module"
            );
        }
    }

    fn exec(&mut self, core: usize, module: usize, n: u64) {
        let (id, d) = self.modules[module];
        self.sim.mem(core).with_module(id).exec(n);
        self.reference.exec(core, module, &d, n);
        self.count_exec(core, n);
    }

    fn access(&mut self, core: usize, module: usize, addr: u64, len: u32, store: bool) {
        let mem = self.sim.mem(core).with_module(self.modules[module].0);
        if store {
            mem.write(addr, len);
        } else {
            mem.read(addr, len);
        }
        self.reference.access(core, module, addr, len, store);
        self.count_access(core, addr, len, store);
    }

    fn run_ops(&mut self, core: usize, module: usize, ops: &[BatchOp]) {
        self.sim
            .mem(core)
            .with_module(self.modules[module].0)
            .run_ops(ops);
        let d = self.modules[module].1;
        for &op in ops {
            match op {
                BatchOp::Exec(n) => {
                    self.reference.exec(core, module, &d, n);
                    self.count_exec(core, n);
                }
                BatchOp::Read { addr, len } | BatchOp::Write { addr, len } => {
                    let store = matches!(op, BatchOp::Write { .. });
                    self.reference.access(core, module, addr, len, store);
                    self.count_access(core, addr, len, store);
                }
            }
        }
    }

    fn count_exec(&mut self, core: usize, n: u64) {
        if !self.reference.offline[core] {
            self.issued.instructions[core] += n;
        }
    }

    fn count_access(&mut self, core: usize, addr: u64, len: u32, store: bool) {
        if !self.reference.offline[core] {
            let lines = (addr + u64::from(len) - 1) / LINE - addr / LINE + 1;
            let issued = &mut self.issued;
            let v = if store {
                &mut issued.stores
            } else {
                &mut issued.loads
            };
            v[core] += lines;
        }
    }

    /// A data address: mostly the shared hot region, then ever colder.
    fn addr(&self, rng: &mut XorShift64) -> u64 {
        let region = match rng.next_below(16) {
            0..=7 => 0,
            8..=10 => 1,
            11..=13 => 2,
            _ => 3 + rng.next_below(self.regions.len() as u64 - 3) as usize,
        };
        let (base, bytes) = self.regions[region];
        base + rng.next_below(bytes / 8 - 24) * 8
    }
}

/// One to three lines: within a line, straddling one boundary, or two.
fn len(rng: &mut XorShift64) -> u32 {
    [1, 8, 8, 24, 64, 100, 130][rng.next_below(7) as usize]
}

fn instructions(rng: &mut XorShift64) -> u64 {
    match rng.next_below(20) {
        0 => 0,
        1 => 2_000 + rng.next_below(8_000),
        _ => 1 + rng.next_below(600),
    }
}

/// Drive `ops` random operations through both machines and compare them
/// at every snapshot and at the end.
fn fuzz(name: &str, cfg: MachineConfig, seed: u64, ops: u64) {
    let cores = cfg.cores;
    let sockets = cfg.sockets;
    let llc_sets = cfg.llc.sets();
    let mut pair = Pair::new(cfg);
    let mut rng = XorShift64::new(seed);
    let mut i = 0;
    while i < ops {
        let core = rng.next_below(cores as u64) as usize;
        let module = rng.next_below(pair.modules.len() as u64) as usize;
        // For the first quarter the last core only runs code, so no data
        // access ever reaches its caches while the others' effects do.
        let pick = rng.next_below(1000);
        let code_only = core == cores - 1 && i < ops / 4;
        match if code_only { pick % 300 } else { pick } {
            0..=299 => pair.exec(core, module, instructions(&mut rng)),
            300..=599 => {
                let addr = pair.addr(&mut rng);
                pair.access(core, module, addr, len(&mut rng), false);
            }
            600..=839 => {
                let addr = pair.addr(&mut rng);
                pair.access(core, module, addr, len(&mut rng), true);
            }
            840..=959 => {
                let ops: Vec<BatchOp> = (0..1 + rng.next_below(8))
                    .map(|_| match rng.next_below(3) {
                        0 => BatchOp::Exec(instructions(&mut rng)),
                        1 => BatchOp::Read {
                            addr: pair.addr(&mut rng),
                            len: len(&mut rng),
                        },
                        _ => BatchOp::Write {
                            addr: pair.addr(&mut rng),
                            len: len(&mut rng),
                        },
                    })
                    .collect();
                i += ops.len() as u64 - 1;
                pair.run_ops(core, module, &ops);
            }
            960..=979 => {
                pair.compare(&format!("{name} seed {seed:#x} op {i}"));
                // Offline spells last until the next snapshot.
                for core in 0..cores {
                    pair.sim.set_core_offline(core, false);
                    pair.reference.offline[core] = false;
                }
            }
            980 => {
                // A store storm from one core while the others idle.
                let (base, bytes) = pair.regions[0];
                let n = 300 + rng.next_below(1_500);
                for k in 0..n {
                    pair.access(core, module, base + (k * 8 * LINE) % bytes, 8, true);
                }
                i += n - 1;
            }
            981..=985 => {
                // Push one hot line out of its LLC set with a run of
                // lines that map to the same set: an inclusive LLC then
                // takes it from cores that still hold it.
                let (hot, bytes) = pair.regions[0];
                let line = (hot + rng.next_below(bytes / LINE) * LINE) / LINE;
                let (base, bytes) = *pair.regions.iter().max_by_key(|r| r.1).unwrap();
                let sets = llc_sets;
                let first = base / LINE + (line + sets - base / LINE % sets) % sets;
                let n = 17 + rng.next_below(8);
                assert!((n + 1) * sets * LINE < bytes);
                for k in 0..n {
                    pair.access(core, module, (first + k * sets) * LINE, 8, false);
                }
                i += n - 1;
            }
            986 => {
                pair.sim.set_core_offline(core, true);
                pair.reference.offline[core] = true;
            }
            987..=989 if sockets > 1 => {
                let (tag, socket) = (rng.next_below(TAGS as u64), rng.next_below(sockets as u64));
                pair.sim.set_tag_home(tag as usize, socket as usize);
                pair.reference.tag_home[tag as usize] = socket as usize;
            }
            990..=991 if sockets > 1 => {
                let home = rng.next_below(sockets as u64 + 1) as usize;
                let home = (home < sockets).then_some(home);
                pair.sim.set_default_home(home);
                pair.reference.default_home = home;
            }
            992..=994 => {
                // Machine-wide bulk-load mode: nothing is charged.
                let addr = pair.addr(&mut rng);
                let mem = pair.sim.mem(core);
                pair.sim.offline(|| {
                    mem.exec(500);
                    mem.write(addr, 8);
                });
            }
            995 => {
                pair.sim.flush_caches();
                pair.reference.flush();
            }
            998 if pair.modules.len() < 12 => {
                let footprint = 4_096 + rng.next_below(256 << 10) as u32;
                pair.register(footprint, 1.0 + rng.next_below(3) as f64, 0.05);
            }
            _ => continue,
        }
        i += 1;
    }
    pair.compare(&format!("{name} seed {seed:#x} end"));

    // What the fuzzer issued is exactly what was counted, and no store
    // invalidated more lines than the other cores could hold.
    let mut invalidations = 0;
    for core in 0..cores {
        let c = pair.sim.counters(core);
        assert_eq!(c.instructions, pair.issued.instructions[core], "{name}");
        assert_eq!(c.loads, pair.issued.loads[core], "{name}");
        assert_eq!(c.stores, pair.issued.stores[core], "{name}");
        invalidations += c.invalidations;
    }
    let stores: u64 = pair.issued.stores.iter().sum();
    assert!(invalidations <= stores * (cores as u64 - 1), "{name}");
    assert!(invalidations > 0, "{name}: no store found a peer's line");
    let c = pair.sim.counters(0);
    assert!(
        c.misses.iter().all(|&m| m > 0) && c.store_misses > 0,
        "{name}: the trace must reach every level: {c:?}"
    );
    if pair.reference.inclusive {
        assert!(
            pair.reference.back_invalidated > 0,
            "{name}: no back-invalidation"
        );
    }
    if sockets > 1 {
        assert!(c.remote_accesses > 0, "{name}: nothing crossed sockets");
    }
}

/// The machines the differential runs on.
fn configs() -> Vec<(&'static str, MachineConfig)> {
    let prefetch = |mut cfg: MachineConfig| {
        cfg.i_prefetch_next_line = true;
        cfg
    };
    let inclusive = |mut cfg: MachineConfig| {
        cfg.inclusive_llc = true;
        cfg.llc = CacheGeometry::new(1 << 20, 64, 16);
        cfg
    };
    vec![
        ("ivy_bridge(2)", MachineConfig::ivy_bridge(2)),
        (
            "ivy_bridge(4) prefetch",
            prefetch(MachineConfig::ivy_bridge(4)),
        ),
        ("numa(2, 2)", MachineConfig::numa(2, 2)),
        ("numa(2, 2) prefetch", prefetch(MachineConfig::numa(2, 2))),
        (
            "ivy_bridge(2) inclusive 1 MB",
            inclusive(MachineConfig::ivy_bridge(2)),
        ),
        (
            "numa(2, 2) inclusive 1 MB prefetch",
            prefetch(inclusive(MachineConfig::numa(2, 2))),
        ),
    ]
}

#[test]
fn machine_matches_the_reference() {
    for (i, (name, cfg)) in configs().into_iter().enumerate() {
        fuzz(name, cfg, 0xD1FF + i as u64, 50_000);
    }
}

/// The long run: `cargo test --release --test reference -- --ignored`.
#[test]
#[ignore]
fn machine_matches_the_reference_long() {
    for seed in 0..6u64 {
        for (i, (name, cfg)) in configs().into_iter().enumerate() {
            fuzz(name, cfg, 0x10_0000 + seed * 16 + i as u64, 150_000);
        }
    }
}
