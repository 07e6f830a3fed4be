//! What the model decides: one core's private caches, counters and fetch
//! cursors, and the walks through L1 → L2 → LLC that every simulated
//! instruction fetch and data access charges its events from.
//!
//! Every number the paper reports is "misses per level × penalty", so the
//! two descents below are the instrument. [`demand`] stops at the first
//! level that hits and says which one served the access (plus the line the
//! LLC evicted to make room); [`fill_below`] touches L2 and the LLC
//! regardless, for lines pulled in behind a demand miss. The fetch walker,
//! loads, stores, trailing lines of a multi-line access and the next-line
//! I-prefetcher are all written in terms of those two, and everything that
//! follows from their outcome — which counter is charged, write-allocate,
//! inclusive back-invalidation, the remote-fill charge — is decided here.
//!
//! A [`Core`] is plain `&mut` state; the two things a walk reads that the
//! core does not own (an LLC set, a line's home socket) arrive through
//! [`Uncore`]; and what the other cores must be told comes back as a
//! [`Coherence`] event for the caller to deliver ([`crate::machine`] does,
//! before the access returns).

use crate::cache::{AccessOutcome, Cache};
use crate::code::{CodeDesc, ModuleId, INSTRS_PER_LINE};
use crate::config::MachineConfig;
use crate::counters::{EventCounts, StallEvent};
use crate::rng::XorShift64;
use crate::LINE;

/// The shared state a core's walk reads. The machine backs it with its
/// socket LLCs and NUMA home tables; a test can back it with a plain
/// `Vec<Cache>`.
pub(crate) trait Uncore {
    /// Access `line` in `socket`'s LLC, filling it on a miss.
    fn llc_access(&mut self, socket: usize, line: u64) -> AccessOutcome;

    /// Home socket of a data line that a core on `socket` is filling from
    /// memory.
    fn home_socket(&mut self, line: u64, socket: usize) -> usize;
}

/// What one data access obliges the other cores to do; the caller delivers
/// it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Coherence {
    None,
    /// `(first, last, origin)`: a core on socket `origin` stored to lines
    /// `first..=last`, so every other core drops them from its private data
    /// caches (MESI downgrade-to-invalid; see [`Core::invalidate`]).
    Invalidate(u64, u64, usize),
    /// An inclusive LLC evicted this line: every other core drops it
    /// everywhere (the evicting core already has).
    BackInvalidate(u64),
}

/// The level that served a demand access: the first one that hit.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Served {
    L1,
    L2,
    Llc,
    Memory,
}

/// Per-core private state.
pub(crate) struct Core {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    /// The socket this core sits on (socket-major layout, fixed at build).
    socket: usize,
    /// `sockets > 1` — gates every NUMA-only branch off the fast path.
    numa: bool,
    inclusive_llc: bool,
    i_prefetch_next_line: bool,
    counts: EventCounts,
    /// Counters per module id (grown lazily; see [`Core::ensure_module`]).
    module_counts: Vec<EventCounts>,
    /// Fetch-walker cursor per module id (line offset within the segment).
    cursors: Vec<u64>,
    rng: XorShift64,
}

impl Core {
    pub(crate) fn new(cfg: &MachineConfig, id: usize, modules: usize) -> Self {
        Core {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            socket: cfg.socket_of(id),
            numa: cfg.sockets > 1,
            inclusive_llc: cfg.inclusive_llc,
            i_prefetch_next_line: cfg.i_prefetch_next_line,
            counts: EventCounts::default(),
            module_counts: vec![EventCounts::default(); modules],
            cursors: vec![0; modules],
            rng: XorShift64::new(0xC0FE + id as u64 * 0x9E37),
        }
    }

    /// Aggregate counters.
    pub(crate) fn counts(&self) -> &EventCounts {
        &self.counts
    }

    /// Counters per module id, for the modules this core has grown to.
    pub(crate) fn module_counts(&self) -> &[EventCounts] {
        &self.module_counts
    }

    /// Make room for `module` if it was registered after this core's
    /// vectors were sized: grow them to the `registered` module count.
    /// Every access names a module this has been called for.
    #[inline]
    pub(crate) fn ensure_module(&mut self, module: ModuleId, registered: impl FnOnce() -> usize) {
        if module.0 as usize >= self.module_counts.len() {
            let n = registered();
            self.module_counts.resize_with(n, EventCounts::default);
            self.cursors.resize(n, 0);
        }
    }

    /// Demand descent: L1 (L1I for a fetch, else L1D) → L2 → LLC, stopping
    /// at the first hit and filling every level that missed. Returns the
    /// level that served the access and, when that is memory, the line the
    /// LLC evicted to make room.
    #[inline(always)]
    fn demand(
        &mut self,
        uncore: &mut impl Uncore,
        fetch: bool,
        line: u64,
    ) -> (Served, Option<u64>) {
        let l1 = if fetch { &mut self.l1i } else { &mut self.l1d };
        if l1.access(line).hit {
            return (Served::L1, None);
        }
        if self.l2.access(line).hit {
            return (Served::L2, None);
        }
        let out = uncore.llc_access(self.socket, line);
        if out.hit {
            (Served::Llc, None)
        } else {
            (Served::Memory, out.evicted)
        }
    }

    /// Fill descent: touch the levels below L1 whether or not L2 hits. For
    /// a line a prefetcher pulls in behind a demand miss; charges nothing.
    #[inline(always)]
    fn fill_below(&mut self, uncore: &mut impl Uncore, line: u64) {
        self.l2.access(line);
        uncore.llc_access(self.socket, line);
    }

    /// Charge the core's aggregate counters and `mi`'s alike.
    #[inline(always)]
    fn charge(&mut self, mi: usize, f: impl Fn(&mut EventCounts)) {
        f(&mut self.counts);
        f(&mut self.module_counts[mi]);
    }

    /// Retire `n` instructions of `module`, streaming the unique
    /// instruction-line fetches through the hierarchy.
    ///
    /// The walker keeps a persistent per-module cursor: successive
    /// invocations continue through the segment (different call paths,
    /// different branches) and cycle across its whole footprint over many
    /// transactions. A module whose footprint fits L1I therefore becomes
    /// I-cache resident, while a large one keeps missing — the per-system
    /// property §4 of the paper measures. Far jumps (`branchiness`) break
    /// pure cyclic order so over-capacity footprints degrade smoothly
    /// instead of hitting the LRU cliff.
    pub(crate) fn fetch(
        &mut self,
        uncore: &mut impl Uncore,
        module: ModuleId,
        d: &CodeDesc,
        n: u64,
    ) {
        let mi = module.0 as usize;
        let unique = (((n as f64) / (INSTRS_PER_LINE as f64 * d.reuse)).ceil() as u64).max(1);
        // Branch mispredictions scale with how branchy the module is
        // (~0.12 mispredicted branches per branch-dense instruction).
        let expected_mp = n as f64 * d.branchiness * 0.12;
        let mp = expected_mp as u64 + u64::from(self.rng.chance(expected_mp - expected_mp.floor()));
        self.charge(mi, |c| {
            c.instructions += n;
            c.code_fetches += n.div_ceil(INSTRS_PER_LINE);
            c.mispredicts += mp;
        });

        let prefetch = self.i_prefetch_next_line;
        let far_jump = XorShift64::chance_threshold(d.branchiness);
        // Misses per level, added to the counters once after the walk.
        let (mut l1i, mut l2i, mut llc_i) = (0u64, 0u64, 0u64);
        let mut cursor = self.cursors[mi] % d.seg_lines;
        for _ in 0..unique {
            let line = d.base_line + cursor;
            let (served, _) = self.demand(uncore, true, line);
            if served != Served::L1 {
                l1i += 1;
                if served != Served::L2 {
                    l2i += 1;
                    llc_i += u64::from(served == Served::Memory);
                }
                if prefetch && cursor + 1 < d.seg_lines {
                    // Pull the next line alongside the demand miss; no
                    // stall is charged for the prefetch itself.
                    self.l1i.access(line + 1);
                    self.fill_below(uncore, line + 1);
                }
            }
            if self.rng.chance_below(far_jump) {
                cursor = self.rng.next_below(d.seg_lines);
            } else {
                // `cursor < seg_lines` always holds here, so the wrap is a
                // compare instead of a modulo (identical result).
                cursor += 1;
                if cursor == d.seg_lines {
                    cursor = 0;
                }
            }
        }
        self.cursors[mi] = cursor;
        self.charge(mi, |c| {
            c.misses[StallEvent::L1i as usize] += l1i;
            c.misses[StallEvent::L2i as usize] += l2i;
            c.misses[StallEvent::LlcI as usize] += llc_i;
        });
    }

    /// A data access of `len` bytes at byte address `addr` (a load unless
    /// `store`), touching every spanned line.
    ///
    /// Only the first line is a demand access. The spatial/adjacent-line
    /// prefetcher of a real core streams the rest of a sequential object
    /// read behind it: trailing lines fill the caches and count as loads
    /// or stores, but charge no stall-class miss.
    #[inline(always)]
    pub(crate) fn data_access(
        &mut self,
        uncore: &mut impl Uncore,
        module: ModuleId,
        addr: u64,
        len: u32,
        store: bool,
    ) -> Coherence {
        let mi = module.0 as usize;
        let first = addr / LINE;
        let last = (addr + u64::from(len.max(1)) - 1) / LINE;
        let lines = last - first + 1;
        let (served, victim) = self.demand(uncore, false, first);
        let mut event = Coherence::None;
        if store {
            self.charge(mi, |c| c.stores += lines);
            // Write-invalidation: a store by one core removes the line
            // from every other core's private caches.
            event = Coherence::Invalidate(first, last, self.socket);
        } else {
            self.charge(mi, |c| c.loads += lines);
        }
        if served != Served::L1 {
            // A fill from memory homed on another socket: one QPI hop on
            // top of the local miss, for loads and write-allocate fills
            // alike.
            let remote = u64::from(
                self.numa
                    && served == Served::Memory
                    && uncore.home_socket(first, self.socket) != self.socket,
            );
            self.charge(mi, |c| {
                if store {
                    // Stores retire into the store buffer: the
                    // write-allocate fill updates the caches but produces
                    // no retirement stall, and the paper's counters are
                    // load events — so store misses are tracked apart from
                    // the six stall classes.
                    c.store_misses += 1;
                } else {
                    // Every level above the one that served it missed.
                    c.record_miss(StallEvent::L1d);
                    if served != Served::L2 {
                        c.record_miss(StallEvent::L2d);
                        c.misses[StallEvent::LlcD as usize] += u64::from(served == Served::Memory);
                    }
                }
                c.remote_accesses += remote;
            });
            // Inclusive-LLC back-invalidation (load-side only): this core
            // inline, the others through the returned event.
            if let (false, true, Some(v)) = (store, self.inclusive_llc, victim) {
                self.back_invalidate(v);
                event = Coherence::BackInvalidate(v);
            }
        }
        for line in first + 1..=last {
            if !self.l1d.access(line).hit {
                self.fill_below(uncore, line);
            }
        }
        event
    }

    /// Another core stored to `line` from socket `origin` (MESI
    /// write-invalidation): drop it from the data caches, counting only if
    /// it was resident.
    pub(crate) fn invalidate(&mut self, line: u64, origin: usize) {
        if self.l1d.invalidate(line) | self.l2.invalidate(line) {
            self.counts.invalidations += 1;
            // A resident line invalidated by a writer on another socket
            // crossed the interconnect (snoop + later cache-to-cache
            // refill); charge the receiver one remote access. Never on a
            // single-socket machine: every core and origin is socket 0.
            self.counts.remote_accesses += u64::from(origin != self.socket);
        }
    }

    /// An inclusive LLC evicted `line`: drop it everywhere, charge nothing.
    pub(crate) fn back_invalidate(&mut self, line: u64) {
        self.l1i.invalidate(line);
        self.l1d.invalidate(line);
        self.l2.invalidate(line);
    }

    /// Empty the private caches (cold restart); counters keep running.
    pub(crate) fn flush(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
        self.l2.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::ModuleSpec;
    use crate::machine::Machine;

    /// One monolithic LLC per socket, every line homed where it is used.
    impl Uncore for Vec<Cache> {
        fn llc_access(&mut self, socket: usize, line: u64) -> AccessOutcome {
            self[socket].access(line)
        }

        fn home_socket(&mut self, _line: u64, socket: usize) -> usize {
            socket
        }
    }

    /// The seam: a bare `Core` over a `Vec<Cache>` — no machine — reports
    /// exactly what `Machine` reports for the same single-core trace.
    fn bare_core_matches_machine(cfg: MachineConfig) {
        let m = Machine::new(cfg.clone());
        // Over L1I, within L2 / over L2, within the LLC.
        let small = m.register_module(ModuleSpec::new("small", 48 << 10).reuse(1.5));
        let large = m.register_module(
            ModuleSpec::new("large", 512 << 10)
                .reuse(1.0)
                .branchiness(0.1),
        );
        let buf = m.alloc_data(48 << 20, 64);
        let mut core = Core::new(&cfg, 0, m.module_names().len());
        let mut llc = vec![Cache::new(cfg.llc)];
        let llc_set_stride = cfg.llc.sets() * LINE;

        let mut rng = XorShift64::new(0x5EA4);
        for i in 0..40_000u64 {
            let module = if i % 3 == 0 { large } else { small };
            let addr = match i % 4 {
                // 40 lines of one LLC set: evictions, so inclusive victims.
                0 => buf + (i / 4 % 40) * llc_set_stride,
                // A region within L2 reach, and one well beyond it.
                1 => buf + rng.next_below(2048) * LINE,
                _ => buf + rng.next_below(256 << 10) * LINE + 56,
            };
            // One to four lines, a third of them stores.
            let len = [8, 16, 100, 200][(i / 5 % 4) as usize];
            let store = i % 3 == 1;
            let n = 20 + rng.next_below(400);

            m.fetch_code(0, module, n);
            m.data_access(0, module, addr, len, store);
            core.fetch(&mut llc, module, &m.code_desc(module), n);
            let event = core.data_access(&mut llc, module, addr, len, store);
            if store {
                let first = addr / LINE;
                let last = (addr + u64::from(len) - 1) / LINE;
                assert_eq!(event, Coherence::Invalidate(first, last, 0));
            } else if !cfg.inclusive_llc {
                assert_eq!(event, Coherence::None);
            }
        }

        let counts = m.counters(0);
        assert!(
            counts.misses.iter().all(|&n| n > 0) && counts.store_misses > 0,
            "the trace must reach every level on both sides: {counts:?}"
        );
        assert_eq!(core.counts(), &counts);
        assert_eq!(core.module_counts(), m.module_counters(0));
    }

    #[test]
    fn bare_core_matches_machine_flat() {
        bare_core_matches_machine(MachineConfig::ivy_bridge(1));
    }

    #[test]
    fn bare_core_matches_machine_inclusive_with_next_line_prefetch() {
        let mut cfg = MachineConfig::ivy_bridge(1);
        cfg.inclusive_llc = true;
        cfg.i_prefetch_next_line = true;
        bare_core_matches_machine(cfg);
    }
}
