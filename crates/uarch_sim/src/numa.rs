//! NUMA placement: which arena an allocation lands in, and which socket a
//! data line is homed on.
//!
//! On a multi-socket machine the data region is carved into one bump arena
//! per home tag (plus a default arena), so a line's home socket is an O(1)
//! address-range lookup on the LLC-miss path — no per-allocation table —
//! and re-homing a tag is one store. A single-socket machine keeps
//! the whole region in one arena, so allocation addresses (and everything
//! downstream — warm-up walks, counter streams, digests) are bit-identical
//! to the pre-NUMA simulator.

use std::cell::{Cell, RefCell};

use crate::addr::AddressSpace;
use crate::machine::{Machine, DATA_REGION_BASE, DATA_REGION_SIZE, MAX_HOME_TAGS};
use crate::LINE;

/// The data arenas and the home-socket tables over them.
pub(crate) struct Homes {
    sockets: usize,
    /// One bump allocator on a single-socket machine, one per home tag
    /// (plus the untagged arena 0) on a NUMA machine.
    arenas: RefCell<Vec<AddressSpace>>,
    /// Bytes covered by each arena (`DATA_REGION_SIZE / arena count`).
    arena_size: u64,
    /// Ambient home tag applied to allocations (`None` = untagged / arena 0).
    alloc_home: Cell<Option<usize>>,
    /// Home socket for untagged data (`None` = 4 KB-chunk interleave).
    default_home: Cell<Option<usize>>,
    /// Home socket per tag (index = tag).
    tag_home: [Cell<usize>; MAX_HOME_TAGS],
    /// LLC-fill accesses per (tag, socket) — `tag * sockets + socket` —
    /// feeding [`Machine::rehome_hot_tags`].
    tag_hits: Box<[Cell<u64>]>,
}

impl Homes {
    pub(crate) fn new(sockets: usize) -> Self {
        let arenas = if sockets > 1 { MAX_HOME_TAGS + 1 } else { 1 };
        // Rounded down to a 4 KB boundary so every arena starts page- (and
        // line-) aligned; the single-arena size is unchanged
        // (`DATA_REGION_SIZE` is page-aligned).
        let arena_size = (DATA_REGION_SIZE / arenas as u64) & !4095;
        Homes {
            sockets,
            arenas: RefCell::new(
                (0..arenas as u64)
                    .map(|i| AddressSpace::new(DATA_REGION_BASE + i * arena_size, arena_size))
                    .collect(),
            ),
            arena_size,
            alloc_home: Cell::new(None),
            default_home: Cell::new(None),
            tag_home: std::array::from_fn(|_| Cell::new(0)),
            tag_hits: (0..MAX_HOME_TAGS * sockets).map(|_| Cell::new(0)).collect(),
        }
    }

    /// Line spans `[base, end)` of every arena with allocations (one span
    /// on a single-socket machine).
    pub(crate) fn allocated_spans(&self) -> Vec<(u64, u64)> {
        self.arenas
            .borrow()
            .iter()
            .filter(|a| a.used() > 0)
            .map(|a| (a.base() / LINE, (a.base() + a.used()).div_ceil(LINE)))
            .collect()
    }

    /// Home socket of a data line, bumping the (tag, socket) observation
    /// counter for tagged data. Only called on the LLC-miss path of a NUMA
    /// machine.
    #[inline]
    pub(crate) fn classify_home(&self, line: u64, socket: usize) -> usize {
        let addr = line * LINE;
        if addr >= DATA_REGION_BASE {
            let arena = ((addr - DATA_REGION_BASE) / self.arena_size) as usize;
            if (1..=MAX_HOME_TAGS).contains(&arena) {
                let tag = arena - 1;
                let hits = &self.tag_hits[tag * self.sockets + socket];
                hits.set(hits.get() + 1);
                return self.tag_home[tag].get();
            }
        }
        match self.default_home.get() {
            Some(socket) => socket,
            // Interleave by 4 KB chunk (64 lines), like an OS interleaved
            // page policy.
            None => ((line >> 6) as usize) % self.sockets,
        }
    }
}

impl Machine {
    /// Allocate simulated data memory. On a NUMA machine the allocation
    /// lands in the arena of the ambient home tag (see
    /// [`Machine::set_alloc_home`]), or the untagged arena when none is set.
    pub fn alloc_data(&self, size: u64, align: u64) -> u64 {
        let homes = &self.homes;
        let arena = match homes.alloc_home.get() {
            Some(tag) if homes.sockets > 1 => 1 + tag,
            _ => 0,
        };
        homes.arenas.borrow_mut()[arena].alloc(size, align)
    }

    /// Set (or clear) the ambient home tag applied to subsequent
    /// [`Machine::alloc_data`] calls, returning the previous value so
    /// callers can scope it. No-op signal on a single-socket machine
    /// (allocations always go to the one arena). Tags are machine-global:
    /// placement code sets one around a partition's bulk load.
    pub fn set_alloc_home(&self, tag: Option<usize>) -> Option<usize> {
        if let Some(t) = tag {
            assert!(t < MAX_HOME_TAGS, "home tag {t} out of range");
        }
        self.homes.alloc_home.replace(tag)
    }

    /// Set the home socket of untagged data, or `None` to restore the
    /// default 4 KB-chunk interleave. Models the OS page policy
    /// (first-touch-on-one-socket vs interleaved).
    pub fn set_default_home(&self, socket: Option<usize>) {
        if let Some(s) = socket {
            assert!(s < self.homes.sockets, "socket {s} out of range");
        }
        self.homes.default_home.set(socket);
    }

    /// Re-home all data allocated under `tag` to `socket`. O(1): homes are
    /// looked up per miss, so migration is one store (the simulated
    /// analogue of `move_pages` on a partition's arena).
    pub fn set_tag_home(&self, tag: usize, socket: usize) {
        assert!(tag < MAX_HOME_TAGS, "home tag {tag} out of range");
        assert!(socket < self.homes.sockets, "socket {socket} out of range");
        self.homes.tag_home[tag].set(socket);
    }

    /// Current home socket of `tag`.
    pub fn tag_home(&self, tag: usize) -> usize {
        self.homes.tag_home[tag].get()
    }

    /// Migrate every tag whose observed LLC-fill traffic since the last
    /// call is dominated by a socket other than its current home: at least
    /// `min_hits` fills total and a `margin` fraction (e.g. `0.6`) of them
    /// from the winning socket. Returns the number of tags moved and
    /// resets the observation window of every tag that reached `min_hits`.
    pub fn rehome_hot_tags(&self, min_hits: u64, margin: f64) -> usize {
        let homes = &self.homes;
        if homes.sockets == 1 {
            return 0;
        }
        let mut moved = 0;
        let rows = homes.tag_hits.chunks(homes.sockets);
        for (home, row) in homes.tag_home.iter().zip(rows) {
            let mut total = 0u64;
            let (mut best, mut best_hits) = (0usize, 0u64);
            for (s, h) in row.iter().enumerate() {
                let v = h.get();
                total += v;
                if v > best_hits {
                    best_hits = v;
                    best = s;
                }
            }
            if total < min_hits {
                continue;
            }
            if best != home.get() && best_hits as f64 >= margin * total as f64 {
                home.set(best);
                moved += 1;
            }
            for h in row {
                h.set(0);
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::ModuleId;
    use crate::config::MachineConfig;
    use crate::counters::StallEvent;

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
}
