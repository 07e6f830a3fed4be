//! A single set-associative cache with true-LRU replacement.
//!
//! Addresses are handled at line granularity: callers pass *line numbers*
//! (`addr >> 6` for 64-byte lines). Tags store the full line number, so a
//! cache never aliases two distinct lines.
//!
//! Each set keeps its tags in recency order — index 0 is the MRU line, the
//! last index the LRU line, invalid ways sink to the tail — so the victim is
//! always the last tag and no per-way age is stored. Recency order is what
//! per-way last-use ages encode, free ways are taken before any valid line
//! either way, and no API exposes which physical way holds a line: hit/miss
//! and the identity of every evicted line equal those of an aged LRU.

use crate::config::CacheGeometry;

const EMPTY: u64 = u64::MAX;

/// One set-associative cache level.
#[derive(Clone, Debug)]
pub struct Cache {
    sets: u64,
    /// `sets - 1` when `sets` is a power of two (the usual geometry), so
    /// the set index is a mask instead of a division; `u64::MAX` otherwise.
    set_mask: u64,
    ways: usize,
    /// `tags[set * ways..][..ways]`, most recently used first; `EMPTY`
    /// marks an invalid way, and invalid ways are a suffix of their set.
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
}

/// Make `line` the MRU tag of the recency-ordered set `t`: `(true, EMPTY)`
/// on a hit, else `(false, tag pushed out of the LRU way)`. This is the
/// hottest loop in the simulator, and which way hits is unpredictable on an
/// engine's interleaved sweeps: the probe is a match bitmask with no early
/// exit, so the only data-dependent branch is hit-or-miss.
#[inline(always)]
fn touch<const W: usize>(t: &mut [u64; W], line: u64) -> (bool, u64) {
    let mut m = 0u32;
    for (w, &tag) in t.iter().enumerate() {
        m |= u32::from(tag == line) << w;
    }
    if m == 0 {
        let out = t[W - 1];
        t.copy_within(0..W - 1, 1);
        t[0] = line;
        return (false, out);
    }
    let pos = m.trailing_zeros() as usize;
    if pos != 0 {
        // Rotate ways `0..=pos` by one as a select per way, not a
        // variable-length copy.
        let old = *t;
        for w in 1..W {
            t[w] = if w <= pos { old[w - 1] } else { old[w] };
        }
        t[0] = line;
    }
    (true, EMPTY)
}

/// [`touch`] for associativities other than the Table-1 widths.
fn touch_any(t: &mut [u64], line: u64) -> (bool, u64) {
    match t.iter().position(|&tag| tag == line) {
        Some(pos) => {
            t[..=pos].rotate_right(1);
            (true, EMPTY)
        }
        None => {
            t.rotate_right(1);
            (false, std::mem::replace(&mut t[0], line))
        }
    }
}

impl Cache {
    /// Build an empty cache with the given geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        Self::with_sets(geom.sets(), geom.ways as usize)
    }

    /// Build an empty cache of `sets` × `ways` lines (any set count).
    fn with_sets(sets: u64, ways: usize) -> Self {
        assert!(sets >= 1 && ways >= 1);
        Cache {
            sets,
            set_mask: if sets.is_power_of_two() {
                sets - 1
            } else {
                u64::MAX
            },
            ways,
            tags: vec![EMPTY; (sets as usize) * ways],
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        // `line & (sets - 1)` equals `line % sets` exactly when `sets` is a
        // power of two, so the fast path changes no observable mapping.
        if self.set_mask != u64::MAX {
            (line & self.set_mask) as usize
        } else {
            (line % self.sets) as usize
        }
    }

    /// Access `line`: returns `true` on hit. On miss the line is filled,
    /// evicting the LRU way of its set; the evicted line (if any) is
    /// returned through `evicted`.
    #[inline(always)]
    pub fn access(&mut self, line: u64) -> AccessOutcome {
        debug_assert_ne!(line, EMPTY);
        let set = self.set_of(line);
        let t = &mut self.tags[set * self.ways..][..self.ways];
        // Monomorphised on the Table-1 associativities so the probe and the
        // shift unroll; any other width takes the same algorithm as a loop.
        let (hit, out) = match t.len() {
            8 => touch::<8>(t.try_into().expect("length matched"), line),
            16 => touch::<16>(t.try_into().expect("length matched"), line),
            _ => touch_any(t, line),
        };
        self.hits += u64::from(hit);
        self.misses += u64::from(!hit);
        AccessOutcome {
            hit,
            evicted: (out != EMPTY).then_some(out),
        }
    }

    /// The tags of the set `line` maps to.
    #[inline]
    fn set_tags(&self, line: u64) -> std::ops::Range<usize> {
        let base = self.set_of(line) * self.ways;
        base..base + self.ways
    }

    /// Non-destructive presence check (does not update LRU or stats).
    pub fn contains(&self, line: u64) -> bool {
        self.tags[self.set_tags(line)].contains(&line)
    }

    /// Remove `line` if present; returns whether it was resident. The freed
    /// way becomes the set's next victim.
    #[inline]
    pub fn invalidate(&mut self, line: u64) -> bool {
        let range = self.set_tags(line);
        let t = &mut self.tags[range];
        let Some(pos) = t.iter().position(|&tag| tag == line) else {
            return false;
        };
        t[pos] = EMPTY;
        t[pos..].rotate_left(1);
        true
    }

    /// Drop all contents (cold restart) while keeping hit/miss statistics.
    pub fn flush(&mut self) {
        self.tags.fill(EMPTY);
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Number of currently valid lines (O(capacity); diagnostics only).
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&tag| tag != EMPTY).count()
    }

    /// Capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.tags.len()
    }

    /// Every set's tags, most recently used first.
    #[cfg(test)]
    pub(crate) fn tags(&self) -> &[u64] {
        &self.tags
    }
}

/// Result of one cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was already resident.
    pub hit: bool,
    /// Line evicted by the fill, if the access missed a full set.
    pub evicted: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheGeometry;
    use crate::rng::XorShift64;

    /// The stamp-scan LRU this module used before sets were kept in recency
    /// order, verbatim: every way carries the clock value of its last use
    /// and the victim is the way with the smallest one. Slow and obviously
    /// correct — the model [`differential`] holds the fast path to.
    mod reference {
        use crate::cache::{AccessOutcome, EMPTY};

        /// One way of one set: the resident line's tag and its LRU stamp (larger =
        /// more recently used). Tag and stamp sit side by side so the hit-path scan
        /// walks one contiguous slice — this is the hottest loop in the simulator.
        #[derive(Clone, Copy, Debug)]
        struct Way {
            tag: u64,
            stamp: u64,
        }

        /// One set-associative cache level.
        #[derive(Clone, Debug)]
        pub struct Cache {
            sets: u64,
            /// `sets - 1` when `sets` is a power of two (the usual geometry), so
            /// the set index is a mask instead of a division; `u64::MAX` otherwise.
            set_mask: u64,
            ways: usize,
            /// `slots[set * ways + way]`; `tag == EMPTY` marks an invalid way.
            slots: Vec<Way>,
            clock: u64,
            hits: u64,
            misses: u64,
        }

        impl Cache {
            /// Build an empty cache of `sets` × `ways` lines.
            pub fn with_sets(sets: u64, ways: usize) -> Self {
                assert!(sets >= 1 && ways >= 1);
                Cache {
                    sets,
                    set_mask: if sets.is_power_of_two() {
                        sets - 1
                    } else {
                        u64::MAX
                    },
                    ways,
                    slots: vec![
                        Way {
                            tag: EMPTY,
                            stamp: 0
                        };
                        (sets as usize) * ways
                    ],
                    clock: 0,
                    hits: 0,
                    misses: 0,
                }
            }

            #[inline]
            fn set_of(&self, line: u64) -> usize {
                // `line & (sets - 1)` equals `line % sets` exactly when `sets` is a
                // power of two, so the fast path changes no observable mapping.
                if self.set_mask != u64::MAX {
                    (line & self.set_mask) as usize
                } else {
                    (line % self.sets) as usize
                }
            }

            /// Access `line`: returns `true` on hit. On miss the line is filled,
            /// evicting the LRU way of its set; the evicted line (if any) is
            /// returned through `evicted`.
            #[inline]
            pub fn access(&mut self, line: u64) -> AccessOutcome {
                debug_assert_ne!(line, EMPTY);
                let set = self.set_of(line);
                self.clock += 1;
                let clock = self.clock;
                let base = set * self.ways;
                let set_ways = &mut self.slots[base..base + self.ways];
                // Single pass: search for the tag while tracking the LRU victim, so
                // a miss (the common case for the over-capacity footprints the
                // paper studies) never rescans the set.
                let mut lru_way = 0;
                let mut lru_stamp = u64::MAX;
                for (w, way) in set_ways.iter_mut().enumerate() {
                    if way.tag == line {
                        way.stamp = clock;
                        self.hits += 1;
                        return AccessOutcome {
                            hit: true,
                            evicted: None,
                        };
                    }
                    if way.stamp < lru_stamp {
                        lru_stamp = way.stamp;
                        lru_way = w;
                    }
                }
                self.misses += 1;
                let way = &mut set_ways[lru_way];
                let evicted = if way.tag == EMPTY {
                    None
                } else {
                    Some(way.tag)
                };
                way.tag = line;
                way.stamp = clock;
                AccessOutcome {
                    hit: false,
                    evicted,
                }
            }

            /// Non-destructive presence check (does not update LRU or stats).
            pub fn contains(&self, line: u64) -> bool {
                let base = self.set_of(line) * self.ways;
                self.slots[base..base + self.ways]
                    .iter()
                    .any(|w| w.tag == line)
            }

            /// Remove `line` if present; returns whether it was resident.
            #[inline]
            pub fn invalidate(&mut self, line: u64) -> bool {
                let base = self.set_of(line) * self.ways;
                for way in &mut self.slots[base..base + self.ways] {
                    if way.tag == line {
                        way.tag = EMPTY;
                        way.stamp = 0;
                        return true;
                    }
                }
                false
            }

            /// Drop all contents (cold restart) while keeping hit/miss statistics.
            pub fn flush(&mut self) {
                self.slots.fill(Way {
                    tag: EMPTY,
                    stamp: 0,
                });
            }

            /// Lifetime hit count.
            pub fn hits(&self) -> u64 {
                self.hits
            }

            /// Lifetime miss count.
            pub fn misses(&self) -> u64 {
                self.misses
            }

            /// Lifetime accesses.
            pub fn accesses(&self) -> u64 {
                self.hits + self.misses
            }

            /// Number of currently valid lines (O(capacity); diagnostics only).
            pub fn resident_lines(&self) -> usize {
                self.slots.iter().filter(|w| w.tag != EMPTY).count()
            }

            /// Capacity in lines.
            pub fn capacity_lines(&self) -> usize {
                self.slots.len()
            }
        }
    }

    /// Drive the recency-ordered cache and the reference model with the same
    /// seeded op stream and require equal answers at every step.
    fn differential(sets: u64, ways: usize, ops: u64) {
        let mut fast = Cache::with_sets(sets, ways);
        let mut slow = reference::Cache::with_sets(sets, ways);
        let mut rng = XorShift64::new(0xD1FF ^ (sets << 8) ^ ways as u64);
        // Three times capacity: sets fill, evict, and still re-hit.
        let universe = 3 * sets * ways as u64;
        for step in 0..ops {
            let line = rng.next_below(universe);
            let same = match rng.next_below(20) {
                0..=13 => fast.access(line) == slow.access(line),
                14..=16 => fast.invalidate(line) == slow.invalidate(line),
                _ => fast.contains(line) == slow.contains(line),
            };
            assert!(same, "{sets}x{ways}: step {step}, line {line}");
            if rng.next_below(20_000) == 0 {
                fast.flush();
                slow.flush();
            }
        }
        assert_eq!(fast.hits(), slow.hits());
        assert_eq!(fast.misses(), slow.misses());
        assert_eq!(fast.accesses(), slow.accesses());
        assert_eq!(fast.resident_lines(), slow.resident_lines());
        assert_eq!(fast.capacity_lines(), slow.capacity_lines());
    }

    /// (sets, ways): power-of-two and not, both monomorphised widths and
    /// the any-width form.
    const GEOMETRIES: [(u64, usize); 6] = [(1, 1), (4, 2), (5, 3), (64, 8), (16, 16), (7, 20)];

    #[test]
    fn matches_reference_model() {
        for (sets, ways) in GEOMETRIES {
            differential(sets, ways, 200_000);
        }
    }

    #[test]
    #[ignore = "nightly: 3M ops per geometry"]
    fn matches_reference_model_long() {
        for (sets, ways) in GEOMETRIES {
            differential(sets, ways, 3_000_000);
        }
    }

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512 B.
        Cache::new(CacheGeometry::new(512, 64, 2))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(100).hit);
        assert!(c.access(100).hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn distinct_lines_same_set_coexist_up_to_ways() {
        let mut c = tiny();
        // lines 0, 4, 8 all map to set 0 (4 sets); 2 ways.
        assert!(!c.access(0).hit);
        assert!(!c.access(4).hit);
        assert!(c.access(0).hit);
        assert!(c.access(4).hit);
        // Third distinct line evicts the LRU (line 0 after the re-touch of 4?
        // order: 0,4,0,4 -> LRU is 0).
        let out = c.access(8);
        assert!(!out.hit);
        assert_eq!(out.evicted, Some(0));
        assert!(c.contains(4));
        assert!(c.contains(8));
        assert!(!c.contains(0));
    }

    #[test]
    fn lru_respects_recency() {
        let mut c = tiny();
        c.access(0);
        c.access(4);
        c.access(0); // 4 is now LRU
        let out = c.access(8);
        assert_eq!(out.evicted, Some(4));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.access(123);
        assert!(c.invalidate(123));
        assert!(!c.contains(123));
        assert!(!c.invalidate(123));
        assert!(!c.access(123).hit);
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny();
        for l in 0..8 {
            c.access(l);
        }
        assert!(c.resident_lines() > 0);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn working_set_within_capacity_never_misses_after_warmup() {
        // 32 KB, 8-way, 64 B lines -> 512 lines.
        let mut c = Cache::new(CacheGeometry::new(32 << 10, 64, 8));
        let lines: Vec<u64> = (0..512).collect();
        for &l in &lines {
            c.access(l);
        }
        for _ in 0..3 {
            for &l in &lines {
                assert!(c.access(l).hit, "line {l} should be resident");
            }
        }
    }

    #[test]
    fn cyclic_overflow_thrashes_lru() {
        // Working set slightly over capacity with cyclic access defeats LRU.
        let mut c = Cache::new(CacheGeometry::new(32 << 10, 64, 8));
        let n = 512 + 64;
        for _ in 0..4 {
            for l in 0..n {
                c.access(l);
            }
        }
        // After warmup, cyclic sweep over >capacity misses at a high rate.
        let before = c.misses();
        for l in 0..n {
            c.access(l);
        }
        let new_misses = c.misses() - before;
        assert!(new_misses > n / 2, "LRU should thrash: {new_misses}/{n}");
    }
}
