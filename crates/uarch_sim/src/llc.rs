//! The shared LLC, sharded into lock stripes keyed by set index, so
//! concurrent cores' misses only serialize when they land on the same
//! stripe. Striping is invisible to the cache model: set contents and LRU
//! order are per-set properties, and each set maps to exactly one stripe.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::cache::{AccessOutcome, Cache};
use crate::config::MachineConfig;

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

// SAFETY: `cell` is only reachable through `lock()`, whose guard holds the
// stripe's spinlock for as long as the `&mut Cache` it hands out lives.
unsafe impl Sync for LlcStripe {}

impl LlcStripe {
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
        // SAFETY: the spinlock is held and the borrow is tied to `&mut self`.
        unsafe { &mut *self.stripe.cell.get() }
    }
}

impl Drop for LlcGuard<'_> {
    fn drop(&mut self) {
        self.stripe.locked.store(false, Ordering::Release);
    }
}

/// Every socket's LLC.
pub(crate) struct StripedLlc {
    /// One full stripe set per socket: stripes of socket `k` occupy
    /// `stripes[k * per_socket ..]`.
    stripes: Vec<LlcStripe>,
    sets: u64,
    /// `sets - 1` when the set count is a power of two (the Table 1
    /// geometry), `u64::MAX` otherwise — same mask trick as `Cache`.
    set_mask: u64,
    stripe_mask: usize,
    stripe_shift: u32,
    per_socket: usize,
    ways: u32,
}

impl StripedLlc {
    /// One cold LLC per socket, each sharded into the same stripe layout.
    pub(crate) fn new(cfg: &MachineConfig) -> Self {
        let sets = cfg.llc.sets();
        let mut stripes = MAX_LLC_STRIPES;
        while stripes > 1 && !sets.is_multiple_of(stripes as u64) {
            stripes /= 2;
        }
        let stripe = |_| LlcStripe {
            locked: AtomicBool::new(false),
            cell: UnsafeCell::new(Cache::with_sets(
                sets / stripes as u64,
                cfg.llc.ways as usize,
            )),
        };
        StripedLlc {
            stripes: (0..cfg.sockets * stripes).map(stripe).collect(),
            sets,
            set_mask: if sets.is_power_of_two() {
                sets - 1
            } else {
                u64::MAX
            },
            stripe_mask: stripes - 1,
            stripe_shift: stripes.trailing_zeros(),
            per_socket: stripes,
            ways: cfg.llc.ways,
        }
    }

    /// The set of a socket's LLC that `line` maps to.
    #[inline(always)]
    fn set_of(&self, line: u64) -> usize {
        if self.set_mask != u64::MAX {
            (line & self.set_mask) as usize
        } else {
            (line % self.sets) as usize
        }
    }

    /// Where `line` lives within a socket: (stripe, set index within the
    /// stripe). The stripe of global set `s` is `s % stripes`, its local
    /// index `s / stripes`, so each set lives in exactly one stripe.
    #[inline(always)]
    fn locate(&self, line: u64) -> (usize, usize) {
        let set = self.set_of(line);
        (set & self.stripe_mask, set >> self.stripe_shift)
    }

    /// Access `line` in `socket`'s LLC under its stripe's spinlock,
    /// filling it on a miss.
    #[inline]
    pub(crate) fn touch(&self, socket: usize, line: u64) -> AccessOutcome {
        let (stripe, local) = self.locate(line);
        self.stripes[socket * self.per_socket + stripe]
            .lock()
            .cache()
            .access_at(local, line)
    }

    /// Prime every socket's LLC with the line spans `[base, end)`, in
    /// order (newest lines last), charging nothing. The spans are
    /// disjoint (one per arena), so a walk touches every line once.
    ///
    /// Only the tail of that walk is walked. Touching a line makes it the
    /// most recent of its set, so after a set has been touched with
    /// `ways` distinct lines it holds exactly those, the latest first —
    /// whatever it held before, and whatever was walked earlier. The
    /// shortest suffix of the spans that gives every set `ways` lines
    /// therefore leaves every set as the whole walk would, and it is about
    /// as long as the LLC, not as the arenas. If the spans run out first,
    /// some set keeps lines it held before and every line is walked.
    pub(crate) fn warm_data(&self, spans: &[(u64, u64)]) {
        let mut seen = vec![0u32; self.sets as usize];
        let mut short = self.sets;
        for (i, &(base, end)) in spans.iter().enumerate().rev() {
            for line in (base..end).rev() {
                let seen = &mut seen[self.set_of(line)];
                *seen += 1;
                short -= u64::from(*seen == self.ways);
                if short == 0 {
                    let mut tail = spans[i..].to_vec();
                    tail[0].0 = line;
                    return self.walk(&tail);
                }
            }
        }
        self.walk(spans)
    }

    /// Touch every line of `spans`, in order, in every socket's LLC.
    ///
    /// Walks stripe by stripe instead of line by line: one lock
    /// acquisition per stripe and a sequential sweep of that stripe's
    /// sets, instead of bouncing across all stripes every line. The lines
    /// of stripe `s` are exactly those with `line % stripes == s` (stripes
    /// divides the set count), and stepping by `stripes` preserves the
    /// within-set access order, so the resulting residency and LRU state
    /// are identical to the flat walk. Every socket's LLC is warmed the
    /// same way: after a bulk load any socket may serve the first reads,
    /// and warm-up windows converge residency to steady state anyway.
    fn walk(&self, spans: &[(u64, u64)]) {
        let stripes = self.per_socket as u64;
        for (i, stripe) in self.stripes.iter().enumerate() {
            let s = (i % self.per_socket) as u64;
            let mut guard = stripe.lock();
            let cache = guard.cache();
            for &(base, end) in spans {
                let mut line = base + (s + stripes - base % stripes) % stripes;
                while line < end {
                    let (stripe_of_line, local) = self.locate(line);
                    debug_assert_eq!(stripe_of_line, s as usize);
                    cache.access_at(local, line);
                    line += stripes;
                }
            }
        }
    }

    /// Empty every stripe (cold restart).
    pub(crate) fn flush(&self) {
        for stripe in &self.stripes {
            stripe.lock().cache().flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheGeometry;
    use crate::machine::DATA_REGION_BASE;
    use crate::rng::XorShift64;

    #[test]
    fn llc_striping_is_observation_equivalent_to_single_lock() {
        // The striped LLC must hit/miss/evict exactly like one monolithic
        // cache: sets are independent, and each maps to one stripe.
        let cfg = MachineConfig::ivy_bridge(1);
        let mut mono = Cache::new(cfg.llc);
        let llc = StripedLlc::new(&cfg);
        let mut rng = XorShift64::new(1234);
        for _ in 0..200_000 {
            // Random lines over 64 MB: deep LLC pressure with evictions.
            let line = (DATA_REGION_BASE / 64) + rng.next_below(1 << 20);
            let a = mono.access(line);
            let b = llc.touch(0, line);
            assert_eq!(a, b);
        }
        assert_eq!(mono.misses(), {
            let mut misses = 0;
            for s in &llc.stripes {
                misses += s.lock().cache().misses();
            }
            misses
        });
    }

    /// Every stripe's tags: contents and recency order of every set.
    fn tags(llc: &StripedLlc) -> Vec<Vec<u64>> {
        let tags = |s: &LlcStripe| s.lock().cache().tags().to_vec();
        llc.stripes.iter().map(tags).collect()
    }

    #[test]
    fn tail_warm_leaves_every_set_as_the_full_walk_does() {
        let mut rng = XorShift64::new(77);
        // (LLC bytes, ways, sockets): 64 and 128 sets in 64 stripes, and
        // 170 sets — not a power of two — in 2 stripes.
        for (size, ways, sockets) in [(1 << 16, 16, 1), (1 << 16, 8, 2), (1 << 16, 6, 2)] {
            let mut cfg = MachineConfig::numa(sockets, 1);
            cfg.llc = CacheGeometry::new(size, 64, ways);
            let capacity = cfg.llc.sets() * u64::from(ways);
            for round in 0..40 {
                let (full, tail) = (StripedLlc::new(&cfg), StripedLlc::new(&cfg));
                let first = DATA_REGION_BASE / 64 + rng.next_below(1000);
                // The same random contents in both before the warm-up.
                for _ in 0..rng.next_below(3 * capacity) {
                    let socket = rng.next_below(sockets as u64) as usize;
                    let line = first + rng.next_below(8 * capacity);
                    full.touch(socket, line);
                    tail.touch(socket, line);
                }
                // One to four disjoint spans, some adjacent, from a few
                // lines each to 64 times the LLC.
                let mut spans = Vec::new();
                let mut base = first;
                for _ in 0..=rng.next_below(4) {
                    let len = match (round + rng.next_below(2)) % 4 {
                        0 => 1 + rng.next_below(capacity / 8),
                        1 => capacity / 2 + rng.next_below(capacity),
                        2 => 2 * capacity + rng.next_below(capacity),
                        _ => 64 * capacity + rng.next_below(64),
                    };
                    spans.push((base, base + len));
                    base += len + rng.next_below(2) * rng.next_below(3 * capacity);
                }
                full.walk(&spans);
                tail.warm_data(&spans);
                assert_eq!(
                    tags(&full),
                    tags(&tail),
                    "{size}/{ways}/{sockets} {spans:?}"
                );
            }
        }
    }

    #[test]
    fn warming_a_span_far_larger_than_the_llc_touches_about_one_llc_of_lines() {
        let llc = StripedLlc::new(&MachineConfig::ivy_bridge(1));
        let sum =
            |f: fn(&Cache) -> u64| -> u64 { llc.stripes.iter().map(|s| f(s.lock().cache())).sum() };
        let capacity = sum(|c| c.capacity_lines() as u64);
        let base = DATA_REGION_BASE / 64 + 5;
        llc.warm_data(&[(base, base + 64 * capacity)]);
        assert!(sum(Cache::accesses) <= 2 * capacity);
        // And those were the right ones: the span's last `capacity` lines.
        assert_eq!(sum(|c| c.resident_lines() as u64), capacity);
        let last = llc.touch(0, base + 63 * capacity);
        assert!(last.hit && llc.touch(0, base + 63 * capacity - 1).evicted.is_some());
    }
}
