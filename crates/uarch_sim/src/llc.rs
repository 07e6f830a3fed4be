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
        }
    }

    /// Where `line` lives within a socket: (stripe, set index within the
    /// stripe). The stripe of global set `s` is `s % stripes`, its local
    /// index `s / stripes`, so each set lives in exactly one stripe.
    #[inline(always)]
    fn locate(&self, line: u64) -> (usize, usize) {
        let set = if self.set_mask != u64::MAX {
            (line & self.set_mask) as usize
        } else {
            (line % self.sets) as usize
        };
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
    /// order (newest lines last), charging nothing.
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
    pub(crate) fn warm_data(&self, spans: &[(u64, u64)]) {
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
}
