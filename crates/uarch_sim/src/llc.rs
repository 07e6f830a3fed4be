//! The shared LLC: one [`Cache`] per socket, and the warm-up that primes
//! it after a bulk load.

use crate::cache::{AccessOutcome, Cache};
use crate::config::{CacheGeometry, MachineConfig};

/// Every socket's LLC.
pub(crate) struct Llc {
    sockets: Vec<Cache>,
    geom: CacheGeometry,
}

impl Llc {
    /// One cold LLC per socket.
    pub(crate) fn new(cfg: &MachineConfig) -> Self {
        Llc {
            sockets: (0..cfg.sockets).map(|_| Cache::new(cfg.llc)).collect(),
            geom: cfg.llc,
        }
    }

    /// Access `line` in `socket`'s LLC, filling it on a miss.
    #[inline(always)]
    pub(crate) fn touch(&mut self, socket: usize, line: u64) -> AccessOutcome {
        self.sockets[socket].access(line)
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
    pub(crate) fn warm_data(&mut self, spans: &[(u64, u64)]) {
        let (sets, ways) = (self.geom.sets(), self.geom.ways);
        let mut seen = vec![0u32; sets as usize];
        let mut short = sets;
        for (i, &(base, end)) in spans.iter().enumerate().rev() {
            for line in (base..end).rev() {
                let seen = &mut seen[(line % sets) as usize];
                *seen += 1;
                short -= u64::from(*seen == ways);
                if short == 0 {
                    let mut tail = spans[i..].to_vec();
                    tail[0].0 = line;
                    return self.walk(&tail);
                }
            }
        }
        self.walk(spans)
    }

    /// Touch every line of `spans`, in order, in every socket's LLC. Every
    /// socket's LLC is warmed the same way: after a bulk load any socket
    /// may serve the first reads, and warm-up windows converge residency
    /// to steady state anyway.
    fn walk(&mut self, spans: &[(u64, u64)]) {
        for cache in &mut self.sockets {
            for &(base, end) in spans {
                for line in base..end {
                    cache.access(line);
                }
            }
        }
    }

    /// Empty every socket's LLC (cold restart).
    pub(crate) fn flush(&mut self) {
        self.sockets.iter_mut().for_each(Cache::flush);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::DATA_REGION_BASE;
    use crate::rng::XorShift64;

    /// Every socket's tags: contents and recency order of every set.
    fn tags(llc: &Llc) -> Vec<Vec<u64>> {
        llc.sockets.iter().map(|c| c.tags().to_vec()).collect()
    }

    #[test]
    fn tail_warm_leaves_every_set_as_the_full_walk_does() {
        let mut rng = XorShift64::new(77);
        // (LLC bytes, ways, sockets): 64 and 128 sets, and 170 sets — not
        // a power of two. The reference is the flat walk of every line.
        for (size, ways, sockets) in [(1 << 16, 16, 1), (1 << 16, 8, 2), (1 << 16, 6, 2)] {
            let mut cfg = MachineConfig::numa(sockets, 1);
            cfg.llc = CacheGeometry::new(size, 64, ways);
            let capacity = cfg.llc.sets() * u64::from(ways);
            for round in 0..40 {
                let (mut full, mut tail) = (Llc::new(&cfg), Llc::new(&cfg));
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
        let mut llc = Llc::new(&MachineConfig::ivy_bridge(1));
        let capacity = llc.sockets[0].capacity_lines() as u64;
        let base = DATA_REGION_BASE / 64 + 5;
        llc.warm_data(&[(base, base + 64 * capacity)]);
        assert!(llc.sockets[0].accesses() <= 2 * capacity);
        // And those were the right ones: the span's last `capacity` lines.
        assert_eq!(llc.sockets[0].resident_lines() as u64, capacity);
        let last = llc.touch(0, base + 63 * capacity);
        assert!(last.hit && llc.touch(0, base + 63 * capacity - 1).evicted.is_some());
    }
}
