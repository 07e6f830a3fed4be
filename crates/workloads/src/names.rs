//! TPC-C random-input helpers: NURand and customer last names.

use rand::rngs::StdRng;
use rand::Rng;
use uarch_sim::rng::Fnv;

/// The ten syllables of TPC-C §4.3.2.3.
pub const SYLLABLES: [&str; 10] = [
    "BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
];

/// Customer last name for a number in 0..=999.
pub fn c_last(num: u64) -> String {
    assert!(num <= 999);
    let mut s = String::with_capacity(15);
    s.push_str(SYLLABLES[(num / 100) as usize]);
    s.push_str(SYLLABLES[(num / 10 % 10) as usize]);
    s.push_str(SYLLABLES[(num % 10) as usize]);
    s
}

/// A 16-bit order-insensitive hash of a last name, used to key the
/// customer-by-name secondary structure.
pub fn name_hash(name: &str) -> u64 {
    Fnv::default().bytes(name.as_bytes()).0 & 0xFFFF
}

/// Non-uniform random values, TPC-C §2.1.6:
/// `NURand(A, x, y) = (((random(0, A) | random(x, y)) + C) % (y - x + 1)) + x`.
#[derive(Clone, Copy, Debug)]
pub struct NuRand {
    /// Run-time constant for C_LAST (A = 255).
    pub c_last: u64,
    /// Run-time constant for C_ID (A = 1023).
    pub c_id: u64,
    /// Run-time constant for OL_I_ID (A = 8191).
    pub ol_i_id: u64,
}

impl NuRand {
    /// Draw the per-run constants.
    pub fn new(rng: &mut StdRng) -> Self {
        NuRand {
            c_last: rng.random_range(0..=255),
            c_id: rng.random_range(0..=1023),
            ol_i_id: rng.random_range(0..=8191),
        }
    }

    fn nurand(rng: &mut StdRng, a: u64, c: u64, x: u64, y: u64) -> u64 {
        debug_assert!(x <= y);
        let r1 = rng.random_range(0..=a);
        let r2 = rng.random_range(x..=y);
        (((r1 | r2) + c) % (y - x + 1)) + x
    }

    /// Customer-last-name number in 0..=max (usually 999).
    pub fn last_name_num(self, rng: &mut StdRng, max: u64) -> u64 {
        Self::nurand(rng, 255, self.c_last, 0, max)
    }

    /// Customer id in 1..=customers.
    pub fn customer_id(self, rng: &mut StdRng, customers: u64) -> u64 {
        Self::nurand(rng, 1023, self.c_id, 1, customers)
    }

    /// Item id in 1..=items.
    pub fn item_id(self, rng: &mut StdRng, items: u64) -> u64 {
        Self::nurand(rng, 8191, self.ol_i_id, 1, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn c_last_matches_spec_examples() {
        // TPC-C §4.3.2.3: digits index the syllable list.
        assert_eq!(c_last(371), "PRICALLYOUGHT");
        assert_eq!(c_last(0), "BARBARBAR");
        assert_eq!(c_last(999), "EINGEINGEING");
    }

    #[test]
    fn nurand_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let nu = NuRand::new(&mut rng);
        for _ in 0..10_000 {
            let c = nu.customer_id(&mut rng, 3000);
            assert!((1..=3000).contains(&c));
            let i = nu.item_id(&mut rng, 100_000);
            assert!((1..=100_000).contains(&i));
            let l = nu.last_name_num(&mut rng, 999);
            assert!(l <= 999);
        }
    }

    #[test]
    fn nurand_is_skewed() {
        // The distribution must be non-uniform: some values far more
        // frequent than uniform expectation.
        let mut rng = StdRng::seed_from_u64(3);
        let nu = NuRand::new(&mut rng);
        let mut counts = vec![0u32; 3001];
        for _ in 0..30_000 {
            counts[nu.customer_id(&mut rng, 3000) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        // Uniform would give ~10 per bin.
        assert!(max > 25, "max bin {max} — not skewed?");
    }

    #[test]
    fn name_hash_is_16_bit_and_stable() {
        for n in 0..1000 {
            let h = name_hash(&c_last(n));
            assert!(h <= 0xFFFF);
            assert_eq!(h, name_hash(&c_last(n)));
        }
    }
}
