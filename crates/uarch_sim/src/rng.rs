//! A tiny, deterministic xorshift64* generator for the simulator's internal
//! randomness (branch-target selection in the instruction-fetch walker).
//!
//! The workload crates use the `rand` crate; the simulator keeps its own
//! dependency-free generator so that identical engine activity always
//! produces identical miss counts, independent of `rand` versions.
//!
//! Beside it, the two stateless mixers every crate above the simulator
//! shares: FNV-1a ([`Fnv`]) — the digest manifests, stripes and name keys
//! are pinned to — and the [`splitmix64`] finaliser; and [`IntHasher`],
//! the hasher of every integer-keyed host map ([`IntMap`]).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// xorshift64* — fast, small-state, good enough for address scrambling.
#[derive(Clone, Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeded constructor; zero seeds are remapped to a fixed constant.
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `0..n` (n > 0).
    pub fn next_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift; bias is negligible for our n << 2^64.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Bernoulli draw with probability `p` (clamped to [0, 1]).
    pub fn chance(&mut self, p: f64) -> bool {
        self.chance_below(Self::chance_threshold(p))
    }

    /// The integer form of `p` that [`XorShift64::chance_below`] compares a
    /// draw against, for callers that test the same `p` many times. A
    /// 53-bit draw `k` fires when `k · 2⁻⁵³ < p`, i.e. `k < ⌈p · 2⁵³⌉`
    /// (both products are exact in `f64`); 0 and `u64::MAX` stand for
    /// "never" and "always", which consume no draw.
    pub fn chance_threshold(p: f64) -> u64 {
        if p <= 0.0 {
            0
        } else if p >= 1.0 {
            u64::MAX
        } else {
            (p * (1u64 << 53) as f64).ceil() as u64
        }
    }

    /// Bernoulli draw against a [`XorShift64::chance_threshold`].
    #[inline]
    pub fn chance_below(&mut self, threshold: u64) -> bool {
        match threshold {
            0 => false,
            u64::MAX => true,
            t => self.next_u64() >> 11 < t,
        }
    }
}

/// Incremental 64-bit FNV-1a: `Fnv::default()` starts from the offset
/// basis, `bytes`/`word` fold input in and chain, `.0` is the hash so far.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// The FNV prime.
    pub const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fold a byte string in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.0 = bytes
            .iter()
            .fold(self.0, |h, &b| (h ^ u64::from(b)).wrapping_mul(Self::PRIME));
        self
    }

    /// Fold a word in, as its 8 little-endian bytes.
    pub fn word(&mut self, w: u64) -> &mut Self {
        self.bytes(&w.to_le_bytes())
    }
}

/// The hasher of integer-keyed host maps: each word is folded in
/// Fx-style (rotate, xor, multiply), and `finish` folds the 128-bit
/// product of the state and a second constant into 64 bits. The fold makes
/// the low bits, which hashbrown picks buckets from, depend on every key
/// bit; a multiply alone leaves the low bits of `k · 2048` keys constant.
/// It has no random state, so equal keys hash equally in every process.
/// Every key comes from a seeded in-process generator, so SipHash's
/// flooding defence buys nothing here.
#[derive(Clone, Copy, Debug, Default)]
pub struct IntHasher(u64);

/// A `HashMap` hashed by [`IntHasher`]; build with `IntMap::default()`.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517C_C1B7_2722_0A95);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(x.into());
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let p = u128::from(self.0) * 0x9E37_79B9_7F4A_7C15;
        p as u64 ^ (p >> 64) as u64
    }
}

/// The splitmix64 step: add the golden-ratio increment, then finalise. One
/// round decorrelates packed or consecutive inputs.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published test vectors, so the shared mixers cannot drift from the
    /// hand-rolled copies they replaced.
    #[test]
    fn fnv1a_and_splitmix64_match_their_reference_vectors() {
        let fnv1a = |bytes: &[u8]| Fnv::default().bytes(bytes).0;
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let word = u64::from_le_bytes(*b"foobar\0\0");
        assert_eq!(Fnv::default().word(word).0, fnv1a(b"foobar\0\0"));
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6e78_9e6a_a1b9_65f4);
    }

    fn int_hash(key: impl std::hash::Hash) -> u64 {
        use std::hash::BuildHasher;
        BuildHasherDefault::<IntHasher>::default().hash_one(key)
    }

    /// hashbrown picks a bucket from the low bits of the hash, and lock
    /// and index keys are often strided by `KEY_STRIDE` (2048).
    #[test]
    fn strided_keys_fill_the_low_bits() {
        let buckets: std::collections::BTreeSet<u64> =
            (0..4096u64).map(|k| int_hash(k * 2048) & 4095).collect();
        assert!(buckets.len() >= 2048, "{} of 4096 buckets", buckets.len());
    }

    /// No random state: these values hold in every process and build.
    #[test]
    fn int_hasher_has_no_random_state() {
        assert_eq!(int_hash(42u64), 0x2516_b956_d7a4_72af);
        assert_eq!(int_hash((7u64, 2048u64)), 0xa418_ca53_464e_e473);
        assert_eq!(int_hash("cc"), 0xc0a5_ebcc_0d3d_61cb);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut r = XorShift64::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn next_below_in_range() {
        let mut r = XorShift64::new(7);
        for _ in 0..10_000 {
            assert!(r.next_below(37) < 37);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = XorShift64::new(7);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    /// The threshold form against the float expression it replaced: same
    /// outcome on every draw, same generator state after it — including no
    /// draw at all at the extremes.
    #[test]
    fn chance_threshold_matches_float_compare() {
        let float_chance = |r: &mut XorShift64, p: f64| {
            if p <= 0.0 {
                return false;
            }
            if p >= 1.0 {
                return true;
            }
            (r.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
        };
        let eps = 1.0 / (1u64 << 53) as f64;
        let tiny = 1.0 / (1u64 << 60) as f64;
        for p in [0.0, tiny, 0.02, 0.16, 0.24, 0.5, 1.0 - eps, 1.0] {
            let mut a = XorShift64::new(0xBEE5);
            let mut b = a.clone();
            let threshold = XorShift64::chance_threshold(p);
            for i in 0..1_000_000 {
                assert_eq!(
                    float_chance(&mut a, p),
                    b.chance_below(threshold),
                    "p={p} draw {i}"
                );
                assert_eq!(a.state, b.state, "p={p} draw {i}");
            }
            // Neither form draws at the extremes.
            let drew = a.state != XorShift64::new(0xBEE5).state;
            assert_eq!(drew, p > 0.0 && p < 1.0, "p={p}");
        }
    }

    #[test]
    fn chance_roughly_calibrated() {
        let mut r = XorShift64::new(11);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        assert!((20_000..30_000).contains(&hits), "hits={hits}");
    }
}
