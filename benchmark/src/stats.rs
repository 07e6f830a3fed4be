//! Order statistics, means and the FNV digest the reports are built from.

use imoltp::sim::EventCounts;

/// Linear-interpolated quantile (`q` in 0..=1) of an unsorted sample.
/// Panics on an empty sample: every caller has at least one batch.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// 20th percentile: for a rate, the slow tail that still has ten of fifty
/// batches beyond it.
pub fn p20(values: &[f64]) -> f64 {
    quantile(values, 0.2)
}

/// Geometric mean; every engine weighs the same however fast it is.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of an empty sample");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Interquartile range as a percentage of the median.
pub fn iqr_pct(values: &[f64]) -> f64 {
    100.0 * (quantile(values, 0.75) - quantile(values, 0.25)) / median(values)
}

/// `100 * (a / b - 1)`: how much larger `a` is than `b`, in percent.
pub fn pct_over(a: f64, b: f64) -> f64 {
    100.0 * (a / b - 1.0)
}

/// FNV-1a over 64-bit words: the `sim_digest` of a run. Any drift in a
/// simulated counter flips it, so two runs compare exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn counts(&mut self, c: &EventCounts) {
        self.word(c.instructions);
        self.word(c.code_fetches);
        self.word(c.loads);
        self.word(c.stores);
        for m in c.misses {
            self.word(m);
        }
        self.word(c.mispredicts);
        self.word(c.store_misses);
        self.word(c.invalidations);
        self.word(c.remote_accesses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_p20_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        // 0.2 * (6 - 1) = position 1.0 of the sorted sample.
        assert_eq!(p20(&[60.0, 10.0, 20.0, 30.0, 40.0, 50.0]), 20.0);
        assert!((p20(&[1.0, 2.0]) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn geomean_weighs_ratios_not_sizes() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[8.0, 8.0, 8.0]) - 8.0).abs() < 1e-9);
        // Doubling any one element moves the mean by the same factor.
        let base = geomean(&[2.0, 50.0, 1000.0]);
        for doubled in [[4.0, 50.0, 1000.0], [2.0, 100.0, 1000.0]] {
            assert!((geomean(&doubled) / base - 2f64.powf(1.0 / 3.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn iqr_is_relative_to_the_median() {
        // Quartiles of 1..=5 are 2 and 4 around a median of 3.
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((iqr_pct(&v) - 100.0 * 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(iqr_pct(&[5.0, 5.0, 5.0]), 0.0);
        assert!((pct_over(1.1, 1.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn digest_sees_every_counter() {
        let mut base = Fnv::new();
        base.counts(&EventCounts::default());
        let mut moved = EventCounts::default();
        moved.misses[5] = 1;
        let mut h = Fnv::new();
        h.counts(&moved);
        assert_ne!(h, base);
        let mut again = Fnv::new();
        again.counts(&moved);
        assert_eq!(h, again);
    }
}
