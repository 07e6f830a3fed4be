//! What the chaos and crash-recovery harnesses share: the layout of the
//! worker-private oracle rows and the FNV-1a digest their manifests pin.

/// Worker-private oracle rows per worker.
pub(crate) const KEYS_PER_WORKER: u64 = 4;

/// Stable oracle key for `(worker, k)`; strided so index structures see
/// the same sparsity the workload tables do.
pub(crate) fn oracle_key(worker: usize, workers: usize, k: u64) -> u64 {
    (k * workers as u64 + worker as u64) * 64
}

/// FNV-1a (same construction as the golden-counter digests in `tests/`,
/// so drift anywhere in the hashed state flips it).
pub(crate) struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &byte in b {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}
