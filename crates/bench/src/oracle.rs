//! What the chaos and crash-recovery harnesses share: the layout of the
//! worker-private oracle rows (their manifests pin `uarch_sim::rng::Fnv`
//! digests — the same construction as the golden-counter digests in
//! `tests/`, so drift anywhere in the hashed state flips them).

/// Worker-private oracle rows per worker.
pub(crate) const KEYS_PER_WORKER: u64 = 4;

/// Stable oracle key for `(worker, k)`; strided so index structures see
/// the same sparsity the workload tables do.
pub(crate) fn oracle_key(worker: usize, workers: usize, k: u64) -> u64 {
    (k * workers as u64 + worker as u64) * 64
}
