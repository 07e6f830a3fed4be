//! Hierarchical two-phase lock manager.
//!
//! The centralized locking the in-memory systems avoid (§2.1). Intention
//! locks at table granularity plus S/X row locks, held until commit
//! (strict 2PL). The lock table is a hashed structure whose buckets and
//! entries live in simulated memory — the paper's disk-based engines pay
//! for every acquisition with lock-table line touches and bookkeeping
//! instructions, and so do ours.
//!
//! The engines run one transaction at a time per experiment (the paper's
//! single-worker methodology; the multi-threaded runs interleave at
//! transaction granularity), so conflicts surface as immediate
//! [`LockOutcome::Conflict`] rather than blocking queues.

use uarch_sim::rng::IntMap;
use uarch_sim::Mem;

use crate::txn::TxnId;

/// Lock modes. `IS`/`IX` are table-level intentions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockMode {
    /// Intention shared (table).
    Is,
    /// Intention exclusive (table).
    Ix,
    /// Shared (row).
    S,
    /// Exclusive (row).
    X,
}

impl LockMode {
    /// Classic multi-granularity compatibility matrix.
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        match (self, other) {
            (Is, X) | (X, Is) => false,
            (Is, _) | (_, Is) => true,
            (Ix, Ix) => true,
            (Ix, _) | (_, Ix) => false,
            (S, S) => true,
            (S, X) | (X, S) | (X, X) => false,
        }
    }
}

/// What a lock protects.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LockTarget {
    /// Whole table.
    Table(u32),
    /// One row (table, key).
    Row(u32, u64),
}

/// Result of a lock request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockOutcome {
    /// Lock acquired (or already held in a compatible/same mode).
    Granted,
    /// Another transaction holds an incompatible lock.
    Conflict,
}

struct Entry {
    holders: Vec<(TxnId, LockMode)>,
    /// Simulated address of this lock-table entry.
    addr: u64,
}

/// The lock manager.
pub struct LockManager {
    table: IntMap<LockTarget, Entry>,
    /// Per-transaction held locks (for release-at-commit).
    held: IntMap<TxnId, Vec<LockTarget>>,
    /// Emptied `held` and `holders` vectors, reused so that a lock and
    /// its release allocate nothing on the host.
    spare_held: Vec<Vec<LockTarget>>,
    spare_holders: Vec<Vec<(TxnId, LockMode)>>,
    /// Simulated base address of the hashed bucket directory.
    dir_addr: u64,
    dir_slots: u64,
    /// Lifetime acquisitions (diagnostics).
    pub acquisitions: u64,
    /// Lifetime conflicts (diagnostics).
    pub conflicts: u64,
}

impl LockManager {
    /// A lock manager with a directory of `slots` hash buckets.
    pub fn new(mem: &Mem, slots: u64) -> Self {
        let dir_slots = slots.max(64).next_power_of_two();
        LockManager {
            table: IntMap::default(),
            held: IntMap::default(),
            spare_held: Vec::new(),
            spare_holders: Vec::new(),
            dir_addr: mem.alloc(dir_slots * 8, 64),
            dir_slots,
            acquisitions: 0,
            conflicts: 0,
        }
    }

    fn touch_bucket(&self, mem: &Mem, target: LockTarget) {
        let h = match target {
            LockTarget::Table(t) => u64::from(t).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            LockTarget::Row(t, k) => {
                (u64::from(t) ^ k.rotate_left(17)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            }
        } >> (64 - self.dir_slots.trailing_zeros());
        mem.read(self.dir_addr + h * 8, 8);
    }

    /// Request `mode` on `target` for `txn`.
    pub fn lock(
        &mut self,
        mem: &Mem,
        txn: TxnId,
        target: LockTarget,
        mode: LockMode,
    ) -> LockOutcome {
        mem.exec(55); // hash, bucket latch, compatibility checks
        self.touch_bucket(mem, target);
        let entry = self.table.entry(target).or_insert_with(|| Entry {
            holders: self
                .spare_holders
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(2)),
            addr: mem.alloc(48, 8),
        });
        mem.write(entry.addr, 24);
        // Re-entrant / upgrade handling.
        if let Some(pos) = entry.holders.iter().position(|&(t, _)| t == txn) {
            let held_mode = entry.holders[pos].1;
            if held_mode == mode || implied(held_mode, mode) {
                return LockOutcome::Granted;
            }
            // Upgrade: allowed only if no other holder conflicts.
            let others_compatible = entry
                .holders
                .iter()
                .filter(|&&(t, _)| t != txn)
                .all(|&(_, m)| m.compatible(mode));
            if others_compatible {
                entry.holders[pos].1 = stronger(held_mode, mode);
                self.acquisitions += 1;
                return LockOutcome::Granted;
            }
            self.conflicts += 1;
            return LockOutcome::Conflict;
        }
        let compatible = entry.holders.iter().all(|&(_, m)| m.compatible(mode));
        if !compatible {
            self.conflicts += 1;
            return LockOutcome::Conflict;
        }
        entry.holders.push((txn, mode));
        self.held
            .entry(txn)
            .or_insert_with(|| self.spare_held.pop().unwrap_or_default())
            .push(target);
        self.acquisitions += 1;
        LockOutcome::Granted
    }

    /// Release everything `txn` holds (commit/abort).
    pub fn release_all(&mut self, mem: &Mem, txn: TxnId) {
        let Some(mut targets) = self.held.remove(&txn) else {
            return;
        };
        mem.exec(20 + 12 * targets.len() as u64);
        for &target in &targets {
            self.touch_bucket(mem, target);
            if let Some(entry) = self.table.get_mut(&target) {
                mem.write(entry.addr, 24);
                entry.holders.retain(|&(t, _)| t != txn);
                if entry.holders.is_empty() {
                    let entry = self.table.remove(&target).expect("just found");
                    self.spare_holders.push(entry.holders);
                }
            }
        }
        targets.clear();
        self.spare_held.push(targets);
    }

    /// Locks currently held by `txn` (diagnostics/tests).
    pub fn held_by(&self, txn: TxnId) -> usize {
        self.held.get(&txn).map_or(0, Vec::len)
    }

    /// Number of live lock entries.
    pub fn entries(&self) -> usize {
        self.table.len()
    }
}

/// Whether holding `held` already implies `wanted`.
fn implied(held: LockMode, wanted: LockMode) -> bool {
    use LockMode::*;
    matches!(
        (held, wanted),
        (X, S) | (X, Ix) | (X, Is) | (S, Is) | (Ix, Is)
    )
}

/// The stronger of two modes held by the same transaction.
fn stronger(a: LockMode, b: LockMode) -> LockMode {
    use LockMode::*;
    let rank = |m: LockMode| match m {
        Is => 0,
        Ix => 1,
        S => 1,
        X => 3,
    };
    // S and IX combine to SIX in textbooks; X is the safe upper bound here
    // and the benchmarks never actually mix them on one target.
    if rank(a) >= rank(b) {
        if (a == S && b == Ix) || (a == Ix && b == S) {
            X
        } else {
            a
        }
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_sim::{MachineConfig, Sim};

    fn mem() -> Mem {
        Sim::new(MachineConfig::ivy_bridge(1)).mem(0)
    }

    const T1: TxnId = TxnId(1);
    const T2: TxnId = TxnId(2);

    #[test]
    fn compatibility_matrix() {
        use LockMode::*;
        assert!(Is.compatible(Ix));
        assert!(Is.compatible(S));
        assert!(!Is.compatible(X));
        assert!(Ix.compatible(Ix));
        assert!(!Ix.compatible(S));
        assert!(S.compatible(S));
        assert!(!S.compatible(X));
        assert!(!X.compatible(X));
    }

    #[test]
    fn shared_locks_coexist_exclusive_conflicts() {
        let mem = mem();
        let mut lm = LockManager::new(&mem, 64);
        let row = LockTarget::Row(1, 42);
        assert_eq!(lm.lock(&mem, T1, row, LockMode::S), LockOutcome::Granted);
        assert_eq!(lm.lock(&mem, T2, row, LockMode::S), LockOutcome::Granted);
        assert_eq!(lm.lock(&mem, T2, row, LockMode::X), LockOutcome::Conflict);
        lm.release_all(&mem, T1);
        assert_eq!(lm.lock(&mem, T2, row, LockMode::X), LockOutcome::Granted);
    }

    #[test]
    fn reentrant_and_upgrade() {
        let mem = mem();
        let mut lm = LockManager::new(&mem, 64);
        let row = LockTarget::Row(1, 7);
        assert_eq!(lm.lock(&mem, T1, row, LockMode::S), LockOutcome::Granted);
        assert_eq!(lm.lock(&mem, T1, row, LockMode::S), LockOutcome::Granted);
        // Upgrade S -> X with no other holders.
        assert_eq!(lm.lock(&mem, T1, row, LockMode::X), LockOutcome::Granted);
        // X implies S.
        assert_eq!(lm.lock(&mem, T1, row, LockMode::S), LockOutcome::Granted);
        assert_eq!(lm.held_by(T1), 1);
    }

    #[test]
    fn upgrade_blocked_by_other_reader() {
        let mem = mem();
        let mut lm = LockManager::new(&mem, 64);
        let row = LockTarget::Row(1, 7);
        lm.lock(&mem, T1, row, LockMode::S);
        lm.lock(&mem, T2, row, LockMode::S);
        assert_eq!(lm.lock(&mem, T1, row, LockMode::X), LockOutcome::Conflict);
    }

    #[test]
    fn intention_locks_at_table_level() {
        let mem = mem();
        let mut lm = LockManager::new(&mem, 64);
        let tbl = LockTarget::Table(3);
        assert_eq!(lm.lock(&mem, T1, tbl, LockMode::Is), LockOutcome::Granted);
        assert_eq!(lm.lock(&mem, T2, tbl, LockMode::Ix), LockOutcome::Granted);
        // A table X (e.g. DDL) conflicts with both intentions.
        assert_eq!(
            lm.lock(&mem, TxnId(3), tbl, LockMode::X),
            LockOutcome::Conflict
        );
    }

    /// Row keys strided by `KEY_STRIDE` (2048) spread over the low bits
    /// of the lock table's hash, which hashbrown picks buckets from.
    #[test]
    fn strided_row_targets_fill_the_low_bits() {
        use std::hash::BuildHasher;
        let lm = LockManager::new(&mem(), 64);
        let buckets: std::collections::BTreeSet<u64> = (0..4096u64)
            .map(|k| lm.table.hasher().hash_one(LockTarget::Row(1, k * 2048)) & 4095)
            .collect();
        assert!(buckets.len() >= 2048, "{} of 4096 buckets", buckets.len());
    }

    #[test]
    fn release_all_empties_state() {
        let mem = mem();
        let mut lm = LockManager::new(&mem, 64);
        for k in 0..100 {
            lm.lock(&mem, T1, LockTarget::Row(1, k), LockMode::X);
        }
        assert_eq!(lm.held_by(T1), 100);
        assert_eq!(lm.entries(), 100);
        lm.release_all(&mem, T1);
        assert_eq!(lm.held_by(T1), 0);
        assert_eq!(lm.entries(), 0);
        // Releasing twice is a no-op.
        lm.release_all(&mem, T1);
    }
}
