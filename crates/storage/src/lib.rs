//! # storage — the storage-manager substrates under the five engines
//!
//! The paper's disk-based systems (Shore-MT, DBMS D) carry the classical
//! storage-manager stack; its in-memory systems omit the buffer pool and
//! centralized locking (§2.1). Both stacks are built here:
//!
//! **Disk-based substrate**
//! * [`page::Page`] — 8 KB slotted pages (host copy: one tuple-area
//!   buffer at the simulated offsets plus a 4-byte slot per tuple);
//! * [`bufferpool::BufferPool`] — frame table, hashed page table, clock
//!   eviction, per-frame latch words (pages live at their frame's
//!   simulated address, so re-placement changes cache behaviour exactly
//!   like a real pool);
//! * [`heap::HeapFile`] — slotted-page heap files with `Rid` addressing;
//! * [`lock::LockManager`] — hierarchical two-phase locking (table
//!   IS/IX + row S/X) with a hashed lock table;
//! * [`wal::Wal`] — a log manager with asynchronous group commit (the
//!   paper configures all systems with asynchronous logging, so commits
//!   never stall on I/O).
//!
//! **In-memory substrate**
//! * [`memstore::MemStore`] — direct heap row storage, no indirection;
//! * [`mvcc::VersionStore`] — multi-version rows with begin/end
//!   timestamps and first-writer-wins conflict detection (DBMS M's
//!   optimistic multi-versioning);
//! * [`arena::Arena`] and [`arena::Records`] — the append-only chunked
//!   byte arena and record vectors both keep their rows in;
//! * [`txn::TxnManager`] — transaction ids and timestamps.
//!
//! Everything is instrumented: latch words, page-table probes, lock-table
//! chains, log-buffer appends, and version-chain hops all touch simulated
//! memory, because those touches are precisely what the paper measures.
//!
//! The host side is kept apart from the simulated one: the three row
//! stores hold tuple bytes in a few contiguous buffers, never one heap
//! block per row or version, and take and hand out rows as `&[u8]`. A
//! loaded store is therefore cheap to hold and to drop, copying one is a
//! copy per buffer, and no simulated address is derived from where a row
//! sits on the host.

pub mod arena;
pub mod bufferpool;
pub mod checkpoint;
pub mod heap;
pub mod lock;
pub mod memstore;
pub mod mvcc;
pub mod page;
pub mod recovery;
pub mod txn;
pub mod wal;

pub use bufferpool::BufferPool;
pub use checkpoint::{Checkpoint, Checkpointer, TableImage};
pub use heap::{HeapFile, Rid};
pub use lock::{LockManager, LockMode, LockTarget};
pub use memstore::{MemStore, RowId, ROW_READ_INSTRS};
pub use mvcc::VersionStore;
pub use page::{Page, PageId, SlotId, PAGE_SIZE};
pub use recovery::{recover, replay, RecoveryStats, ReplayError, ReplayStats};
pub use txn::{TxnId, TxnManager};
pub use wal::{LogKind, LogRecord, Lsn, Wal, WalStats};

/// Differential-test rig for the row stores: two identical machines, one
/// for the store under test and one for its reference, and a seeded row
/// generator.
#[cfg(test)]
pub(crate) mod twin {
    use uarch_sim::rng::XorShift64;
    use uarch_sim::{MachineConfig, Mem, ModuleSpec, Sim};

    /// Two fresh single-core machines, each port bound to a registered
    /// module so per-module counters are compared too.
    pub struct Twin {
        sims: [Sim; 2],
        /// `mems[0]` drives the store under test, `mems[1]` the reference.
        pub mems: [Mem; 2],
    }

    impl Twin {
        pub fn new() -> Self {
            let sims = [(); 2].map(|()| Sim::new(MachineConfig::ivy_bridge(1)));
            let mems = sims.each_ref().map(|sim| {
                let module = sim.register_module(ModuleSpec::new("row_store", 4096));
                sim.mem(0).with_module(module)
            });
            Twin { sims, mems }
        }

        /// Panics unless both machines have counted the same events, in
        /// total and per module.
        pub fn assert_same(&self, ctx: &str) {
            let [a, b] = &self.sims;
            assert_eq!(a.counters(0), b.counters(0), "event counts differ: {ctx}");
            assert_eq!(
                a.module_counters(0),
                b.module_counters(0),
                "module counters differ: {ctx}"
            );
        }
    }

    /// Seeded op-stream generator.
    pub struct Rng(XorShift64);

    impl Rng {
        pub fn new(seed: u64) -> Self {
            Rng(XorShift64::new(seed))
        }

        /// Uniform in `0..n`.
        pub fn below(&mut self, n: u64) -> u64 {
            self.0.next_below(n)
        }

        /// `len` random bytes.
        pub fn bytes(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| self.0.next_u64() as u8).collect()
        }

        /// A new length for a row of `old` bytes: shrunk, kept, grown by a
        /// little or a lot, or any of 0–600.
        pub fn update_len(&mut self, old: usize) -> usize {
            match self.below(5) {
                0 => old.saturating_sub(self.below(8) as usize),
                1 => old,
                2 => old + 1 + self.below(4) as usize,
                3 => old + 1 + self.below(64) as usize,
                _ => self.below(601) as usize,
            }
        }

        /// A row of 0–600 random bytes, half of them at most 40 long.
        pub fn row(&mut self) -> Vec<u8> {
            let max = if self.below(2) == 0 { 40 } else { 600 };
            let len = self.below(max + 1) as usize;
            self.bytes(len)
        }
    }
}
