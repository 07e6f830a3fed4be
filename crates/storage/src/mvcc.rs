//! Multi-version row storage with timestamp visibility.
//!
//! DBMS M (like Hekaton/HANA, §2.1) avoids partitioning and centralized
//! locking by keeping versioned rows: each version carries a
//! `[begin, end)` timestamp interval; readers walk the chain for the
//! version visible at their snapshot; writers install a new head version
//! at commit, with first-writer-wins conflict detection. Version-chain
//! hops are extra pointer dereferences — extra random lines — which is
//! part of DBMS M's data-stall profile.

use bytes::Bytes;
use uarch_sim::Mem;

use crate::memstore::RowId;

/// "Infinity" end timestamp.
pub const TS_INF: u64 = u64::MAX;

struct Version {
    begin: u64,
    end: u64,
    data: Bytes,
    addr: u64,
    prev: Option<Box<Version>>,
}

struct Chain {
    head: Option<Box<Version>>,
}

/// Outcome of a write-install attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstallOutcome {
    /// Version installed.
    Installed,
    /// A conflicting version was created after the writer's snapshot
    /// (first-writer-wins: the later writer must abort).
    WriteConflict,
}

/// The version store.
pub struct VersionStore {
    chains: Vec<Chain>,
    free: Vec<u32>,
    live: u64,
    /// Lifetime version-chain hops during reads (diagnostics).
    pub chain_hops: u64,
}

impl VersionStore {
    /// An empty store.
    pub fn new() -> Self {
        VersionStore {
            chains: Vec::new(),
            free: Vec::new(),
            live: 0,
            chain_hops: 0,
        }
    }

    /// Live chains (rows whose newest version is not a tombstone).
    pub fn live(&self) -> u64 {
        self.live
    }

    /// Create a row whose first version becomes visible at `begin_ts`.
    pub fn insert(&mut self, mem: &Mem, data: Bytes, begin_ts: u64) -> RowId {
        mem.exec(26);
        // Line-aligned: header + a small row share one cache line.
        let addr = mem.alloc(data.len().max(1) as u64 + 32, 64);
        mem.write(addr, data.len().max(1) as u32 + 24);
        let version = Box::new(Version {
            begin: begin_ts,
            end: TS_INF,
            data,
            addr,
            prev: None,
        });
        let id = match self.free.pop() {
            Some(i) => {
                self.chains[i as usize].head = Some(version);
                i
            }
            None => {
                self.chains.push(Chain {
                    head: Some(version),
                });
                (self.chains.len() - 1) as u32
            }
        };
        self.live += 1;
        RowId(id)
    }

    /// Visit the version visible at `ts`; returns whether one exists.
    pub fn read(&mut self, mem: &Mem, id: RowId, ts: u64, f: &mut dyn FnMut(&Bytes)) -> bool {
        mem.exec(12);
        let Some(chain) = self.chains.get(id.0 as usize) else {
            return false;
        };
        let mut cur = chain.head.as_deref();
        while let Some(v) = cur {
            mem.exec(6);
            mem.read(v.addr, 24); // version header: timestamps + pointer
            if v.begin <= ts && ts < v.end {
                mem.read(v.addr + 32, v.data.len().max(1) as u32);
                f(&v.data);
                return true;
            }
            self.chain_hops += 1;
            cur = v.prev.as_deref();
        }
        false
    }

    /// Install a new version at commit time. `snapshot_ts` is the writer's
    /// read snapshot; if anyone committed a newer version in between, the
    /// install fails (first-writer-wins).
    pub fn install(
        &mut self,
        mem: &Mem,
        id: RowId,
        data: Bytes,
        snapshot_ts: u64,
        commit_ts: u64,
    ) -> InstallOutcome {
        mem.exec(30);
        let Some(chain) = self.chains.get_mut(id.0 as usize) else {
            return InstallOutcome::WriteConflict;
        };
        let Some(head) = chain.head.as_deref_mut() else {
            return InstallOutcome::WriteConflict;
        };
        mem.read(head.addr, 24);
        if head.begin > snapshot_ts {
            return InstallOutcome::WriteConflict;
        }
        let was_tombstone = head.data.is_empty();
        head.end = commit_ts;
        mem.write(head.addr, 16);
        let addr = mem.alloc(data.len().max(1) as u64 + 32, 64);
        mem.write(addr, data.len().max(1) as u32 + 24);
        let is_tombstone = data.is_empty();
        let old_head = chain.head.take();
        chain.head = Some(Box::new(Version {
            begin: commit_ts,
            end: TS_INF,
            data,
            addr,
            prev: old_head,
        }));
        match (was_tombstone, is_tombstone) {
            (false, true) => self.live -= 1,
            (true, false) => self.live += 1,
            _ => {}
        }
        InstallOutcome::Installed
    }

    /// Delete = install an empty tombstone version.
    pub fn delete(
        &mut self,
        mem: &Mem,
        id: RowId,
        snapshot_ts: u64,
        commit_ts: u64,
    ) -> InstallOutcome {
        self.install(mem, id, Bytes::new(), snapshot_ts, commit_ts)
    }

    /// Whether the newest version at `ts` is live (visible and not a
    /// tombstone).
    pub fn is_visible(&mut self, mem: &Mem, id: RowId, ts: u64) -> bool {
        let mut live = false;
        self.read(mem, id, ts, &mut |d| live = !d.is_empty());
        live
    }

    /// Garbage-collect versions no transaction can see anymore (every
    /// version whose `end < watermark`). Returns versions reclaimed.
    pub fn gc(&mut self, watermark: u64) -> u64 {
        let mut reclaimed = 0;
        for chain in &mut self.chains {
            let mut cur = chain.head.as_deref_mut();
            while let Some(v) = cur {
                if let Some(prev) = &v.prev {
                    if prev.end < watermark {
                        // Everything below is invisible: drop the tail.
                        let mut tail = v.prev.take();
                        while let Some(mut t) = tail {
                            reclaimed += 1;
                            tail = t.prev.take();
                        }
                    }
                }
                cur = v.prev.as_deref_mut();
            }
        }
        reclaimed
    }

    /// Length of a chain (tests).
    pub fn chain_len(&self, id: RowId) -> usize {
        let mut n = 0;
        let mut cur = self
            .chains
            .get(id.0 as usize)
            .and_then(|c| c.head.as_deref());
        while let Some(v) = cur {
            n += 1;
            cur = v.prev.as_deref();
        }
        n
    }
}

impl Default for VersionStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_sim::{MachineConfig, Sim};

    fn mem() -> Mem {
        Sim::new(MachineConfig::ivy_bridge(1)).mem(0)
    }

    fn read_str(vs: &mut VersionStore, mem: &Mem, id: RowId, ts: u64) -> Option<Vec<u8>> {
        let mut out = None;
        vs.read(mem, id, ts, &mut |d| out = Some(d.to_vec()));
        out
    }

    #[test]
    fn snapshot_reads_see_their_version() {
        let mem = mem();
        let mut vs = VersionStore::new();
        let id = vs.insert(&mem, Bytes::from_static(b"v1"), 10);
        assert_eq!(read_str(&mut vs, &mem, id, 5), None); // before begin
        assert_eq!(read_str(&mut vs, &mem, id, 10).unwrap(), b"v1");
        assert_eq!(
            vs.install(&mem, id, Bytes::from_static(b"v2"), 15, 20),
            InstallOutcome::Installed
        );
        // Old snapshot still sees v1; new snapshots see v2.
        assert_eq!(read_str(&mut vs, &mem, id, 15).unwrap(), b"v1");
        assert_eq!(read_str(&mut vs, &mem, id, 20).unwrap(), b"v2");
        assert_eq!(vs.chain_len(id), 2);
    }

    #[test]
    fn first_writer_wins() {
        let mem = mem();
        let mut vs = VersionStore::new();
        let id = vs.insert(&mem, Bytes::from_static(b"v1"), 1);
        // Writer A (snapshot 5) commits at 10.
        assert_eq!(
            vs.install(&mem, id, Bytes::from_static(b"a"), 5, 10),
            InstallOutcome::Installed
        );
        // Writer B also read at snapshot 5 — must fail.
        assert_eq!(
            vs.install(&mem, id, Bytes::from_static(b"b"), 5, 12),
            InstallOutcome::WriteConflict
        );
        // A later snapshot may write.
        assert_eq!(
            vs.install(&mem, id, Bytes::from_static(b"c"), 11, 14),
            InstallOutcome::Installed
        );
    }

    #[test]
    fn tombstones_hide_rows() {
        let mem = mem();
        let mut vs = VersionStore::new();
        let id = vs.insert(&mem, Bytes::from_static(b"x"), 1);
        assert!(vs.is_visible(&mem, id, 5));
        assert_eq!(vs.delete(&mem, id, 5, 8), InstallOutcome::Installed);
        assert!(vs.is_visible(&mem, id, 7)); // old snapshot
        assert!(!vs.is_visible(&mem, id, 8)); // deleted
        assert_eq!(vs.live(), 0);
    }

    #[test]
    fn gc_prunes_dead_versions() {
        let mem = mem();
        let mut vs = VersionStore::new();
        let id = vs.insert(&mem, Bytes::from_static(b"1"), 1);
        for i in 0..10u64 {
            vs.install(&mem, id, Bytes::from(vec![i as u8]), 2 + i * 2, 3 + i * 2);
        }
        assert_eq!(vs.chain_len(id), 11);
        let reclaimed = vs.gc(100);
        assert_eq!(reclaimed, 10);
        assert_eq!(vs.chain_len(id), 1);
        // Newest version still readable.
        assert!(read_str(&mut vs, &mem, id, 100).is_some());
    }

    #[test]
    fn read_counts_chain_hops() {
        let mem = mem();
        let mut vs = VersionStore::new();
        let id = vs.insert(&mem, Bytes::from_static(b"1"), 1);
        vs.install(&mem, id, Bytes::from_static(b"2"), 2, 5);
        vs.install(&mem, id, Bytes::from_static(b"3"), 6, 9);
        let before = vs.chain_hops;
        // Reading the oldest snapshot walks two hops.
        read_str(&mut vs, &mem, id, 1);
        assert_eq!(vs.chain_hops - before, 2);
    }
}
