//! Multi-version row storage with timestamp visibility.
//!
//! DBMS M (like Hekaton/HANA, §2.1) avoids partitioning and centralized
//! locking by keeping versioned rows: each version carries a
//! `[begin, end)` timestamp interval; readers walk the chain for the
//! version visible at their snapshot; writers install a new head version
//! at commit, with first-writer-wins conflict detection. Version-chain
//! hops are extra pointer dereferences — extra random lines — which is
//! part of DBMS M's data-stall profile.
//!
//! On the host a row's newest version is a fixed-size record at the row's
//! id in one [`Records`], and the versions it superseded are records in a
//! second one, each linked to the next older by `u32` position; version
//! bytes sit in the store's [`Arena`]. A read of the newest version, the
//! common case, touches the row's record and its bytes and nothing else.
//! The simulated layout is each version's `addr`, so the host layout moves
//! no simulated number.

use uarch_sim::Mem;

use crate::arena::{Arena, ArenaPos, Records};
use crate::memstore::RowId;

/// "Infinity" end timestamp.
pub const TS_INF: u64 = u64::MAX;

/// End of a chain: no older version.
const NIL: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Version {
    begin: u64,
    end: u64,
    /// Simulated address of the version header; its bytes follow at `+32`.
    addr: u64,
    at: ArenaPos,
    /// Row length; 0 is a tombstone.
    len: u32,
    /// The next older version's position in `VersionStore::older`, or
    /// [`NIL`].
    prev: u32,
}

const _: () = assert!(std::mem::size_of::<Version>() == 40);

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
    /// Each row's newest version, at the row's id.
    rows: Records<Version>,
    /// Superseded versions; ones `gc` reclaims wait in `free` for reuse.
    older: Records<Version>,
    free: Vec<u32>,
    arena: Arena,
    live: u64,
    /// Lifetime version-chain hops during reads (diagnostics).
    pub chain_hops: u64,
}

impl VersionStore {
    /// An empty store.
    pub fn new() -> Self {
        VersionStore {
            rows: Records::new(),
            older: Records::new(),
            free: Vec::new(),
            arena: Arena::new(),
            live: 0,
            chain_hops: 0,
        }
    }

    /// Live chains (rows whose newest version is not a tombstone).
    pub fn live(&self) -> u64 {
        self.live
    }

    /// A new head version of `data`, visible from `begin`.
    fn version(&mut self, mem: &Mem, data: &[u8], begin: u64, prev: u32) -> Version {
        // Line-aligned: header + a small row share one cache line.
        let addr = mem.alloc(data.len().max(1) as u64 + 32, 64);
        mem.write(addr, data.len().max(1) as u32 + 24);
        Version {
            begin,
            end: TS_INF,
            addr,
            at: self.arena.push(data),
            len: data.len() as u32,
            prev,
        }
    }

    /// A row's versions, newest first.
    fn chain(&self, id: RowId) -> impl Iterator<Item = &Version> + '_ {
        std::iter::successors(self.rows.get(id.0), |v| {
            (v.prev != NIL).then(|| &self.older[v.prev])
        })
    }

    /// Create a row whose first version becomes visible at `begin_ts`.
    pub fn insert(&mut self, mem: &Mem, data: &[u8], begin_ts: u64) -> RowId {
        mem.exec(26);
        let version = self.version(mem, data, begin_ts, NIL);
        self.live += 1;
        RowId(self.rows.push(version))
    }

    /// Visit the version visible at `ts`; returns whether one exists.
    pub fn read(&mut self, mem: &Mem, id: RowId, ts: u64, f: &mut dyn FnMut(&[u8])) -> bool {
        mem.exec(12);
        let mut hops = 0;
        let found = self
            .chain(id)
            .find(|v| {
                mem.exec(6);
                mem.read(v.addr, 24); // version header: timestamps + pointer
                let visible = v.begin <= ts && ts < v.end;
                hops += u64::from(!visible);
                visible
            })
            .map(|v| (v.addr, v.at, v.len));
        self.chain_hops += hops;
        let Some((addr, at, len)) = found else {
            return false;
        };
        mem.read(addr + 32, len.max(1));
        f(self.arena.get(at, len));
        true
    }

    /// Install a new version at commit time. `snapshot_ts` is the writer's
    /// read snapshot; if anyone committed a newer version in between, the
    /// install fails (first-writer-wins).
    pub fn install(
        &mut self,
        mem: &Mem,
        id: RowId,
        data: &[u8],
        snapshot_ts: u64,
        commit_ts: u64,
    ) -> InstallOutcome {
        mem.exec(30);
        let Some(head) = self.rows.get_mut(id.0) else {
            return InstallOutcome::WriteConflict;
        };
        mem.read(head.addr, 24);
        if head.begin > snapshot_ts {
            return InstallOutcome::WriteConflict;
        }
        let was_tombstone = head.len == 0;
        head.end = commit_ts;
        mem.write(head.addr, 16);
        let superseded = *head;
        let prev = match self.free.pop() {
            Some(p) => {
                self.older[p] = superseded;
                p
            }
            None => self.older.push(superseded),
        };
        self.rows[id.0] = self.version(mem, data, commit_ts, prev);
        match (was_tombstone, data.is_empty()) {
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
        self.install(mem, id, &[], snapshot_ts, commit_ts)
    }

    /// Whether the newest version at `ts` is live (visible and not a
    /// tombstone).
    pub fn is_visible(&mut self, mem: &Mem, id: RowId, ts: u64) -> bool {
        let mut live = false;
        self.read(mem, id, ts, &mut |d| live = !d.is_empty());
        live
    }

    /// Garbage-collect versions no transaction can see anymore (every
    /// version whose `end < watermark`). Returns versions reclaimed. The
    /// records are reused by later installs; their bytes stay in the
    /// arena until the store is dropped.
    pub fn gc(&mut self, watermark: u64) -> u64 {
        let mut reclaimed = 0;
        for id in 0..self.rows.len() as u32 {
            // Walk the links from the newest version down; the first link
            // to an invisible version is cut, and everything below it
            // freed. `at` holds the link's owner: `None` is the row.
            let mut at = None;
            loop {
                let link = at.map_or(self.rows[id].prev, |p| self.older[p].prev);
                if link == NIL {
                    break;
                }
                if self.older[link].end < watermark {
                    match at {
                        None => self.rows[id].prev = NIL,
                        Some(p) => self.older[p].prev = NIL,
                    }
                    let mut dead = link;
                    while dead != NIL {
                        self.free.push(dead);
                        reclaimed += 1;
                        dead = self.older[dead].prev;
                    }
                    break;
                }
                at = Some(link);
            }
        }
        reclaimed
    }

    /// Length of a chain (tests).
    pub fn chain_len(&self, id: RowId) -> usize {
        self.chain(id).count()
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
    use crate::arena::RECORDS_PER_CHUNK;
    use crate::twin::{Rng, Twin};
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
        let id = vs.insert(&mem, b"v1", 10);
        assert_eq!(read_str(&mut vs, &mem, id, 5), None); // before begin
        assert_eq!(read_str(&mut vs, &mem, id, 10).unwrap(), b"v1");
        assert_eq!(
            vs.install(&mem, id, b"v2", 15, 20),
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
        let id = vs.insert(&mem, b"v1", 1);
        // Writer A (snapshot 5) commits at 10.
        assert_eq!(vs.install(&mem, id, b"a", 5, 10), InstallOutcome::Installed);
        // Writer B also read at snapshot 5 — must fail.
        assert_eq!(
            vs.install(&mem, id, b"b", 5, 12),
            InstallOutcome::WriteConflict
        );
        // A later snapshot may write.
        assert_eq!(
            vs.install(&mem, id, b"c", 11, 14),
            InstallOutcome::Installed
        );
    }

    #[test]
    fn tombstones_hide_rows() {
        let mem = mem();
        let mut vs = VersionStore::new();
        let id = vs.insert(&mem, b"x", 1);
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
        let id = vs.insert(&mem, b"1", 1);
        for i in 0..10u64 {
            vs.install(&mem, id, &[i as u8], 2 + i * 2, 3 + i * 2);
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
        let id = vs.insert(&mem, b"1", 1);
        vs.install(&mem, id, b"2", 2, 5);
        vs.install(&mem, id, b"3", 6, 9);
        let before = vs.chain_hops;
        // Reading the oldest snapshot walks two hops.
        read_str(&mut vs, &mem, id, 1);
        assert_eq!(vs.chain_hops - before, 2);
    }

    #[test]
    fn versions_sit_in_a_few_chunks() {
        let mem = mem();
        let mut vs = VersionStore::new();
        let ids: Vec<RowId> = (0..10_000u64)
            .map(|i| vs.insert(&mem, &[i as u8; 20], 1))
            .collect();
        for &id in &ids[..100] {
            vs.install(&mem, id, &[7u8; 20], 1, 2);
        }
        assert_eq!((vs.rows.len(), vs.older.len()), (10_000, 100));
        assert_eq!(vs.rows.chunks(), 10_000 / RECORDS_PER_CHUNK + 1);
        assert_eq!(vs.older.chunks(), 1);
        assert_eq!(
            vs.arena.chunks(),
            10_100 * 20 / crate::arena::CHUNK_BYTES + 1
        );
        // gc hands the 100 superseded records back for reuse.
        assert_eq!(vs.gc(3), 100);
        vs.install(&mem, ids[0], b"reuses a record", 3, 4);
        assert_eq!(vs.older.len(), 100);
    }

    /// Drive the store and its boxed-version reference from one seeded op
    /// stream on two machines: installs, tombstones, reads at old
    /// snapshots and `gc` return the same, show the same bytes and charge
    /// the same simulated events.
    #[test]
    fn matches_the_boxed_reference() {
        use bytes::Bytes;
        let twin = Twin::new();
        let [mem, ref_mem] = &twin.mems;
        let mut vs = VersionStore::new();
        let mut r = reference::VersionStore::new();
        let mut rng = Rng::new(0x3cc);
        let mut rows = 0u64;
        let mut clock = 1u64;
        // Paths the stream must reach: a write conflict, a tombstone
        // installed, a snapshot older than the row, a read past a hop,
        // versions reclaimed.
        let mut seen = [0u32; 5];
        for step in 0..6000 {
            let ctx = format!("step {step}");
            let id = RowId(rng.below(rows + 2) as u32);
            let snapshot = clock.saturating_sub(rng.below(12));
            match rng.below(12) {
                0..=1 => {
                    let row = rng.row();
                    clock += 1;
                    let got = vs.insert(mem, &row, clock);
                    assert_eq!(got, r.insert(ref_mem, Bytes::from(row), clock), "{ctx}");
                    rows += 1;
                }
                2..=4 => {
                    let row = if rng.below(3) == 0 {
                        Vec::new()
                    } else {
                        rng.row()
                    };
                    clock += 1;
                    let got = vs.install(mem, id, &row, snapshot, clock);
                    let tombstone = row.is_empty();
                    let want = r.install(ref_mem, id, Bytes::from(row), snapshot, clock);
                    assert_eq!(got, want, "{ctx}");
                    let installed = got == InstallOutcome::Installed;
                    seen[0] += u32::from(!installed && (id.0 as u64) < rows);
                    seen[1] += u32::from(installed && tombstone);
                }
                5 => {
                    clock += 1;
                    let got = vs.delete(mem, id, snapshot, clock);
                    assert_eq!(got, r.delete(ref_mem, id, snapshot, clock), "{ctx}");
                }
                6..=9 => {
                    let hops = vs.chain_hops;
                    let mut got = None;
                    let hit = vs.read(mem, id, snapshot, &mut |d| got = Some(d.to_vec()));
                    let mut want = None;
                    let ref_hit = r.read(ref_mem, id, snapshot, &mut |d| want = Some(d.to_vec()));
                    assert_eq!((hit, got), (ref_hit, want), "{ctx}");
                    seen[2] += u32::from(!hit && (id.0 as u64) < rows);
                    seen[3] += u32::from(hit && vs.chain_hops > hops);
                }
                10 => {
                    let got = vs.is_visible(mem, id, snapshot);
                    assert_eq!(got, r.is_visible(ref_mem, id, snapshot), "{ctx}");
                }
                _ => {
                    let watermark = clock.saturating_sub(rng.below(40));
                    let reclaimed = vs.gc(watermark);
                    assert_eq!(reclaimed, r.gc(watermark), "{ctx}");
                    seen[4] += u32::from(reclaimed > 0);
                }
            }
            assert_eq!(vs.chain_len(id), r.chain_len(id), "{ctx}");
            assert_eq!(vs.live(), r.live(), "{ctx}");
            assert_eq!(vs.chain_hops, r.chain_hops, "{ctx}");
            twin.assert_same(&ctx);
        }
        assert!(seen.iter().all(|&n| n > 10), "paths reached: {seen:?}");
    }

    /// The store as it was before versions moved into one `Vec` and their
    /// bytes into the arena: one `Box` and one `Bytes` per version. Kept
    /// verbatim as the differential tests' reference.
    mod reference {
        use bytes::Bytes;
        use uarch_sim::Mem;

        use crate::memstore::RowId;
        use crate::mvcc::{InstallOutcome, TS_INF};

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
            pub fn read(
                &mut self,
                mem: &Mem,
                id: RowId,
                ts: u64,
                f: &mut dyn FnMut(&Bytes),
            ) -> bool {
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
    }
}
