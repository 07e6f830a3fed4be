//! Direct in-memory row storage.
//!
//! The in-memory engines (§2.1) store rows in ordinary heap memory with no
//! buffer-pool indirection: an index probe yields a row pointer and the
//! engine dereferences it. Each row owns a stable simulated address;
//! sequential inserts get adjacent addresses (allocator locality), which
//! is what gives TPC-B's append-only History table its cache residency in
//! §5.1. On the host a row is a fixed-size slot (simulated address and
//! capacity, arena position and length) in the store's [`Records`] and
//! its bytes sit in the store's [`Arena`], so a store of a million rows is
//! some 800 buffers of 48 or 64 KB.

use uarch_sim::Mem;

use crate::arena::{Arena, ArenaPos, Records};

/// Row handle (slot in the store). Packs into an index payload directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RowId(pub u32);

impl RowId {
    /// For index payload storage.
    pub fn to_u64(self) -> u64 {
        u64::from(self.0)
    }

    /// From an index payload.
    pub fn from_u64(v: u64) -> Self {
        RowId(v as u32)
    }
}

/// A row: where it lives in simulated memory and where its bytes sit in
/// the host arena.
struct Slot {
    addr: u64,
    at: ArenaPos,
    /// Allocated simulated capacity at `addr`.
    cap: u32,
    /// Row length, or [`DEAD`] after deletion.
    len: u32,
}

/// `Slot::len` of a deleted row.
const DEAD: u32 = u32::MAX;

const _: () = assert!(std::mem::size_of::<Slot>() == 24);

/// Simulated chunk size: rows are bump-allocated within store-private
/// chunks so two stores (e.g. two partitions) never share a cache line —
/// real allocators give each thread/partition its own slabs.
const CHUNK_BYTES: u64 = 4096;

/// Instruction cost of one row dereference ([`MemStore::read`]); public so
/// batched scan loops using [`MemStore::slot`] charge the identical cost.
pub const ROW_READ_INSTRS: u64 = 8;

/// An in-memory row store.
pub struct MemStore {
    slots: Records<Slot>,
    free: Vec<u32>,
    live: u64,
    chunk_addr: u64,
    chunk_used: u64,
    arena: Arena,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        MemStore {
            slots: Records::new(),
            free: Vec::new(),
            live: 0,
            chunk_addr: 0,
            chunk_used: CHUNK_BYTES,
            arena: Arena::new(),
        }
    }

    /// Bump-allocate `cap` bytes from the store's private arena.
    fn alloc_row(&mut self, mem: &Mem, cap: u32) -> u64 {
        let cap = u64::from(cap);
        if self.chunk_used + cap > CHUNK_BYTES {
            self.chunk_addr = mem.alloc(CHUNK_BYTES.max(cap), 64);
            self.chunk_used = 0;
        }
        let addr = self.chunk_addr + self.chunk_used;
        self.chunk_used += cap;
        addr
    }

    /// The live row `id`.
    fn row(&self, id: RowId) -> Option<&Slot> {
        self.slots.get(id.0).filter(|s| s.len != DEAD)
    }

    /// Live rows.
    pub fn live(&self) -> u64 {
        self.live
    }

    /// Insert a row; returns its handle. Every insert bump-allocates fresh
    /// simulated bytes; a freed slot number is reused, its old allocation
    /// is not.
    pub fn insert(&mut self, mem: &Mem, data: &[u8]) -> RowId {
        mem.exec(22); // allocator fast path
        let len = data.len().max(1) as u32;
        let cap = len.next_multiple_of(16);
        let addr = self.alloc_row(mem, cap);
        mem.write(addr, len);
        let slot = Slot {
            addr,
            at: self.arena.push(data),
            cap,
            len: data.len() as u32,
        };
        let id = match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => self.slots.push(slot),
        };
        self.live += 1;
        RowId(id)
    }

    /// Visit a row; returns whether it was live.
    pub fn read(&self, mem: &Mem, id: RowId, f: &mut dyn FnMut(&[u8])) -> bool {
        mem.exec(ROW_READ_INSTRS);
        match self.slot(id) {
            Some((addr, data)) => {
                mem.read(addr, data.len().max(1) as u32);
                f(data);
                true
            }
            None => false,
        }
    }

    /// Simulated address of a row (for engines that touch sub-fields).
    pub fn addr(&self, id: RowId) -> Option<u64> {
        self.row(id).map(|s| s.addr)
    }

    /// Simulated address and payload of a row, with **no** simulated
    /// traffic. For callers that batch their accesses (scan loops stage
    /// the read alongside the surrounding instruction work and run the
    /// whole row through one [`uarch_sim::Mem::run_ops`]); the caller is
    /// responsible for charging the equivalent of [`MemStore::read`].
    pub fn slot(&self, id: RowId) -> Option<(u64, &[u8])> {
        self.row(id).map(|s| (s.addr, self.arena.get(s.at, s.len)))
    }

    /// Replace a row in place (reallocating its simulated bytes only when
    /// it outgrows its allocation; its host bytes are overwritten when the
    /// row does not grow and appended to the arena when it does).
    pub fn update(&mut self, mem: &Mem, id: RowId, data: &[u8]) -> bool {
        mem.exec(14);
        let len = data.len().max(1) as u32;
        let Some(slot) = self.row(id) else {
            return false;
        };
        if len > slot.cap {
            let cap = len.next_multiple_of(16);
            let addr = self.alloc_row(mem, cap);
            let slot = &mut self.slots[id.0];
            slot.cap = cap;
            slot.addr = addr;
        }
        let slot = &mut self.slots[id.0];
        mem.write(slot.addr, len);
        if data.len() as u32 <= slot.len {
            self.arena
                .get_mut(slot.at, data.len() as u32)
                .copy_from_slice(data);
        } else {
            slot.at = self.arena.push(data);
        }
        slot.len = data.len() as u32;
        true
    }

    /// Delete a row; returns whether it was live.
    pub fn delete(&mut self, mem: &Mem, id: RowId) -> bool {
        mem.exec(16);
        let Some(slot) = self.slots.get_mut(id.0).filter(|s| s.len != DEAD) else {
            return false;
        };
        slot.len = DEAD;
        mem.write(slot.addr, 8); // poison/free-list link
        self.free.push(id.0);
        self.live -= 1;
        true
    }
}

impl Default for MemStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twin::{Rng, Twin};
    use uarch_sim::{MachineConfig, Sim};

    fn mem() -> Mem {
        Sim::new(MachineConfig::ivy_bridge(1)).mem(0)
    }

    fn read_vec(s: &MemStore, mem: &Mem, id: RowId) -> Option<Vec<u8>> {
        let mut got = None;
        s.read(mem, id, &mut |d| got = Some(d.to_vec()));
        got
    }

    #[test]
    fn insert_read_update_delete() {
        let mem = mem();
        let mut s = MemStore::new();
        let id = s.insert(&mem, b"abc");
        assert_eq!(read_vec(&s, &mem, id).unwrap(), b"abc");
        assert!(s.update(&mem, id, b"defg"));
        assert_eq!(read_vec(&s, &mem, id).unwrap(), b"defg");
        assert!(s.update(&mem, id, b"hi"));
        assert_eq!(read_vec(&s, &mem, id).unwrap(), b"hi");
        assert!(s.delete(&mem, id));
        assert!(!s.read(&mem, id, &mut |_| {}));
        assert!(!s.delete(&mem, id));
        assert_eq!(s.live(), 0);
    }

    #[test]
    fn slots_recycled_after_delete() {
        let mem = mem();
        let mut s = MemStore::new();
        let a = s.insert(&mem, b"a");
        let a_addr = s.addr(a).unwrap();
        s.delete(&mem, a);
        let b = s.insert(&mem, b"b");
        assert_eq!(a, b, "freed slot should be reused");
        assert_ne!(s.addr(b).unwrap(), a_addr, "its simulated bytes are not");
    }

    #[test]
    fn sequential_inserts_have_adjacent_addresses() {
        let mem = mem();
        let mut s = MemStore::new();
        let ids: Vec<RowId> = (0..10).map(|_| s.insert(&mem, &[0u8; 48])).collect();
        let addrs: Vec<u64> = ids.iter().map(|&i| s.addr(i).unwrap()).collect();
        for w in addrs.windows(2) {
            assert!(
                w[1] > w[0] && w[1] - w[0] <= 64,
                "addresses not adjacent: {w:?}"
            );
        }
    }

    #[test]
    fn growing_update_relocates() {
        let mem = mem();
        let mut s = MemStore::new();
        let id = s.insert(&mem, &[1u8; 16]);
        let a1 = s.addr(id).unwrap();
        s.update(&mem, id, &[2u8; 500]);
        let a2 = s.addr(id).unwrap();
        assert_ne!(a1, a2);
        assert_eq!(read_vec(&s, &mem, id).unwrap(), [2u8; 500]);
    }

    #[test]
    fn rows_sit_in_a_few_chunks() {
        let mem = mem();
        let mut s = MemStore::new();
        for i in 0..10_000u32 {
            s.insert(&mem, &[i as u8; 20]);
        }
        // 200 000 bytes: four 64 KB chunks; 10 000 slots: five chunks.
        assert_eq!(
            s.arena.chunks(),
            10_000 * 20 / crate::arena::CHUNK_BYTES + 1
        );
        assert_eq!(
            s.slots.chunks(),
            10_000 / crate::arena::RECORDS_PER_CHUNK + 1
        );
        assert_eq!(s.slot(RowId(9_999)).unwrap().1, [15u8; 20]);
    }

    /// Drive the store and its per-row-`Bytes` reference from one seeded
    /// op stream on two machines: every op returns the same, shows the
    /// same bytes and address, and charges the same simulated events.
    #[test]
    fn matches_the_per_row_reference() {
        use bytes::Bytes;
        let twin = Twin::new();
        let [mem, ref_mem] = &twin.mems;
        let mut s = MemStore::new();
        let mut r = reference::MemStore::new();
        let mut rng = Rng::new(0x3e3);
        let mut lens: Vec<usize> = Vec::new();
        // Paths the stream must reach: a freed slot reused, an update
        // that re-allocates, one that shrinks, a read of a dead row.
        let mut seen = [0u32; 4];
        for step in 0..6000 {
            let ctx = format!("step {step}");
            let id = RowId(rng.below(lens.len() as u64 + 2) as u32);
            match rng.below(10) {
                0..=1 => {
                    let row = rng.row();
                    let len = row.len();
                    let got = s.insert(mem, &row);
                    assert_eq!(got, r.insert(ref_mem, Bytes::from(row)), "{ctx}");
                    if got.0 as usize == lens.len() {
                        lens.push(len);
                    } else {
                        seen[0] += 1;
                        lens[got.0 as usize] = len;
                    }
                }
                2..=4 => {
                    let old = lens.get(id.0 as usize).copied().unwrap_or(0);
                    let len = rng.update_len(old);
                    let row = rng.bytes(len);
                    let addr = s.addr(id);
                    let got = s.update(mem, id, &row);
                    assert_eq!(got, r.update(ref_mem, id, Bytes::from(row)), "{ctx}");
                    if got {
                        seen[1] += u32::from(s.addr(id) != addr);
                        seen[2] += u32::from(len < old);
                        lens[id.0 as usize] = len;
                    }
                }
                5..=6 => {
                    let want = r.delete(ref_mem, id).is_some();
                    assert_eq!(s.delete(mem, id), want, "{ctx}");
                }
                _ => {
                    let mut got = None;
                    let hit = s.read(mem, id, &mut |d| got = Some(d.to_vec()));
                    let mut want = None;
                    let ref_hit = r.read(ref_mem, id, &mut |d| want = Some(d.to_vec()));
                    assert_eq!((hit, got), (ref_hit, want), "{ctx}");
                    seen[3] += u32::from(!hit && (id.0 as usize) < lens.len());
                }
            }
            let slot = s.slot(id).map(|(a, d)| (a, d.to_vec()));
            let ref_slot = r.slot(id).map(|(a, d)| (a, d.to_vec()));
            assert_eq!(slot, ref_slot, "{ctx}");
            assert_eq!(s.addr(id), r.addr(id), "{ctx}");
            assert_eq!(s.live(), r.live(), "{ctx}");
            twin.assert_same(&ctx);
        }
        assert!(seen.iter().all(|&n| n > 10), "paths reached: {seen:?}");
    }

    /// The store as it was before rows moved into the arena: one `Bytes` per
    /// row. Kept verbatim as the differential tests' reference.
    mod reference {
        use bytes::Bytes;
        use uarch_sim::Mem;

        use crate::memstore::{RowId, ROW_READ_INSTRS};

        struct Slot {
            data: Bytes,
            addr: u64,
            /// Allocated simulated capacity at `addr`.
            cap: u32,
        }

        /// Arena chunk size: rows are bump-allocated within store-private chunks
        /// so two stores (e.g. two partitions) never share a cache line — real
        /// allocators give each thread/partition its own slabs.
        const CHUNK_BYTES: u64 = 4096;

        /// An in-memory row store.
        pub struct MemStore {
            slots: Vec<Option<Slot>>,
            free: Vec<u32>,
            live: u64,
            chunk_addr: u64,
            chunk_used: u64,
        }

        impl MemStore {
            /// An empty store.
            pub fn new() -> Self {
                MemStore {
                    slots: Vec::new(),
                    free: Vec::new(),
                    live: 0,
                    chunk_addr: 0,
                    chunk_used: CHUNK_BYTES,
                }
            }

            /// Bump-allocate `cap` bytes from the store's private arena.
            fn alloc_row(&mut self, mem: &Mem, cap: u32) -> u64 {
                let cap = u64::from(cap);
                if self.chunk_used + cap > CHUNK_BYTES {
                    self.chunk_addr = mem.alloc(CHUNK_BYTES.max(cap), 64);
                    self.chunk_used = 0;
                }
                let addr = self.chunk_addr + self.chunk_used;
                self.chunk_used += cap;
                addr
            }

            /// Live rows.
            pub fn live(&self) -> u64 {
                self.live
            }

            /// Insert a row; returns its handle.
            pub fn insert(&mut self, mem: &Mem, data: Bytes) -> RowId {
                mem.exec(22); // allocator fast path
                let len = data.len().max(1) as u32;
                let id = match self.free.pop() {
                    // Reuse a freed slot when the row fits its old allocation
                    // (size-class recycling, like a real allocator).
                    Some(i) if self.slots[i as usize].is_none() => i,
                    Some(_) | None => {
                        self.slots.push(None);
                        (self.slots.len() - 1) as u32
                    }
                };
                let cap = len.next_multiple_of(16);
                let addr = self.alloc_row(mem, cap);
                mem.write(addr, len);
                self.slots[id as usize] = Some(Slot { data, addr, cap });
                self.live += 1;
                RowId(id)
            }

            /// Visit a row; returns whether it was live.
            pub fn read(&self, mem: &Mem, id: RowId, f: &mut dyn FnMut(&Bytes)) -> bool {
                mem.exec(ROW_READ_INSTRS);
                match self.slots.get(id.0 as usize).and_then(Option::as_ref) {
                    Some(s) => {
                        mem.read(s.addr, s.data.len().max(1) as u32);
                        f(&s.data);
                        true
                    }
                    None => false,
                }
            }

            /// Simulated address of a row (for engines that touch sub-fields).
            pub fn addr(&self, id: RowId) -> Option<u64> {
                self.slots
                    .get(id.0 as usize)
                    .and_then(Option::as_ref)
                    .map(|s| s.addr)
            }

            /// Simulated address and payload of a row, with **no** simulated
            /// traffic. For callers that batch their accesses (scan loops stage
            /// the read alongside the surrounding instruction work and run the
            /// whole row through one [`uarch_sim::Mem::run_ops`]); the caller is
            /// responsible for charging the equivalent of [`MemStore::read`].
            pub fn slot(&self, id: RowId) -> Option<(u64, &Bytes)> {
                self.slots
                    .get(id.0 as usize)
                    .and_then(Option::as_ref)
                    .map(|s| (s.addr, &s.data))
            }

            /// Replace a row in place (reallocating its simulated bytes only when
            /// it outgrows its allocation).
            pub fn update(&mut self, mem: &Mem, id: RowId, data: Bytes) -> bool {
                mem.exec(14);
                let len = data.len().max(1) as u32;
                let needs_realloc = match self.slots.get(id.0 as usize).and_then(Option::as_ref) {
                    Some(slot) => len > slot.cap,
                    None => return false,
                };
                if needs_realloc {
                    let cap = len.next_multiple_of(16);
                    let addr = self.alloc_row(mem, cap);
                    let slot = self
                        .slots
                        .get_mut(id.0 as usize)
                        .and_then(Option::as_mut)
                        .expect("checked");
                    slot.cap = cap;
                    slot.addr = addr;
                }
                let slot = self
                    .slots
                    .get_mut(id.0 as usize)
                    .and_then(Option::as_mut)
                    .expect("checked");
                mem.write(slot.addr, len);
                slot.data = data;
                true
            }

            /// Delete a row.
            pub fn delete(&mut self, mem: &Mem, id: RowId) -> Option<Bytes> {
                mem.exec(16);
                let slot = self.slots.get_mut(id.0 as usize)?.take()?;
                mem.write(slot.addr, 8); // poison/free-list link
                self.free.push(id.0);
                self.live -= 1;
                Some(slot.data)
            }
        }

        impl Default for MemStore {
            fn default() -> Self {
                Self::new()
            }
        }
    }
}
