//! Direct in-memory row storage.
//!
//! The in-memory engines (§2.1) store rows in ordinary heap memory with no
//! buffer-pool indirection: an index probe yields a row pointer and the
//! engine dereferences it. Each row owns a stable simulated address;
//! sequential inserts get adjacent addresses (allocator locality), which
//! is what gives TPC-B's append-only History table its cache residency in
//! §5.1.

use bytes::Bytes;
use uarch_sim::Mem;

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

/// Instruction cost of one row dereference ([`MemStore::read`]); public so
/// batched scan loops using [`MemStore::slot`] charge the identical cost.
pub const ROW_READ_INSTRS: u64 = 8;

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

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_sim::{MachineConfig, Sim};

    fn mem() -> Mem {
        Sim::new(MachineConfig::ivy_bridge(1)).mem(0)
    }

    #[test]
    fn insert_read_update_delete() {
        let mem = mem();
        let mut s = MemStore::new();
        let id = s.insert(&mem, Bytes::from_static(b"abc"));
        let mut got = None;
        assert!(s.read(&mem, id, &mut |d| got = Some(d.clone())));
        assert_eq!(got.unwrap().as_ref(), b"abc");
        assert!(s.update(&mem, id, Bytes::from_static(b"defg")));
        let mut got = None;
        s.read(&mem, id, &mut |d| got = Some(d.clone()));
        assert_eq!(got.unwrap().as_ref(), b"defg");
        assert_eq!(s.delete(&mem, id).unwrap().as_ref(), b"defg");
        assert!(!s.read(&mem, id, &mut |_| {}));
        assert_eq!(s.delete(&mem, id), None);
        assert_eq!(s.live(), 0);
    }

    #[test]
    fn slots_recycled_after_delete() {
        let mem = mem();
        let mut s = MemStore::new();
        let a = s.insert(&mem, Bytes::from_static(b"a"));
        s.delete(&mem, a);
        let b = s.insert(&mem, Bytes::from_static(b"b"));
        assert_eq!(a, b, "freed slot should be reused");
    }

    #[test]
    fn sequential_inserts_have_adjacent_addresses() {
        let mem = mem();
        let mut s = MemStore::new();
        let ids: Vec<RowId> = (0..10)
            .map(|_| s.insert(&mem, Bytes::from(vec![0u8; 48])))
            .collect();
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
        let id = s.insert(&mem, Bytes::from(vec![1u8; 16]));
        let a1 = s.addr(id).unwrap();
        s.update(&mem, id, Bytes::from(vec![2u8; 500]));
        let a2 = s.addr(id).unwrap();
        assert_ne!(a1, a2);
        let mut len = 0;
        s.read(&mem, id, &mut |d| len = d.len());
        assert_eq!(len, 500);
    }
}
