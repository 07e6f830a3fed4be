//! Hash index with inline bucket entries.
//!
//! DBMS M's default index for the micro-benchmark and TPC-B (§3). The
//! first entry of every bucket lives *inside* the directory slot (24
//! bytes per slot), so an uncontended probe costs exactly one random
//! line — "hash index directly goes to the hash bucket that corresponds
//! to the probed key; therefore \[it\] requires fewer random data requests
//! incurring fewer data misses" (§6.1). Collisions overflow into a
//! chain.
//!
//! On the host, entries live in one `Vec` and chains link them by
//! position, so dropping an index frees one buffer instead of one box per
//! key in hash order. The simulated layout is the `addr` of each entry
//! and does not depend on where the host keeps it.

use uarch_sim::Mem;

use crate::traits::{Index, IndexKind, IndexStats};

/// Fibonacci hashing: cheap and well-distributed for integer keys.
#[inline]
fn hash(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

struct Entry {
    key: u64,
    payload: u64,
    /// Simulated address of this chain entry.
    addr: u64,
    /// The next entry of the chain.
    next: u32,
}

/// The end of a chain (and an empty slot): past every entry a host can
/// hold, so [`HashIndex::chain`] stops there.
const NIL: u32 = u32::MAX;

const ENTRY_BYTES: u64 = 32; // overflow entry: key + payload + next + slack
const SLOT_BYTES: u64 = 24; // inline bucket entry: key + payload + overflow ptr

/// A bucket-chained hash index. No key order, so no range scans — exactly
/// why DBMS M switches to its B-tree for TPC-C.
pub struct HashIndex {
    /// Each slot's chain head.
    dir: Vec<u32>,
    /// Every entry the chains link; removed ones wait in `free` for reuse.
    entries: Vec<Entry>,
    free: Vec<u32>,
    /// Simulated base address of the directory (`SLOT_BYTES` per slot).
    dir_addr: u64,
    /// Fibonacci hashing extracts the *high* bits: `hash >> shift`.
    /// (Low bits would alias all keys sharing low-order zeros.)
    shift: u32,
    len: u64,
    bytes: u64,
}

impl HashIndex {
    /// Create a hash index pre-sized for `expected` entries (directory is
    /// the next power of two above `expected / 0.75`).
    pub fn with_capacity(mem: &Mem, expected: u64) -> Self {
        let slots = ((expected.max(16) as f64 / 0.75) as u64).next_power_of_two();
        let dir_addr = mem.alloc(slots * SLOT_BYTES, 64);
        HashIndex {
            dir: vec![NIL; slots as usize],
            entries: Vec::new(),
            free: Vec::new(),
            dir_addr,
            shift: 64 - slots.trailing_zeros(),
            len: 0,
            bytes: slots * SLOT_BYTES,
        }
    }

    /// Default capacity (64k slots).
    pub fn new(mem: &Mem) -> Self {
        Self::with_capacity(mem, 48 * 1024)
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        (hash(key) >> self.shift) as usize
    }

    /// Touch the directory slot for `slot` (24-byte inline entry: key,
    /// payload, overflow pointer — one cache line covers it).
    fn touch_slot(&self, mem: &Mem, slot: usize, write: bool) {
        let addr = self.dir_addr + slot as u64 * SLOT_BYTES;
        if write {
            mem.write(addr, SLOT_BYTES as u32);
        } else {
            mem.read(addr, SLOT_BYTES as u32);
        }
    }

    /// Grow the directory 4x and rehash (amortized; touches everything,
    /// like a real rehash would).
    fn grow(&mut self, mem: &Mem) {
        let new_slots = (self.dir.len() * 4).next_power_of_two();
        let mut new_dir = vec![NIL; new_slots];
        let new_addr = mem.alloc(new_slots as u64 * SLOT_BYTES, 64);
        let new_shift = 64 - (new_slots as u64).trailing_zeros();
        mem.exec(self.len * 8 + 500);
        for head in self.dir.drain(..) {
            let mut cur = head;
            while cur != NIL {
                let e = &mut self.entries[cur as usize];
                mem.read(e.addr, 24);
                let slot = (hash(e.key) >> new_shift) as usize;
                mem.write(new_addr + slot as u64 * SLOT_BYTES, SLOT_BYTES as u32);
                let next = std::mem::replace(&mut e.next, new_dir[slot]);
                new_dir[slot] = cur;
                cur = next;
            }
        }
        self.dir = new_dir;
        self.dir_addr = new_addr;
        self.shift = new_shift;
        self.bytes += new_slots as u64 * SLOT_BYTES;
    }

    /// The entries of `slot`'s chain, head first.
    fn chain(&self, slot: usize) -> impl Iterator<Item = (u32, &Entry)> {
        let mut cur = self.dir[slot];
        std::iter::from_fn(move || {
            let at = cur;
            let e = self.entries.get(at as usize)?;
            cur = e.next;
            Some((at, e))
        })
    }

    fn longest_chain(&self) -> u32 {
        (0..self.dir.len())
            .map(|slot| self.chain(slot).count() as u32)
            .max()
            .unwrap_or(0)
    }
}

impl Index for HashIndex {
    fn kind(&self) -> IndexKind {
        IndexKind::Hash
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn insert(&mut self, mem: &Mem, key: u64, payload: u64) -> bool {
        if self.len + 1 > (self.dir.len() as u64 * 3) / 4 {
            self.grow(mem);
        }
        mem.exec(18); // hash + dispatch
        let slot = self.slot_of(key);
        self.touch_slot(mem, slot, false);
        // Duplicate check walks the chain.
        for (i, (_, e)) in self.chain(slot).enumerate() {
            mem.exec(8);
            if i > 0 {
                mem.read(e.addr, 24);
            }
            if e.key == key {
                return false;
            }
        }
        // New entries go to the bucket head: the previous head (if any)
        // spills from the inline slot to an overflow allocation.
        let addr = mem.alloc(ENTRY_BYTES, 8);
        let next = self.dir[slot];
        if next != NIL {
            mem.write(addr, 24);
        }
        self.touch_slot(mem, slot, true);
        let entry = Entry {
            key,
            payload,
            addr,
            next,
        };
        self.dir[slot] = match self.free.pop() {
            Some(at) => {
                self.entries[at as usize] = entry;
                at
            }
            None => {
                self.entries.push(entry);
                u32::try_from(self.entries.len() - 1).expect("fewer than 2^32 entries")
            }
        };
        self.bytes += ENTRY_BYTES;
        self.len += 1;
        true
    }

    fn get(&mut self, mem: &Mem, key: u64) -> Option<u64> {
        mem.exec(15);
        let slot = self.slot_of(key);
        self.touch_slot(mem, slot, false);
        for (i, (_, e)) in self.chain(slot).enumerate() {
            mem.exec(8);
            if i > 0 {
                mem.read(e.addr, 24); // overflow entries are heap hops
            }
            if e.key == key {
                return Some(e.payload);
            }
        }
        None
    }

    fn remove(&mut self, mem: &Mem, key: u64) -> Option<u64> {
        mem.exec(18);
        let slot = self.slot_of(key);
        self.touch_slot(mem, slot, false);
        let slot_addr = self.dir_addr + slot as u64 * SLOT_BYTES;
        let (mut prev, mut found) = (None, None);
        for (at, e) in self.chain(slot) {
            if e.key == key {
                // The inline head lives in the directory slot; chained
                // entries are heap allocations.
                mem.write(if prev.is_none() { slot_addr } else { e.addr }, 24);
                found = Some((at, e.payload, e.next));
                break;
            }
            mem.exec(8);
            if prev.is_some() {
                mem.read(e.addr, 24);
            }
            prev = Some(at);
        }
        let (at, payload, next) = found?;
        match prev {
            None => self.dir[slot] = next,
            Some(p) => self.entries[p as usize].next = next,
        }
        self.free.push(at);
        self.len -= 1;
        Some(payload)
    }

    fn replace(&mut self, mem: &Mem, key: u64, payload: u64) -> Option<u64> {
        mem.exec(15);
        let slot = self.slot_of(key);
        self.touch_slot(mem, slot, false);
        let slot_addr = self.dir_addr + slot as u64 * SLOT_BYTES;
        let mut found = None;
        for (i, (at, e)) in self.chain(slot).enumerate() {
            mem.exec(8);
            if i > 0 {
                mem.read(e.addr, 24);
            }
            if e.key == key {
                mem.write(if i == 0 { slot_addr + 8 } else { e.addr + 8 }, 8);
                found = Some(at);
                break;
            }
        }
        let e = &mut self.entries[found? as usize];
        Some(std::mem::replace(&mut e.payload, payload))
    }

    fn scan(
        &mut self,
        _mem: &Mem,
        _lo: u64,
        _hi: u64,
        _f: &mut dyn FnMut(u64, u64) -> bool,
    ) -> Option<u64> {
        None // hash indexes have no key order
    }

    fn supports_range(&self) -> bool {
        false
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            entries: self.len,
            nodes: self.dir.len() as u64 + self.len,
            height: self.longest_chain(),
            bytes: self.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::mem;

    #[test]
    fn insert_get_remove_cycle() {
        let mem = mem();
        let mut h = HashIndex::with_capacity(&mem, 1000);
        for k in 0..10_000u64 {
            assert!(h.insert(&mem, k * 7, k));
        }
        assert_eq!(h.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(h.get(&mem, k * 7), Some(k));
            assert_eq!(h.get(&mem, k * 7 + 3), None);
        }
        assert_eq!(h.remove(&mem, 7), Some(1));
        assert_eq!(h.remove(&mem, 7), None);
        assert_eq!(h.len(), 9_999);
    }

    #[test]
    fn duplicate_rejected_and_replace_works() {
        let mem = mem();
        let mut h = HashIndex::new(&mem);
        assert!(h.insert(&mem, 1, 10));
        assert!(!h.insert(&mem, 1, 20));
        assert_eq!(h.get(&mem, 1), Some(10));
        assert_eq!(h.replace(&mem, 1, 30), Some(10));
        assert_eq!(h.get(&mem, 1), Some(30));
        assert_eq!(h.replace(&mem, 2, 1), None);
    }

    #[test]
    fn growth_preserves_contents() {
        let mem = mem();
        let mut h = HashIndex::with_capacity(&mem, 16);
        for k in 0..5_000u64 {
            h.insert(&mem, k, k + 1);
        }
        for k in 0..5_000u64 {
            assert_eq!(h.get(&mem, k), Some(k + 1));
        }
        // Load factor stays bounded.
        assert!(h.dir.len() as u64 * 3 / 4 >= h.len());
    }

    /// A grown directory keeps 24-byte slots: every slot `touch_slot`
    /// reaches lies inside the directory's allocation, which ends where
    /// the next allocation begins.
    #[test]
    fn grown_directory_slots_stay_inside_its_allocation() {
        let mem = mem();
        let mut h = HashIndex::with_capacity(&mem, 16);
        let slots = h.dir.len() as u64;
        for k in 0..=slots * 3 / 4 {
            h.insert(&mem, k, k);
        }
        let grown = h.dir.len() as u64;
        assert_eq!(grown, slots * 4);
        let end = mem.alloc(1, 1);
        let last_slot = h.dir_addr + (grown - 1) * SLOT_BYTES;
        assert!(
            last_slot + SLOT_BYTES <= end,
            "slot ends past the directory"
        );
        assert_eq!(
            h.stats().bytes,
            (slots + grown) * SLOT_BYTES + h.len() * ENTRY_BYTES
        );
    }

    #[test]
    fn strided_keys_do_not_alias() {
        // Keys that are multiples of a large power of two must still
        // spread across the directory (high-bit extraction).
        let mem = mem();
        let mut h = HashIndex::with_capacity(&mem, 50_000);
        for k in 0..50_000u64 {
            h.insert(&mem, k * 2048, k);
        }
        assert!(h.stats().height <= 8, "longest chain {}", h.stats().height);
    }

    #[test]
    fn no_range_scans() {
        let mem = mem();
        let mut h = HashIndex::new(&mem);
        h.insert(&mem, 1, 1);
        assert!(!h.supports_range());
        assert_eq!(h.scan(&mem, 0, 10, &mut |_, _| true), None);
    }

    #[test]
    fn chains_stay_short_under_load() {
        let mem = mem();
        let mut h = HashIndex::with_capacity(&mem, 100_000);
        for k in 0..100_000u64 {
            h.insert(&mem, k, k);
        }
        assert!(h.stats().height <= 8, "longest chain {}", h.stats().height);
    }

    #[test]
    fn remove_middle_of_chain() {
        let mem = mem();
        // Force collisions with a tiny directory that we keep under the
        // growth threshold by removing as we go.
        let mut h = HashIndex::with_capacity(&mem, 16);
        let keys: Vec<u64> = (0..12).collect();
        for &k in &keys {
            h.insert(&mem, k, k + 100);
        }
        // Remove in arbitrary order; everything else must stay reachable.
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(h.remove(&mem, k), Some(k + 100));
            for &rest in &keys[i + 1..] {
                assert_eq!(h.get(&mem, rest), Some(rest + 100), "lost key {rest}");
            }
        }
        assert_eq!(h.len(), 0);
    }
}
