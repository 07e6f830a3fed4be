//! Heap files over the buffer pool.
//!
//! A heap file is a list of slotted pages; tuples are addressed by
//! [`Rid`] (page ordinal + slot) which packs into a `u64` index payload.

use uarch_sim::Mem;

use crate::bufferpool::BufferPool;
use crate::page::{PageId, SlotId};

/// Row identifier: ordinal of the page within the heap file + slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Rid {
    /// Index into the heap file's page list.
    pub page: u32,
    /// Slot within the page.
    pub slot: u16,
}

impl Rid {
    /// Pack for storage as an index payload.
    pub fn to_u64(self) -> u64 {
        (u64::from(self.page) << 16) | u64::from(self.slot)
    }

    /// Unpack from an index payload.
    pub fn from_u64(v: u64) -> Self {
        Rid {
            page: (v >> 16) as u32,
            slot: (v & 0xFFFF) as u16,
        }
    }
}

/// A heap file: append-mostly tuple storage with Rid access.
pub struct HeapFile {
    pages: Vec<PageId>,
    /// First page worth trying for inserts (avoids rescanning full pages).
    insert_cursor: usize,
    rows: u64,
}

impl HeapFile {
    /// An empty heap file (first page allocated lazily).
    pub fn new() -> Self {
        HeapFile {
            pages: Vec::new(),
            insert_cursor: 0,
            rows: 0,
        }
    }

    /// Number of live rows.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Number of pages.
    pub fn pages(&self) -> usize {
        self.pages.len()
    }

    /// Insert a tuple, returning its Rid.
    pub fn insert(&mut self, pool: &mut BufferPool, mem: &Mem, data: &[u8]) -> Rid {
        assert!(
            data.len() as u32 + crate::page::HEADER_BYTES + 8 <= crate::page::PAGE_SIZE,
            "tuple of {} bytes cannot fit any page",
            data.len()
        );
        mem.exec(25);
        loop {
            if self.insert_cursor >= self.pages.len() {
                self.pages.push(pool.new_page(mem));
            }
            let page_ord = self.insert_cursor;
            let pid = self.pages[page_ord];
            let slot = pool.with_page_mut(mem, pid, |p, base| p.insert(mem, base, data));
            match slot {
                Some(s) => {
                    self.rows += 1;
                    return Rid {
                        page: page_ord as u32,
                        slot: s.0,
                    };
                }
                None => self.insert_cursor += 1,
            }
        }
    }

    /// Visit the tuple at `rid`; returns whether it was live.
    pub fn read(
        &self,
        pool: &mut BufferPool,
        mem: &Mem,
        rid: Rid,
        f: &mut dyn FnMut(&[u8]),
    ) -> bool {
        let Some(&pid) = self.pages.get(rid.page as usize) else {
            return false;
        };
        pool.with_page(mem, pid, |p, base| p.read(mem, base, SlotId(rid.slot), f))
    }

    /// Replace the tuple at `rid`. Falls back to delete+reinsert when the
    /// larger tuple no longer fits its page (forwarding, simplified: the
    /// caller must update its index with the returned Rid).
    pub fn update(
        &mut self,
        pool: &mut BufferPool,
        mem: &Mem,
        rid: Rid,
        data: &[u8],
    ) -> Option<Rid> {
        let &pid = self.pages.get(rid.page as usize)?;
        let ok = pool.with_page_mut(mem, pid, |p, base| {
            p.update(mem, base, SlotId(rid.slot), data)
        });
        if ok {
            return Some(rid);
        }
        // Tuple grew past its page: relocate.
        let existed = pool.with_page_mut(mem, pid, |p, base| p.delete(mem, base, SlotId(rid.slot)));
        if !existed {
            return None;
        }
        self.rows -= 1;
        Some(self.insert(pool, mem, data))
    }

    /// Delete the tuple at `rid`.
    pub fn delete(&mut self, pool: &mut BufferPool, mem: &Mem, rid: Rid) -> bool {
        let Some(&pid) = self.pages.get(rid.page as usize) else {
            return false;
        };
        let gone = pool.with_page_mut(mem, pid, |p, base| p.delete(mem, base, SlotId(rid.slot)));
        if gone {
            self.rows -= 1;
            // Allow future inserts to refill earlier pages.
            self.insert_cursor = self.insert_cursor.min(rid.page as usize);
        }
        gone
    }

    /// Full scan in page order.
    pub fn scan(&self, pool: &mut BufferPool, mem: &Mem, f: &mut dyn FnMut(Rid, &[u8]) -> bool) {
        for (ord, &pid) in self.pages.iter().enumerate() {
            let keep_going = pool.with_page(mem, pid, |p, base| {
                p.scan(mem, base, &mut |slot, d| {
                    f(
                        Rid {
                            page: ord as u32,
                            slot: slot.0,
                        },
                        d,
                    )
                })
            });
            if !keep_going {
                return;
            }
        }
    }
}

impl Default for HeapFile {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_sim::{MachineConfig, Sim};

    fn setup() -> (Mem, BufferPool) {
        let mem = Sim::new(MachineConfig::ivy_bridge(1)).mem(0);
        let pool = BufferPool::new(&mem, 64);
        (mem, pool)
    }

    #[test]
    fn rid_round_trips() {
        let rid = Rid {
            page: 123_456,
            slot: 789,
        };
        assert_eq!(Rid::from_u64(rid.to_u64()), rid);
    }

    #[test]
    fn insert_read_many_pages() {
        let (mem, mut pool) = setup();
        let mut heap = HeapFile::new();
        let rids: Vec<Rid> = (0..1000u32)
            .map(|i| heap.insert(&mut pool, &mem, &i.to_le_bytes()))
            .collect();
        assert!(heap.pages() > 1);
        assert_eq!(heap.rows(), 1000);
        for (i, &rid) in rids.iter().enumerate() {
            let mut got = None;
            assert!(heap.read(&mut pool, &mem, rid, &mut |d| {
                got = Some(u32::from_le_bytes(d[..4].try_into().unwrap()));
            }));
            assert_eq!(got, Some(i as u32));
        }
    }

    #[test]
    fn update_in_place_and_relocating() {
        let (mem, mut pool) = setup();
        let mut heap = HeapFile::new();
        // Fill some of the page so a huge update cannot relocate in-page.
        let _ = heap.insert(&mut pool, &mem, &[9u8; 600]);
        let rid = heap.insert(&mut pool, &mem, &[1u8; 16]);
        // Same-size update keeps the Rid.
        assert_eq!(heap.update(&mut pool, &mem, rid, &[2u8; 16]), Some(rid));
        // An update that outgrows the page relocates to another page.
        let new_rid = heap.update(&mut pool, &mem, rid, &[3u8; 8000]).unwrap();
        assert_ne!(new_rid, rid);
        let mut len = 0;
        heap.read(&mut pool, &mem, new_rid, &mut |d| len = d.len());
        assert_eq!(len, 8000);
        assert_eq!(heap.rows(), 2);
    }

    #[test]
    fn delete_then_scan_skips() {
        let (mem, mut pool) = setup();
        let mut heap = HeapFile::new();
        let rids: Vec<Rid> = (0..10u8)
            .map(|i| heap.insert(&mut pool, &mem, &[i; 8]))
            .collect();
        assert!(heap.delete(&mut pool, &mem, rids[4]));
        assert!(!heap.delete(&mut pool, &mem, rids[4]));
        let mut seen = Vec::new();
        heap.scan(&mut pool, &mem, &mut |_, d| {
            seen.push(d[0]);
            true
        });
        assert_eq!(seen.len(), 9);
        assert!(!seen.contains(&4));
        assert_eq!(heap.rows(), 9);
    }
}
