//! Slotted 8 KB pages.
//!
//! The classical disk-page layout: a header, a slot directory growing from
//! the front, and tuple bytes growing from the back. We keep the real
//! tuple bytes in ordinary Rust memory and mirror the layout onto the
//! page's *simulated* address so that slot-directory probes and tuple
//! reads touch the same lines a real page would.

use bytes::Bytes;
use uarch_sim::Mem;

/// Page size in bytes (Table 1 systems use 8 KB pages; DBMS D explicitly).
pub const PAGE_SIZE: u32 = 8192;
/// Reserved header bytes (LSN, ids, free-space pointers, latch word).
pub const HEADER_BYTES: u32 = 96;
/// Bytes per slot-directory entry (offset + length).
const SLOT_BYTES: u32 = 4;

/// Page identifier within a buffer-pool/disk namespace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

/// Slot number within a page.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SlotId(pub u16);

#[derive(Clone, Debug)]
struct Slot {
    /// Offset of the tuple bytes from the page base (simulated layout).
    offset: u32,
    /// Live tuple, or `None` after deletion.
    data: Option<Bytes>,
}

/// One slotted page. The page's position in simulated memory is owned by
/// the buffer-pool frame it currently occupies and passed in per call.
#[derive(Clone, Debug)]
pub struct Page {
    id: PageId,
    slots: Vec<Slot>,
    /// Next free byte for tuple data (grows from the back downward in real
    /// pages; we grow upward from the header — equivalent for caching).
    free_ptr: u32,
    /// Page LSN (recovery ordering).
    lsn: u64,
}

impl Page {
    /// A fresh empty page.
    pub fn new(id: PageId) -> Self {
        Page {
            id,
            slots: Vec::new(),
            free_ptr: HEADER_BYTES,
            lsn: 0,
        }
    }

    /// Page id.
    pub fn id(&self) -> PageId {
        self.id
    }

    /// Page LSN.
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// Free bytes remaining for one more tuple of `len` bytes.
    pub fn fits(&self, len: u32) -> bool {
        let slot_dir = (self.slots.len() as u32 + 1) * SLOT_BYTES;
        self.free_ptr + len + slot_dir <= PAGE_SIZE
    }

    /// Number of live tuples.
    pub fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.data.is_some()).count()
    }

    /// Insert a tuple; touches the header, the slot directory entry, and
    /// the tuple bytes at `base` (the page's current simulated address).
    /// Returns `None` when the page is full.
    pub fn insert(&mut self, mem: &Mem, base: u64, data: Bytes) -> Option<SlotId> {
        let len = data.len() as u32;
        if !self.fits(len) {
            return None;
        }
        let slot_no = self.slots.len() as u16;
        let offset = self.free_ptr;
        self.free_ptr += len.max(8);
        self.slots.push(Slot {
            offset,
            data: Some(data),
        });
        mem.exec(35);
        mem.write(base, 24); // header: free ptr, slot count, LSN
        mem.write(base + slot_dir_offset(slot_no), SLOT_BYTES);
        mem.write(base + u64::from(offset), len.max(1));
        Some(SlotId(slot_no))
    }

    /// Visit a tuple.
    pub fn read(&self, mem: &Mem, base: u64, slot: SlotId, f: &mut dyn FnMut(&Bytes)) -> bool {
        mem.exec(18);
        mem.read(base, 16); // header
        mem.read(base + slot_dir_offset(slot.0), SLOT_BYTES);
        match self
            .slots
            .get(slot.0 as usize)
            .and_then(|s| s.data.as_ref())
        {
            Some(d) => {
                let off = self.slots[slot.0 as usize].offset;
                mem.read(base + u64::from(off), d.len().max(1) as u32);
                f(d);
                true
            }
            None => false,
        }
    }

    /// Replace a tuple in place. Same-size-or-smaller updates stay in the
    /// slot; larger updates move the tuple to fresh space in the page (or
    /// fail if it does not fit).
    pub fn update(&mut self, mem: &Mem, base: u64, slot: SlotId, data: Bytes) -> bool {
        mem.exec(30);
        mem.read(base, 16);
        mem.read(base + slot_dir_offset(slot.0), SLOT_BYTES);
        let Some(s) = self.slots.get_mut(slot.0 as usize) else {
            return false;
        };
        let Some(old) = &s.data else { return false };
        let new_len = data.len() as u32;
        if new_len > old.len() as u32 {
            // Relocate within the page.
            let slot_dir = self.slots.len() as u32 * SLOT_BYTES;
            if self.free_ptr + new_len + slot_dir > PAGE_SIZE {
                return false;
            }
            let offset = self.free_ptr;
            self.free_ptr += new_len;
            let s = &mut self.slots[slot.0 as usize];
            s.offset = offset;
            s.data = Some(data);
            mem.write(base + slot_dir_offset(slot.0), SLOT_BYTES);
            mem.write(base + u64::from(offset), new_len.max(1));
        } else {
            mem.write(base + u64::from(s.offset), new_len.max(1));
            s.data = Some(data);
        }
        true
    }

    /// Delete a tuple (slot stays; space is not compacted — lazy, like
    /// most real systems between vacuums).
    pub fn delete(&mut self, mem: &Mem, base: u64, slot: SlotId) -> Option<Bytes> {
        mem.exec(20);
        mem.read(base, 16);
        mem.write(base + slot_dir_offset(slot.0), SLOT_BYTES);
        self.slots
            .get_mut(slot.0 as usize)
            .and_then(|s| s.data.take())
    }

    /// Visit every live tuple in slot order (sequential scan of the page).
    pub fn scan(&self, mem: &Mem, base: u64, f: &mut dyn FnMut(SlotId, &Bytes) -> bool) -> bool {
        mem.exec(12);
        mem.read(base, 16);
        for (i, s) in self.slots.iter().enumerate() {
            if let Some(d) = &s.data {
                mem.exec(8);
                mem.read(base + u64::from(s.offset), d.len().max(1) as u32);
                if !f(SlotId(i as u16), d) {
                    return false;
                }
            }
        }
        true
    }
}

fn slot_dir_offset(slot: u16) -> u64 {
    // Slot directory sits right after the header.
    u64::from(HEADER_BYTES) - 64 + u64::from(slot) * u64::from(SLOT_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_sim::{MachineConfig, Sim};

    fn setup() -> (Mem, u64) {
        let sim = Sim::new(MachineConfig::ivy_bridge(1));
        let mem = sim.mem(0);
        let base = mem.alloc(u64::from(PAGE_SIZE), 64);
        (mem, base)
    }

    #[test]
    fn insert_read_update_delete() {
        let (mem, base) = setup();
        let mut p = Page::new(PageId(1));
        let s = p.insert(&mem, base, Bytes::from_static(b"hello")).unwrap();
        let mut got = None;
        assert!(p.read(&mem, base, s, &mut |d| got = Some(d.clone())));
        assert_eq!(got.unwrap().as_ref(), b"hello");
        assert!(p.update(&mem, base, s, Bytes::from_static(b"world!!!")));
        let mut got = None;
        p.read(&mem, base, s, &mut |d| got = Some(d.clone()));
        assert_eq!(got.unwrap().as_ref(), b"world!!!");
        assert_eq!(p.delete(&mem, base, s).unwrap().as_ref(), b"world!!!");
        assert!(!p.read(&mem, base, s, &mut |_| {}));
        assert_eq!(p.live(), 0);
    }

    #[test]
    fn page_fills_up() {
        let (mem, base) = setup();
        let mut p = Page::new(PageId(1));
        let tuple = Bytes::from(vec![7u8; 100]);
        let mut n = 0;
        while p.insert(&mem, base, tuple.clone()).is_some() {
            n += 1;
        }
        // ~ (8192 - 96) / (100 + 4) tuples fit.
        assert!((70..=80).contains(&n), "n={n}");
        assert_eq!(p.live(), n);
    }

    #[test]
    fn scan_visits_live_tuples_in_order() {
        let (mem, base) = setup();
        let mut p = Page::new(PageId(1));
        let slots: Vec<SlotId> = (0..10u8)
            .map(|i| p.insert(&mem, base, Bytes::from(vec![i; 8])).unwrap())
            .collect();
        p.delete(&mem, base, slots[3]);
        let mut seen = Vec::new();
        p.scan(&mem, base, &mut |s, d| {
            seen.push((s.0, d[0]));
            true
        });
        assert_eq!(seen.len(), 9);
        assert!(!seen.iter().any(|&(s, _)| s == 3));
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn oversized_update_relocates_or_fails() {
        let (mem, base) = setup();
        let mut p = Page::new(PageId(1));
        let s = p.insert(&mem, base, Bytes::from(vec![1u8; 16])).unwrap();
        // Grow within capacity: relocates.
        assert!(p.update(&mem, base, s, Bytes::from(vec![2u8; 64])));
        // Grow beyond page capacity: fails, tuple unchanged.
        assert!(!p.update(&mem, base, s, Bytes::from(vec![3u8; 9000])));
        let mut got = None;
        p.read(&mem, base, s, &mut |d| got = Some(d.clone()));
        assert_eq!(got.unwrap().len(), 64);
    }
}
