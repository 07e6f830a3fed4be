//! Slotted 8 KB pages.
//!
//! The classical disk-page layout: a header, a slot directory growing from
//! the front, and tuple bytes growing from the back. The host copy of a
//! page mirrors that layout: its tuple area is one byte buffer in which
//! byte `o` of the page sits at index `o - HEADER_BYTES`, and a slot is an
//! offset and a length, so a page is two buffers however many tuples it
//! holds. The same layout is mirrored onto the page's *simulated* address,
//! so slot-directory probes and tuple reads touch the same lines a real
//! page would.

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

/// A slot-directory entry: where the tuple starts in the page and how long
/// it is. Both fit 16 bits because a tuple fits the page.
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// Offset of the tuple bytes from the page base (simulated layout).
    offset: u16,
    /// Tuple length, or [`DEAD`] after deletion.
    len: u16,
}

/// `Slot::len` of a deleted tuple (no live tuple is this long).
const DEAD: u16 = u16::MAX;

const _: () = assert!(std::mem::size_of::<Slot>() == SLOT_BYTES as usize);

impl Slot {
    fn live(self) -> Option<(u32, u32)> {
        (self.len != DEAD).then_some((u32::from(self.offset), u32::from(self.len)))
    }
}

/// One slotted page. The page's position in simulated memory is owned by
/// the buffer-pool frame it currently occupies and passed in per call.
#[derive(Clone, Debug)]
pub struct Page {
    id: PageId,
    slots: Vec<Slot>,
    /// The tuple area: page byte `o` at index `o - HEADER_BYTES`, up to
    /// `free_ptr`. Reserved whole at the first insert.
    data: Vec<u8>,
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
            data: Vec::new(),
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
        self.slots.iter().filter(|s| s.len != DEAD).count()
    }

    /// The live tuple in `slot`: its offset and bytes.
    fn tuple(&self, slot: SlotId) -> Option<(u32, &[u8])> {
        let (offset, len) = self.slots.get(slot.0 as usize)?.live()?;
        let at = (offset - HEADER_BYTES) as usize;
        Some((offset, &self.data[at..at + len as usize]))
    }

    /// Write `data` at page offset `offset`, extending the tuple area to
    /// `free_ptr`.
    fn put(&mut self, offset: u32, data: &[u8]) {
        if self.data.capacity() == 0 {
            self.data.reserve_exact((PAGE_SIZE - HEADER_BYTES) as usize);
        }
        self.data.resize((self.free_ptr - HEADER_BYTES) as usize, 0);
        let at = (offset - HEADER_BYTES) as usize;
        self.data[at..at + data.len()].copy_from_slice(data);
    }

    /// Insert a tuple; touches the header, the slot directory entry, and
    /// the tuple bytes at `base` (the page's current simulated address).
    /// Returns `None` when the page is full.
    pub fn insert(&mut self, mem: &Mem, base: u64, data: &[u8]) -> Option<SlotId> {
        let len = data.len() as u32;
        if !self.fits(len) {
            return None;
        }
        let slot_no = self.slots.len() as u16;
        let offset = self.free_ptr;
        self.free_ptr += len.max(8);
        self.slots.push(Slot {
            offset: offset as u16,
            len: len as u16,
        });
        self.put(offset, data);
        mem.exec(35);
        mem.write(base, 24); // header: free ptr, slot count, LSN
        mem.write(base + slot_dir_offset(slot_no), SLOT_BYTES);
        mem.write(base + u64::from(offset), len.max(1));
        Some(SlotId(slot_no))
    }

    /// Visit a tuple.
    pub fn read(&self, mem: &Mem, base: u64, slot: SlotId, f: &mut dyn FnMut(&[u8])) -> bool {
        mem.exec(18);
        mem.read(base, 16); // header
        mem.read(base + slot_dir_offset(slot.0), SLOT_BYTES);
        match self.tuple(slot) {
            Some((offset, d)) => {
                mem.read(base + u64::from(offset), d.len().max(1) as u32);
                f(d);
                true
            }
            None => false,
        }
    }

    /// Replace a tuple in place. Same-size-or-smaller updates stay in the
    /// slot; larger updates move the tuple to fresh space in the page (or
    /// fail if it does not fit).
    pub fn update(&mut self, mem: &Mem, base: u64, slot: SlotId, data: &[u8]) -> bool {
        mem.exec(30);
        mem.read(base, 16);
        mem.read(base + slot_dir_offset(slot.0), SLOT_BYTES);
        let Some((mut offset, old_len)) = self.slots.get(slot.0 as usize).and_then(|s| s.live())
        else {
            return false;
        };
        let new_len = data.len() as u32;
        if new_len > old_len {
            // Relocate within the page.
            let slot_dir = self.slots.len() as u32 * SLOT_BYTES;
            if self.free_ptr + new_len + slot_dir > PAGE_SIZE {
                return false;
            }
            offset = self.free_ptr;
            self.free_ptr += new_len;
            mem.write(base + slot_dir_offset(slot.0), SLOT_BYTES);
        }
        mem.write(base + u64::from(offset), new_len.max(1));
        self.slots[slot.0 as usize] = Slot {
            offset: offset as u16,
            len: new_len as u16,
        };
        self.put(offset, data);
        true
    }

    /// Delete a tuple (slot stays; space is not compacted — lazy, like
    /// most real systems between vacuums). Returns whether it was live.
    pub fn delete(&mut self, mem: &Mem, base: u64, slot: SlotId) -> bool {
        mem.exec(20);
        mem.read(base, 16);
        mem.write(base + slot_dir_offset(slot.0), SLOT_BYTES);
        match self.slots.get_mut(slot.0 as usize) {
            Some(s) if s.len != DEAD => {
                s.len = DEAD;
                true
            }
            _ => false,
        }
    }

    /// Visit every live tuple in slot order (sequential scan of the page).
    pub fn scan(&self, mem: &Mem, base: u64, f: &mut dyn FnMut(SlotId, &[u8]) -> bool) -> bool {
        mem.exec(12);
        mem.read(base, 16);
        for i in 0..self.slots.len() {
            let slot = SlotId(i as u16);
            if let Some((offset, d)) = self.tuple(slot) {
                mem.exec(8);
                mem.read(base + u64::from(offset), d.len().max(1) as u32);
                if !f(slot, d) {
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
    use crate::twin::{Rng, Twin};
    use uarch_sim::{MachineConfig, Sim};

    fn setup() -> (Mem, u64) {
        let sim = Sim::new(MachineConfig::ivy_bridge(1));
        let mem = sim.mem(0);
        let base = mem.alloc(u64::from(PAGE_SIZE), 64);
        (mem, base)
    }

    fn read_vec(p: &Page, mem: &Mem, base: u64, s: SlotId) -> Option<Vec<u8>> {
        let mut got = None;
        p.read(mem, base, s, &mut |d| got = Some(d.to_vec()));
        got
    }

    #[test]
    fn insert_read_update_delete() {
        let (mem, base) = setup();
        let mut p = Page::new(PageId(1));
        let s = p.insert(&mem, base, b"hello").unwrap();
        assert_eq!(read_vec(&p, &mem, base, s).unwrap(), b"hello");
        assert!(p.update(&mem, base, s, b"world!!!"));
        assert_eq!(read_vec(&p, &mem, base, s).unwrap(), b"world!!!");
        assert!(p.delete(&mem, base, s));
        assert!(!p.delete(&mem, base, s));
        assert!(!p.read(&mem, base, s, &mut |_| {}));
        assert_eq!(p.live(), 0);
    }

    #[test]
    fn page_fills_up() {
        let (mem, base) = setup();
        let mut p = Page::new(PageId(1));
        let tuple = vec![7u8; 100];
        let mut n = 0;
        while p.insert(&mem, base, &tuple).is_some() {
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
            .map(|i| p.insert(&mem, base, &[i; 8]).unwrap())
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
        let s = p.insert(&mem, base, &[1u8; 16]).unwrap();
        // Grow within capacity: relocates.
        assert!(p.update(&mem, base, s, &[2u8; 64]));
        // Grow beyond page capacity: fails, tuple unchanged.
        assert!(!p.update(&mem, base, s, &[3u8; 9000]));
        assert_eq!(read_vec(&p, &mem, base, s).unwrap(), [2u8; 64]);
    }

    #[test]
    fn tuple_bytes_sit_at_their_page_offset_less_the_header() {
        let (mem, base) = setup();
        let mut p = Page::new(PageId(1));
        let a = p.insert(&mem, base, b"abc").unwrap();
        let b = p.insert(&mem, base, &[9u8; 40]).unwrap();
        assert!(p.update(&mem, base, a, b"longer than three"));
        for s in [a, b] {
            let (offset, len) = p.slots[s.0 as usize].live().unwrap();
            let at = (offset - HEADER_BYTES) as usize;
            assert_eq!(
                &p.data[at..at + len as usize],
                &read_vec(&p, &mem, base, s).unwrap()[..]
            );
        }
        // `abc` padded to 8 bytes, then 40, then the relocated 17.
        assert_eq!(p.slots[a.0 as usize].offset, 96 + 8 + 40);
        assert_eq!(p.data.len(), 8 + 40 + 17);
        assert_eq!(p.data.capacity(), (PAGE_SIZE - HEADER_BYTES) as usize);
    }

    /// The longest tuple a page still takes (`fits` is monotone).
    fn room(fits: impl Fn(u32) -> bool) -> Option<u32> {
        fits(0).then(|| {
            let (mut lo, mut hi) = (0, PAGE_SIZE); // fits(lo), !fits(hi)
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                if fits(mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            lo
        })
    }

    /// Drive the page and its per-tuple-`Bytes` reference from one seeded
    /// op stream on two machines: every op returns the same, shows the
    /// same bytes and charges the same simulated events.
    #[test]
    fn matches_the_per_tuple_reference() {
        use bytes::Bytes;
        let twin = Twin::new();
        let [mem, ref_mem] = &twin.mems;
        let base = mem.alloc(u64::from(PAGE_SIZE), 64);
        assert_eq!(base, ref_mem.alloc(u64::from(PAGE_SIZE), 64));
        let mut rng = Rng::new(0x5107);
        // Paths the stream must reach: page full, relocation, update
        // refused for room, read of a dead slot, scan stopped early.
        let mut seen = [0u32; 5];
        for page in 0..60 {
            let mut p = Page::new(PageId(page));
            let mut r = reference::Page::new(PageId(page));
            let mut lens: Vec<usize> = Vec::new();
            for step in 0..120 {
                let ctx = format!("page {page} step {step}");
                let slot = SlotId(rng.below(lens.len() as u64 + 2) as u16);
                match rng.below(10) {
                    0..=2 => {
                        let row = rng.row();
                        let len = row.len();
                        let got = p.insert(mem, base, &row);
                        assert_eq!(got, r.insert(ref_mem, base, Bytes::from(row)), "{ctx}");
                        match got {
                            Some(_) => lens.push(len),
                            None => seen[0] += 1,
                        }
                    }
                    3..=5 => {
                        let old = lens.get(slot.0 as usize).copied().unwrap_or(0);
                        let len = rng.update_len(old);
                        let row = rng.bytes(len);
                        let live = r.read(ref_mem, base, slot, &mut |_| {});
                        assert!(live == p.read(mem, base, slot, &mut |_| {}), "{ctx}");
                        let got = p.update(mem, base, slot, &row);
                        let want = r.update(ref_mem, base, slot, Bytes::from(row));
                        assert_eq!(got, want, "{ctx}");
                        if got {
                            seen[1] += u32::from(len > old);
                            lens[slot.0 as usize] = len;
                        } else {
                            seen[2] += u32::from(live);
                        }
                    }
                    6 => {
                        let want = r.delete(ref_mem, base, slot).is_some();
                        assert_eq!(p.delete(mem, base, slot), want, "{ctx}");
                    }
                    7 | 8 => {
                        let mut got = None;
                        let hit = p.read(mem, base, slot, &mut |d| got = Some(d.to_vec()));
                        let mut want = None;
                        let ref_hit = r.read(ref_mem, base, slot, &mut |d| want = Some(d.to_vec()));
                        assert_eq!((hit, got), (ref_hit, want), "{ctx}");
                        seen[3] += u32::from(!hit && (slot.0 as usize) < lens.len());
                    }
                    _ => {
                        let stop = rng.below(lens.len() as u64 + 1);
                        let (mut got, mut want) = (Vec::new(), Vec::new());
                        let done = p.scan(mem, base, &mut |s, d| {
                            got.push((s, d.to_vec()));
                            (got.len() as u64) < stop
                        });
                        let ref_done = r.scan(ref_mem, base, &mut |s, d| {
                            want.push((s, d.to_vec()));
                            (want.len() as u64) < stop
                        });
                        assert_eq!((done, got), (ref_done, want), "{ctx}");
                        seen[4] += u32::from(!done);
                    }
                }
                assert_eq!(p.live(), r.live(), "{ctx}");
                assert_eq!(room(|l| p.fits(l)), room(|l| r.fits(l)), "{ctx}");
                assert_eq!((p.id(), p.lsn()), (r.id(), r.lsn()), "{ctx}");
                twin.assert_same(&ctx);
            }
        }
        assert!(seen.iter().all(|&n| n > 10), "paths reached: {seen:?}");
    }

    /// The page as it was before the tuple area became one buffer: one
    /// `Bytes` per tuple. Kept verbatim as the differential tests' reference.
    mod reference {
        use bytes::Bytes;
        use uarch_sim::Mem;

        use crate::page::{slot_dir_offset, PageId, SlotId, HEADER_BYTES, PAGE_SIZE, SLOT_BYTES};

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
            pub fn read(
                &self,
                mem: &Mem,
                base: u64,
                slot: SlotId,
                f: &mut dyn FnMut(&Bytes),
            ) -> bool {
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
            pub fn scan(
                &self,
                mem: &Mem,
                base: u64,
                f: &mut dyn FnMut(SlotId, &Bytes) -> bool,
            ) -> bool {
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
    }
}
