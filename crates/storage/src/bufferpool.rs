//! Buffer pool with clock eviction.
//!
//! The component the in-memory systems famously omit (§2.1): it gives the
//! disk-based engines the "illusion of an infinite main-memory" at the
//! price of an indirection on every page access — a hashed page-table
//! probe, a frame-latch word, and frame metadata — all of which touch
//! simulated memory here. A page's simulated address is its *frame's*
//! data region, so pages move in the cache hierarchy when they are
//! evicted and re-fetched, exactly like a real pool.
//!
//! Experiments size the pool to hold the whole database (the paper keeps
//! data memory-resident and uses asynchronous logging, so there is never
//! I/O on the critical path); eviction is nevertheless fully implemented
//! and tested.

use uarch_sim::rng::IntMap;
use uarch_sim::Mem;

use crate::page::{Page, PageId, PAGE_SIZE};

struct Frame {
    page: Option<Page>,
    pinned: bool,
    referenced: bool,
    dirty: bool,
    /// Simulated address of the frame's page data.
    data_addr: u64,
    /// Simulated address of the frame header (latch word + metadata).
    meta_addr: u64,
}

/// A clock-replacement buffer pool over a simulated "disk".
pub struct BufferPool {
    frames: Vec<Frame>,
    /// page id -> frame index.
    table: IntMap<PageId, usize>,
    /// Simulated base of the hashed page-table directory.
    table_addr: u64,
    table_slots: u64,
    clock: usize,
    /// Pages currently on "disk" (evicted or never loaded).
    disk: IntMap<PageId, Page>,
    next_page: u64,
    /// Statistics: pool hits / misses (disk fetches) / evictions.
    pub hits: u64,
    /// Pages fetched from disk.
    pub fetches: u64,
    /// Pages evicted.
    pub evictions: u64,
}

impl BufferPool {
    /// A pool with `capacity` frames.
    pub fn new(mem: &Mem, capacity: usize) -> Self {
        assert!(capacity >= 2, "pool needs at least two frames");
        let table_slots = (capacity as u64 * 2).next_power_of_two();
        let table_addr = mem.alloc(table_slots * 16, 64);
        let frames = (0..capacity)
            .map(|_| Frame {
                page: None,
                pinned: false,
                referenced: false,
                dirty: false,
                data_addr: mem.alloc(u64::from(PAGE_SIZE), 64),
                meta_addr: mem.alloc(64, 64),
            })
            .collect();
        BufferPool {
            frames,
            table: IntMap::default(),
            table_addr,
            table_slots,
            clock: 0,
            disk: IntMap::default(),
            next_page: 1,
            hits: 0,
            fetches: 0,
            evictions: 0,
        }
    }

    /// Allocate a fresh page (resident immediately).
    pub fn new_page(&mut self, mem: &Mem) -> PageId {
        let pid = PageId(self.next_page);
        self.next_page += 1;
        let frame = self.grab_frame(mem);
        self.install(mem, frame, Page::new(pid));
        mem.exec(60);
        pid
    }

    /// Touch the hashed page-table slot for `pid`.
    fn touch_table(&self, mem: &Mem, pid: PageId) {
        let h =
            pid.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - self.table_slots.trailing_zeros());
        mem.read(self.table_addr + h * 16, 16);
    }

    /// Run the page through the pool, returning its frame index.
    fn frame_for(&mut self, mem: &Mem, pid: PageId) -> usize {
        mem.exec(40); // hash probe + pin bookkeeping
        self.touch_table(mem, pid);
        if let Some(&f) = self.table.get(&pid) {
            self.hits += 1;
            self.frames[f].referenced = true;
            // Latch the frame (a write to the latch word).
            mem.write(self.frames[f].meta_addr, 8);
            return f;
        }
        // Miss: fetch from disk into a victim frame.
        self.fetches += 1;
        mem.exec(220); // miss path: I/O request setup (async, no latency)
        let page = self
            .disk
            .remove(&pid)
            .unwrap_or_else(|| panic!("page {pid:?} does not exist"));
        let f = self.grab_frame(mem);
        self.install_with_id(mem, f, page, pid);
        f
    }

    fn grab_frame(&mut self, mem: &Mem) -> usize {
        let n = self.frames.len();
        for _ in 0..2 * n + 1 {
            let f = self.clock;
            self.clock = (self.clock + 1) % n;
            let fr = &mut self.frames[f];
            if fr.pinned {
                continue;
            }
            if fr.page.is_none() {
                return f;
            }
            if fr.referenced {
                fr.referenced = false;
                mem.write(fr.meta_addr, 8);
                continue;
            }
            // Evict.
            self.evictions += 1;
            let page = fr.page.take().expect("checked above");
            let pid = page.id();
            self.table.remove(&pid);
            if fr.dirty {
                // Write-back touches the page once (async I/O).
                mem.read(fr.data_addr, 256);
                fr.dirty = false;
            }
            self.disk.insert(pid, page);
            mem.exec(120);
            return f;
        }
        panic!("buffer pool livelock: all frames pinned");
    }

    fn install(&mut self, mem: &Mem, frame: usize, page: Page) {
        let pid = page.id();
        self.install_with_id(mem, frame, page, pid);
    }

    fn install_with_id(&mut self, mem: &Mem, frame: usize, page: Page, pid: PageId) {
        self.table.insert(pid, frame);
        let fr = &mut self.frames[frame];
        fr.page = Some(page);
        fr.referenced = true;
        fr.dirty = false;
        mem.write(fr.meta_addr, 16);
        // "Reading the page from disk" lands its first lines in cache.
        mem.write(fr.data_addr, 256);
    }

    /// Access a page immutably.
    pub fn with_page<R>(&mut self, mem: &Mem, pid: PageId, f: impl FnOnce(&Page, u64) -> R) -> R {
        let fr = self.frame_for(mem, pid);
        let frame = &self.frames[fr];
        f(
            frame.page.as_ref().expect("just installed"),
            frame.data_addr,
        )
    }

    /// Access a page mutably (marks the frame dirty).
    pub fn with_page_mut<R>(
        &mut self,
        mem: &Mem,
        pid: PageId,
        f: impl FnOnce(&mut Page, u64) -> R,
    ) -> R {
        let fr = self.frame_for(mem, pid);
        let frame = &mut self.frames[fr];
        frame.dirty = true;
        f(
            frame.page.as_mut().expect("just installed"),
            frame.data_addr,
        )
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        self.table.len()
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
    fn pages_survive_eviction() {
        let mem = mem();
        let mut pool = BufferPool::new(&mem, 4);
        let pids: Vec<PageId> = (0..16)
            .map(|i| {
                let pid = pool.new_page(&mem);
                pool.with_page_mut(&mem, pid, |p, base| {
                    p.insert(&mem, base, &[i as u8; 16]).unwrap()
                });
                pid
            })
            .collect();
        assert!(pool.evictions > 0);
        // Every page's data is intact after round-tripping through "disk".
        for (i, &pid) in pids.iter().enumerate() {
            let val = pool.with_page(&mem, pid, |p, base| {
                let mut v = None;
                p.read(&mem, base, crate::page::SlotId(0), &mut |d| v = Some(d[0]));
                v.unwrap()
            });
            assert_eq!(val, i as u8);
        }
    }

    #[test]
    fn hits_do_not_fetch() {
        let mem = mem();
        let mut pool = BufferPool::new(&mem, 8);
        let pid = pool.new_page(&mem);
        let before = pool.fetches;
        for _ in 0..10 {
            pool.with_page(&mem, pid, |_, _| {});
        }
        assert_eq!(pool.fetches, before);
        assert!(pool.hits >= 10);
    }

    #[test]
    fn clock_gives_second_chance() {
        let mem = mem();
        let mut pool = BufferPool::new(&mem, 3);
        let a = pool.new_page(&mem);
        let _b = pool.new_page(&mem);
        let _c = pool.new_page(&mem);
        // Keep touching `a`; allocate new pages to force evictions.
        for _ in 0..5 {
            pool.with_page(&mem, a, |_, _| {});
            let _ = pool.new_page(&mem);
        }
        // `a` should still be resident thanks to its reference bit.
        let before = pool.fetches;
        pool.with_page(&mem, a, |_, _| {});
        assert_eq!(pool.fetches, before, "hot page was evicted");
    }

    #[test]
    fn page_address_changes_across_eviction() {
        // Pages live at frame addresses: after eviction+reload a page may
        // land elsewhere — observable (and realistic) cache behaviour.
        let mem = mem();
        let mut pool = BufferPool::new(&mem, 2);
        let a = pool.new_page(&mem);
        let addr1 = pool.with_page(&mem, a, |_, base| base);
        // Force `a` out with two new pages, then bring it back.
        let _ = pool.new_page(&mem);
        let _ = pool.new_page(&mem);
        let addr2 = pool.with_page(&mem, a, |_, base| base);
        // Both are valid frame addresses (may or may not differ); the pool
        // must still find the page.
        assert!(addr1 != 0 && addr2 != 0);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn unknown_page_panics() {
        let mem = mem();
        let mut pool = BufferPool::new(&mem, 2);
        pool.with_page(&mem, PageId(999), |_, _| {});
    }
}
