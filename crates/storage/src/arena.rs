//! Host storage of rows in fixed-size chunks that never move.
//!
//! The in-memory row stores ([`crate::memstore::MemStore`],
//! [`crate::mvcc::VersionStore`]) keep no heap block per row: a row's
//! bytes are appended to the store's [`Arena`] and its fixed-size record
//! (slot or version) to the store's [`Records`], and the record remembers
//! where the bytes are (an [`ArenaPos`]) and how many. Both grow one
//! chunk at a time and never reallocate a chunk, so a load never copies
//! what it already stored, never holds an old and a doubled buffer at
//! once, and dropping a store frees hundreds of buffers, not one per
//! row. Like the simulated bump allocator the stores mirror, the arena
//! only appends: bytes a row leaves behind (a growing update, a delete)
//! stay until the store is dropped.
//!
//! Host layout only: no simulated address is derived from a position.

use std::ops::{Index, IndexMut};

/// Bytes per arena chunk. A row longer than this gets a chunk of its own.
pub const CHUNK_BYTES: usize = 64 * 1024;

/// Where a row's bytes sit: chunk index in the high 32 bits, offset within
/// the chunk in the low 32.
pub type ArenaPos = u64;

/// An append-only byte arena (see the module docs).
#[derive(Default)]
pub struct Arena {
    chunks: Vec<Vec<u8>>,
    /// The chunk that takes the next row that fits one.
    tail: usize,
}

impl Arena {
    /// An empty arena (the first chunk is allocated by the first push).
    pub fn new() -> Self {
        Self::default()
    }

    /// Append `bytes`; returns where they landed.
    pub fn push(&mut self, bytes: &[u8]) -> ArenaPos {
        if bytes.len() > CHUNK_BYTES {
            self.chunks.push(bytes.to_vec());
            return pos(self.chunks.len() - 1, 0);
        }
        let full = self
            .chunks
            .get(self.tail)
            .is_none_or(|c| CHUNK_BYTES - c.len() < bytes.len());
        if full {
            self.chunks.push(Vec::with_capacity(CHUNK_BYTES));
            self.tail = self.chunks.len() - 1;
        }
        let chunk = &mut self.chunks[self.tail];
        let off = chunk.len();
        chunk.extend_from_slice(bytes);
        pos(self.tail, off)
    }

    /// The `len` bytes at `at`.
    pub fn get(&self, at: ArenaPos, len: u32) -> &[u8] {
        let (chunk, off) = split(at);
        &self.chunks[chunk][off..off + len as usize]
    }

    /// The `len` bytes at `at`, for an in-place overwrite.
    pub fn get_mut(&mut self, at: ArenaPos, len: u32) -> &mut [u8] {
        let (chunk, off) = split(at);
        &mut self.chunks[chunk][off..off + len as usize]
    }

    /// Host buffers held (tests and layout checks).
    pub fn chunks(&self) -> usize {
        self.chunks.len()
    }
}

/// Records per [`Records`] chunk: 80 KB of 40-byte versions, under
/// glibc's default 128 KB mmap threshold like an arena chunk.
pub const RECORDS_PER_CHUNK: usize = 2048;

/// Fixed-size records (row slots, versions, chain heads) addressed by
/// `u32` position, appended into chunks of [`RECORDS_PER_CHUNK`].
pub struct Records<T> {
    chunks: Vec<Vec<T>>,
}

impl<T> Records<T> {
    /// No records (the first chunk is allocated by the first push).
    pub fn new() -> Self {
        Records { chunks: Vec::new() }
    }

    /// Records pushed.
    pub fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |c| (self.chunks.len() - 1) * RECORDS_PER_CHUNK + c.len())
    }

    /// Whether no record was pushed.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Append `record`; returns its position.
    pub fn push(&mut self, record: T) -> u32 {
        let at = self.len() as u32;
        match self.chunks.last_mut() {
            Some(c) if c.len() < RECORDS_PER_CHUNK => c.push(record),
            _ => {
                let mut c = Vec::with_capacity(RECORDS_PER_CHUNK);
                c.push(record);
                self.chunks.push(c);
            }
        }
        at
    }

    /// The record at `at`, if one was pushed there.
    pub fn get(&self, at: u32) -> Option<&T> {
        let at = at as usize;
        self.chunks
            .get(at / RECORDS_PER_CHUNK)?
            .get(at % RECORDS_PER_CHUNK)
    }

    /// The record at `at`, if one was pushed there.
    pub fn get_mut(&mut self, at: u32) -> Option<&mut T> {
        let at = at as usize;
        self.chunks
            .get_mut(at / RECORDS_PER_CHUNK)?
            .get_mut(at % RECORDS_PER_CHUNK)
    }

    /// Host buffers held (tests and layout checks).
    pub fn chunks(&self) -> usize {
        self.chunks.len()
    }
}

impl<T> Default for Records<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Index<u32> for Records<T> {
    type Output = T;

    fn index(&self, at: u32) -> &T {
        self.get(at).expect("record position out of range")
    }
}

impl<T> IndexMut<u32> for Records<T> {
    fn index_mut(&mut self, at: u32) -> &mut T {
        self.get_mut(at).expect("record position out of range")
    }
}

fn pos(chunk: usize, off: usize) -> ArenaPos {
    ((chunk as u64) << 32) | off as u64
}

fn split(at: ArenaPos) -> (usize, usize) {
    ((at >> 32) as usize, (at & 0xFFFF_FFFF) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_across_chunks() {
        let mut a = Arena::new();
        let rows: Vec<Vec<u8>> = (0..5000u32)
            .map(|i| vec![i as u8; (i % 97) as usize])
            .collect();
        let at: Vec<ArenaPos> = rows.iter().map(|r| a.push(r)).collect();
        for (r, &p) in rows.iter().zip(&at) {
            assert_eq!(a.get(p, r.len() as u32), &r[..]);
        }
        let total: usize = rows.iter().map(Vec::len).sum();
        assert!(
            a.chunks() <= total / CHUNK_BYTES + 2,
            "{} chunks",
            a.chunks()
        );
    }

    #[test]
    fn oversized_rows_get_their_own_chunk_and_the_tail_stays() {
        let mut a = Arena::new();
        let small = a.push(b"abc");
        let big = a.push(&vec![7u8; CHUNK_BYTES + 1]);
        let next = a.push(b"def");
        assert_eq!(a.chunks(), 2);
        assert_eq!(split(next).0, split(small).0);
        assert_eq!(a.get(big, CHUNK_BYTES as u32 + 1).len(), CHUNK_BYTES + 1);
        a.get_mut(next, 3).copy_from_slice(b"xyz");
        assert_eq!(a.get(next, 3), b"xyz");
        assert_eq!(a.get(small, 3), b"abc");
    }

    #[test]
    fn records_fill_whole_chunks_in_order() {
        let mut r = Records::new();
        assert!(r.is_empty());
        for i in 0..3 * RECORDS_PER_CHUNK as u32 + 1 {
            assert_eq!(r.push(i * 3), i);
        }
        assert_eq!(r.len(), 3 * RECORDS_PER_CHUNK + 1);
        assert_eq!(r.chunks(), 4);
        let last = r.len() as u32 - 1;
        assert_eq!(r[last], last * 3);
        r[5] = 7;
        assert_eq!(r.get(5), Some(&7));
        assert_eq!(r.get(last + 1), None);
    }

    #[test]
    fn chunks_never_reallocate() {
        let mut a = Arena::new();
        let first = a.push(&[1u8; 100]);
        let ptr = a.get(first, 100).as_ptr();
        for _ in 0..(CHUNK_BYTES / 100) * 3 {
            a.push(&[2u8; 100]);
        }
        assert_eq!(a.get(first, 100).as_ptr(), ptr);
    }
}
