//! Offline stand-in for the `bytes` crate (the 1.x API subset used here).
//!
//! The build container cannot reach crates.io, so the workspace ships this
//! shim. `Bytes` is an `Arc<[u8]>` — clones are cheap and shared, which is
//! the property the engines rely on when buffering write sets. `BytesMut`
//! is a plain `Vec<u8>` builder. `Buf`/`BufMut` cover exactly the accessor
//! set the tuple codec uses (big-endian u16, little-endian i64, u8, slices).

use std::ops::Deref;
use std::sync::Arc;

/// Cheaply-cloneable immutable byte buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// Empty buffer.
    pub fn new() -> Self {
        Bytes {
            data: Arc::from(&[][..]),
        }
    }

    /// Buffer backed by a static slice (copied; cheapness of `from_static`
    /// is not load-bearing in this repository).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes {
            data: Arc::from(bytes),
        }
    }

    /// Buffer holding a copy of `data`: one allocation, one copy.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: Arc::from(data),
        }
    }

    /// Copy of the contents as an owned `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.to_vec()
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes {
            data: Arc::from(v.into_boxed_slice()),
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &*self.data == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        &*self.data == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        &*self.data == other.as_slice()
    }
}

/// Growable byte buffer; `freeze` converts to [`Bytes`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut { data: Vec::new() }
    }

    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(capacity),
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Empty the buffer, keeping its allocation.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Append a copy of `extend`.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.data.extend_from_slice(extend);
    }

    /// Convert into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// Read cursor over a contiguous byte source (single-chunk subset).
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    fn get_u16(&mut self) -> u16 {
        let c = self.chunk();
        let v = u16::from_be_bytes([c[0], c[1]]);
        self.advance(2);
        v
    }

    fn get_u32(&mut self) -> u32 {
        let c = self.chunk();
        let v = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        self.advance(4);
        v
    }

    fn get_u64(&mut self) -> u64 {
        let c = self.chunk();
        let v = u64::from_be_bytes(c[..8].try_into().unwrap());
        self.advance(8);
        v
    }

    fn get_i64_le(&mut self) -> i64 {
        let c = self.chunk();
        let v = i64::from_le_bytes(c[..8].try_into().unwrap());
        self.advance(8);
        v
    }

    fn get_u64_le(&mut self) -> u64 {
        let c = self.chunk();
        let v = u64::from_le_bytes(c[..8].try_into().unwrap());
        self.advance(8);
        v
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Append-style writer (the subset the tuple codec uses).
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_matches_upstream_wire_format() {
        let mut b = BytesMut::with_capacity(32);
        b.put_u16(0xBEEF);
        b.put_u8(7);
        b.put_i64_le(-42);
        b.put_slice(b"hey");
        let frozen = b.freeze();
        assert_eq!(frozen.len(), 2 + 1 + 8 + 3);

        let mut r: &[u8] = &frozen;
        assert_eq!(r.get_u16(), 0xBEEF);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_i64_le(), -42);
        assert_eq!(r.remaining(), 3);
        r.advance(1);
        assert_eq!(r, b"ey");
    }

    #[test]
    fn bytes_clone_is_shared() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.as_ref(), &[1, 2, 3]);
        assert_eq!(Bytes::from_static(b"xy").to_vec(), vec![b'x', b'y']);
        assert!(Bytes::new().is_empty());
    }
}
