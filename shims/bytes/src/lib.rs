//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! ships the slice of the `bytes 1.x` API its wire protocol uses:
//! [`Bytes`] (a cheaply cloneable, sliceable, immutable byte buffer that
//! shares the `Vec<u8>` it was built from behind an `Arc`), [`BytesMut`]
//! (a growable builder that freezes into `Bytes`), and the [`Buf`] /
//! [`BufMut`] cursor traits with the little-endian accessors the framing
//! layer needs.
//!
//! As upstream, converting a `Vec<u8>` (or freezing a `BytesMut`) takes
//! ownership of its heap buffer without copying the bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, cheaply cloneable byte buffer.
///
/// Clones and [`slice`](Bytes::slice)s share the underlying allocation.
#[derive(Clone, Default)]
pub struct Bytes {
    /// The owned buffer; `None` for an empty `Bytes`, which never allocates.
    data: Option<Arc<Vec<u8>>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer (no allocation).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A buffer over a static byte string.
    #[must_use]
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Self::from(bytes.to_vec())
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-buffer sharing the same allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or decreasing.
    #[must_use]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let lo = match range.start_bound() {
            Bound::Included(&i) => i,
            Bound::Excluded(&i) => i + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&i) => i + 1,
            Bound::Excluded(&i) => i,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Self {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes ownership of the vector's heap buffer: no byte is copied.
    fn from(v: Vec<u8>) -> Self {
        if v.is_empty() {
            return Self::new();
        }
        let end = v.len();
        Self {
            data: Some(Arc::new(v)),
            start: 0,
            end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.data {
            Some(data) => &data[self.start..self.end],
            None => &[],
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes(len={})", self.len())
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    inner: Vec<u8>,
}

impl BytesMut {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder with reserved capacity.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            inner: Vec::with_capacity(cap),
        }
    }

    /// Current length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Converts the accumulated bytes into an immutable [`Bytes`] over the
    /// same heap buffer (no copy).
    #[must_use]
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.inner)
    }
}

/// Read cursor over a byte buffer.
///
/// The `get_*` methods consume from the front; callers must check
/// [`remaining`](Buf::remaining) first (the accessors panic when short,
/// as in the upstream crate).
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Consumes `n` bytes from the front.
    fn advance(&mut self, n: usize);

    /// The unread bytes.
    fn chunk(&self) -> &[u8];

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let v = u32::from_le_bytes(self.chunk()[..4].try_into().expect("4 bytes"));
        self.advance(4);
        v
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.chunk()[..8].try_into().expect("8 bytes"));
        self.advance(8);
        v
    }

    /// Consumes `n` bytes and returns them as an owned [`Bytes`].
    fn copy_to_bytes(&mut self, n: usize) -> Bytes {
        let out = Bytes::from(self.chunk()[..n].to_vec());
        self.advance(n);
        out
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end");
        self.start += n;
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn copy_to_bytes(&mut self, n: usize) -> Bytes {
        let out = self.slice(..n);
        self.advance(n);
        out
    }
}

/// Write cursor appending to a byte buffer.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.inner.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_freeze_read_round_trip() {
        let mut b = BytesMut::with_capacity(16);
        b.put_u8(7);
        b.put_u32_le(0xDEAD_BEEF);
        b.put_u64_le(42);
        b.put_slice(&[1, 2, 3]);
        let mut bytes = b.freeze();
        assert_eq!(bytes.len(), 16);
        assert_eq!(bytes.get_u8(), 7);
        assert_eq!(bytes.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(bytes.get_u64_le(), 42);
        assert_eq!(&bytes.copy_to_bytes(3)[..], &[1, 2, 3]);
        assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn slices_share_and_compare_by_content() {
        let a = Bytes::from(vec![1, 2, 3, 4, 5]);
        let mid = a.slice(1..4);
        assert_eq!(&mid[..], &[2, 3, 4]);
        assert_eq!(mid, Bytes::from(vec![2, 3, 4]));
        assert_eq!(a.slice(..0).len(), 0);
        assert_eq!(a.slice(..), a);
    }

    #[test]
    fn copy_to_bytes_advances_shared_view() {
        let mut a = Bytes::from(vec![9, 8, 7, 6]);
        let head = a.copy_to_bytes(2);
        assert_eq!(&head[..], &[9, 8]);
        assert_eq!(&a[..], &[7, 6]);
    }

    #[test]
    fn conversion_keeps_the_vec_heap_buffer() {
        let v = vec![7u8; 4096];
        let heap = v.as_ptr();
        let bytes = Bytes::from(v);
        assert_eq!(bytes.as_ptr(), heap, "Bytes::from(Vec) must not copy");
        assert_eq!(bytes.slice(8..).as_ptr(), heap.wrapping_add(8));

        let mut b = BytesMut::with_capacity(64);
        b.put_slice(&[1, 2, 3]);
        let heap = b.inner.as_ptr();
        assert_eq!(b.freeze().as_ptr(), heap, "freeze must not copy");
    }

    #[test]
    fn empty_buffers_compare_equal_however_made() {
        assert_eq!(Bytes::from(Vec::new()), Bytes::new());
        assert_eq!(Bytes::from(vec![1, 2]).slice(1..1), Bytes::new());
        assert!(Bytes::new().is_empty());
        assert_eq!(&Bytes::default()[..], &[] as &[u8]);
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn out_of_bounds_slice_panics() {
        let _ = Bytes::from(vec![1]).slice(0..2);
    }
}
