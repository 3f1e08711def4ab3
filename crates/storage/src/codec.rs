//! Bounds-checked little-endian page codecs.
//!
//! Index crates serialize their nodes through [`PageWriter`] and
//! deserialize through [`PageReader`]. Both are cursor-based and return
//! [`StorageError::PageOverflow`] instead of panicking, so a corrupt or
//! truncated page surfaces as an error rather than a crash.
//!
//! The cursor types pay a bounds check per field, which is fine for
//! whole-node (de)serialization but not for the zero-copy page views
//! of `vp-bptree` and `vp-tpr` that touch a handful of fields per
//! operation. Those use the fixed-offset [`slots`] helpers instead: `#[inline]`
//! load/store of scalars at caller-computed offsets, validated once at
//! view-construction time rather than per access.

use crate::{PageId, StorageError, StorageResult};

pub mod slots {
    //! Fixed-offset scalar access into page buffers.
    //!
    //! These helpers are the codec layer of the zero-copy node views:
    //! a view validates its header (tag, count, page capacity) once,
    //! after which every field offset it computes is in bounds by
    //! construction. Slice indexing still guards against bugs (a wrong
    //! offset panics rather than corrupting memory), but there is no
    //! per-field `Result` plumbing on the hot path.

    use crate::PageId;

    /// Loads a little-endian `u16` at `off`.
    #[inline(always)]
    pub fn get_u16(buf: &[u8], off: usize) -> u16 {
        u16::from_le_bytes(buf[off..off + 2].try_into().unwrap())
    }

    /// Stores a little-endian `u16` at `off`.
    #[inline(always)]
    pub fn put_u16(buf: &mut [u8], off: usize, v: u16) {
        buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Loads a little-endian `u64` at `off`.
    #[inline(always)]
    pub fn get_u64(buf: &[u8], off: usize) -> u64 {
        u64::from_le_bytes(buf[off..off + 8].try_into().unwrap())
    }

    /// Stores a little-endian `u64` at `off`.
    #[inline(always)]
    pub fn put_u64(buf: &mut [u8], off: usize, v: u64) {
        buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Loads a little-endian `f64` at `off`.
    #[inline(always)]
    pub fn get_f64(buf: &[u8], off: usize) -> f64 {
        f64::from_bits(get_u64(buf, off))
    }

    /// Stores a little-endian `f64` at `off`.
    #[inline(always)]
    pub fn put_f64(buf: &mut [u8], off: usize, v: f64) {
        put_u64(buf, off, v.to_bits());
    }

    /// Loads a [`PageId`] at `off`.
    #[inline(always)]
    pub fn get_page_id(buf: &[u8], off: usize) -> PageId {
        PageId(get_u64(buf, off))
    }

    /// Stores a [`PageId`] at `off`.
    #[inline(always)]
    pub fn put_page_id(buf: &mut [u8], off: usize, pid: PageId) {
        put_u64(buf, off, pid.0);
    }

    /// Borrows a fixed-size array at `off`.
    #[inline(always)]
    pub fn get_array<const N: usize>(buf: &[u8], off: usize) -> &[u8; N] {
        buf[off..off + N].try_into().unwrap()
    }

    /// Stores a fixed-size array at `off`.
    #[inline(always)]
    pub fn put_array<const N: usize>(buf: &mut [u8], off: usize, v: &[u8; N]) {
        buf[off..off + N].copy_from_slice(v);
    }
}

/// A write cursor over a page buffer.
#[derive(Debug)]
pub struct PageWriter<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl<'a> PageWriter<'a> {
    /// Creates a writer positioned at the start of `buf`.
    pub fn new(buf: &'a mut [u8]) -> Self {
        PageWriter { buf, pos: 0 }
    }

    /// Current cursor position.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, len: usize) -> StorageResult<&mut [u8]> {
        if self.pos + len > self.buf.len() {
            return Err(StorageError::PageOverflow {
                offset: self.pos,
                len,
                capacity: self.buf.len(),
            });
        }
        let s = &mut self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    /// Writes a `u8`.
    pub fn put_u8(&mut self, v: u8) -> StorageResult<()> {
        self.take(1)?[0] = v;
        Ok(())
    }

    /// Writes a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) -> StorageResult<()> {
        self.take(2)?.copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> StorageResult<()> {
        self.take(4)?.copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> StorageResult<()> {
        self.take(8)?.copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Writes a little-endian `f64`.
    pub fn put_f64(&mut self, v: f64) -> StorageResult<()> {
        self.take(8)?.copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Writes a [`PageId`].
    pub fn put_page_id(&mut self, pid: PageId) -> StorageResult<()> {
        self.put_u64(pid.0)
    }

    /// Writes raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) -> StorageResult<()> {
        self.take(bytes.len())?.copy_from_slice(bytes);
        Ok(())
    }
}

/// A read cursor over a page buffer.
#[derive(Debug)]
pub struct PageReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PageReader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        PageReader { buf, pos: 0 }
    }

    /// Current cursor position.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, len: usize) -> StorageResult<&[u8]> {
        if self.pos + len > self.buf.len() {
            return Err(StorageError::PageOverflow {
                offset: self.pos,
                len,
                capacity: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> StorageResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> StorageResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> StorageResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> StorageResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `f64`.
    pub fn get_f64(&mut self) -> StorageResult<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a [`PageId`].
    pub fn get_page_id(&mut self) -> StorageResult<PageId> {
        Ok(PageId(self.get_u64()?))
    }

    /// Reads `len` raw bytes.
    pub fn get_bytes(&mut self, len: usize) -> StorageResult<&'a [u8]> {
        if self.pos + len > self.buf.len() {
            return Err(StorageError::PageOverflow {
                offset: self.pos,
                len,
                capacity: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let mut buf = vec![0u8; 64];
        let mut w = PageWriter::new(&mut buf);
        w.put_u8(7).unwrap();
        w.put_u16(513).unwrap();
        w.put_u32(70_000).unwrap();
        w.put_u64(1 << 40).unwrap();
        w.put_f64(-3.25).unwrap();
        w.put_page_id(PageId(99)).unwrap();
        w.put_bytes(b"abc").unwrap();
        let end = w.position();

        let mut r = PageReader::new(&buf[..end]);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 513);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_f64().unwrap(), -3.25);
        assert_eq!(r.get_page_id().unwrap(), PageId(99));
        assert_eq!(r.get_bytes(3).unwrap(), b"abc");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn overflow_is_error_not_panic() {
        let mut buf = vec![0u8; 4];
        let mut w = PageWriter::new(&mut buf);
        w.put_u32(1).unwrap();
        assert!(matches!(
            w.put_u8(1),
            Err(StorageError::PageOverflow { .. })
        ));

        let mut r = PageReader::new(&buf);
        r.get_u32().unwrap();
        assert!(r.get_u8().is_err());
    }

    #[test]
    fn special_float_values_round_trip() {
        let mut buf = vec![0u8; 32];
        let mut w = PageWriter::new(&mut buf);
        w.put_f64(f64::INFINITY).unwrap();
        w.put_f64(f64::NEG_INFINITY).unwrap();
        w.put_f64(f64::MIN_POSITIVE).unwrap();
        let mut r = PageReader::new(&buf);
        assert_eq!(r.get_f64().unwrap(), f64::INFINITY);
        assert_eq!(r.get_f64().unwrap(), f64::NEG_INFINITY);
        assert_eq!(r.get_f64().unwrap(), f64::MIN_POSITIVE);
    }

    #[test]
    fn slots_round_trip_and_match_cursor_layout() {
        let mut buf = vec![0u8; 32];
        slots::put_u16(&mut buf, 0, 513);
        slots::put_u64(&mut buf, 2, 1 << 40);
        slots::put_page_id(&mut buf, 10, PageId(77));
        slots::put_array(&mut buf, 18, b"xyz");
        slots::put_f64(&mut buf, 21, -3.25);
        assert_eq!(slots::get_u16(&buf, 0), 513);
        assert_eq!(slots::get_u64(&buf, 2), 1 << 40);
        assert_eq!(slots::get_page_id(&buf, 10), PageId(77));
        assert_eq!(slots::get_array::<3>(&buf, 18), b"xyz");
        assert_eq!(slots::get_f64(&buf, 21), -3.25);

        // Same wire format as the cursor codec.
        let mut r = PageReader::new(&buf);
        assert_eq!(r.get_u16().unwrap(), 513);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_page_id().unwrap(), PageId(77));
        assert_eq!(r.get_bytes(3).unwrap(), b"xyz");
        assert_eq!(r.get_f64().unwrap(), -3.25);
    }

    #[test]
    fn positions_track() {
        let mut buf = vec![0u8; 16];
        let mut w = PageWriter::new(&mut buf);
        assert_eq!(w.remaining(), 16);
        w.put_u64(0).unwrap();
        assert_eq!(w.position(), 8);
        assert_eq!(w.remaining(), 8);
    }
}
