//! A tiny little-endian binary codec: fixed-width integers, booleans, and
//! length-prefixed strings/byte blocks. Every read is bounds-checked and
//! returns a typed [`PersistError`] on short input — the reader never
//! panics, no matter what bytes it is fed.

use crate::error::PersistError;

/// Append-only byte buffer with typed write helpers.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Start an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start an empty buffer that holds `capacity` bytes before it has
    /// to grow: an encoder that knows its output size writes it without
    /// reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Consume the writer and return the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64` (snapshots are portable across widths).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append a boolean as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Append a length-prefixed byte block.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// The error of a read past the end of the input, kept out of line so
/// that the inlined reads stay small.
#[cold]
fn short_read(n: usize, pos: usize, left: usize) -> PersistError {
    PersistError::Malformed(format!(
        "need {n} more bytes at offset {pos}, only {left} left"
    ))
}

/// Bounds-checked cursor over an encoded byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(short_read(n, self.pos, self.remaining()));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a `u64` and narrow it to `usize`, rejecting values that do not
    /// fit (or that exceed the remaining input, which catches absurd
    /// length prefixes early).
    #[inline]
    pub fn usize(&mut self) -> Result<usize, PersistError> {
        let v = self.u64()?;
        usize::try_from(v)
            .map_err(|_| PersistError::Malformed(format!("length {v} exceeds address space")))
    }

    /// Read a boolean byte, rejecting anything other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, PersistError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(PersistError::Malformed(format!("invalid boolean byte {b}"))),
        }
    }

    /// Read a length-prefixed byte block.
    pub fn bytes(&mut self) -> Result<&'a [u8], PersistError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, PersistError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec())
            .map_err(|_| PersistError::Malformed("invalid UTF-8 in string".into()))
    }

    /// Read a length prefix for a collection, guarding against prefixes
    /// that could not possibly fit in the remaining input (each element
    /// occupies at least `min_elem_bytes`).
    #[inline]
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, PersistError> {
        let n = self.usize()?;
        let floor = n.saturating_mul(min_elem_bytes.max(1));
        if floor > self.remaining() {
            return Err(PersistError::Malformed(format!(
                "sequence of {n} elements cannot fit in {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.usize(42);
        w.bool(true);
        w.bool(false);
        w.str("obligation:kexch");
        w.bytes(&[1, 2, 3]);
        let buf = w.into_bytes();

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.usize().unwrap(), 42);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "obligation:kexch");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn short_reads_are_typed_errors() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(r.u64(), Err(PersistError::Malformed(_))));
        // A length prefix pointing past the end of the buffer.
        let mut w = Writer::new();
        w.usize(1_000_000);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.bytes(), Err(PersistError::Malformed(_))));
    }

    #[test]
    fn absurd_sequence_lengths_are_rejected_up_front() {
        let mut w = Writer::new();
        w.usize(u32::MAX as usize);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.seq_len(8), Err(PersistError::Malformed(_))));
    }

    #[test]
    fn invalid_boolean_is_rejected() {
        let mut r = Reader::new(&[2]);
        assert!(matches!(r.bool(), Err(PersistError::Malformed(_))));
    }
}
