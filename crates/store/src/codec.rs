//! Little-endian payload primitives shared by every section codec.
//!
//! The artifact container ([`format`](crate::format)) treats section
//! payloads as opaque bytes; whatever produces a payload — this crate's
//! [`persist`](crate::persist) codecs or a downstream crate serializing
//! its own types (e.g. `qce`'s stage reports) — builds it with
//! [`ByteWriter`] and decodes it with [`ByteReader`]. Keeping both here
//! means every payload shares one wire convention: little-endian fixed
//! width integers, IEEE-754 bit patterns for floats (so `NaN` and `-0.0`
//! round-trip bitwise), and length-prefixed UTF-8 strings.
//!
//! # Examples
//!
//! ```
//! use qce_store::codec::{ByteReader, ByteWriter};
//!
//! let mut w = ByteWriter::new();
//! w.put_u64(3).put_f32(1.5).put_str("flow.train");
//! let bytes = w.finish();
//!
//! let mut r = ByteReader::new(&bytes);
//! assert_eq!(r.u64().unwrap(), 3);
//! assert_eq!(r.f32().unwrap(), 1.5);
//! assert_eq!(r.str().unwrap(), "flow.train");
//! assert!(r.is_empty());
//! ```

use crate::{Result, StoreError};

/// Appends little-endian primitives to a growable byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends an `f32` as its IEEE-754 bit pattern (bitwise lossless,
    /// including `NaN` payloads and signed zero).
    pub fn put_f32(&mut self, v: f32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends an optional `f32`: a `0` tag byte for `None`, or a `1`
    /// tag byte followed by the bit pattern.
    pub fn put_opt_f32(&mut self, v: Option<f32>) -> &mut Self {
        match v {
            None => self.put_u8(0),
            Some(v) => self.put_u8(1).put_f32(v),
        }
    }

    /// Appends a `u64` length prefix followed by the UTF-8 bytes.
    pub fn put_str(&mut self, s: &str) -> &mut Self {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// Appends a `u64` count followed by every slice element as an `f32`
    /// bit pattern.
    pub fn put_f32_slice(&mut self, vs: &[f32]) -> &mut Self {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_f32(v);
        }
        self
    }

    /// The accumulated payload.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Reads little-endian primitives back out of a payload, with explicit
/// truncation errors instead of panics.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let bytes = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(bytes);
        Ok(out)
    }

    /// Consumes and returns the next `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Format`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(StoreError::format(format!(
                "payload truncated: wanted {n} bytes at offset {} of {}",
                self.pos,
                self.buf.len()
            )));
        };
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Format`] on truncation.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take_array::<1>()?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Format`] on truncation.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Format`] on truncation.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Format`] on truncation.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads a `u64` and narrows it to `usize`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Format`] on truncation or when the value
    /// does not fit a `usize`.
    pub fn len_u64(&mut self) -> Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| StoreError::format("length prefix exceeds usize"))
    }

    /// Reads an `f32` bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Format`] on truncation.
    pub fn f32(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(self.take_array()?))
    }

    /// Reads an `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Format`] on truncation.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take_array()?))
    }

    /// Reads an optional `f32` written by [`ByteWriter::put_opt_f32`]
    /// (any non-zero tag means `Some`).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Format`] on truncation.
    pub fn opt_f32(&mut self) -> Result<Option<f32>> {
        Ok(match self.u8()? {
            0 => None,
            _ => Some(self.f32()?),
        })
    }

    /// Reads a length-prefixed UTF-8 string written by
    /// [`ByteWriter::put_str`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Format`] on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<String> {
        let len = self.len_u64()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::format("string payload is not UTF-8"))
    }

    /// Reads a counted `f32` vector written by
    /// [`ByteWriter::put_f32_slice`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Format`] on truncation.
    pub fn f32_vec(&mut self) -> Result<Vec<f32>> {
        let len = self.len_u64()?;
        let mut out = Vec::with_capacity(len.min(self.remaining() / 4));
        for _ in 0..len {
            out.push(self.f32()?);
        }
        Ok(out)
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Fails unless the payload was consumed exactly — the cheap way for
    /// a codec to notice trailing garbage.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Format`] when bytes remain.
    pub fn expect_empty(&self) -> Result<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(StoreError::format(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7)
            .put_u16(300)
            .put_u32(70_000)
            .put_u64(u64::MAX)
            .put_f32(-0.0)
            .put_f64(f64::MIN_POSITIVE)
            .put_str("héllo")
            .put_f32_slice(&[1.0, f32::NAN])
            .put_opt_f32(None)
            .put_opt_f32(Some(2.5));
        assert!(!w.is_empty());
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.f64().unwrap(), f64::MIN_POSITIVE);
        assert_eq!(r.str().unwrap(), "héllo");
        let vs = r.f32_vec().unwrap();
        assert_eq!(vs[0], 1.0);
        assert!(vs[1].is_nan());
        assert_eq!(r.opt_f32().unwrap(), None);
        assert_eq!(r.opt_f32().unwrap(), Some(2.5));
        r.expect_empty().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        w.put_u64(99);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes[..3]);
        assert!(r.u64().is_err());

        // A huge string length prefix must not over-allocate or panic.
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX).put_u8(b'a');
        let bytes = w.finish();
        assert!(ByteReader::new(&bytes).str().is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = ByteWriter::new();
        w.put_u32(1).put_u8(0xEE);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        r.u32().unwrap();
        assert!(r.expect_empty().is_err());
        r.u8().unwrap();
        r.expect_empty().unwrap();
    }
}
