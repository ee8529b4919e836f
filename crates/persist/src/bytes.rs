//! Little-endian byte-level encoding primitives shared by every artifact
//! codec layered on this crate.
//!
//! The writer is infallible (it grows a `Vec<u8>`); the reader is total —
//! every accessor returns [`DecodeError`] instead of panicking, which is
//! what lets a corrupted record degrade to a counted skip upstream.

use std::error::Error;
use std::fmt;

/// A decode failure: truncated input, malformed length, invalid UTF-8 or
/// trailing garbage. Carries a human-readable description of what the
/// reader expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl Error for DecodeError {}

fn short(what: &str, need: usize, have: usize) -> DecodeError {
    DecodeError(format!("truncated {what}: need {need} bytes, have {have}"))
}

/// An append-only little-endian encoder. All integers are fixed-width LE;
/// strings and byte blobs are length-prefixed with a `u32`.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64`, little-endian two's complement.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` by its IEEE-754 bit pattern — bit-exact round-trip,
    /// NaN payloads included.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a `usize` as a `u64` (the on-disk format is
    /// pointer-width-independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append raw bytes with a `u32` length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Append a string as length-prefixed UTF-8.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Append an `i64` as a zigzag LEB128 varint: seven bits per byte,
    /// low groups first, so small magnitudes of either sign are short
    /// (one byte for `-64..=63`, ten for `i64::MIN` and `i64::MAX`).
    pub fn put_varint(&mut self, v: i64) {
        let mut z = ((v << 1) ^ (v >> 63)) as u64;
        while z >= 0x80 {
            self.buf.push(z as u8 | 0x80);
            z >>= 7;
        }
        self.buf.push(z as u8);
    }

    /// Append raw bytes with **no** length prefix (the caller frames them).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }
}

/// A cursor-style little-endian decoder over a byte slice. The exact
/// inverse of [`ByteWriter`]; every accessor fails soft with
/// [`DecodeError`].
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(short(what, n, self.remaining()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a `bool`; any byte other than 0 or 1 is a decode error (it
    /// means the record bytes are not what the codec wrote).
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError(format!("invalid bool byte {b:#04x}"))),
        }
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(self.u64()? as i64)
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `usize` written by [`ByteWriter::put_usize`]; fails on values
    /// that do not fit the host's pointer width.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| DecodeError(format!("usize out of range: {v}")))
    }

    /// Read a `u32`-length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.u32()? as usize;
        self.take(n, "bytes")
    }

    /// Read a varint written by [`ByteWriter::put_varint`]. A truncated
    /// varint, or one that carries more than 64 bits, is a decode error
    /// and consumes nothing.
    pub fn varint(&mut self) -> Result<i64, DecodeError> {
        let mut z = 0u64;
        for (i, &b) in self.buf[self.pos..].iter().take(10).enumerate() {
            if i == 9 && b > 1 {
                return Err(DecodeError("varint overflows 64 bits".into()));
            }
            z |= u64::from(b & 0x7f) << (7 * i);
            if b & 0x80 == 0 {
                self.pos += i + 1;
                return Ok((z >> 1) as i64 ^ -((z & 1) as i64));
            }
        }
        Err(DecodeError("truncated varint".into()))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.bytes()?).map_err(|e| DecodeError(format!("invalid utf-8: {e}")))
    }

    /// Assert the reader consumed everything — trailing bytes mean the
    /// record was written by a different (newer) codec and must not be
    /// silently accepted.
    pub fn expect_end(&self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError(format!(
                "{} trailing bytes after record",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_every_primitive() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_bool(true);
        w.put_bool(false);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 7);
        w.put_i64(-42);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_usize(123_456);
        w.put_bytes(b"blob");
        w.put_str("héllo");
        let bytes = w.into_inner();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.usize().unwrap(), 123_456);
        assert_eq!(r.bytes().unwrap(), b"blob");
        assert_eq!(r.str().unwrap(), "héllo");
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_reads_fail_soft() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert!(r.u64().is_err());
        // A failed read consumes nothing.
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.u8().unwrap(), 1);
    }

    #[test]
    fn varints_round_trip_and_fail_soft() {
        let values = [
            0,
            1,
            -1,
            63,
            -64,
            64,
            -65,
            1 << 40,
            -(1 << 40),
            i64::MAX,
            i64::MIN,
        ];
        let mut w = ByteWriter::new();
        for v in values {
            w.put_varint(v);
        }
        let bytes = w.into_inner();
        // -64..=63 take one byte; the extremes take ten.
        assert_eq!(bytes[..5], [0, 2, 1, 126, 127]);
        let mut r = ByteReader::new(&bytes);
        for v in values {
            assert_eq!(r.varint().unwrap(), v);
        }
        r.expect_end().unwrap();

        let mut w = ByteWriter::new();
        w.put_varint(i64::MIN);
        let ten = w.into_inner();
        assert_eq!(ten.len(), 10);
        // Truncated: every proper prefix fails and consumes nothing.
        for cut in 0..ten.len() {
            let mut r = ByteReader::new(&ten[..cut]);
            assert!(r.varint().is_err());
            assert_eq!(r.remaining(), cut);
        }
        // More than 64 bits: a tenth byte above 1, or an eleventh byte.
        let mut wide = ten.clone();
        wide[9] = 2;
        assert!(ByteReader::new(&wide).varint().is_err());
        let long = [0x80u8; 11];
        assert!(ByteReader::new(&long).varint().is_err());
    }

    #[test]
    fn bogus_length_prefix_fails_soft() {
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX); // length prefix far beyond the buffer
        let bytes = w.into_inner();
        assert!(ByteReader::new(&bytes).bytes().is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = ByteWriter::new();
        w.put_u32(7);
        let bytes = w.into_inner();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u32().unwrap(), 7);
        r.expect_end().unwrap();
        let r2 = ByteReader::new(&bytes);
        assert!(r2.expect_end().is_err());
    }
}
