//! A hand-written, versioned binary codec.
//!
//! Every on-disk structure in the object store and every serialized POSIX
//! object uses this codec. The format is deliberately simple:
//!
//! * fixed-width little-endian integers,
//! * length-prefixed byte strings,
//! * and *records*: `tag:u16, version:u16, len:u32, body[len]`.
//!
//! Records let a reader skip unknown record types and let decoders accept
//! older versions — a property the paper calls out: checkpoint images must
//! be restorable "after a reboot or on another machine" where the running
//! system may differ (§4).

use std::fmt;

/// Errors produced while decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was complete.
    Truncated {
        /// What was being decoded.
        what: &'static str,
    },
    /// A record tag did not match the expected one.
    BadTag {
        /// Expected record tag.
        expected: u16,
        /// Actual record tag found.
        found: u16,
    },
    /// A record version this decoder does not read.
    BadVersion {
        /// Record tag.
        tag: u16,
        /// Newest version supported.
        supported: u16,
        /// Version found.
        found: u16,
    },
    /// A value failed validation (e.g. a non-UTF-8 string).
    Invalid {
        /// Description of the invalid value.
        what: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { what } => write!(f, "truncated input decoding {what}"),
            CodecError::BadTag { expected, found } => {
                write!(f, "bad record tag: expected {expected:#06x}, found {found:#06x}")
            }
            CodecError::BadVersion { tag, supported, found } => write!(
                f,
                "record {tag:#06x} version {found} is unsupported (supported: {supported})"
            ),
            CodecError::Invalid { what } => write!(f, "invalid value decoding {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Result alias for decoding.
pub type Result<T> = std::result::Result<T, CodecError>;

/// An append-only encoder.
///
/// # Examples
///
/// ```
/// use aurora_sim::{Encoder, Decoder};
///
/// let mut e = Encoder::new();
/// e.u64(42);
/// e.str("vnode");
/// let bytes = e.finish();
///
/// let mut d = Decoder::new(&bytes);
/// assert_eq!(d.u64().unwrap(), 42);
/// assert_eq!(d.str().unwrap(), "vnode");
/// ```
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an encoder with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Self { buf: Vec::with_capacity(cap) }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16` (little endian).
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` (little endian).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (little endian).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64` (little endian, two's complement).
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends an `Option<u64>` as presence byte + value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.u64(x);
            }
            None => self.bool(false),
        }
    }

    /// Appends raw bytes with no length prefix (caller frames them).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Encodes a framed record: `tag, version, len, body`.
    ///
    /// The body is produced by `f` into a nested encoder so the length can
    /// be prefixed without a second pass over the caller's logic.
    pub fn record(&mut self, tag: u16, version: u16, f: impl FnOnce(&mut Encoder)) {
        let mut body = Encoder::new();
        f(&mut body);
        self.u16(tag);
        self.u16(version);
        self.u32(body.len() as u32);
        self.buf.extend_from_slice(&body.buf);
    }

    /// Finishes encoding, returning the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Finishes encoding, returning a `Vec<u8>`.
    pub fn finish_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// A cursor-based decoder over a byte slice.
#[derive(Clone, Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// True if fully consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(CodecError::Truncated { what });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2, "u16")?.try_into().unwrap()))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8, "i64")?.try_into().unwrap()))
    }

    /// Reads a `bool`; any nonzero byte is `true`.
    pub fn bool(&mut self) -> Result<bool> {
        Ok(self.u8()? != 0)
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len, "bytes body")
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.bytes()?).map_err(|_| CodecError::Invalid { what: "utf-8 string" })
    }

    /// Reads an `Option<u64>`.
    pub fn opt_u64(&mut self) -> Result<Option<u64>> {
        Ok(if self.bool()? { Some(self.u64()?) } else { None })
    }

    /// Reads raw bytes with no length prefix.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n, "raw bytes")
    }

    /// Reads a record header and returns `(tag, version, body decoder)`.
    pub fn any_record(&mut self) -> Result<(u16, u16, Decoder<'a>)> {
        let tag = self.u16()?;
        let version = self.u16()?;
        let len = self.u32()? as usize;
        let body = self.take(len, "record body")?;
        Ok((tag, version, Decoder::new(body)))
    }

    /// Reads a record that must have tag `tag` and version ≤ `max_version`.
    pub fn record(&mut self, tag: u16, max_version: u16) -> Result<(u16, Decoder<'a>)> {
        let (t, v, body) = self.any_record()?;
        if t != tag {
            return Err(CodecError::BadTag { expected: tag, found: t });
        }
        if v > max_version {
            return Err(CodecError::BadVersion { tag, supported: max_version, found: v });
        }
        Ok((v, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut e = Encoder::new();
        e.u8(1);
        e.u16(2);
        e.u32(3);
        e.u64(4);
        e.i64(-5);
        e.bool(true);
        e.opt_u64(Some(9));
        e.opt_u64(None);
        let b = e.finish();
        let mut d = Decoder::new(&b);
        assert_eq!(d.u8().unwrap(), 1);
        assert_eq!(d.u16().unwrap(), 2);
        assert_eq!(d.u32().unwrap(), 3);
        assert_eq!(d.u64().unwrap(), 4);
        assert_eq!(d.i64().unwrap(), -5);
        assert!(d.bool().unwrap());
        assert_eq!(d.opt_u64().unwrap(), Some(9));
        assert_eq!(d.opt_u64().unwrap(), None);
        assert!(d.is_empty());
    }

    #[test]
    fn roundtrip_bytes_and_strings() {
        let mut e = Encoder::new();
        e.bytes(b"hello");
        e.str("aurora");
        let b = e.finish();
        let mut d = Decoder::new(&b);
        assert_eq!(d.bytes().unwrap(), b"hello");
        assert_eq!(d.str().unwrap(), "aurora");
    }

    #[test]
    fn records_skip_and_verify() {
        let mut e = Encoder::new();
        e.record(0x10, 1, |e| e.u64(7));
        e.record(0x11, 2, |e| e.str("x"));
        let b = e.finish();
        let mut d = Decoder::new(&b);
        let (v, mut body) = d.record(0x10, 3).unwrap();
        assert_eq!(v, 1);
        assert_eq!(body.u64().unwrap(), 7);
        // Unknown records can be skipped with any_record.
        let (tag, v, _) = d.any_record().unwrap();
        assert_eq!((tag, v), (0x11, 2));
    }

    #[test]
    fn record_tag_mismatch_errors() {
        let mut e = Encoder::new();
        e.record(0x22, 1, |e| e.u8(0));
        let b = e.finish();
        let mut d = Decoder::new(&b);
        assert_eq!(
            d.record(0x23, 1).unwrap_err(),
            CodecError::BadTag { expected: 0x23, found: 0x22 }
        );
    }

    #[test]
    fn record_version_gate() {
        let mut e = Encoder::new();
        e.record(0x22, 9, |e| e.u8(0));
        let b = e.finish();
        let mut d = Decoder::new(&b);
        assert!(matches!(d.record(0x22, 1), Err(CodecError::BadVersion { .. })));
    }

    #[test]
    fn truncation_is_detected() {
        let mut e = Encoder::new();
        e.u64(1);
        let b = e.finish();
        let mut d = Decoder::new(&b[..4]);
        assert!(matches!(d.u64(), Err(CodecError::Truncated { .. })));
    }
}
