//! The one byte codec under the workspace's binary record formats: the
//! OODB write-ahead log and snapshot, the coupling's task ledger and
//! result-buffer file, and the serving layer's wire payloads.
//!
//! Writers are free `put_*` functions appending to a `Vec<u8>`. The
//! [`Reader`] is strict: every read checks bounds, element counts are
//! bounded by the bytes left before anything is allocated, strings must
//! be valid UTF-8, and [`Reader::finish`] rejects trailing bytes. Every
//! failure is one [`DecodeError`], which each format maps to its own
//! error (`WireError::Malformed`, [`crate::DbError::Corrupt`], a skipped
//! ledger record, …); no input makes a read panic.
//!
//! Two integer encodings coexist because the formats predate this
//! module and keep their bytes: little-endian fixed width ([`put_u32`],
//! [`Reader::u32`], and strings with a `u32` length prefix, [`put_str`])
//! for the coupling and wire formats, and unsigned LEB128 varints
//! (`put_varint`, `Reader::varint`, and strings with a varint length
//! prefix, `put_vstr`) for the OODB's own files.

use std::fmt;

/// Why bytes did not decode: a message naming the field that failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub(crate) String);

impl DecodeError {
    /// A tag, flag or discriminant `value` that means nothing as `what`.
    pub fn unknown(what: &str, value: impl fmt::Display) -> DecodeError {
        DecodeError(format!("unknown {what} {value}"))
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Result alias for [`Reader`] reads.
pub type DecodeResult<T> = std::result::Result<T, DecodeError>;

/// Append `v` as 4 little-endian bytes.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` as 8 little-endian bytes.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append `v`'s IEEE-754 bits as 8 little-endian bytes.
#[inline]
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Append `v` as an unsigned LEB128 varint.
pub(crate) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Append `s` with a `u32` little-endian length prefix.
#[inline]
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Append `s` with a varint length prefix.
pub(crate) fn put_vstr(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Strict cursor over one encoded record. See the module docs.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Offset of the next read.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet read.
    #[inline]
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub(crate) fn take(&mut self, n: usize, what: &str) -> DecodeResult<&'a [u8]> {
        if n > self.remaining() {
            return Err(DecodeError(format!(
                "truncated {what}: need {n} bytes at offset {}, payload is {}",
                self.pos,
                self.bytes.len()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    #[inline]
    fn array<const N: usize>(&mut self, what: &str) -> DecodeResult<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N, what)?);
        Ok(out)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, what: &str) -> DecodeResult<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// A 2-byte little-endian integer.
    pub fn u16(&mut self, what: &str) -> DecodeResult<u16> {
        self.array(what).map(u16::from_le_bytes)
    }

    /// A 4-byte little-endian integer.
    #[inline]
    pub fn u32(&mut self, what: &str) -> DecodeResult<u32> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// An 8-byte little-endian integer.
    #[inline]
    pub fn u64(&mut self, what: &str) -> DecodeResult<u64> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// An `f64` from 8 little-endian bytes of IEEE-754 bits.
    #[inline]
    pub fn f64(&mut self, what: &str) -> DecodeResult<f64> {
        self.u64(what).map(f64::from_bits)
    }

    /// An unsigned LEB128 varint of at most ten bytes. Bits past the
    /// 64th in the tenth byte are dropped, as the formats always read
    /// them.
    pub(crate) fn varint(&mut self, what: &str) -> DecodeResult<u64> {
        let start = self.pos;
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8(what)?;
            if shift >= 64 {
                return Err(DecodeError(format!(
                    "overlong varint for {what} at offset {start}"
                )));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Check a declared count of elements that take at least
    /// `min_elem_len` bytes each against the bytes left, so a corrupt
    /// count cannot drive a huge allocation or a long loop.
    #[inline]
    fn bounded(&self, count: u64, min_elem_len: usize, what: &str) -> DecodeResult<usize> {
        let remaining = self.remaining();
        match usize::try_from(count) {
            Ok(n) if n.saturating_mul(min_elem_len.max(1)) <= remaining => Ok(n),
            _ => Err(DecodeError(format!(
                "{what} count {count} cannot fit in {remaining} remaining bytes"
            ))),
        }
    }

    /// A `u32` element count, bounded by the bytes left.
    #[inline]
    pub fn count_u32(&mut self, min_elem_len: usize, what: &str) -> DecodeResult<usize> {
        let n = self.u32(what)?;
        self.bounded(n.into(), min_elem_len, what)
    }

    /// A `u64` element count, bounded by the bytes left.
    pub fn count_u64(&mut self, min_elem_len: usize, what: &str) -> DecodeResult<usize> {
        let n = self.u64(what)?;
        self.bounded(n, min_elem_len, what)
    }

    /// A varint element count, bounded by the bytes left.
    pub(crate) fn count_varint(&mut self, min_elem_len: usize, what: &str) -> DecodeResult<usize> {
        let n = self.varint(what)?;
        self.bounded(n, min_elem_len, what)
    }

    /// The next `len` bytes as a UTF-8 string.
    #[inline]
    pub fn utf8(&mut self, len: usize, what: &str) -> DecodeResult<String> {
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DecodeError(format!("{what} is not valid UTF-8")))
    }

    /// A string with a `u32` length prefix (see [`put_str`]).
    #[inline]
    pub fn string(&mut self, what: &str) -> DecodeResult<String> {
        let len = self.u32(what)? as usize;
        self.utf8(len, what)
    }

    /// A string with a varint length prefix (see `put_vstr`).
    pub(crate) fn vstring(&mut self, what: &str) -> DecodeResult<String> {
        let len = self.count_varint(1, what)?;
        self.utf8(len, what)
    }

    /// End of the record: an error if any bytes are left.
    #[inline]
    pub fn finish(self) -> DecodeResult<()> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(DecodeError(format!("{extra} trailing bytes after payload"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint("v"), Ok(v));
            assert_eq!(r.finish(), Ok(()));
        }
    }

    #[test]
    fn bytes_and_strings_round_trip() {
        let mut buf = Vec::new();
        put_vstr(&mut buf, "hello");
        put_varint(&mut buf, 3);
        buf.extend_from_slice(&[1, 2, 3]);
        put_str(&mut buf, "wörld");
        buf.extend_from_slice(&0xbeefu16.to_le_bytes());
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX - 1);
        put_f64(&mut buf, -0.5);
        let mut r = Reader::new(&buf);
        assert_eq!(r.vstring("s").as_deref(), Ok("hello"));
        assert_eq!(r.count_varint(1, "b"), Ok(3));
        assert_eq!(r.take(3, "b"), Ok(&[1u8, 2, 3][..]));
        assert_eq!(r.string("s").as_deref(), Ok("wörld"));
        assert_eq!(r.u16("x"), Ok(0xbeef));
        assert_eq!(r.u32("x"), Ok(7));
        assert_eq!(r.u64("x"), Ok(u64::MAX - 1));
        assert_eq!(r.f64("x"), Ok(-0.5));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn truncated_reads_fail() {
        let mut buf = Vec::new();
        put_vstr(&mut buf, "hello");
        buf.pop();
        assert_eq!(
            Reader::new(&buf).vstring("s").unwrap_err().to_string(),
            "s count 5 cannot fit in 4 remaining bytes"
        );
        let err = Reader::new(&[1, 2, 3]).u32("field").unwrap_err();
        assert_eq!(
            err.to_string(),
            "truncated field: need 4 bytes at offset 0, payload is 3"
        );
        assert!(Reader::new(&[0x80]).varint("v").is_err());
    }

    #[test]
    fn invalid_utf8_string_fails() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(
            Reader::new(&buf).vstring("name").unwrap_err().to_string(),
            "name is not valid UTF-8"
        );
    }

    #[test]
    fn overlong_varint_and_trailing_bytes_rejected() {
        let eleven = [0x80u8; 10].iter().copied().chain([0]).collect::<Vec<_>>();
        assert_eq!(
            Reader::new(&eleven).varint("v").unwrap_err().to_string(),
            "overlong varint for v at offset 0"
        );
        let mut r = Reader::new(&[1, 2]);
        r.u8("x").unwrap();
        assert_eq!(
            r.finish().unwrap_err().to_string(),
            "1 trailing bytes after payload"
        );
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 3);
        buf.extend_from_slice(&[0; 12]);
        assert_eq!(Reader::new(&buf).count_u32(4, "list"), Ok(3));
        assert!(Reader::new(&buf).count_u32(5, "list").is_err());
        let mut huge = Vec::new();
        put_u64(&mut huge, u64::MAX);
        assert!(Reader::new(&huge).count_u64(1, "list").is_err());
        let mut huge = Vec::new();
        put_varint(&mut huge, 1 << 60);
        assert!(Reader::new(&huge).count_varint(0, "list").is_err());
    }
}
