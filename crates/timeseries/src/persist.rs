//! Byte-exact little-endian state codec primitives for the persistence
//! layer (`aging-store`).
//!
//! Every streaming kernel that participates in crash-safe
//! checkpointing serializes its *dynamic* state with these helpers —
//! configuration is never written, it is re-supplied on recovery and the
//! object is rebuilt fresh before [`Reader`]-driven restoration. Floats
//! travel as raw IEEE-754 bits ([`f64::to_bits`], little-endian), so a
//! restored kernel is bit-identical to the snapshotted one: feeding both
//! the same suffix of a stream produces the same outputs to the last ULP.
//!
//! The format is deliberately primitive (no tags, no self-description):
//! the schema is the code, and a version byte at the container level
//! (`aging-store`'s snapshot header) gates incompatible evolution.
//! Decoding is strict — every read is bounds-checked and
//! [`Reader::finish`] rejects trailing bytes — so corrupt snapshots fail
//! loudly instead of desynchronizing silently.
//!
//! # Examples
//!
//! ```
//! use aging_timeseries::persist::{self, Reader};
//!
//! # fn main() -> Result<(), aging_timeseries::Error> {
//! let mut buf = Vec::new();
//! persist::put_u64(&mut buf, 7);
//! persist::put_f64(&mut buf, -0.0); // sign bit survives
//! let mut r = Reader::new(&buf);
//! assert_eq!(r.u64()?, 7);
//! assert_eq!(r.f64()?.to_bits(), (-0.0f64).to_bits());
//! r.finish()?;
//! # Ok(())
//! # }
//! ```

use crate::error::{Error, Result};

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `i64` as its two's-complement `u64` bit pattern.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_u64(out, v as u64);
}

/// Appends a `usize` widened to `u64` (the format is 64-bit everywhere,
/// independent of the host word size).
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Appends an `f64` as its raw IEEE-754 bits — NaN payloads, signed
/// zeros and infinities all round-trip exactly.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a `bool` as one byte (`0`/`1`).
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Appends an `Option<f64>` as a presence byte followed by the bits.
pub fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(x) => {
            out.push(1);
            put_f64(out, x);
        }
        None => out.push(0),
    }
}

/// Appends a `u64`-length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_usize(out, v.len());
    out.extend_from_slice(v);
}

/// Appends a `u64`-length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, v: &str) {
    put_bytes(out, v.as_bytes());
}

fn corrupt(reason: impl Into<String>) -> Error {
    Error::invalid("persist", reason)
}

#[cold]
#[inline(never)]
fn truncated(wanted: usize, left: usize) -> Error {
    corrupt(format!("truncated: wanted {wanted} bytes, {left} left"))
}

/// A strict bounds-checked cursor over an encoded state blob, a wire
/// frame payload or a journal entry — the one byte reader every decoder
/// in the workspace uses.
///
/// Every accessor consumes from the front; any structural violation
/// (truncation, bad presence byte, absurd length) is an
/// [`Error::InvalidParameter`] tagged `persist`. A declared element count
/// is trusted only after [`Reader::count`] has checked it against the
/// bytes left, so no decoder allocates for more than its input holds.
/// A clone is a cursor at the same position, for reading ahead.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a blob for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// Fails if fewer than `n` bytes remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(truncated(n, self.remaining()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    #[inline]
    pub fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes(b.try_into().expect("2 bytes")))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads an `i64` (two's-complement `u64` bit pattern).
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(self.u64()? as i64)
    }

    /// Reads a `u64` and narrows it to the host `usize`.
    ///
    /// # Errors
    ///
    /// Fails on truncation or if the value does not fit a `usize`
    /// (possible on 32-bit hosts).
    pub fn usize_(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| corrupt(format!("length {v} exceeds host usize")))
    }

    /// Reads an `f64` from its raw bits.
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    #[inline]
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`, rejecting any byte other than `0`/`1`.
    ///
    /// # Errors
    ///
    /// Fails on truncation or a non-boolean byte.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format!("bad bool byte {b:#04x}"))),
        }
    }

    /// Reads an `Option<f64>` (presence byte + bits).
    ///
    /// # Errors
    ///
    /// Fails on truncation or a bad presence byte.
    pub fn opt_f64(&mut self) -> Result<Option<f64>> {
        if self.bool()? {
            Ok(Some(self.f64()?))
        } else {
            Ok(None)
        }
    }

    /// Reads an element count with `read` (such as [`Reader::u16`],
    /// [`Reader::u32`] or [`Reader::u64`]) and checks that at least
    /// `count × min_element_bytes` bytes follow it, so the caller may
    /// allocate room for `count` elements. `min_element_bytes` is the
    /// size of the shortest element the sequence can hold.
    ///
    /// # Errors
    ///
    /// Fails on truncation, or when the elements cannot fit in the bytes
    /// left (the product is overflow-checked). A rejected count consumes
    /// no bytes.
    pub fn count<T: Into<u64>>(
        &mut self,
        read: fn(&mut Self) -> Result<T>,
        min_element_bytes: usize,
    ) -> Result<usize> {
        let start = self.pos;
        let n: u64 = read(self)?.into();
        let fits = usize::try_from(n).ok().filter(|&n| {
            n.checked_mul(min_element_bytes)
                .is_some_and(|b| b <= self.remaining())
        });
        fits.ok_or_else(|| {
            let left = self.remaining();
            self.pos = start;
            corrupt(format!(
                "count {n} of {min_element_bytes}-byte elements exceeds the {left} bytes left"
            ))
        })
    }

    /// Reads a `u64`-length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// Fails on truncation (the declared length is checked against the
    /// remaining bytes before any allocation).
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.usize_()?;
        self.take(n)
    }

    /// Reads a `u64`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Fails on truncation or invalid UTF-8.
    pub fn str_(&mut self) -> Result<String> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| corrupt("invalid UTF-8 in string"))
    }

    /// Asserts the blob is fully consumed.
    ///
    /// # Errors
    ///
    /// Fails if any bytes remain — a schema drift or corruption signal.
    pub fn finish(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(corrupt(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xab);
        buf.extend_from_slice(&0xbeefu16.to_le_bytes());
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 1);
        put_i64(&mut buf, -42);
        put_usize(&mut buf, 12345);
        put_f64(&mut buf, f64::NEG_INFINITY);
        put_bool(&mut buf, true);
        put_opt_f64(&mut buf, None);
        put_opt_f64(&mut buf, Some(-0.0));
        put_str(&mut buf, "m007:leaky");
        put_bytes(&mut buf, &[1, 2, 3]);

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.usize_().unwrap(), 12345);
        assert_eq!(r.f64().unwrap(), f64::NEG_INFINITY);
        assert!(r.bool().unwrap());
        assert_eq!(r.opt_f64().unwrap(), None);
        assert_eq!(r.opt_f64().unwrap().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.str_().unwrap(), "m007:leaky");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn nan_payload_survives() {
        let weird = f64::from_bits(0x7ff8_0000_c0ff_ee00);
        let mut buf = Vec::new();
        put_f64(&mut buf, weird);
        let mut r = Reader::new(&buf);
        assert_eq!(r.f64().unwrap().to_bits(), weird.to_bits());
    }

    #[test]
    fn truncation_and_garbage_fail_loudly() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(r.u64().is_err());

        let mut r = Reader::new(&[7]);
        assert!(r.bool().is_err(), "7 is not a bool");

        // Declared length far beyond the buffer must not allocate or panic.
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        let mut r = Reader::new(&buf);
        assert!(r.bytes().is_err());

        let mut buf = Vec::new();
        put_u8(&mut buf, 1);
        let r = Reader::new(&buf);
        assert!(r.finish().is_err(), "unconsumed bytes must be rejected");
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, &[0xff, 0xfe]);
        let mut r = Reader::new(&buf);
        assert!(r.str_().is_err());
    }

    #[test]
    fn counted_read_accepts_zero_and_an_exact_fit_and_refuses_one_over() {
        // A count of zero fits anything, even an empty tail.
        let mut buf = Vec::new();
        put_u32(&mut buf, 0);
        let mut r = Reader::new(&buf);
        assert_eq!(r.count(Reader::u32, 25).unwrap(), 0);
        r.finish().unwrap();

        for (n, min) in [(1u16, 25usize), (3, 16), (40, 1), (7, 0)] {
            // Exactly `n` elements left: accepted, the count consumed.
            let mut buf = n.to_le_bytes().to_vec();
            buf.extend(std::iter::repeat_n(0xab, usize::from(n) * min));
            let mut r = Reader::new(&buf);
            assert_eq!(r.count(Reader::u16, min).unwrap(), usize::from(n));
            assert_eq!(r.remaining(), usize::from(n) * min);

            // One element more than the bytes hold is refused, except
            // for zero-byte elements, and a refused count consumes
            // nothing.
            buf[..2].copy_from_slice(&(n + 1).to_le_bytes());
            let mut r = Reader::new(&buf);
            let one_over = r.count(Reader::u16, min);
            if min == 0 {
                assert_eq!(one_over.unwrap(), usize::from(n) + 1);
            } else {
                assert!(one_over.is_err(), "{n} x {min} B");
                assert_eq!(r.remaining(), buf.len());
            }
        }
    }

    #[test]
    fn counted_read_refuses_overflowing_products_without_consuming() {
        // 2⁶³ two-byte elements: the byte product overflows `usize`.
        let mut buf = Vec::new();
        put_u64(&mut buf, 1 << 63);
        buf.extend_from_slice(&[0; 64]);
        let mut r = Reader::new(&buf);
        assert!(r.count(Reader::u64, 2).is_err());
        assert_eq!(r.remaining(), buf.len());
        // The same count of one-byte elements does not overflow, and is
        // still refused.
        assert!(r.count(Reader::u64, 1).is_err());
        assert_eq!(r.remaining(), buf.len());

        // A count cut short consumes nothing either.
        let mut r = Reader::new(&[1, 0, 0]);
        assert!(r.count(Reader::u32, 1).is_err());
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.u16().unwrap(), 1);
    }
}
