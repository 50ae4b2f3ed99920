//! XDR decoder: bounds-checked reads from a borrowed byte slice.

use crate::{pad_bytes, Xdr, XdrError, XdrResult};

/// Streaming XDR decoder over a borrowed input buffer.
#[derive(Debug, Clone)]
pub struct XdrDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> XdrDecoder<'a> {
    /// Create a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current read offset in bytes.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    #[inline]
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the entire input has been consumed.
    pub fn finish(&self) -> XdrResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(XdrError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }

    /// Decode any [`Xdr`] value.
    #[inline]
    pub fn get<T: Xdr>(&mut self) -> XdrResult<T> {
        T::decode(self)
    }

    #[inline]
    fn take(&mut self, n: usize) -> XdrResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(XdrError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a 32-bit unsigned integer.
    #[inline]
    pub fn get_u32(&mut self) -> XdrResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a 32-bit signed integer.
    #[inline]
    pub fn get_i32(&mut self) -> XdrResult<i32> {
        Ok(self.get_u32()? as i32)
    }

    /// Read a 64-bit unsigned integer.
    #[inline]
    pub fn get_u64(&mut self) -> XdrResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a 64-bit signed integer.
    #[inline]
    pub(crate) fn get_i64(&mut self) -> XdrResult<i64> {
        Ok(self.get_u64()? as i64)
    }

    /// Read a single-precision float.
    #[inline]
    pub(crate) fn get_f32(&mut self) -> XdrResult<f32> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Read a double-precision float.
    #[inline]
    pub(crate) fn get_f64(&mut self) -> XdrResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a boolean, rejecting values other than 0/1.
    #[inline]
    pub fn get_bool(&mut self) -> XdrResult<bool> {
        match self.get_u32()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(XdrError::InvalidBool(v)),
        }
    }

    /// Read the padding after `payload_len` bytes of opaque data, which must
    /// be zero, as RFC 4506 specifies ("residual bytes are zeros"). On its
    /// own: the pad of an opaque whose bytes were taken elsewhere.
    pub fn check_padding(&mut self, payload_len: usize) -> XdrResult<()> {
        let pad = pad_bytes(payload_len);
        let b = self.take(pad)?;
        if b.iter().any(|&x| x != 0) {
            return Err(XdrError::NonZeroPadding);
        }
        Ok(())
    }

    /// Read `n` bytes of fixed-length opaque data (plus padding), borrowing
    /// from the input.
    pub(crate) fn get_opaque_fixed(&mut self, n: usize) -> XdrResult<&'a [u8]> {
        let data = self.take(n)?;
        self.check_padding(n)?;
        Ok(data)
    }

    /// Read variable-length opaque data with its length prefix, enforcing
    /// `max` as an upper bound on the declared length.
    pub fn get_opaque_max(&mut self, max: usize) -> XdrResult<&'a [u8]> {
        let len = self.get_u32()? as usize;
        if len > max {
            return Err(XdrError::LengthOutOfBounds { len, max });
        }
        self.get_opaque_fixed(len)
    }

    /// Read variable-length opaque data with no schema bound. The declared
    /// length is still validated against the bytes actually present, so a
    /// malicious length cannot cause overallocation.
    pub fn get_opaque(&mut self) -> XdrResult<&'a [u8]> {
        let len = self.get_u32()? as usize;
        if len > self.remaining() {
            return Err(XdrError::Truncated {
                needed: len,
                remaining: self.remaining(),
            });
        }
        self.get_opaque_fixed(len)
    }

    /// Read variable-length opaque data **without copying**: the returned
    /// slice borrows the decoder's input for its full lifetime `'a`, so it
    /// can outlive the decoder itself (e.g. be handed to a service method
    /// while the request record stays pooled). Identical wire format to
    /// [`XdrDecoder::get_opaque`]; the separate name marks call sites on the
    /// zero-copy path.
    #[inline]
    pub fn get_opaque_ref(&mut self) -> XdrResult<&'a [u8]> {
        self.get_opaque()
    }

    /// Read an XDR string (UTF-8 validated).
    pub fn get_string(&mut self) -> XdrResult<String> {
        let bytes = self.get_opaque()?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| XdrError::InvalidUtf8)
    }

    /// Read an XDR string without copying: UTF-8 validated view borrowing
    /// the decoder's input for its full lifetime `'a`.
    pub fn get_str_ref(&mut self) -> XdrResult<&'a str> {
        let bytes = self.get_opaque()?;
        std::str::from_utf8(bytes).map_err(|_| XdrError::InvalidUtf8)
    }

    /// Read a variable-length array of `T`.
    pub(crate) fn get_array<T: Xdr>(&mut self) -> XdrResult<Vec<T>> {
        let len = self.get_u32()? as usize;
        // Each element takes at least 4 bytes on the wire; reject lengths the
        // remaining input cannot possibly satisfy before allocating.
        if len.saturating_mul(4) > self.remaining().saturating_add(3) {
            return Err(XdrError::Truncated {
                needed: len * 4,
                remaining: self.remaining(),
            });
        }
        // A `T` can be far larger in memory than its 4 bytes on the wire, so
        // the count alone may not size the reservation: it never exceeds the
        // unread input, and the vector grows past that only as elements
        // actually decode.
        let fits = self.remaining() / std::mem::size_of::<T>().max(1);
        let mut out = Vec::with_capacity(len.min(fits));
        for _ in 0..len {
            out.push(T::decode(self)?);
        }
        Ok(out)
    }

    /// Read a fixed-length array of `n` elements.
    pub fn get_array_fixed<T: Xdr>(&mut self, n: usize) -> XdrResult<Vec<T>> {
        let mut out = Vec::with_capacity(n.min(self.remaining() / 4 + 1));
        for _ in 0..n {
            out.push(T::decode(self)?);
        }
        Ok(out)
    }

    /// Read an XDR optional ("pointer").
    pub(crate) fn get_option<T: Xdr>(&mut self) -> XdrResult<Option<T>> {
        match self.get_u32()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(self)?)),
            v => Err(XdrError::InvalidOptionTag(v)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::XdrEncoder;

    #[test]
    fn truncated_reads_fail() {
        let mut d = XdrDecoder::new(&[0, 0, 1]);
        assert!(matches!(
            d.get_u32(),
            Err(XdrError::Truncated {
                needed: 4,
                remaining: 3
            })
        ));
    }

    #[test]
    fn opaque_roundtrip() {
        let mut e = XdrEncoder::new();
        e.put_opaque(b"hi there");
        e.put_opaque(b"x");
        let buf = e.into_inner();
        let mut d = XdrDecoder::new(&buf);
        assert_eq!(d.get_opaque().unwrap(), b"hi there");
        assert_eq!(d.get_opaque().unwrap(), b"x");
        d.finish().unwrap();
    }

    #[test]
    fn opaque_length_bound_enforced() {
        let mut e = XdrEncoder::new();
        e.put_opaque(&[9u8; 32]);
        let buf = e.into_inner();
        let mut d = XdrDecoder::new(&buf);
        assert!(matches!(
            d.get_opaque_max(16),
            Err(XdrError::LengthOutOfBounds { len: 32, max: 16 })
        ));
    }

    #[test]
    fn malicious_opaque_length_rejected_without_allocation() {
        // Declared length of u32::MAX with only 4 bytes of payload.
        let buf = [0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4];
        let mut d = XdrDecoder::new(&buf);
        assert!(matches!(d.get_opaque(), Err(XdrError::Truncated { .. })));
    }

    #[test]
    fn malicious_array_length_rejected() {
        let buf = [0x7f, 0xff, 0xff, 0xff];
        let mut d = XdrDecoder::new(&buf);
        assert!(d.get_array::<u32>().is_err());
    }

    #[test]
    fn nonzero_padding_detected() {
        // length 1, payload 0xAA, padding 0x01 0x00 0x00 (invalid).
        let buf = [0, 0, 0, 1, 0xaa, 1, 0, 0];
        let mut d = XdrDecoder::new(&buf);
        assert_eq!(d.get_opaque(), Err(XdrError::NonZeroPadding));
    }

    #[test]
    fn bool_rejects_other_values() {
        let buf = [0, 0, 0, 2];
        let mut d = XdrDecoder::new(&buf);
        assert_eq!(d.get_bool(), Err(XdrError::InvalidBool(2)));
    }

    #[test]
    fn string_rejects_bad_utf8() {
        let mut e = XdrEncoder::new();
        e.put_opaque(&[0xff, 0xfe]);
        let buf = e.into_inner();
        let mut d = XdrDecoder::new(&buf);
        assert_eq!(d.get_string(), Err(XdrError::InvalidUtf8));
    }

    #[test]
    fn option_roundtrip() {
        let mut e = XdrEncoder::new();
        e.put_option(Some(&42u64));
        e.put_option::<u64>(None);
        let buf = e.into_inner();
        let mut d = XdrDecoder::new(&buf);
        assert_eq!(d.get_option::<u64>().unwrap(), Some(42));
        assert_eq!(d.get_option::<u64>().unwrap(), None);
        d.finish().unwrap();
    }
}
