//! XDR — External Data Representation (RFC 4506).
//!
//! This crate implements the wire format used by ONC RPC (RFC 5531): a
//! big-endian, 4-byte-aligned binary encoding. It is the lowest layer of the
//! Cricket reproduction stack; every RPC argument and result, as well as the
//! checkpoint snapshots of the simulated GPU, pass through these routines.
//!
//! Design notes:
//! * No `unsafe`, no allocation in the decode hot path beyond what the decoded
//!   values themselves require.
//! * [`XdrEncoder`] is the one encoder, generic over an [`XdrSink`]: a
//!   growable `Vec<u8>` that is reused across calls (see the "Reusing
//!   Collections" guidance in the Rust Performance Book), or a [`FixedBuf`]
//!   that never allocates. [`XdrSgEncoder`] adds borrowed bulk payloads on
//!   top of either.
//! * [`XdrDecoder`] borrows its input; all reads are bounds-checked and return
//!   [`XdrError::Truncated`] rather than panicking.
//! * The [`Xdr`] trait ties both directions together and is implemented for
//!   all primitive types plus common composites; the `rpcl` code generator
//!   emits `Xdr` impls for user-defined RPCL types.

mod decode;
mod encode;
mod error;
mod sg;
mod traits;

pub use decode::XdrDecoder;
pub use encode::{FixedBuf, XdrEncoder, XdrSink};
pub use error::{XdrError, XdrResult};
pub use sg::XdrSgEncoder;
pub use traits::{Xdr, XdrVec};

/// XDR unit of alignment: every item occupies a multiple of four bytes.
pub(crate) const ALIGN: usize = 4;

/// Round `n` up to the next multiple of the XDR alignment.
#[inline]
pub(crate) const fn pad_len(n: usize) -> usize {
    (n + (ALIGN - 1)) & !(ALIGN - 1)
}

/// Number of zero fill bytes required after `n` payload bytes.
#[inline]
pub const fn pad_bytes(n: usize) -> usize {
    pad_len(n) - n
}

/// Encode a value into a fresh buffer. Convenience for tests and one-shot use.
pub fn encode<T: Xdr>(value: &T) -> Vec<u8> {
    let mut enc = XdrEncoder::new();
    value.encode(&mut enc);
    enc.into_inner()
}

/// Decode a value from a buffer, requiring the buffer to be fully consumed.
pub fn decode<T: Xdr>(buf: &[u8]) -> XdrResult<T> {
    let mut dec = XdrDecoder::new(buf);
    let v = T::decode(&mut dec)?;
    dec.finish()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_math() {
        assert_eq!(pad_len(0), 0);
        assert_eq!(pad_len(1), 4);
        assert_eq!(pad_len(3), 4);
        assert_eq!(pad_len(4), 4);
        assert_eq!(pad_len(5), 8);
        assert_eq!(pad_bytes(0), 0);
        assert_eq!(pad_bytes(1), 3);
        assert_eq!(pad_bytes(4), 0);
        assert_eq!(pad_bytes(6), 2);
    }

    #[test]
    fn one_shot_roundtrip() {
        let v: u32 = 0xdead_beef;
        let buf = encode(&v);
        assert_eq!(buf, [0xde, 0xad, 0xbe, 0xef]);
        let back: u32 = decode(&buf).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut buf = encode(&7u32);
        buf.extend_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(
            decode::<u32>(&buf),
            Err(XdrError::TrailingBytes { .. })
        ));
    }
}
