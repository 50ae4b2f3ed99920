//! Zero-page sparse codec for bulk H2D payloads.
//!
//! GPU tensors are routinely mostly zero (freshly initialized weights,
//! padded batches, one-hot encodings), yet an eager `CUDA_MEMCPY_HTOD` or a
//! batched sub-op ships every byte. This module encodes a payload as a
//! page-granular zero map plus the literal bytes of the nonzero pages, so a
//! 90 %-zero tensor pays roughly a tenth of the wire bytes.
//!
//! Wire layout (ordinary XDR, travels as an opaque blob inside the
//! `CUDA_MEMCPY_HTOD_SPARSE` argument or a batch sub-op):
//!
//! ```text
//!   u32  page_size           (bytes per page, final page may be short)
//!   u64  raw_len             (decoded payload length)
//!   opaque<> bitmap          (ceil(n_pages/8) bytes; bit i set = page i
//!                             is literal, clear = page i is all zero;
//!                             bit i lives at byte i/8, mask 1 << (i%8))
//!   opaque<> literals        (concatenated bytes of the literal pages,
//!                             in page order)
//! ```
//!
//! Encoding is *adaptive*: [`encode_adaptive`] refuses to encode when the
//! sparse form would not be smaller than the raw payload, so fully dense
//! payloads keep the plain path and pay zero wire overhead. The scan itself
//! is one pass over the payload.

use crate::record::MAX_RECORD;
use xdr::{XdrDecoder, XdrEncoder, XdrError, XdrResult};

/// Default page granularity of the zero map. Matches the guest page size:
/// zero detection then aligns with how guests allocate and memset.
pub const SPARSE_PAGE: usize = 4096;

/// Number of pages `len` bytes occupy at `page` granularity.
#[inline]
fn page_count(len: usize, page: usize) -> usize {
    len.div_ceil(page)
}

/// Count the all-zero pages of `data` at `page` granularity.
pub fn zero_pages(data: &[u8], page: usize) -> usize {
    data.chunks(page)
        .filter(|c| c.iter().all(|&b| b == 0))
        .count()
}

/// Unconditionally sparse-encode `data` into `out` (cleared first).
/// Returns the encoded length.
pub fn encode_into(data: &[u8], page: usize, out: &mut Vec<u8>) -> usize {
    assert!(page >= 8, "sparse page size too small: {page}");
    out.clear();
    let pages = page_count(data.len(), page);
    let mut bitmap = vec![0u8; pages.div_ceil(8)];
    let mut literals: Vec<&[u8]> = Vec::with_capacity(pages);
    for (i, chunk) in data.chunks(page).enumerate() {
        if chunk.iter().any(|&b| b != 0) {
            bitmap[i / 8] |= 1 << (i % 8);
            literals.push(chunk);
        }
    }
    let mut enc = XdrEncoder::new();
    enc.put_u32(page as u32);
    enc.put_u64(data.len() as u64);
    enc.put_opaque(&bitmap);
    let lit_len: usize = literals.iter().map(|c| c.len()).sum();
    enc.put_u32(lit_len as u32);
    // The final literal page may be unaligned, so the opaque body is
    // assembled on the raw buffer; padding restores XDR alignment.
    let mut buf = enc.into_inner();
    for chunk in literals {
        buf.extend_from_slice(chunk);
    }
    buf.extend_from_slice(&[0u8; 3][..xdr::pad_bytes(lit_len)]);
    *out = buf;
    out.len()
}

/// Sparse-encode `data` into `out` only when the encoding is strictly
/// smaller than the raw payload. Returns the encoded length, or `None` when
/// the payload is too dense to win (dense payloads then ride the plain path
/// byte-for-byte unchanged). Also returns the number of zero pages elided,
/// for telemetry.
pub fn encode_adaptive(data: &[u8], page: usize, out: &mut Vec<u8>) -> Option<(usize, usize)> {
    let zeros = zero_pages(data, page);
    if zeros == 0 {
        return None;
    }
    let wire = encode_into(data, page, out);
    if wire < data.len() {
        Some((wire, zeros))
    } else {
        out.clear();
        None
    }
}

/// Read the blob header, `(page_size, raw_len)`. Both fields come straight
/// off the wire, so they are bounded here, before anything is sized from
/// them: a sparse blob may not decode to more than [`MAX_RECORD`], the most
/// the plain path could have carried.
fn header(dec: &mut XdrDecoder<'_>) -> XdrResult<(usize, usize)> {
    let page = dec.get_u32()? as usize;
    if page < 8 {
        return Err(XdrError::Custom(format!("sparse page size {page} invalid")));
    }
    let raw_len = usize::try_from(dec.get_u64()?).unwrap_or(usize::MAX);
    if raw_len > MAX_RECORD {
        return Err(XdrError::LengthOutOfBounds {
            len: raw_len,
            max: MAX_RECORD,
        });
    }
    Ok((page, raw_len))
}

/// Decode a sparse blob into `out` (cleared first), materializing zero
/// pages as zero bytes — the result is byte-identical to the original
/// payload. `out` grows only as pages are produced, never from the
/// header's claim alone.
pub fn decode_into(enc: &[u8], out: &mut Vec<u8>) -> XdrResult<()> {
    let mut dec = XdrDecoder::new(enc);
    let (page, raw_len) = header(&mut dec)?;
    let bitmap = dec.get_opaque_ref()?;
    let literals = dec.get_opaque_ref()?;
    dec.finish()?;
    let pages = page_count(raw_len, page);
    if bitmap.len() != pages.div_ceil(8) {
        return Err(XdrError::Custom(format!(
            "sparse bitmap {} bytes, {} pages need {}",
            bitmap.len(),
            pages,
            pages.div_ceil(8)
        )));
    }
    out.clear();
    let mut lit = literals;
    for i in 0..pages {
        let this = (raw_len - i * page).min(page);
        if bitmap[i / 8] & (1 << (i % 8)) != 0 {
            if lit.len() < this {
                return Err(XdrError::Truncated {
                    needed: this,
                    remaining: lit.len(),
                });
            }
            out.extend_from_slice(&lit[..this]);
            lit = &lit[this..];
        } else {
            out.resize(out.len() + this, 0);
        }
    }
    if !lit.is_empty() {
        return Err(XdrError::TrailingBytes {
            remaining: lit.len(),
        });
    }
    Ok(())
}

/// Decode a sparse blob into a fresh buffer.
pub fn decode(enc: &[u8]) -> XdrResult<Vec<u8>> {
    let mut out = Vec::new();
    decode_into(enc, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(len: usize, page: usize, zero_every: usize) -> Vec<u8> {
        // Page i is zero when i % zero_every != 0 (so 1/zero_every dense).
        let mut v = vec![0u8; len];
        for (i, chunk) in v.chunks_mut(page).enumerate() {
            if zero_every == 0 || i % zero_every == 0 {
                chunk.fill(0xab);
            }
        }
        v
    }

    #[test]
    fn roundtrip_mixed() {
        let data = payload(64 * 1024 + 123, 4096, 3);
        let mut enc = Vec::new();
        encode_into(&data, 4096, &mut enc);
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn roundtrip_all_zero_and_all_dense() {
        for data in [vec![0u8; 40960], vec![0x5a; 40960], Vec::new()] {
            let mut enc = Vec::new();
            encode_into(&data, 4096, &mut enc);
            assert_eq!(decode(&enc).unwrap(), data);
        }
    }

    #[test]
    fn roundtrip_short_final_page() {
        for tail in [1usize, 7, 4095] {
            // Zero final short page.
            let mut data = payload(8192, 4096, 0);
            data.extend(std::iter::repeat_n(0u8, tail));
            let mut enc = Vec::new();
            encode_into(&data, 4096, &mut enc);
            assert_eq!(decode(&enc).unwrap(), data);
            // Dense final short page.
            let mut data = vec![0u8; 8192];
            data.extend(std::iter::repeat_n(0x77u8, tail));
            encode_into(&data, 4096, &mut enc);
            assert_eq!(decode(&enc).unwrap(), data);
        }
    }

    #[test]
    fn adaptive_refuses_dense_payloads() {
        let data = vec![0x11u8; 1 << 20];
        let mut out = Vec::new();
        assert_eq!(encode_adaptive(&data, SPARSE_PAGE, &mut out), None);
        assert!(out.is_empty());
    }

    #[test]
    fn adaptive_wins_big_on_ninety_percent_zeros() {
        // 1 dense page in 10.
        let data = payload(10 * 4096 * 32, 4096, 10);
        let mut out = Vec::new();
        let (wire, zeros) = encode_adaptive(&data, 4096, &mut out).unwrap();
        assert_eq!(zeros, 9 * 32);
        assert!(
            wire * 5 <= data.len(),
            "90%-zero payload must shrink >=5x: {wire} vs {}",
            data.len()
        );
        assert_eq!(decode(&out).unwrap(), data);
    }

    #[test]
    fn decode_rejects_corrupt_blobs() {
        let data = payload(16 * 4096, 4096, 2);
        let mut enc = Vec::new();
        encode_into(&data, 4096, &mut enc);
        // Truncated literals.
        assert!(decode(&enc[..enc.len() - 8]).is_err());
        // Bad page size.
        let mut bad = enc.clone();
        bad[..4].copy_from_slice(&1u32.to_be_bytes());
        assert!(decode(&bad).is_err());
        // Bitmap length mismatch: lie about raw_len.
        let mut bad = enc.clone();
        bad[4..12].copy_from_slice(&(1u64 << 30).to_be_bytes());
        assert!(decode(&bad).is_err());
    }

    /// The 4116-byte blob that used to abort the process: `page` and
    /// `raw_len` chosen so a 4096-byte all-zero bitmap passes the length
    /// check while `raw_len` asks for 64 TiB.
    #[test]
    fn oversized_raw_len_is_rejected_before_any_allocation() {
        let header = |raw_len: u64, bitmap: &[u8]| {
            let mut enc = XdrEncoder::new();
            enc.put_u32(0x8000_0000);
            enc.put_u64(raw_len);
            enc.put_opaque(bitmap);
            enc.put_opaque(&[]);
            enc.into_inner()
        };
        let blob = header(1 << 46, &[0u8; 4096]);
        assert_eq!(blob.len(), 4116);
        let bound = XdrError::LengthOutOfBounds {
            len: 1 << 46,
            max: MAX_RECORD,
        };
        let mut out = Vec::new();
        // Best of a few tries: a descheduled test thread is not a slow decode.
        let fastest = (0..10)
            .map(|_| {
                let t0 = std::time::Instant::now();
                assert_eq!(decode_into(&blob, &mut out), Err(bound.clone()));
                t0.elapsed()
            })
            .min()
            .unwrap();
        assert!(fastest < std::time::Duration::from_millis(1), "{fastest:?}");
        assert_eq!(out.capacity(), 0, "nothing sized from the header");
        // One byte past what the plain path could carry is already refused.
        assert!(decode(&header(MAX_RECORD as u64 + 1, &[0u8])).is_err());
    }
}
