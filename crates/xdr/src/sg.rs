//! Scatter-gather XDR encoding.
//!
//! Bulk RPC arguments (`cuMemcpyHtoD` payloads, module images) dominate the
//! bytes an encoder handles, and copying them into the owned stream is the
//! single largest memcpy on the client's hot path. [`XdrSgEncoder`] wraps a
//! plain [`XdrEncoder`] and lets large opaques be *deferred*: the length
//! prefix and padding go into the owned stream as usual, while the payload
//! itself is recorded as a borrowed slice. [`XdrSgEncoder::with_segments`]
//! then exposes the logical byte stream as an ordered slice list suitable
//! for a vectored write — the payload bytes are never copied by the encoder.

use crate::{XdrEncoder, XdrSink};
use std::ops::{Deref, DerefMut};

/// Maximum number of deferred slices per message. Cricket calls carry at
/// most one bulk argument, so four leaves headroom; further deferrals fall
/// back to copying (correct, just not zero-copy).
pub(crate) const MAX_DEFERRED: usize = 4;

/// Upper bound on the segment count [`XdrSgEncoder::with_segments`] yields:
/// each deferred slice splits the owned stream once.
pub(crate) const MAX_SEGMENTS: usize = 2 * MAX_DEFERRED + 1;

/// XDR encoder whose output is the owned stream of the wrapped
/// [`XdrEncoder`] (over either sink) interleaved with borrowed payload
/// slices.
///
/// Derefs to [`XdrEncoder`], so all scalar `put_*` methods write to the
/// owned stream. Only [`XdrSgEncoder::put_opaque_deferred`] records a
/// borrowed slice. `'d` is the lifetime of the deferred payload data; the
/// borrowed slices must stay alive until the message has been written.
pub struct XdrSgEncoder<'d, 'e, B = Vec<u8>> {
    enc: &'e mut XdrEncoder<B>,
    /// `(split, slice)`: the slice logically sits at offset `split` of the
    /// owned stream. Splits are non-decreasing by construction.
    deferred: [(usize, &'d [u8]); MAX_DEFERRED],
    count: usize,
}

impl<'d, 'e, B: XdrSink> XdrSgEncoder<'d, 'e, B> {
    /// Wrap `enc`, which may already contain header bytes. Anything written
    /// before this call stays ahead of all deferred slices.
    pub fn new(enc: &'e mut XdrEncoder<B>) -> Self {
        Self {
            enc,
            deferred: [(0, &[]); MAX_DEFERRED],
            count: 0,
        }
    }

    /// Write variable-length opaque data without copying the payload: the
    /// u32 length prefix and the zero padding go into the owned stream, the
    /// payload is recorded as a borrowed slice. Falls back to a copying
    /// [`XdrEncoder::put_opaque`] once `MAX_DEFERRED` slices are recorded
    /// or for payloads too small to be worth an iovec entry.
    pub fn put_opaque_deferred(&mut self, data: &'d [u8]) {
        // Tiny payloads cost more as a vectored segment than as a copy.
        const DEFER_THRESHOLD: usize = 512;
        if self.count == MAX_DEFERRED || data.len() < DEFER_THRESHOLD {
            self.enc.put_opaque(data);
            return;
        }
        debug_assert!(data.len() <= u32::MAX as usize);
        self.enc.put_u32(data.len() as u32);
        self.deferred[self.count] = (self.enc.len(), data);
        self.count += 1;
        // Padding follows the deferred payload in the logical stream, but
        // lives in the owned buffer right at the split point.
        self.enc.put_padding_for(data.len());
    }

    /// Total length of the logical stream: owned bytes plus deferred bytes.
    pub fn total_len(&self) -> usize {
        self.enc.len()
            + self.deferred[..self.count]
                .iter()
                .map(|(_, d)| d.len())
                .sum::<usize>()
    }

    /// Run `f` over the logical byte stream as an ordered segment list.
    /// Concatenating the segments yields exactly the bytes a plain encoder
    /// would have produced. At most `MAX_SEGMENTS` entries; built on the
    /// stack, no allocation. Over a bounded sink, check
    /// [`finish`](XdrEncoder::finish) first: an overflowed owned stream has
    /// no bytes to split.
    pub fn with_segments<R>(&self, f: impl FnOnce(&[&[u8]]) -> R) -> R {
        let owned = self.enc.as_slice();
        let mut segs: [&[u8]; MAX_SEGMENTS] = [&[]; MAX_SEGMENTS];
        let mut n = 0;
        let mut prev = 0;
        for &(split, data) in &self.deferred[..self.count] {
            if split > prev {
                segs[n] = &owned[prev..split];
                n += 1;
            }
            if !data.is_empty() {
                segs[n] = data;
                n += 1;
            }
            prev = split;
        }
        if owned.len() > prev || n == 0 {
            segs[n] = &owned[prev..];
            n += 1;
        }
        f(&segs[..n])
    }
}

impl<B> Deref for XdrSgEncoder<'_, '_, B> {
    type Target = XdrEncoder<B>;
    fn deref(&self) -> &XdrEncoder<B> {
        self.enc
    }
}

impl<B> DerefMut for XdrSgEncoder<'_, '_, B> {
    fn deref_mut(&mut self) -> &mut XdrEncoder<B> {
        self.enc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<B: XdrSink> XdrSgEncoder<'_, '_, B> {
        /// Number of deferred (zero-copy) slices recorded so far.
        fn deferred_count(&self) -> usize {
            self.count
        }

        /// Flatten into a single owned buffer.
        fn to_contiguous(&self) -> Vec<u8> {
            self.with_segments(|segs| segs.concat())
        }
    }

    /// Reference: what a plain encoder produces for the same logical writes.
    fn plain(header: u32, payload: &[u8], trailer: u64) -> Vec<u8> {
        let mut e = XdrEncoder::new();
        e.put_u32(header);
        e.put_opaque(payload);
        e.put_u64(trailer);
        e.into_inner()
    }

    #[test]
    fn segments_match_plain_encoding() {
        for len in [512usize, 513, 515, 4096] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut enc = XdrEncoder::new();
            let mut sg = XdrSgEncoder::new(&mut enc);
            sg.put_u32(7);
            sg.put_opaque_deferred(&payload);
            sg.put_u64(0xdead_beef);
            assert_eq!(sg.deferred_count(), 1);
            assert_eq!(sg.total_len(), plain(7, &payload, 0xdead_beef).len());
            assert_eq!(sg.to_contiguous(), plain(7, &payload, 0xdead_beef));
        }
    }

    #[test]
    fn small_payloads_fall_back_to_copy() {
        let payload = [9u8; 16];
        let mut enc = XdrEncoder::new();
        let mut sg = XdrSgEncoder::new(&mut enc);
        sg.put_u32(1);
        sg.put_opaque_deferred(&payload);
        assert_eq!(sg.deferred_count(), 0);
        let got = sg.to_contiguous();
        let mut want = XdrEncoder::new();
        want.put_u32(1);
        want.put_opaque(&payload);
        assert_eq!(got, want.into_inner());
    }

    #[test]
    fn overflow_beyond_max_deferred_still_correct() {
        let payload = vec![3u8; 600];
        let mut enc = XdrEncoder::new();
        let mut sg = XdrSgEncoder::new(&mut enc);
        let mut want = XdrEncoder::new();
        for _ in 0..(MAX_DEFERRED + 2) {
            sg.put_opaque_deferred(&payload);
            want.put_opaque(&payload);
        }
        assert_eq!(sg.deferred_count(), MAX_DEFERRED);
        assert_eq!(sg.to_contiguous(), want.into_inner());
    }

    #[test]
    fn empty_message_yields_one_empty_segment() {
        let mut enc = XdrEncoder::new();
        let sg = XdrSgEncoder::new(&mut enc);
        sg.with_segments(|segs| {
            assert_eq!(segs.len(), 1);
            assert!(segs[0].is_empty());
        });
    }

    #[test]
    fn adjacent_deferred_slices_preserve_order() {
        let a = vec![1u8; 512];
        let b = vec![2u8; 512];
        let mut enc = XdrEncoder::new();
        let mut sg = XdrSgEncoder::new(&mut enc);
        sg.put_opaque_deferred(&a);
        sg.put_opaque_deferred(&b);
        let mut want = XdrEncoder::new();
        want.put_opaque(&a);
        want.put_opaque(&b);
        assert_eq!(sg.to_contiguous(), want.into_inner());
    }

    #[test]
    fn unpadded_payload_length_keeps_alignment() {
        // 513 bytes → 3 pad bytes that must land *after* the deferred slice.
        let payload = vec![5u8; 513];
        let mut enc = XdrEncoder::new();
        let mut sg = XdrSgEncoder::new(&mut enc);
        sg.put_opaque_deferred(&payload);
        sg.put_u32(0xffff_ffff);
        let mut want = XdrEncoder::new();
        want.put_opaque(&payload);
        want.put_u32(0xffff_ffff);
        assert_eq!(sg.to_contiguous(), want.into_inner());
    }
}
