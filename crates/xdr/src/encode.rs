//! XDR encoder: appends big-endian, 4-byte-aligned items to a byte sink.

use crate::{pad_bytes, Xdr, XdrError, XdrResult};

/// Where an [`XdrEncoder`] puts its bytes: a growable `Vec<u8>` or a
/// bounded [`FixedBuf`]. The sink is the encoder's only policy — every
/// `put_*` is written once against this trait.
pub trait XdrSink {
    /// Append `bytes`. A bounded sink drops what does not fit but still
    /// advances its logical length, so overflow is detected once, at the end.
    fn put(&mut self, bytes: &[u8]);

    /// Logical bytes appended so far (beyond [`limit`](Self::limit) after an
    /// overflow).
    fn len(&self) -> usize;

    /// True if nothing has been appended.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Roll back to `len` bytes, keeping the storage.
    fn truncate(&mut self, len: usize);

    /// The bytes held. Empty after an overflow: the encoding is incomplete.
    fn as_slice(&self) -> &[u8];

    /// Most bytes the sink can hold.
    fn limit(&self) -> usize;
}

impl XdrSink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
    #[inline]
    fn len(&self) -> usize {
        Vec::len(self)
    }
    fn truncate(&mut self, len: usize) {
        Vec::truncate(self, len);
    }
    #[inline]
    fn as_slice(&self) -> &[u8] {
        self
    }
    fn limit(&self) -> usize {
        usize::MAX
    }
}

/// Fixed-capacity sink over caller-provided storage (`&mut [u8]`, or an owned
/// `[u8; N]`): never allocates. Writes past the capacity are dropped but
/// counted, so [`XdrEncoder::finish`] can report the length the encoding
/// *would* have needed and callers size their buffers from one failed probe.
#[derive(Debug)]
pub struct FixedBuf<S> {
    buf: S,
    /// Logical length — exceeds the capacity after an overflow.
    pos: usize,
}

impl<S: AsRef<[u8]> + AsMut<[u8]>> FixedBuf<S> {
    /// An empty buffer over `buf`.
    pub fn new(buf: S) -> Self {
        Self { buf, pos: 0 }
    }

    /// Append `len` bytes by letting `fill` write straight into the spare
    /// capacity (e.g. a `read_exact`), with no intermediate copy. Nothing is
    /// appended if `fill` fails.
    ///
    /// # Panics
    /// If fewer than `len` bytes of capacity remain.
    pub fn put_with<E>(
        &mut self,
        len: usize,
        fill: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        fill(&mut self.buf.as_mut()[self.pos..self.pos + len])?;
        self.pos += len;
        Ok(())
    }
}

impl<S: AsRef<[u8]> + AsMut<[u8]>> XdrSink for FixedBuf<S> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        let end = self.pos + bytes.len();
        if let Some(dst) = self.buf.as_mut().get_mut(self.pos..end) {
            dst.copy_from_slice(bytes);
        }
        self.pos = end;
    }
    #[inline]
    fn len(&self) -> usize {
        self.pos
    }
    fn truncate(&mut self, len: usize) {
        self.pos = self.pos.min(len);
    }
    fn as_slice(&self) -> &[u8] {
        self.buf.as_ref().get(..self.pos).unwrap_or(&[])
    }
    fn limit(&self) -> usize {
        self.buf.as_ref().len()
    }
}

/// Streaming XDR encoder over a sink `B`.
///
/// With the default `Vec<u8>` sink the buffer grows as items are written;
/// for hot paths, construct once with [`XdrEncoder::with_capacity`] and reuse
/// via [`XdrEncoder::clear`] to amortize allocations. Over a [`FixedBuf`]
/// the same calls never allocate and [`XdrEncoder::finish`] reports overflow.
#[derive(Debug, Default, Clone)]
pub struct XdrEncoder<B = Vec<u8>> {
    buf: B,
}

impl XdrEncoder {
    /// Create an empty encoder.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Create an encoder with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }
}

impl<B: XdrSink> XdrEncoder<B> {
    /// Wrap an existing sink; new items are appended after its contents.
    pub fn from_sink(buf: B) -> Self {
        Self { buf }
    }

    /// Number of bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Drop all written bytes but keep the storage.
    pub fn clear(&mut self) {
        self.buf.truncate(0);
    }

    /// Roll the stream back to `len` bytes. Used by the RPC server to drop
    /// an optimistically written success header when dispatch fails, so the
    /// reply can be re-encoded into the same buffer without copying.
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Consume the encoder, returning the sink.
    pub fn into_inner(self) -> B {
        self.buf
    }

    /// View the bytes written so far (empty once a bounded sink overflowed).
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        self.buf.as_slice()
    }

    /// The encoded length, or — when a bounded sink overflowed —
    /// [`XdrError::Truncated`] whose `needed` is the total length the
    /// encoding required.
    pub fn finish(&self) -> XdrResult<usize> {
        let (needed, limit) = (self.buf.len(), self.buf.limit());
        if needed > limit {
            return Err(XdrError::Truncated {
                needed,
                remaining: limit,
            });
        }
        Ok(needed)
    }

    /// Encode any [`Xdr`] value.
    #[inline]
    pub fn put<T: Xdr>(&mut self, value: &T) -> &mut Self {
        value.encode(self);
        self
    }

    /// Write a 32-bit unsigned integer.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put(&v.to_be_bytes());
    }

    /// Write a 32-bit signed integer.
    #[inline]
    pub fn put_i32(&mut self, v: i32) {
        self.buf.put(&v.to_be_bytes());
    }

    /// Write a 64-bit unsigned integer (XDR "unsigned hyper").
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put(&v.to_be_bytes());
    }

    /// Write a 64-bit signed integer (XDR "hyper").
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.buf.put(&v.to_be_bytes());
    }

    /// Write a single-precision float.
    #[inline]
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Write a double-precision float.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Write a boolean as 0/1.
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u32(v as u32);
    }

    /// Write fixed-length opaque data (no length prefix), zero-padded to a
    /// multiple of four bytes.
    pub fn put_opaque_fixed(&mut self, data: &[u8]) {
        self.buf.put(data);
        self.put_padding_for(data.len());
    }

    /// Write variable-length opaque data: a u32 length followed by the bytes
    /// and zero padding.
    pub fn put_opaque(&mut self, data: &[u8]) {
        debug_assert!(data.len() <= u32::MAX as usize);
        self.put_u32(data.len() as u32);
        self.put_opaque_fixed(data);
    }

    /// Write an XDR string (same wire form as variable opaque).
    pub fn put_string(&mut self, s: &str) {
        self.put_opaque(s.as_bytes());
    }

    /// Write the zero fill that follows `payload_len` bytes of opaque data.
    /// Public so scatter-gather encoding can emit the padding for a payload
    /// that lives outside the owned stream.
    #[inline]
    pub fn put_padding_for(&mut self, payload_len: usize) {
        const ZEROS: [u8; 4] = [0; 4];
        self.buf.put(&ZEROS[..pad_bytes(payload_len)]);
    }

    /// Append pre-encoded XDR bytes verbatim. The caller asserts the bytes
    /// are already aligned XDR output (e.g. from another encoder).
    pub fn extend_raw(&mut self, bytes: &[u8]) {
        debug_assert_eq!(bytes.len() % 4, 0, "raw XDR must be aligned");
        self.buf.put(bytes);
    }

    /// Write a variable-length array: u32 count then each element.
    pub fn put_array<T: Xdr>(&mut self, items: &[T]) {
        self.put_u32(items.len() as u32);
        self.put_array_fixed(items);
    }

    /// Write a fixed-length array (no count prefix).
    pub fn put_array_fixed<T: Xdr>(&mut self, items: &[T]) {
        for item in items {
            item.encode(self);
        }
    }

    /// Write an XDR optional ("pointer"): 1 + value, or 0.
    pub fn put_option<T: Xdr>(&mut self, value: Option<&T>) {
        match value {
            Some(v) => {
                self.put_u32(1);
                v.encode(self);
            }
            None => self.put_u32(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_are_big_endian() {
        let mut e = XdrEncoder::new();
        e.put_u32(0x0102_0304);
        e.put_i32(-1);
        e.put_u64(0x0102_0304_0506_0708);
        assert_eq!(
            e.as_slice(),
            [1, 2, 3, 4, 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8]
        );
    }

    #[test]
    fn opaque_is_padded() {
        let mut e = XdrEncoder::new();
        e.put_opaque(b"abcde");
        assert_eq!(
            e.as_slice(),
            [0, 0, 0, 5, b'a', b'b', b'c', b'd', b'e', 0, 0, 0]
        );
        assert_eq!(e.len() % 4, 0);
    }

    #[test]
    fn fixed_opaque_has_no_length() {
        let mut e = XdrEncoder::new();
        e.put_opaque_fixed(b"ab");
        assert_eq!(e.as_slice(), [b'a', b'b', 0, 0]);
    }

    #[test]
    fn string_matches_opaque() {
        let mut a = XdrEncoder::new();
        a.put_string("hello");
        let mut b = XdrEncoder::new();
        b.put_opaque(b"hello");
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn floats_roundtrip_bits() {
        let mut e = XdrEncoder::new();
        e.put_f32(1.5);
        e.put_f64(-2.25);
        assert_eq!(&e.as_slice()[..4], 1.5f32.to_bits().to_be_bytes());
        assert_eq!(&e.as_slice()[4..], (-2.25f64).to_bits().to_be_bytes());
    }

    #[test]
    fn option_encoding() {
        let mut e = XdrEncoder::new();
        e.put_option(Some(&7u32));
        e.put_option::<u32>(None);
        assert_eq!(e.as_slice(), [0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 0]);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut e = XdrEncoder::with_capacity(64);
        e.put_u64(1);
        let cap = e.buf.capacity();
        e.clear();
        assert!(e.is_empty());
        assert_eq!(e.buf.capacity(), cap);
    }

    #[test]
    fn fixed_sink_exact_fit_is_not_overflow() {
        let mut buf = [0u8; 8];
        let mut enc = XdrEncoder::from_sink(FixedBuf::new(&mut buf[..]));
        enc.put_u64(42);
        assert_eq!(enc.finish().unwrap(), 8);
        assert_eq!(enc.as_slice(), 42u64.to_be_bytes());
    }

    #[test]
    fn fixed_sink_overflow_is_reported_and_recoverable() {
        let mut enc = XdrEncoder::from_sink(FixedBuf::new([0u8; 8]));
        enc.put_u32(1);
        enc.put_opaque(&[0xaa; 5]); // 4 + 12 bytes against a capacity of 8
        assert!(enc.as_slice().is_empty());
        assert_eq!(
            enc.finish(),
            Err(XdrError::Truncated {
                needed: 16,
                remaining: 8
            })
        );
        // Rolling back below the capacity makes the prefix usable again.
        enc.truncate(4);
        assert_eq!(enc.as_slice(), [0, 0, 0, 1]);
    }

    #[test]
    fn put_with_fills_spare_capacity_in_place() {
        let mut sink = FixedBuf::new([0u8; 8]);
        sink.put(&[1, 2]);
        sink.put_with(3, |dst| {
            dst.copy_from_slice(&[3, 4, 5]);
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(sink.as_slice(), [1, 2, 3, 4, 5]);
        // A failed fill appends nothing.
        assert_eq!(sink.put_with(2, |_| Err(7)), Err(7));
        assert_eq!(sink.len(), 5);
    }
}
