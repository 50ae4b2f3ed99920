//! Record marking (RFC 5531 §11) with multi-fragment support.
//!
//! Over a stream transport, each RPC message is a *record* composed of one or
//! more *fragments*. A fragment starts with a 4-byte big-endian header whose
//! top bit marks the final fragment and whose low 31 bits give the fragment
//! length. Support for records spanning many fragments is the capability the
//! paper calls out as missing from the `onc_rpc` crate — without it, CUDA
//! memory transfers would be capped at one fragment.

use crate::error::{RpcError, RpcResult};
use std::io::{self, IoSlice, Read, Write};
use xdr::{FixedBuf, XdrSink};

/// Default maximum bytes of payload per fragment when writing.
///
/// Real libtirpc uses fragments of up to 2^31-1 bytes; Cricket's transfers
/// are chunked near this size. We default to 1 MiB so large transfers
/// genuinely exercise the multi-fragment path, and make it configurable for
/// the fragmentation ablation benchmark.
pub const DEFAULT_MAX_FRAGMENT: usize = 1 << 20;

/// Hard cap on a reassembled record (1 GiB) to bound memory under malicious
/// or corrupt headers.
pub const MAX_RECORD: usize = 1 << 30;

const LAST_FRAGMENT: u32 = 0x8000_0000;
const LENGTH_MASK: u32 = 0x7fff_ffff;

/// Split `payload` into record-marked fragments and write them to `w`.
///
/// `max_fragment` bounds the payload bytes per fragment. A zero-length
/// payload is sent as a single empty final fragment, which RFC 5531 permits.
pub fn write_record<W: Write + ?Sized>(
    w: &mut W,
    payload: &[u8],
    max_fragment: usize,
) -> RpcResult<()> {
    write_record_sg(w, &[payload], max_fragment).map(|_| ())
}

/// Write one record whose payload is the concatenation of `segs`, as a chain
/// of `IoSlice`s (fragment header + borrowed payload slices) handed to
/// [`Write::write_vectored`]. The wire bytes are identical to
/// [`write_record`] over the flattened payload, but the payload is never
/// copied into an intermediate buffer and no heap allocation occurs.
///
/// Returns the number of fragments emitted.
pub fn write_record_sg<W: Write + ?Sized>(
    w: &mut W,
    segs: &[&[u8]],
    max_fragment: usize,
) -> RpcResult<u64> {
    assert!(max_fragment > 0, "max_fragment must be positive");
    // Fragment gather list: one header slot plus payload slices. A fragment
    // spanning more than BATCH-1 segments is emitted with several vectored
    // writes — still allocation-free.
    const BATCH: usize = 16;
    let total: usize = segs.iter().map(|s| s.len()).sum();
    let (mut seg_idx, mut seg_off) = (0usize, 0usize);
    let mut offset = 0;
    let mut fragments = 0u64;
    loop {
        let remaining = total - offset;
        let frag_len = remaining.min(max_fragment);
        let last = frag_len == remaining;
        let header = (frag_len as u32 & LENGTH_MASK) | if last { LAST_FRAGMENT } else { 0 };
        let header_bytes = header.to_be_bytes();
        let mut iov: [IoSlice<'_>; BATCH] = [IoSlice::new(&[]); BATCH];
        iov[0] = IoSlice::new(&header_bytes);
        let mut n = 1;
        let mut needed = frag_len;
        while needed > 0 {
            if n == BATCH {
                write_all_vectored(w, &mut iov[..n])?;
                n = 0;
                continue;
            }
            let seg = segs[seg_idx];
            let avail = seg.len() - seg_off;
            if avail == 0 {
                seg_idx += 1;
                seg_off = 0;
                continue;
            }
            let take = avail.min(needed);
            iov[n] = IoSlice::new(&seg[seg_off..seg_off + take]);
            n += 1;
            seg_off += take;
            needed -= take;
            if seg_off == seg.len() {
                seg_idx += 1;
                seg_off = 0;
            }
        }
        if n > 0 {
            write_all_vectored(w, &mut iov[..n])?;
        }
        fragments += 1;
        offset += frag_len;
        if last {
            break;
        }
    }
    w.flush()?;
    Ok(fragments)
}

/// `write_all` over a gather list, advancing across short writes.
fn write_all_vectored<W: Write + ?Sized>(w: &mut W, mut bufs: &mut [IoSlice<'_>]) -> RpcResult<()> {
    // Drop leading empty slices so `write_vectored(&[])` is never reached.
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => {
                return Err(RpcError::Io(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write whole record",
                )))
            }
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Read one complete record (all fragments) from `r`.
///
/// Returns `Ok(None)` if the stream is cleanly closed *before* the first
/// header byte — i.e. the peer hung up between records, which is how servers
/// detect client disconnects. EOF in the middle of a record is an error.
pub fn read_record<R: Read + ?Sized>(r: &mut R, max_record: usize) -> RpcResult<Option<Vec<u8>>> {
    let mut record = Vec::new();
    Ok(read_record_into(r, &mut record, max_record)?.map(|_| record))
}

/// Storage a record lives in, and the buffer policy of an
/// [`RpcClient`](crate::RpcClient): requests are encoded into one and
/// replies reassembled into another. A pooled `Vec<u8>` grows on demand up
/// to the record cap; a `FixedBuf<[u8; N]>` never allocates and fails with
/// [`RpcError::RecordTooLarge`] beyond `N`.
pub trait RecordBuf: XdrSink {
    /// An empty buffer. Allocation-free for the fixed policy.
    fn fresh() -> Self;

    /// Append the next `len` bytes of `r` without zero-filling first,
    /// returning how many arrived (fewer only at end of stream). The caller
    /// has checked that `len` more bytes fit under [`XdrSink::limit`].
    fn fill_from<R: Read + ?Sized>(&mut self, r: &mut R, len: usize) -> io::Result<usize>;
}

impl RecordBuf for Vec<u8> {
    fn fresh() -> Self {
        Vec::with_capacity(256)
    }

    fn fill_from<R: Read + ?Sized>(&mut self, r: &mut R, len: usize) -> io::Result<usize> {
        let mut left = len;
        while left > 0 {
            // `len` is what the peer announced, up to `MAX_RECORD`: grow at
            // most `FILL_STEP` past the bytes that have arrived, never by
            // the announcement. Steps stay amortised by `reserve`'s doubling.
            self.reserve(left.min(FILL_STEP));
            let room = (self.capacity() - self.len()).min(left);
            // `take` bounds the read; `read_to_end` appends only bytes
            // actually received and stops at the limit without an extra
            // syscall.
            match r.take(room as u64).read_to_end(self)? {
                0 => break,
                got => left -= got,
            }
        }
        Ok(len - left)
    }
}

/// How far [`RecordBuf::fill_from`] grows a `Vec<u8>` ahead of the bytes
/// that have arrived.
const FILL_STEP: usize = 64 * 1024;

impl<const N: usize> RecordBuf for FixedBuf<[u8; N]> {
    fn fresh() -> Self {
        FixedBuf::new([0u8; N])
    }

    fn fill_from<R: Read + ?Sized>(&mut self, r: &mut R, len: usize) -> io::Result<usize> {
        self.put_with(len, |spare| r.read_exact(spare))
            .map(|()| len)
    }
}

/// Read one complete record into a caller-owned buffer, reusing its
/// storage. The buffer is cleared first; on success it holds exactly the
/// record bytes and the record length is returned. `Ok(None)` means the
/// stream closed cleanly before the first header byte.
///
/// Unlike building a fresh `Vec` per record, a pooled buffer in steady state
/// costs no allocation and no zero-fill. Records beyond `max_record` or the
/// buffer's own limit are refused at the offending fragment header, before
/// any of that fragment is read.
pub fn read_record_into<R: Read + ?Sized, B: RecordBuf>(
    r: &mut R,
    record: &mut B,
    max_record: usize,
) -> RpcResult<Option<usize>> {
    record.truncate(0);
    let max_record = max_record.min(record.limit());
    let mut first = true;
    loop {
        let mut header = [0u8; 4];
        if first {
            // Distinguish clean EOF from a mid-record cut.
            match read_exact_or_eof(r, &mut header)? {
                ReadOutcome::Eof => return Ok(None),
                ReadOutcome::Filled => {}
            }
        } else {
            r.read_exact(&mut header).map_err(RpcError::from)?;
        }
        first = false;
        let word = u32::from_be_bytes(header);
        let last = word & LAST_FRAGMENT != 0;
        let len = (word & LENGTH_MASK) as usize;
        if record.len() + len > max_record {
            return Err(RpcError::RecordTooLarge {
                size: record.len() + len,
                max: max_record,
            });
        }
        if record.fill_from(r, len)? < len {
            return Err(RpcError::ConnectionClosed);
        }
        if last {
            return Ok(Some(record.len()));
        }
    }
}

enum ReadOutcome {
    Filled,
    Eof,
}

/// `read_exact`, but a clean EOF before the first byte yields `Eof` instead
/// of an error.
fn read_exact_or_eof<R: Read + ?Sized>(r: &mut R, buf: &mut [u8]) -> RpcResult<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(ReadOutcome::Eof);
                }
                return Err(RpcError::ConnectionClosed);
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(ReadOutcome::Filled)
}

/// Incremental, pull-based record reassembly for nonblocking reads.
///
/// The blocking readers above own their stream and can park inside `read`;
/// an event-driven server cannot — it receives whatever bytes the socket
/// had and must resume mid-header or mid-fragment on the next readiness
/// event. `RecordAssembler` decouples byte arrival from record extraction:
/// feed raw bytes with [`RecordAssembler::extend`], then drain complete
/// records with [`RecordAssembler::next_record`] — which the caller may
/// stop calling at any point (backpressure) without losing stream state.
///
/// Steady state allocates nothing: the raw buffer and the assembled-record
/// buffer are both reused, and the raw buffer is compacted only when the
/// consumed prefix dominates.
#[derive(Debug)]
pub struct RecordAssembler {
    /// Raw unparsed stream bytes; `off` is the consumed prefix.
    buf: Vec<u8>,
    off: usize,
    /// The assembled record handed out by the last `next_record`.
    record: Vec<u8>,
    max_record: usize,
}

impl Default for RecordAssembler {
    fn default() -> Self {
        Self::new(MAX_RECORD)
    }
}

impl RecordAssembler {
    /// Create an assembler that rejects records larger than `max_record`.
    pub fn new(max_record: usize) -> Self {
        Self {
            buf: Vec::new(),
            off: 0,
            record: Vec::new(),
            max_record,
        }
    }

    /// Append raw bytes received from the stream.
    pub fn extend(&mut self, data: &[u8]) {
        // Compact before growing: once more than half the buffer is dead
        // prefix, slide the live tail down instead of reallocating past it.
        if self.off > 0 && self.off * 2 >= self.buf.len() {
            self.buf.drain(..self.off);
            self.off = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// Bytes buffered but not yet returned as part of a complete record.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.off
    }

    /// Extract the next complete record, if the buffer holds one.
    ///
    /// Returns `Ok(None)` when more bytes are needed; the partial state is
    /// kept. The returned slice is valid until the next call.
    pub fn next_record(&mut self) -> RpcResult<Option<&[u8]>> {
        let avail = &self.buf[self.off..];
        let mut pos = 0usize;
        let mut total = 0usize;
        // First pass: walk the fragment headers to see whether the whole
        // record has arrived (records are small on the hot path, and the
        // walk touches only headers — 4 bytes per fragment).
        loop {
            if avail.len() < pos + 4 {
                return Ok(None);
            }
            let word = u32::from_be_bytes(avail[pos..pos + 4].try_into().unwrap());
            let len = (word & LENGTH_MASK) as usize;
            total += len;
            if total > self.max_record {
                return Err(RpcError::RecordTooLarge {
                    size: total,
                    max: self.max_record,
                });
            }
            if avail.len() < pos + 4 + len {
                return Ok(None);
            }
            pos += 4 + len;
            if word & LAST_FRAGMENT != 0 {
                break;
            }
        }
        // Second pass: gather the fragment payloads contiguously.
        self.record.clear();
        self.record.reserve(total);
        let mut at = 0usize;
        loop {
            let word = u32::from_be_bytes(avail[at..at + 4].try_into().unwrap());
            let len = (word & LENGTH_MASK) as usize;
            self.record.extend_from_slice(&avail[at + 4..at + 4 + len]);
            at += 4 + len;
            if word & LAST_FRAGMENT != 0 {
                break;
            }
        }
        debug_assert_eq!(at, pos);
        self.off += pos;
        Ok(Some(&self.record))
    }
}

/// Buffered record writer bound to a `Write` stream.
#[derive(Debug)]
pub struct RecordWriter<W: Write> {
    inner: W,
    max_fragment: usize,
    /// Number of fragments emitted, for tests and telemetry.
    pub fragments_written: u64,
}

impl<W: Write> RecordWriter<W> {
    /// Wrap `inner` with the default fragment size.
    pub fn new(inner: W) -> Self {
        Self::with_max_fragment(inner, DEFAULT_MAX_FRAGMENT)
    }

    /// Wrap `inner` with a custom maximum fragment payload size.
    pub fn with_max_fragment(inner: W, max_fragment: usize) -> Self {
        assert!(max_fragment > 0);
        Self {
            inner,
            max_fragment,
            fragments_written: 0,
        }
    }

    /// Write one record. The fragment counter reflects only records that
    /// were written in full — a failed write no longer inflates it.
    pub fn write_record(&mut self, payload: &[u8]) -> RpcResult<()> {
        let frags = write_record_sg(&mut self.inner, &[payload], self.max_fragment)?;
        self.fragments_written += frags;
        Ok(())
    }

    /// Write one record from a gather list without flattening it first.
    pub fn write_record_sg(&mut self, segs: &[&[u8]]) -> RpcResult<()> {
        let frags = write_record_sg(&mut self.inner, segs, self.max_fragment)?;
        self.fragments_written += frags;
        Ok(())
    }

    /// Access the underlying stream.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.inner
    }
}

/// Buffered record reader bound to a `Read` stream, owning a pooled
/// reassembly buffer reused across records.
#[derive(Debug)]
pub struct RecordReader<R: Read> {
    inner: R,
    max_record: usize,
    buf: Vec<u8>,
}

impl<R: Read> RecordReader<R> {
    /// Wrap `inner` with the default record size cap.
    pub fn new(inner: R) -> Self {
        Self::with_max_record(inner, MAX_RECORD)
    }

    /// Wrap `inner` with a custom record size cap.
    pub fn with_max_record(inner: R, max_record: usize) -> Self {
        Self {
            inner,
            max_record,
            buf: Vec::new(),
        }
    }

    /// Read the next record into a fresh `Vec`; `None` on clean
    /// end-of-stream. Allocates per record — prefer
    /// [`RecordReader::read_record_pooled`] on hot paths.
    pub fn read_record(&mut self) -> RpcResult<Option<Vec<u8>>> {
        read_record(&mut self.inner, self.max_record)
    }

    /// Read the next record into the pooled buffer and borrow it. In steady
    /// state (record sizes repeat or shrink) this performs no allocation.
    /// The returned slice is valid until the next read.
    pub fn read_record_pooled(&mut self) -> RpcResult<Option<&[u8]>> {
        match read_record_into(&mut self.inner, &mut self.buf, self.max_record)? {
            Some(n) => Ok(Some(&self.buf[..n])),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(payload: &[u8], max_fragment: usize) -> Vec<u8> {
        let mut wire = Vec::new();
        write_record(&mut wire, payload, max_fragment).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        read_record(&mut cursor, MAX_RECORD).unwrap().unwrap()
    }

    #[test]
    fn single_fragment_roundtrip() {
        let data = b"hello rpc".to_vec();
        assert_eq!(roundtrip(&data, 1024), data);
    }

    #[test]
    fn empty_record_roundtrip() {
        assert_eq!(roundtrip(&[], 1024), Vec::<u8>::new());
    }

    #[test]
    fn multi_fragment_roundtrip() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        // Force many fragments.
        assert_eq!(roundtrip(&data, 100), data);
    }

    #[test]
    fn fragment_boundary_exact_multiple() {
        // Payload is an exact multiple of the fragment size: the final
        // fragment must be full-sized and flagged last (no empty trailer).
        let data = vec![7u8; 400];
        let mut wire = Vec::new();
        write_record(&mut wire, &data, 100).unwrap();
        // 4 fragments x (4 header + 100 payload)
        assert_eq!(wire.len(), 4 * 104);
        let last_header = u32::from_be_bytes(wire[3 * 104..3 * 104 + 4].try_into().unwrap());
        assert!(last_header & LAST_FRAGMENT != 0);
        assert_eq!(last_header & LENGTH_MASK, 100);
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_record(&mut cursor, MAX_RECORD).unwrap().unwrap(), data);
    }

    #[test]
    fn fragment_count_tracked() {
        let mut w = RecordWriter::with_max_fragment(Vec::new(), 10);
        w.write_record(&[0u8; 35]).unwrap();
        assert_eq!(w.fragments_written, 4);
        w.write_record(&[]).unwrap();
        assert_eq!(w.fragments_written, 5);
    }

    #[test]
    fn clean_eof_between_records() {
        let mut cursor = std::io::Cursor::new(Vec::<u8>::new());
        assert!(read_record(&mut cursor, MAX_RECORD).unwrap().is_none());
    }

    #[test]
    fn eof_mid_record_is_error() {
        let mut wire = Vec::new();
        write_record(&mut wire, &[1u8; 64], 1024).unwrap();
        wire.truncate(10); // cut inside the payload
        let mut cursor = std::io::Cursor::new(wire);
        assert!(matches!(
            read_record(&mut cursor, MAX_RECORD),
            Err(RpcError::ConnectionClosed) | Err(RpcError::Io(_))
        ));
    }

    #[test]
    fn eof_mid_header_is_error() {
        let wire = vec![0x80, 0x00]; // half a header
        let mut cursor = std::io::Cursor::new(wire);
        assert!(read_record(&mut cursor, MAX_RECORD).is_err());
    }

    #[test]
    fn oversized_record_rejected() {
        let mut wire = Vec::new();
        write_record(&mut wire, &[1u8; 1000], 100).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        assert!(matches!(
            read_record(&mut cursor, 500),
            Err(RpcError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn an_announced_length_does_not_size_the_buffer() {
        let header = ((512u32 << 20) | LAST_FRAGMENT).to_be_bytes();
        let mut record = Vec::<u8>::fresh();
        let got = read_record_into(&mut &header[..], &mut record, MAX_RECORD);
        assert!(matches!(got, Err(RpcError::ConnectionClosed)), "{got:?}");
        assert!(record.capacity() < 1 << 20, "{}", record.capacity());
    }

    #[test]
    fn multiple_records_sequential() {
        let mut wire = Vec::new();
        write_record(&mut wire, b"first", 3).unwrap();
        write_record(&mut wire, b"second-record", 4).unwrap();
        write_record(&mut wire, b"", 4).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(
            read_record(&mut cursor, MAX_RECORD).unwrap().unwrap(),
            b"first"
        );
        assert_eq!(
            read_record(&mut cursor, MAX_RECORD).unwrap().unwrap(),
            b"second-record"
        );
        assert_eq!(read_record(&mut cursor, MAX_RECORD).unwrap().unwrap(), b"");
        assert!(read_record(&mut cursor, MAX_RECORD).unwrap().is_none());
    }

    #[test]
    fn assembler_single_and_multi_fragment() {
        let mut wire = Vec::new();
        write_record(&mut wire, b"hello", 1024).unwrap();
        write_record(&mut wire, &[9u8; 350], 100).unwrap(); // 4 fragments
        let mut asm = RecordAssembler::default();
        asm.extend(&wire);
        assert_eq!(asm.next_record().unwrap().unwrap(), b"hello");
        assert_eq!(asm.next_record().unwrap().unwrap(), &[9u8; 350][..]);
        assert!(asm.next_record().unwrap().is_none());
        assert_eq!(asm.pending_bytes(), 0);
    }

    #[test]
    fn assembler_survives_byte_at_a_time_arrival() {
        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 253) as u8).collect();
        let mut wire = Vec::new();
        write_record(&mut wire, &payload, 64).unwrap();
        let mut asm = RecordAssembler::default();
        let mut out = None;
        for (i, b) in wire.iter().enumerate() {
            asm.extend(std::slice::from_ref(b));
            match asm.next_record().unwrap() {
                Some(rec) => {
                    assert_eq!(i, wire.len() - 1, "record completed early");
                    out = Some(rec.to_vec());
                }
                None => assert!(i < wire.len() - 1, "record never completed"),
            }
        }
        assert_eq!(out.unwrap(), payload);
    }

    #[test]
    fn assembler_interleaves_partial_records_and_reuses_buffers() {
        let mut asm = RecordAssembler::default();
        for round in 0..50u8 {
            let payload = vec![round; 700];
            let mut wire = Vec::new();
            write_record(&mut wire, &payload, 256).unwrap();
            let (a, b) = wire.split_at(wire.len() / 2);
            asm.extend(a);
            assert!(asm.next_record().unwrap().is_none());
            asm.extend(b);
            assert_eq!(asm.next_record().unwrap().unwrap(), &payload[..]);
        }
        // Compaction keeps the raw buffer from growing with round count.
        assert!(
            asm.buf.capacity() < 16 * 1024,
            "raw buffer grew unboundedly"
        );
    }

    #[test]
    fn assembler_rejects_oversized_records() {
        let mut wire = Vec::new();
        write_record(&mut wire, &[1u8; 1000], 100).unwrap();
        let mut asm = RecordAssembler::new(500);
        asm.extend(&wire);
        assert!(matches!(
            asm.next_record(),
            Err(RpcError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn assembler_empty_record() {
        let mut wire = Vec::new();
        write_record(&mut wire, &[], 1024).unwrap();
        let mut asm = RecordAssembler::default();
        asm.extend(&wire);
        assert_eq!(asm.next_record().unwrap().unwrap(), b"");
    }

    #[test]
    fn large_transfer_many_fragments() {
        // A "GPU memory transfer" sized record: 8 MiB over 1 MiB fragments.
        let data: Vec<u8> = (0..(8 << 20)).map(|i| (i * 31 % 256) as u8).collect();
        let out = roundtrip(&data, DEFAULT_MAX_FRAGMENT);
        assert_eq!(out.len(), data.len());
        assert_eq!(out, data);
    }
}
