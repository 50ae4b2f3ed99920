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
use std::mem;
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

/// The top bit of a record mark: the fragment is its record's last.
const LAST_FRAGMENT: u32 = 0x8000_0000;
const LENGTH_MASK: u32 = 0x7fff_ffff;

/// The mark of a fragment of `len` payload bytes, the last of its record
/// when `last`: the one place mark bytes are built.
pub fn mark(len: usize, last: bool) -> [u8; 4] {
    ((len as u32 & LENGTH_MASK) | if last { LAST_FRAGMENT } else { 0 }).to_be_bytes()
}

/// Where a record-marked byte stream stands: in a fragment's mark or in its
/// payload, and how far into its record. The one parser of the format:
/// `read_record_into` passes each mark through it, and the nonblocking
/// readers feed it whatever bytes have arrived, however they are split. It
/// only classifies bytes that have arrived, and refuses a mark that would
/// take its record past `max_record` as that mark completes, before
/// anything could be sized from it.
#[derive(Debug)]
pub struct RecordMarks {
    /// The current fragment's mark; `have` of its bytes are in.
    header: [u8; 4],
    have: usize,
    /// Payload bytes still to come in the current fragment.
    left: usize,
    /// Payload and wire bytes of the record so far.
    payload: usize,
    wire: usize,
    max_record: usize,
}

impl RecordMarks {
    /// A parser at the start of a stream, refusing records past
    /// `max_record` payload bytes.
    pub fn new(max_record: usize) -> Self {
        Self {
            header: [0; 4],
            have: 0,
            left: 0,
            payload: 0,
            wire: 0,
            max_record,
        }
    }

    /// Consume the longest run at the head of `input` that is all mark or
    /// all payload and does not cross the record's end. Returns its length
    /// and, if the record ends with it, the record's payload and wire
    /// lengths.
    pub fn next(&mut self, input: &[u8]) -> RpcResult<(usize, Option<(usize, usize)>)> {
        let len;
        if self.left > 0 {
            len = input.len().min(self.left);
            (self.left, self.payload) = (self.left - len, self.payload + len);
        } else {
            len = input.len().min(4 - self.have);
            self.header[self.have..self.have + len].copy_from_slice(&input[..len]);
            self.have += len;
            if self.have == 4 {
                self.left = (u32::from_be_bytes(self.header) & LENGTH_MASK) as usize;
                let (size, max) = (self.payload + self.left, self.max_record);
                if size > max {
                    return Err(RpcError::RecordTooLarge { size, max });
                }
            }
        }
        self.wire += len;
        if self.have < 4 || self.left > 0 {
            return Ok((len, None));
        }
        self.have = 0;
        let last = u32::from_be_bytes(self.header) & LAST_FRAGMENT != 0;
        let end = last.then(|| (mem::take(&mut self.payload), mem::take(&mut self.wire)));
        Ok((len, end))
    }

    /// Strip the marks off `input` up to the end of the next record, handing
    /// each payload run to `sink`. Returns the bytes consumed and, if a
    /// record ended, its payload and wire lengths: call again with the rest.
    pub fn strip(
        &mut self,
        input: &[u8],
        mut sink: impl FnMut(&[u8]),
    ) -> RpcResult<(usize, Option<(usize, usize)>)> {
        let mut used = 0;
        while used < input.len() {
            let payload = self.left > 0;
            let (len, end) = self.next(&input[used..])?;
            if payload {
                sink(&input[used..used + len]);
            }
            used += len;
            if end.is_some() {
                return Ok((used, end));
            }
        }
        Ok((used, None))
    }
}

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
        let header_bytes = mark(frag_len, last);
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
            Ok(0) => return Err(RpcError::Io(io::ErrorKind::WriteZero.into())),
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

    /// Append the next `len` bytes of `r`, returning how many arrived
    /// (fewer only at end of stream). The caller has checked that `len`
    /// more bytes fit under [`XdrSink::limit`].
    fn fill_from<R: Read + ?Sized>(&mut self, r: &mut R, len: usize) -> io::Result<usize>;
}

impl RecordBuf for Vec<u8> {
    fn fresh() -> Self {
        Vec::with_capacity(256)
    }

    /// Reads in steps of at most `FILL_STEP` (64 KiB). `len` is what the peer
    /// announced, up to `MAX_RECORD`: the buffer grows at most one step past
    /// the bytes that have arrived, never by the announcement, and `read` is
    /// never handed more than one step. std zero-fills the spare capacity it
    /// hands `read`, so the step also bounds that memset to one
    /// cache-resident slice instead of the whole record.
    fn fill_from<R: Read + ?Sized>(&mut self, r: &mut R, len: usize) -> io::Result<usize> {
        let mut left = len;
        while left > 0 {
            // `reserve` doubles, so the steps stay amortised; `take` bounds
            // the read and `read_to_end` stops at it without an extra call.
            let step = left.min(FILL_STEP);
            self.reserve(step);
            match r.take(step as u64).read_to_end(self)? {
                0 => break,
                got => left -= got,
            }
        }
        Ok(len - left)
    }
}

/// How far [`RecordBuf::fill_from`] grows a `Vec<u8>` ahead of the bytes
/// that have arrived, and the most it hands one `read`.
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
/// storage: the whole-record form of `IncomingRecord`. The buffer is
/// cleared first; on success it holds exactly the record bytes and the
/// record length is returned. `Ok(None)` means the stream closed cleanly
/// before the first header byte.
///
/// Unlike building a fresh `Vec` per record, a pooled buffer in steady state
/// costs no allocation. Records beyond `max_record` or the buffer's own
/// limit are refused at the offending mark, before any of that fragment is
/// read; payload is read straight into `record`.
pub(crate) fn read_record_into<R: Read + ?Sized, B: RecordBuf>(
    r: &mut R,
    record: &mut B,
    max_record: usize,
) -> RpcResult<Option<usize>> {
    record.truncate(0);
    let mut incoming = IncomingRecord::new(max_record.min(record.limit()));
    Ok(incoming
        .append(r, record, usize::MAX)?
        .map(|_| record.len()))
}

/// One record read off a blocking stream a piece at a time: each call reads
/// the next payload bytes into whichever buffer the caller names, crossing
/// fragment marks as they come, so the parts of one record can land in
/// different buffers. Every mark passes through [`RecordMarks`], which
/// refuses a record past `max_record` at its mark; a [`RecordBuf`] is also
/// held to its own limit before any byte of a step is read into it.
#[derive(Debug)]
pub(crate) struct IncomingRecord {
    marks: RecordMarks,
    /// The record's payload length, once its last fragment is in.
    len: Option<usize>,
}

impl IncomingRecord {
    /// A reader at the start of the stream's next record.
    pub(crate) fn new(max_record: usize) -> Self {
        Self {
            marks: RecordMarks::new(max_record),
            len: None,
        }
    }

    /// The record's payload length once it has been read to its end.
    pub(crate) fn ended(&self) -> Option<usize> {
        self.len
    }

    /// Payload bytes ready in the current fragment, reading marks until one
    /// announces payload; 0 once the record has ended. `None` on a clean
    /// end of stream before the record's first byte.
    fn ready<R: Read + ?Sized>(&mut self, r: &mut R) -> RpcResult<Option<usize>> {
        while self.len.is_none() && self.marks.left == 0 {
            let mut header = [0u8; 4];
            if !read_exact_or_eof(r, &mut header)? {
                return match self.marks.wire {
                    0 => Ok(None),
                    _ => Err(RpcError::ConnectionClosed),
                };
            }
            self.passed(&header)?;
        }
        Ok(Some(self.marks.left))
    }

    /// Account for `bytes` just read off the stream.
    fn passed(&mut self, bytes: &[u8]) -> RpcResult<()> {
        self.len = self.marks.next(bytes)?.1.map(|(len, _)| len);
        Ok(())
    }

    /// Read exactly `dst.len()` payload bytes into `dst`. A record that
    /// ends first is [`XdrError::Truncated`](xdr::XdrError::Truncated),
    /// as decoding it whole would be; a stream that ends first is
    /// [`RpcError::ConnectionClosed`].
    pub(crate) fn read_exact<R: Read + ?Sized>(
        &mut self,
        r: &mut R,
        dst: &mut [u8],
    ) -> RpcResult<()> {
        let mut got = 0;
        while got < dst.len() {
            let ready = self.ready(r)?.ok_or(RpcError::ConnectionClosed)?;
            if ready == 0 {
                let (needed, remaining) = (dst.len(), got);
                return Err(xdr::XdrError::Truncated { needed, remaining }.into());
            }
            let n = ready.min(dst.len() - got);
            let part = &mut dst[got..got + n];
            r.read_exact(part).map_err(|e| match e.kind() {
                io::ErrorKind::UnexpectedEof => RpcError::ConnectionClosed,
                _ => e.into(),
            })?;
            self.passed(part)?;
            got += part.len();
        }
        Ok(())
    }

    /// Append up to `max` more payload bytes to `buf`, stopping at the
    /// record's end; returns how many. `None` on a clean end of stream
    /// before the record's first byte.
    pub(crate) fn append<R: Read + ?Sized, B: RecordBuf>(
        &mut self,
        r: &mut R,
        buf: &mut B,
        max: usize,
    ) -> RpcResult<Option<usize>> {
        let mut got = 0;
        while got < max {
            let ready = match self.ready(r)? {
                None => return Ok(None),
                Some(0) => break,
                Some(ready) => ready.min(max - got),
            };
            let (start, limit) = (buf.len(), buf.limit());
            if start + ready > limit {
                let size = start + ready;
                return Err(RpcError::RecordTooLarge { size, max: limit });
            }
            if buf.fill_from(r, ready)? < ready {
                return Err(RpcError::ConnectionClosed);
            }
            self.passed(&buf.as_slice()[start..])?;
            got += ready;
        }
        Ok(Some(got))
    }
}

/// The wire length of a record of `len` payload bytes written in fragments
/// of at most `max_fragment`: the payload and one mark per fragment, an
/// empty record being one empty last fragment.
pub(crate) fn wire_len(len: usize, max_fragment: usize) -> usize {
    len + 4 * len.div_ceil(max_fragment).max(1)
}

/// Where the writing of one record stands: the dual of [`RecordMarks`].
/// It holds no payload. Each [`OutgoingRecord::write_to`] is handed the
/// record's payload and writes the next wire bytes, marks from `mark` and
/// payload sliced from it, until the writer would block or the record is
/// out, so a record goes out as the writer takes it and each call resumes
/// where the last stopped. The bytes are [`write_record`]'s, fragment for
/// fragment.
#[derive(Debug, Clone)]
pub(crate) struct OutgoingRecord {
    len: usize,
    max_fragment: usize,
    /// Payload bytes written.
    sent: usize,
    /// The current fragment's mark; `marked` of its bytes are written.
    mark: [u8; 4],
    marked: usize,
    /// Payload bytes of the current fragment still to write.
    left: usize,
}

impl OutgoingRecord {
    /// A record of `len` payload bytes in fragments of at most
    /// `max_fragment`, none of it written.
    pub(crate) fn new(len: usize, max_fragment: usize) -> Self {
        assert!(max_fragment > 0, "max_fragment must be positive");
        let mut record = Self {
            len,
            max_fragment,
            sent: 0,
            mark: [0; 4],
            marked: 0,
            left: 0,
        };
        record.start_fragment();
        record
    }

    /// Begin the fragment holding the next payload byte (or the one empty
    /// fragment of an empty record).
    fn start_fragment(&mut self) {
        let rest = self.len - self.sent;
        self.left = rest.min(self.max_fragment);
        self.mark = mark(self.left, self.left == rest);
        self.marked = 0;
    }

    /// Write the record's next wire bytes to `w`, one vectored write of the
    /// current fragment's mark and payload at a time, until `w` takes no
    /// more (`WouldBlock`, or `Ok(0)` from a full buffer) or the record is
    /// written; `payload` is the record's payload, the same on every call.
    /// Returns the bytes written and whether the record is.
    pub(crate) fn write_to(
        &mut self,
        payload: &[u8],
        w: &mut impl Write,
    ) -> io::Result<(usize, bool)> {
        debug_assert_eq!(payload.len(), self.len, "a record's payload is fixed");
        let mut wrote = 0;
        loop {
            if self.marked == 4 && self.left == 0 {
                if self.sent == self.len {
                    return Ok((wrote, true));
                }
                self.start_fragment();
            }
            let parts = [
                IoSlice::new(&self.mark[self.marked..]),
                IoSlice::new(&payload[self.sent..self.sent + self.left]),
            ];
            let n = match w.write_vectored(&parts) {
                Ok(0) => return Ok((wrote, false)),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok((wrote, false)),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let marked = n.min(4 - self.marked);
            self.marked += marked;
            (self.sent, self.left) = (self.sent + n - marked, self.left - (n - marked));
            wrote += n;
        }
    }
}

/// `read_exact`, but returns `false` on a clean EOF before the first byte
/// instead of an error.
fn read_exact_or_eof<R: Read + ?Sized>(r: &mut R, buf: &mut [u8]) -> RpcResult<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => return Err(RpcError::ConnectionClosed),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(true)
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
    fn with_max_fragment(inner: W, max_fragment: usize) -> Self {
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
}

/// Record reader bound to a `Read` stream.
#[derive(Debug)]
pub struct RecordReader<R: Read> {
    inner: R,
}

impl<R: Read> RecordReader<R> {
    /// Wrap `inner`; records are capped at [`MAX_RECORD`].
    pub fn new(inner: R) -> Self {
        Self { inner }
    }

    /// Read the next record into a fresh `Vec`; `None` on clean
    /// end-of-stream. Allocates per record — hot paths reuse a buffer
    /// through `read_record_into`.
    pub fn read_record(&mut self) -> RpcResult<Option<Vec<u8>>> {
        read_record(&mut self.inner, MAX_RECORD)
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

    /// Records as `strip_all` returns them: payload, (payload, wire) lengths.
    type Stripped = Vec<(Vec<u8>, (usize, usize))>;

    /// Strip `wire` through `marks`, assembling payload in `open`; returns
    /// each record that completes with its (payload, wire) lengths.
    fn strip_all(
        marks: &mut RecordMarks,
        mut wire: &[u8],
        open: &mut Vec<u8>,
    ) -> RpcResult<Stripped> {
        let mut out = Vec::new();
        while !wire.is_empty() {
            let (used, end) = marks.strip(wire, |p| open.extend_from_slice(p))?;
            wire = &wire[used..];
            if let Some(lens) = end {
                out.push((open.clone(), lens));
                open.clear();
            }
        }
        Ok(out)
    }

    #[test]
    fn marks_single_and_multi_fragment() {
        let mut wire = Vec::new();
        write_record(&mut wire, b"hello", 1024).unwrap();
        write_record(&mut wire, &[9u8; 350], 100).unwrap(); // 4 fragments
        let mut marks = RecordMarks::new(MAX_RECORD);
        let got = strip_all(&mut marks, &wire, &mut Vec::new()).unwrap();
        let want = [
            (b"hello".to_vec(), (5, 9)),
            (vec![9u8; 350], (350, 350 + 4 * 4)),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn marks_survive_byte_at_a_time_arrival() {
        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 253) as u8).collect();
        let mut wire = Vec::new();
        write_record(&mut wire, &payload, 64).unwrap();
        let (mut marks, mut open) = (RecordMarks::new(MAX_RECORD), Vec::new());
        for (i, b) in wire.iter().enumerate() {
            let got = strip_all(&mut marks, std::slice::from_ref(b), &mut open).unwrap();
            if i < wire.len() - 1 {
                assert!(got.is_empty(), "record completed early");
            } else {
                assert_eq!(got, [(payload.clone(), (1000, wire.len()))]);
            }
        }
    }

    #[test]
    fn marks_interleave_partial_records_and_reuse_the_buffer() {
        let (mut marks, mut open) = (RecordMarks::new(MAX_RECORD), Vec::new());
        let mut capacity = None;
        for round in 0..50u8 {
            let payload = vec![round; 700];
            let mut wire = Vec::new();
            write_record(&mut wire, &payload, 256).unwrap();
            let (a, b) = wire.split_at(wire.len() / 2);
            assert!(strip_all(&mut marks, a, &mut open).unwrap().is_empty());
            let got = strip_all(&mut marks, b, &mut open).unwrap();
            assert_eq!(got, [(payload, (700, 700 + 3 * 4))]);
            // The assembling buffer is reused, not grown with the rounds.
            assert_eq!(*capacity.get_or_insert(open.capacity()), open.capacity());
        }
    }

    #[test]
    fn marks_refuse_oversized_records_at_the_mark() {
        let mut wire = Vec::new();
        write_record(&mut wire, &[1u8; 1000], 100).unwrap();
        let mut marks = RecordMarks::new(500);
        // Five fragments fit; the sixth mark is refused as it completes.
        let (fits, rest) = wire.split_at(5 * 104 + 3);
        assert!(strip_all(&mut marks, fits, &mut Vec::new()).is_ok());
        let refused = strip_all(&mut marks, rest, &mut Vec::new());
        assert!(
            matches!(
                refused,
                Err(RpcError::RecordTooLarge {
                    size: 600,
                    max: 500
                })
            ),
            "{refused:?}"
        );
    }

    #[test]
    fn marks_empty_record() {
        let mut wire = Vec::new();
        write_record(&mut wire, &[], 1024).unwrap();
        let mut marks = RecordMarks::new(MAX_RECORD);
        let got = strip_all(&mut marks, &wire, &mut Vec::new()).unwrap();
        assert_eq!(got, [(Vec::new(), (0, 4))]);
    }

    /// A reader that serves `len` bytes and remembers the largest slice
    /// `read` was handed.
    struct Widest {
        left: usize,
        widest: usize,
    }

    impl Read for Widest {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.widest = self.widest.max(buf.len());
            let n = buf.len().min(self.left);
            buf[..n].fill(0x5a);
            self.left -= n;
            Ok(n)
        }
    }

    /// std zero-fills the spare capacity it hands `read`: a warm buffer
    /// once let it hand out (and memset) slices of up to 8 MiB.
    #[test]
    fn fill_from_hands_read_at_most_one_step() {
        const LEN: usize = 16 << 20;
        let mut record = Vec::<u8>::with_capacity(LEN);
        for _ in 0..2 {
            record.clear();
            let mut r = Widest {
                left: LEN,
                widest: 0,
            };
            assert_eq!(record.fill_from(&mut r, LEN).unwrap(), LEN);
            assert!(r.widest <= FILL_STEP, "read was handed {} bytes", r.widest);
            assert_eq!(record.len(), LEN);
        }
        assert_eq!(record.capacity(), LEN, "a warm buffer does not grow");
    }

    /// The resumable writer yields `write_record`'s bytes whatever the send
    /// buffer's size, and `wire_len` their count.
    #[test]
    fn outgoing_record_is_write_record_one_send_buffer_at_a_time() {
        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for len in [0, 1, 99, 100, 101, 400, 1000] {
            for max_fragment in [1, 7, 100, 4096] {
                let mut want = Vec::new();
                write_record(&mut want, &payload[..len], max_fragment).unwrap();
                assert_eq!(wire_len(len, max_fragment), want.len());
                for cap in [1, 3, 4, 5, 64, 104, 1 << 20] {
                    let mut out = OutgoingRecord::new(len, max_fragment);
                    let (mut wire, mut tx) = (Vec::new(), vec![0u8; cap]);
                    loop {
                        let mut room = &mut tx[..];
                        let (n, done) = out.write_to(&payload[..len], &mut room).unwrap();
                        assert_eq!(n, cap - room.len());
                        assert!(done || n == cap, "a short buffer before the end");
                        wire.extend_from_slice(&tx[..n]);
                        if done {
                            break;
                        }
                    }
                    assert_eq!(wire, want, "len {len}, fragment {max_fragment}, cap {cap}");
                    assert_eq!(
                        out.write_to(&payload[..len], &mut &mut tx[..]).unwrap(),
                        (0, true)
                    );
                }
            }
        }
    }

    /// One record's payload read in pieces into different buffers, across
    /// fragment marks, then the next record whole.
    #[test]
    fn incoming_record_reads_a_record_piece_by_piece() {
        let payload: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        let mut wire = Vec::new();
        write_record(&mut wire, &payload, 64).unwrap();
        write_record(&mut wire, b"next", 64).unwrap();
        let mut r = &wire[..];
        let mut rec = IncomingRecord::new(MAX_RECORD);
        let (mut head, mut body, mut tail) = (Vec::new(), [0u8; 200], Vec::new());
        assert_eq!(rec.append(&mut r, &mut head, 10).unwrap(), Some(10));
        rec.read_exact(&mut r, &mut body).unwrap();
        assert_eq!(rec.ended(), None);
        assert_eq!(rec.append(&mut r, &mut tail, usize::MAX).unwrap(), Some(90));
        assert_eq!(rec.ended(), Some(300));
        assert_eq!([&head[..], &body, &tail].concat(), payload);
        // Past its end the record yields nothing more.
        assert_eq!(rec.append(&mut r, &mut tail, 1).unwrap(), Some(0));
        let over = rec.read_exact(&mut r, &mut [0u8; 1]).unwrap_err();
        assert!(matches!(
            over,
            RpcError::Xdr(xdr::XdrError::Truncated {
                needed: 1,
                remaining: 0
            })
        ));
        let mut next = Vec::new();
        assert_eq!(
            read_record_into(&mut r, &mut next, MAX_RECORD).unwrap(),
            Some(4)
        );
        assert_eq!(next, b"next");
        // A fixed buffer is held to its limit before a byte is read into it.
        let mut r = &wire[..];
        let mut small = FixedBuf::new([0u8; 16]);
        let mut rec = IncomingRecord::new(MAX_RECORD);
        assert_eq!(rec.append(&mut r, &mut small, 16).unwrap(), Some(16));
        let refused = rec.append(&mut r, &mut small, 1);
        assert!(matches!(
            refused,
            Err(RpcError::RecordTooLarge { size: 17, max: 16 })
        ));
        assert_eq!(
            wire.len() - r.len(),
            4 + 16,
            "nothing past the limit was read"
        );
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
