//! Property tests for record marking — the RPC-Lib capability the paper
//! contrasts against the `onc_rpc` crate (which "lacks support for
//! fragmented messages").

use oncrpc::record::{read_record, write_record, write_record_sg, RecordMarks, MAX_RECORD};
use oncrpc::{RpcClient, RpcError, Transport};
use proptest::prelude::*;
use std::io::{self, Read, Write};

/// Reference implementation: the seed's copying record writer — build each
/// fragment as header-then-payload with plain `extend_from_slice`. The
/// scatter-gather path must be byte-identical to this.
fn legacy_write_record(payload: &[u8], max_fragment: usize) -> Vec<u8> {
    let mut wire = Vec::new();
    let mut offset = 0;
    loop {
        let remaining = payload.len() - offset;
        let frag = remaining.min(max_fragment);
        let last = frag == remaining;
        let header = (frag as u32) | if last { 0x8000_0000 } else { 0 };
        wire.extend_from_slice(&header.to_be_bytes());
        wire.extend_from_slice(&payload[offset..offset + frag]);
        offset += frag;
        if last {
            break;
        }
    }
    wire
}

/// Split `payload` at the (deduplicated, sorted) cut points into a gather
/// list, including any empty segments the cuts produce.
fn split_segments<'a>(payload: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
    let mut points: Vec<usize> = cuts.iter().map(|c| c % (payload.len() + 1)).collect();
    points.sort_unstable();
    let mut segs = Vec::new();
    let mut prev = 0;
    for c in points {
        segs.push(&payload[prev..c]);
        prev = c;
    }
    segs.push(&payload[prev..]);
    segs
}

/// Each record of a stream as (payload, (payload length, wire length)), and
/// the `RecordTooLarge` (size, max) that stopped the stream, if one did.
type Parsed = (Vec<(Vec<u8>, (usize, usize))>, Option<(usize, usize)>);

/// The stream as `read_record` returns it.
fn read_all(wire: &[u8], max_record: usize) -> Parsed {
    let mut cursor = std::io::Cursor::new(wire);
    let mut records = Vec::new();
    loop {
        let at = cursor.position() as usize;
        match read_record(&mut cursor, max_record) {
            Ok(Some(p)) => records.push((p.clone(), (p.len(), cursor.position() as usize - at))),
            Ok(None) => return (records, None),
            Err(RpcError::RecordTooLarge { size, max }) => return (records, Some((size, max))),
            Err(e) => panic!("{e}"),
        }
    }
}

/// The stream as `RecordMarks::strip` yields it, fed in the pieces `cuts`
/// makes of `wire`.
fn strip_all(wire: &[u8], cuts: &[usize], max_record: usize) -> Parsed {
    let mut marks = RecordMarks::new(max_record);
    let (mut records, mut open) = (Vec::new(), Vec::new());
    for mut piece in split_segments(wire, cuts) {
        while !piece.is_empty() {
            match marks.strip(piece, |p| open.extend_from_slice(p)) {
                Ok((used, end)) => {
                    piece = &piece[used..];
                    records.extend(end.map(|lens| (std::mem::take(&mut open), lens)));
                }
                Err(RpcError::RecordTooLarge { size, max }) => return (records, Some((size, max))),
                Err(e) => panic!("{e}"),
            }
        }
    }
    (records, None)
}

/// A writer that accepts at most `max` bytes per `write` call, forcing the
/// vectored writer through its short-write/advance paths.
struct ShortWriter {
    out: Vec<u8>,
    max: usize,
}

impl Write for ShortWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = buf.len().min(self.max);
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A transport answering every call with the accepted success `result`
/// under the call's xid, record-marked in fragments of `max_fragment`, and
/// served at most `max_read` bytes per `read`.
struct Canned {
    result: Vec<u8>,
    max_fragment: usize,
    max_read: usize,
    request: Vec<u8>,
    wire: Vec<u8>,
    served: usize,
}

impl Write for Canned {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.request.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        // xid, REPLY, MSG_ACCEPTED, an empty AUTH_NONE verifier, SUCCESS.
        let mut body = self.request[4..8].to_vec();
        body.extend_from_slice(&[0, 0, 0, 1]);
        body.extend_from_slice(&[0; 16]);
        body.extend_from_slice(&self.result);
        self.wire.clear();
        write_record(&mut self.wire, &body, self.max_fragment).unwrap();
        self.request.clear();
        self.served = 0;
        Ok(())
    }
}

impl Read for Canned {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let rest = &self.wire[self.served..];
        let n = rest.len().min(buf.len()).min(self.max_read);
        buf[..n].copy_from_slice(&rest[..n]);
        self.served += n;
        Ok(n)
    }
}

impl Transport for Canned {}

proptest! {
    /// The scatter-gather writer must emit byte-identical wire output to
    /// the legacy copying path for any segmentation of the payload, any
    /// fragment size.
    #[test]
    fn sg_wire_output_identical_to_legacy(
        payload in proptest::collection::vec(any::<u8>(), 0..50_000),
        max_fragment in 1usize..10_000,
        cuts in proptest::collection::vec(any::<usize>(), 0..6),
    ) {
        let segs = split_segments(&payload, &cuts);
        let mut wire = Vec::new();
        write_record_sg(&mut wire, &segs, max_fragment).unwrap();
        prop_assert_eq!(wire, legacy_write_record(&payload, max_fragment));
    }

    /// Same equivalence through a writer that only accepts a few bytes per
    /// call — exercises `write_vectored` slice advancement across short
    /// writes and fragment-header boundaries.
    #[test]
    fn sg_wire_output_survives_short_writes(
        payload in proptest::collection::vec(any::<u8>(), 0..5_000),
        max_fragment in 1usize..600,
        cuts in proptest::collection::vec(any::<usize>(), 0..4),
        max_write in 1usize..7,
    ) {
        let segs = split_segments(&payload, &cuts);
        let mut w = ShortWriter { out: Vec::new(), max: max_write };
        write_record_sg(&mut w, &segs, max_fragment).unwrap();
        prop_assert_eq!(w.out, legacy_write_record(&payload, max_fragment));
    }

    #[test]
    fn roundtrip_any_payload_any_fragment_size(
        payload in proptest::collection::vec(any::<u8>(), 0..50_000),
        max_fragment in 1usize..10_000,
    ) {
        let mut wire = Vec::new();
        write_record(&mut wire, &payload, max_fragment).unwrap();
        let mut cursor = std::io::Cursor::new(&wire);
        let back = read_record(&mut cursor, MAX_RECORD).unwrap().unwrap();
        prop_assert_eq!(back, payload);
        // The cursor must consume exactly the record.
        prop_assert_eq!(cursor.position() as usize, wire.len());
    }

    #[test]
    fn wire_overhead_is_exactly_headers(
        payload in proptest::collection::vec(any::<u8>(), 1..100_000),
        max_fragment in 1usize..10_000,
    ) {
        let mut wire = Vec::new();
        write_record(&mut wire, &payload, max_fragment).unwrap();
        let fragments = payload.len().div_ceil(max_fragment);
        prop_assert_eq!(wire.len(), payload.len() + 4 * fragments);
    }

    #[test]
    fn concatenated_records_reparse(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..2_000), 1..8),
        max_fragment in 1usize..1_000,
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            write_record(&mut wire, p, max_fragment).unwrap();
        }
        let mut cursor = std::io::Cursor::new(&wire);
        for p in &payloads {
            let got = read_record(&mut cursor, MAX_RECORD).unwrap().unwrap();
            prop_assert_eq!(&got, p);
        }
        prop_assert!(read_record(&mut cursor, MAX_RECORD).unwrap().is_none());
    }

    #[test]
    fn truncation_never_panics_never_succeeds_fully(
        payload in proptest::collection::vec(any::<u8>(), 1..5_000),
        max_fragment in 1usize..1_000,
        cut_fraction in 0.0f64..1.0,
    ) {
        let mut wire = Vec::new();
        write_record(&mut wire, &payload, max_fragment).unwrap();
        let cut = ((wire.len() as f64) * cut_fraction) as usize;
        if cut < wire.len() {
            let mut cursor = std::io::Cursor::new(&wire[..cut]);
            if let Ok(Some(got)) = read_record(&mut cursor, MAX_RECORD) { prop_assert!(
                got.len() < payload.len(),
                "a truncated stream cannot yield the full record"
            ) }
        }
    }

    #[test]
    fn garbage_headers_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..4_096)) {
        let mut cursor = std::io::Cursor::new(&bytes);
        let _ = read_record(&mut cursor, 1 << 20);
    }

    /// One parser, any arrival split: however the wire is cut, `strip`
    /// yields exactly the payloads and (payload, wire) lengths that
    /// `read_record` returns, and refuses an oversized record at the same
    /// mark, with the same size.
    #[test]
    fn strip_matches_read_record_for_any_cut_of_the_wire(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..3_000), 1..6),
        max_fragment in 1usize..1_000,
        cuts in proptest::collection::vec(any::<usize>(), 0..12),
        max_record in 0usize..4_000,
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            write_record(&mut wire, p, max_fragment).unwrap();
        }
        prop_assert_eq!(strip_all(&wire, &cuts, max_record), read_all(&wire, max_record));
        let (whole, refused) = strip_all(&wire, &cuts, MAX_RECORD);
        prop_assert_eq!(refused, None);
        prop_assert!(whole.iter().map(|(p, _)| p).eq(&payloads));
        prop_assert_eq!(whole.iter().map(|(_, (_, w))| w).sum::<usize>(), wire.len());
    }

    /// One receive path, two destinations: however the reply is
    /// fragmented and however the transport splits its reads, a bulk arm of
    /// exactly `dst.len()` bytes lands in `dst` as the bytes the whole-record
    /// decode yields, and any other length leaves `dst` untouched and
    /// returns the reply the whole-record read returns.
    #[test]
    fn into_read_fills_dst_with_what_the_whole_record_decode_yields(
        data in proptest::collection::vec(any::<u8>(), 0..3_000),
        max_fragment in 1usize..600,
        max_read in 1usize..5_000,
        skew in 0usize..3,
    ) {
        let mut result = xdr::XdrEncoder::new();
        result.put_i32(0);
        result.put_opaque(&data);
        let transport = Canned {
            result: result.as_slice().to_vec(),
            max_fragment,
            max_read,
            request: Vec::new(),
            wire: Vec::new(),
            served: 0,
        };
        let mut client: RpcClient<Canned> = RpcClient::bind(transport, 9, 1);
        let whole = client.call_raw(1, |_| {}).unwrap().to_vec();
        let mut dec = xdr::XdrDecoder::new(&whole);
        prop_assert_eq!(dec.get_i32().unwrap(), 0);
        prop_assert_eq!(dec.get_opaque_ref().unwrap(), &data[..]);

        let mut dst = vec![0xEE; (data.len() + skew).saturating_sub(1)];
        let reply = client.call_raw_into(1, false, |_| {}, (0, &mut dst)).unwrap();
        let (landed, payload) = (reply.landed(), reply.to_vec());
        if dst.len() == data.len() {
            prop_assert!(landed);
            prop_assert_eq!(&payload[..], &whole[..8]);
            prop_assert_eq!(&dst, &data);
        } else {
            prop_assert!(!landed);
            prop_assert_eq!(payload, whole);
            prop_assert!(dst.iter().all(|&b| b == 0xEE));
        }
    }
}
