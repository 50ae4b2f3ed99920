//! Strict regression for the fixed buffer policy, and the reason it
//! exists: the generated [`CricketV1Client`] over `FixedBuf<[u8; BUF]>`
//! must perform **zero heap allocations, period** — not just in the
//! steady-state call loop (the weaker guarantee
//! `oncrpc/tests/zero_alloc.rs` checks for the pooled policy), but
//! including client construction and the first call. Everything lives
//! in fixed-size buffers: the generated stub encodes into the client's
//! `[u8; BUF]` request array and decodes replies borrowed from its
//! `[u8; BUF]` reply array, or reads bulk results into the caller's. The
//! stubs are the very ones every other client runs; only the buffer type
//! differs.
//!
//! The transport is a loopback built only from arrays: it captures one
//! request record, patches the request xid into a canned
//! `MSG_ACCEPTED`/`SUCCESS` reply, and serves it back.
//!
//! Installs [`oncrpc::telemetry::CountingAllocator`] process-wide, so
//! this file must stay a dedicated integration-test binary.

use cricket_proto::CricketV1Client;
use oncrpc::telemetry::{allocation_count, CountingAllocator};
use oncrpc::Transport;
use std::io::{self, Read, Write};
use xdr::FixedBuf;

/// Request (minus deferred bulk arguments) and reply bound of the client.
const BUF: usize = 8192;
type FixedClient = CricketV1Client<Loopback, FixedBuf<[u8; BUF]>>;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// xid, REPLY, MSG_ACCEPTED, verf(0,0), SUCCESS — the fixed accepted-reply
/// header every canned reply starts with.
const REPLY_HEADER: usize = 24;
const REQ_CAP: usize = 1 << 15;
const REPLY_CAP: usize = 4 + REPLY_HEADER + 8 + BULK;
/// A D2H reply's data: larger than the client's fixed reply buffer.
const BULK: usize = 2 * BUF;

/// Allocation-free loopback "server": one request record in, one canned
/// success reply out. No `Vec` anywhere — a heap-allocating transport
/// would hide stub regressions from the counter.
struct Loopback {
    req: [u8; REQ_CAP],
    req_len: usize,
    reply: [u8; REPLY_CAP],
    reply_len: usize,
    reply_off: usize,
}

impl Loopback {
    /// A loopback whose reply carries `body` after the accepted-reply
    /// header (e.g. a BE i32 `0` for int-returning procs).
    fn new(body: &[u8]) -> Self {
        let payload = REPLY_HEADER + body.len();
        assert!(4 + payload <= REPLY_CAP);
        let mut reply = [0u8; REPLY_CAP];
        reply[..4].copy_from_slice(&(0x8000_0000u32 | payload as u32).to_be_bytes());
        reply[8..12].copy_from_slice(&1u32.to_be_bytes()); // msg_type = REPLY
        reply[4 + REPLY_HEADER..4 + payload].copy_from_slice(body);
        Self {
            req: [0u8; REQ_CAP],
            req_len: 0,
            reply,
            reply_len: 4 + payload,
            reply_off: 4 + payload,
        }
    }
}

impl Write for Loopback {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        assert!(
            self.req_len + buf.len() <= REQ_CAP,
            "request larger than the loopback buffer"
        );
        self.req[self.req_len..self.req_len + buf.len()].copy_from_slice(buf);
        self.req_len += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.req_len != 0 {
            // xid sits right after the 4-byte record mark; echo it back.
            let xid: [u8; 4] = self.req[4..8].try_into().unwrap();
            self.reply[4..8].copy_from_slice(&xid);
            self.reply_off = 0;
            self.req_len = 0;
        }
        Ok(())
    }
}

impl Read for Loopback {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let avail = &self.reply[self.reply_off..self.reply_len];
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.reply_off += n;
        Ok(n)
    }
}

impl Transport for Loopback {
    fn describe(&self) -> String {
        "no-alloc loopback".into()
    }
}

/// One full client lifetime — construction plus a call mix covering every
/// generated encode shape (void args, scalar args, a scalar followed by a
/// deferred opaque payload — plain and sparse H2D — and a bulk payload
/// larger than `BUF`) — under the allocation counter.
fn int_proc_round(payload: &[u8], big: &[u8], sparse_blob: &[u8]) -> u64 {
    let before = allocation_count();
    let mut client = FixedClient::bind(Loopback::new(&0i32.to_be_bytes()));
    client.rpc.set_client_token(0x0C0FFEE);
    for i in 0..200u64 {
        assert_eq!(client.cuda_set_device(&((i % 4) as i32)).unwrap(), 0);
        assert_eq!(client.cuda_memcpy_htod(&(0x1000 + i), payload).unwrap(), 0);
        // Bulk arguments ride `put_opaque_deferred`, so one larger than the
        // request buffer still goes out — as an iovec segment — instead of
        // failing with `RecordTooLarge`.
        assert_eq!(client.cuda_memcpy_htod(&0x8000, big).unwrap(), 0);
        assert_eq!(
            client
                .cuda_memcpy_htod_sparse(&0x2000, sparse_blob)
                .unwrap(),
            0
        );
        assert_eq!(client.cuda_memset(&0x1000, &0, &64).unwrap(), 0);
        assert_eq!(client.cuda_device_synchronize().unwrap(), 0);
        assert_eq!(client.cuda_free(&(0x1000 + i)).unwrap(), 0);
    }
    allocation_count() - before
}

#[test]
fn no_alloc_client_never_touches_the_heap() {
    // Prepared outside the measured window: the *application* may
    // allocate its payloads; the generated client must not.
    let payload = [0x5au8; 4096];
    let big = [0xa5u8; 2 * BUF];
    let mut sparse_blob = Vec::new();
    let sparse_raw = [0u8; 8192];
    oncrpc::sparse::encode_into(&sparse_raw, 4096, &mut sparse_blob);

    // The counter is process-wide, so allocations from other threads (the
    // libtest harness) can leak into a measured window. A genuine stub
    // allocation happens in *every* round; ambient noise does not.
    // Run whole client lifetimes and require one to be exactly zero.
    let mut best = u64::MAX;
    for _ in 0..5 {
        best = best.min(int_proc_round(&payload, &big, &sparse_blob));
        if best == 0 {
            break;
        }
    }
    assert_eq!(
        best, 0,
        "fixed-buffer client performed {best} heap allocations across a \
         full construct-and-1600-calls lifetime"
    );
}

/// The into-the-caller's-buffer stubs are allocation-free too, and they
/// lift the fixed buffer's bound from bulk results as deferred opaques lift
/// it from bulk arguments: D2H data larger than `BUF` is read off the
/// transport into the caller's array, and only the reply's head passes
/// through the client's reply buffer. Read whole, the same reply is refused
/// as `RecordTooLarge`.
#[test]
fn bulk_returns_land_in_the_callers_array() {
    let mut body = [0u8; 4 + 4 + BULK];
    body[..4].copy_from_slice(&0i32.to_be_bytes()); // err = 0
    body[4..8].copy_from_slice(&(BULK as u32).to_be_bytes()); // opaque<> length
    for (i, b) in body[8..].iter_mut().enumerate() {
        *b = (i % 251) as u8;
    }
    let mut dst = [0u8; BULK];

    let mut best = u64::MAX;
    for _ in 0..5 {
        let before = allocation_count();
        let mut client = FixedClient::bind(Loopback::new(&body));
        for _ in 0..200 {
            dst.fill(0);
            let err = client
                .cuda_memcpy_dtoh_into(&0x1000, &(BULK as u64), &mut dst)
                .unwrap();
            assert_eq!(err, 0);
            assert!(dst[..] == body[8..], "D2H bytes differ");
        }
        best = best.min(allocation_count() - before);
        if best == 0 {
            break;
        }
    }
    assert_eq!(
        best, 0,
        "bulk D2H into a caller array performed {best} heap allocations per lifetime"
    );

    let mut client = FixedClient::bind(Loopback::new(&body));
    let whole = client.cuda_memcpy_dtoh(&0x1000, &(BULK as u64));
    assert!(
        matches!(whole, Err(oncrpc::RpcError::RecordTooLarge { .. })),
        "{whole:?}"
    );
}
