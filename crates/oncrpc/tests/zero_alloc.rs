//! Regression: a steady-state client call loop performs **zero heap
//! allocations** — the pooled scratch encoder, reply buffer, and
//! scatter-gather record writer must not touch the allocator once warm,
//! with a client token set (the configuration every replay-cache user
//! runs). Neither does the reply-header parser on any malformed or
//! non-success reply, under either buffer policy.
//!
//! The transport is an in-process loopback that answers every call with a
//! canned reply (patching in the request xid) from fixed-capacity buffers,
//! so any allocation observed inside the measured loop is attributable to
//! the client data path.
//!
//! The same holds across real loopback TCP into the reactor, for a call it
//! answers inline and for one it parks on a worker shard: client and server
//! together allocate nothing per call.
//!
//! Installs [`oncrpc::telemetry::CountingAllocator`] process-wide, so this
//! file must stay a dedicated integration-test binary.

use oncrpc::msg::{AcceptStat, RejectStat, ReplyBody, RpcMessage};
use oncrpc::telemetry::{allocation_count, CountingAllocator};
use oncrpc::{
    serve_tcp_reactor, ConnHandler, Dispatch, OpaqueAuth, ProcClass, ReactorConfig, RecordBuf,
    RpcClient, RpcError, RpcServer, TcpTransport, Transport,
};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::sync::Arc;
use xdr::{FixedBuf, XdrDecoder, XdrEncoder, XdrError};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const REPLY_PAYLOAD: usize = 24; // xid, REPLY, MSG_ACCEPTED, verf(0,0), SUCCESS
const MAX_REPLY: usize = 64;

/// Loopback RPC "server": buffers one request record, answers with a canned
/// reply record.
struct Loopback {
    /// Request bytes accumulated from vectored writes (fixed capacity).
    req: Vec<u8>,
    /// Canned reply: 4-byte record mark + reply message (xid patched in).
    reply: [u8; 4 + MAX_REPLY],
    reply_len: usize,
    reply_off: usize,
}

impl Loopback {
    /// A loopback answering with `message` (an encoded reply whose xid is
    /// overwritten per call; may be cut short or otherwise malformed).
    fn answering(message: &[u8]) -> Self {
        let mut reply = [0u8; 4 + MAX_REPLY];
        reply[..4].copy_from_slice(&(0x8000_0000u32 | message.len() as u32).to_be_bytes());
        reply[4..4 + message.len()].copy_from_slice(message);
        Self {
            req: Vec::with_capacity(1 << 16),
            reply,
            reply_len: 4 + message.len(),
            reply_off: 4 + message.len(),
        }
    }

    fn new() -> Self {
        let mut success = [0u8; REPLY_PAYLOAD];
        success[4..8].copy_from_slice(&1u32.to_be_bytes()); // msg_type = REPLY
        Self::answering(&success)
    }
}

impl Write for Loopback {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        assert!(
            self.req.len() + buf.len() <= self.req.capacity(),
            "request larger than the preallocated loopback buffer"
        );
        self.req.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if !self.req.is_empty() {
            // xid sits right after the 4-byte record mark; echo it back
            // (as much of it as the canned reply has room for).
            let n = self.reply_len.min(8) - 4;
            self.reply[4..4 + n].copy_from_slice(&self.req[4..4 + n]);
            self.reply_off = 0;
            self.req.clear();
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
        "loopback".into()
    }
}

#[test]
fn steady_state_call_loop_is_allocation_free() {
    let mut client = RpcClient::new(Box::new(Loopback::new()), 0x2000_0099, 1);
    client.set_credential(OpaqueAuth::client_token(0xC11E_0001));
    let bulk = vec![0x5au8; 4096];

    // Warm-up: size the pooled scratch/reply buffers and fault in lazy
    // state (formatting machinery, channel nodes, ...).
    for _ in 0..16 {
        client.call_raw(3, |enc| enc.put_u64(0xdead_beef)).unwrap();
        client
            .call_raw_sg(9, |enc| {
                enc.put_u64(0x1000);
                enc.put_opaque_deferred(&bulk);
            })
            .unwrap();
    }

    // The counter is process-wide, so allocations from other threads (the
    // libtest harness) can leak into a measured window. A genuine per-call
    // leak allocates in *every* round; ambient noise does not. Measure
    // several rounds and require at least one to be exactly zero.
    let mut best = u64::MAX;
    for _ in 0..5 {
        let before = allocation_count();
        for i in 0..1000u64 {
            // Small-args call (covers the owned-scratch path)…
            let r = client.call_raw(3, |enc| enc.put_u64(i)).unwrap();
            assert!(r.is_empty());
            // …and a bulk scatter-gather call (covers the deferred iovec path).
            let r = client
                .call_raw_sg(9, |enc| {
                    enc.put_u64(0x1000 + i);
                    enc.put_opaque_deferred(&bulk);
                })
                .unwrap();
            assert!(r.is_empty());
        }
        best = best.min(allocation_count() - before);
        if best == 0 {
            break;
        }
    }
    assert_eq!(
        best, 0,
        "steady-state client loop performed {best} heap allocations per 1000-call round"
    );
}

/// Calls of `class` over loopback TCP into [`serve_tcp_reactor`], once
/// warm: the fewest heap allocations of five 1000-call rounds, and the
/// server's counters. The counter sees this process's client and server
/// alike.
fn warm_reactor_allocs(class: ProcClass) -> (u64, BTreeMap<&'static str, u64>) {
    const PROG: u32 = 0x2000_0077;
    let cfg = ReactorConfig {
        classify: Some(Arc::new(move |_, _, _| class)),
        ..ReactorConfig::default()
    };
    let handle = serve_tcp_reactor("127.0.0.1:0", cfg, |_conn| {
        let add_one: Arc<dyn Dispatch> = Arc::new(
            |_proc: u32, args: &mut XdrDecoder<'_>, reply: &mut XdrEncoder| {
                let v = args.get_u64().map_err(|_| AcceptStat::GarbageArgs)?;
                reply.put_u64(v + 1);
                Ok(())
            },
        );
        let mut rpc = RpcServer::new();
        rpc.register(PROG, 1, add_one);
        ConnHandler {
            rpc: Arc::new(rpc),
            on_close: None,
        }
    })
    .unwrap();
    let transport = TcpTransport::connect(handle.addr()).unwrap();
    let mut client = RpcClient::new(Box::new(transport), PROG, 1);
    let mut call = |i: u64| {
        let r = client.call_raw(1, |enc| enc.put_u64(i)).unwrap();
        assert_eq!(*r, (i + 1).to_be_bytes());
    };
    // Warm-up: size the connection's reply queue, the pools, encoders and
    // shard queues.
    for i in 0..64 {
        call(i);
    }

    // Best of five rounds, as above: the reactor's own threads are quiet,
    // but the libtest harness is not.
    let mut best = u64::MAX;
    for _ in 0..5 {
        let before = allocation_count();
        for i in 0..1000 {
            call(i);
        }
        best = best.min(allocation_count() - before);
        if best == 0 {
            break;
        }
    }
    let stats = handle.metrics().iter().collect();
    handle.shutdown();
    (best, stats)
}

/// A `Done` call: the reactor executes it inline, frames the reply into a
/// pooled buffer and writes it through on its own thread, so once warm
/// neither end allocates.
#[test]
fn inline_reactor_calls_are_allocation_free() {
    let (best, stats) = warm_reactor_allocs(ProcClass::Done);
    let parked = (
        stats["reactor.parked_calls"],
        stats["reactor.queued_replies"],
    );
    assert_eq!(parked, (0, 0));
    assert_eq!(
        best, 0,
        "inline reactor calls performed {best} heap allocations per 1000-call round"
    );
}

/// A `Parked` call: the reactor swaps its record for a pooled buffer and
/// pushes it on its worker shard's queue; the worker takes the whole queue,
/// leaving its own drained one behind, and writes the reply through. Both
/// queues keep their capacity, so once warm neither end allocates.
#[test]
fn parked_reactor_calls_are_allocation_free() {
    let (best, stats) = warm_reactor_allocs(ProcClass::Parked);
    assert_eq!(stats["reactor.inline_replies"], 0);
    assert_eq!(
        best, 0,
        "parked reactor calls performed {best} heap allocations per 1000-call round"
    );
}

/// A reply message and the test its *whole* form must produce.
type Case<'a> = (Vec<u8>, &'a dyn Fn(&RpcError) -> bool);

fn is_truncated(err: &RpcError) -> bool {
    matches!(err, RpcError::Xdr(XdrError::Truncated { .. }))
}

/// Run every 4-byte prefix of every case through a client with buffer
/// policy `B`, returning the allocations observed.
fn reply_header_table<B: RecordBuf>(cases: &[Case]) -> u64 {
    // Constructed outside the window: the pooled policy allocates its
    // buffers, the loopback its request log.
    let mut clients: Vec<Vec<RpcClient<Loopback, B>>> = cases
        .iter()
        .map(|(message, _)| {
            (0..=message.len())
                .step_by(4)
                .map(|len| RpcClient::bind(Loopback::answering(&message[..len]), 9, 1))
                .collect()
        })
        .collect();
    let before = allocation_count();
    for ((message, whole), prefixes) in cases.iter().zip(&mut clients) {
        for (i, client) in prefixes.iter_mut().enumerate() {
            let err = client.call_raw(1, |enc| enc.put_u32(7)).unwrap_err();
            // A strict prefix either still decides the outcome or is a
            // truncated XDR stream; the whole reply must decide it.
            let cut = 4 * i < message.len() && is_truncated(&err);
            assert!(
                cut || whole(&err),
                "{}-byte prefix of {message:02x?} gave {err:?}",
                4 * i
            );
        }
    }
    allocation_count() - before
}

/// The one client-side reply-header parser: every 4-byte prefix of each
/// kind of non-success reply, and a reply with the wrong message type,
/// comes back as a typed [`RpcError`] — no panic, no allocation — under
/// both buffer policies.
#[test]
fn reply_header_parser_is_total_and_allocation_free() {
    let encode = |body: ReplyBody| xdr::encode(&RpcMessage::reply(0, body));
    let mut wrong_type = encode(ReplyBody::success());
    wrong_type[4..8].copy_from_slice(&0u32.to_be_bytes()); // msg_type = CALL
    let mut bad_type = encode(ReplyBody::success());
    bad_type[4..8].copy_from_slice(&9u32.to_be_bytes());
    // A whole success reply is no error; stop short of its accept_stat.
    let mut success_cut = encode(ReplyBody::success());
    success_cut.truncate(REPLY_PAYLOAD - 4);

    let cases: [Case; 8] = [
        (success_cut, &is_truncated),
        (encode(ReplyBody::busy(5_000_000_123)), &|e| {
            matches!(
                e,
                RpcError::Busy {
                    retry_after_ns: 5_000_000_123
                }
            )
        }),
        (encode(ReplyBody::prog_mismatch(1, 3)), &|e| {
            matches!(e, RpcError::Accepted(AcceptStat::ProgMismatch))
        }),
        (encode(ReplyBody::failure(AcceptStat::GarbageArgs)), &|e| {
            matches!(e, RpcError::Accepted(AcceptStat::GarbageArgs))
        }),
        (
            encode(ReplyBody::Denied(RejectStat::RpcMismatch {
                low: 2,
                high: 2,
            })),
            &|e| {
                matches!(
                    e,
                    RpcError::Rejected(RejectStat::RpcMismatch { low: 2, high: 2 })
                )
            },
        ),
        (encode(ReplyBody::Denied(RejectStat::AuthError(5))), &|e| {
            matches!(e, RpcError::Rejected(RejectStat::AuthError(5)))
        }),
        (wrong_type, &|e| {
            matches!(e, RpcError::UnexpectedMessageType)
        }),
        (bad_type, &|e| {
            matches!(e, RpcError::Xdr(XdrError::InvalidUnionArm { .. }))
        }),
    ];

    // Same noise tolerance as above: a genuine allocation recurs every round.
    let mut best = u64::MAX;
    for _ in 0..5 {
        let round = reply_header_table::<Vec<u8>>(&cases)
            + reply_header_table::<FixedBuf<[u8; 128]>>(&cases);
        best = best.min(round);
        if best == 0 {
            break;
        }
    }
    assert_eq!(best, 0, "reply-header parsing performed {best} allocations");
}
