//! Synchronous RPC client.
//!
//! [`RpcClient`] is the one call engine: it issues calls over any
//! [`Transport`], matching replies by transaction id. Generated stubs (from
//! `rpcl`) wrap it with typed methods; see `cricket-proto` for the Cricket
//! CUDA interface.
//!
//! It is generic over the transport type and over its *buffer policy* — the
//! [`RecordBuf`] that backs the request encoder and the reply record:
//!
//! * `Vec<u8>` (the default): pooled buffers that grow to the largest record
//!   seen, up to [`MAX_RECORD`]. Zero-copy and allocation-free in steady
//!   state: requests are encoded into a reused scratch buffer (bulk arguments
//!   bypass even that as scatter-gather segments), and replies are
//!   reassembled into a pooled buffer borrowed out through [`Reply`].
//! * `FixedBuf<[u8; N]>`: two in-struct arrays, no
//!   heap allocation ever, construction included — what a unikernel guest
//!   with a static heap budget wants. `N` bounds the encoded request *minus*
//!   deferred bulk arguments, and the reply read into it; beyond it a call
//!   fails with [`RpcError::RecordTooLarge`] before any byte is written, or
//!   at the offending reply fragment header.
//!
//! A call may name a bulk destination ([`RpcClient::call_raw_into`]): a
//! reply whose result is a status-or-opaque union carrying exactly as many
//! bytes as the destination holds is read off the transport into it, and
//! only its head enters the reply buffer, under either policy.
//!
//! Everything else — call header, record marking, stale-reply drain, reply
//! header parse, retry and reconnect — is the same code for both.

use crate::auth::{AuthFlavor, OpaqueAuth, MAX_AUTH_BODY};
use crate::error::{RpcError, RpcResult};
use crate::msg::{AcceptStat, MsgType, RejectStat};
use crate::record::{write_record_sg, IncomingRecord, RecordBuf, DEFAULT_MAX_FRAGMENT, MAX_RECORD};
use crate::transport::Transport;
use crate::RPC_VERSION;
use std::time::Duration;
use xdr::{FixedBuf, Xdr, XdrDecoder, XdrEncoder, XdrError, XdrSgEncoder};

/// Running tallies of client activity.
///
/// The paper reports per-application CUDA API call counts and transferred
/// bytes (§4.1); these counters are how our harness reproduces that table.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClientStats {
    /// Completed calls.
    pub calls: u64,
    /// Request bytes written (payload, excluding fragment headers). Only
    /// counted once the record write succeeded — a failed write leaves the
    /// counter untouched.
    pub bytes_sent: u64,
    /// Reply bytes read (payload, excluding fragment headers).
    pub bytes_received: u64,
    /// Attempts beyond the first (timeouts, resets, corrupt replies).
    pub retries: u64,
    /// Transports replaced after a dead connection.
    pub reconnects: u64,
    /// Reply records discarded because their xid belonged to an abandoned
    /// earlier call (late replies after a timed-out attempt).
    pub stale_replies: u64,
    /// Bytes memcpy'd into this client's own buffers: the owned argument
    /// stream encoded into scratch (deferred scatter-gather slices are
    /// borrowed, not copied) and every reply record read into the reply
    /// buffer or a bulk destination. The transport's staging is
    /// [`Transport::bytes_copied`]'s.
    pub bytes_copied: u64,
}

/// Retry behavior for [`RpcClient::call_raw_sg_tagged`].
///
/// The default policy performs a single attempt — exactly the pre-resilience
/// behavior. With more attempts, only calls tagged *idempotent* are retried
/// unless [`RetryPolicy::retry_non_idempotent`] is set, which is safe only
/// when the server runs an at-most-once replay cache
/// ([`crate::replay::ReplayCache`]) and the client tags itself with
/// [`OpaqueAuth::client_token`]: retransmissions reuse the original xid, so
/// the server replays the recorded reply instead of re-executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per call (1 = never retry).
    pub max_attempts: u32,
    /// Delay before the first retry; doubles each attempt.
    pub base_delay: Duration,
    /// Cap on the exponential backoff.
    pub max_delay: Duration,
    /// Also retry non-idempotent calls (requires server replay cache).
    pub retry_non_idempotent: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 1,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(200),
            retry_non_idempotent: false,
        }
    }
}

/// Builder for a transport replacing one that died mid-call.
pub(crate) type Reconnector<T = Box<dyn Transport>> = Box<dyn FnMut() -> RpcResult<T> + Send>;

/// Largest encoded credential: flavor, length, body.
const MAX_CRED: usize = 8 + MAX_AUTH_BODY;

/// Stale reply records drained per receive before giving up; with same-xid
/// retransmission a longer backlog means a desynchronized peer.
const MAX_STALE_REPLIES: u32 = 8;

/// The head of a reply whose bulk data may land in a caller's buffer: xid,
/// the accepted-reply header with an empty verifier (20 bytes), the result
/// arm and the opaque's length.
const BULK_HEAD: usize = 4 + 20 + 4 + 4;

/// Result payload of a successful call, borrowing the client's pooled reply
/// buffer (offset past the RPC reply header — no tail copy).
///
/// Derefs to `[u8]`, so existing decode code (`XdrDecoder::new(&reply)`,
/// `reply.len()`, `reply.is_empty()`) works unchanged. The borrow ends at
/// the next call, which is when the pooled buffer is reused.
#[derive(Debug)]
pub struct Reply<'a> {
    payload: &'a [u8],
    landed: bool,
}

impl std::ops::Deref for Reply<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.payload
    }
}

impl AsRef<[u8]> for Reply<'_> {
    fn as_ref(&self) -> &[u8] {
        self.payload
    }
}

impl Reply<'_> {
    /// Whether the call's bulk destination ([`RpcClient::call_raw_into`])
    /// holds the result's opaque: the payload then ends at its length word.
    pub fn landed(&self) -> bool {
        self.landed
    }
}

/// A synchronous ONC RPC client bound to one program+version on one
/// transport `T`, with buffer policy `B` (see the module docs).
pub struct RpcClient<T = Box<dyn Transport>, B = Vec<u8>> {
    transport: T,
    prog: u32,
    vers: u32,
    next_xid: u32,
    max_fragment: usize,
    /// The credential as it travels, encoded once when set: the call header
    /// copies these bytes instead of re-encoding (or cloning) an
    /// [`OpaqueAuth`] per call.
    cred: XdrEncoder<FixedBuf<[u8; MAX_CRED]>>,
    stats: ClientStats,
    policy: RetryPolicy,
    /// Per-call reply deadline, installed on the transport (and re-installed
    /// after every reconnect).
    call_timeout: Option<Duration>,
    /// Replacement-transport factory used when the connection dies mid-call.
    reconnect: Option<Reconnector<T>>,
    /// Deterministic jitter state for backoff (simple LCG).
    jitter: u64,
    /// Request encoder reused across calls.
    scratch: XdrEncoder<B>,
    /// Reply record buffer, reused across calls and borrowed out via
    /// [`Reply`].
    reply_buf: B,
}

impl RpcClient {
    /// Create a pooled-buffer client for `prog`/`vers` over a boxed
    /// transport — the defaults every `RpcClient` without type arguments
    /// means. Other transport types and buffer policies use
    /// [`RpcClient::bind`].
    pub fn new(transport: Box<dyn Transport>, prog: u32, vers: u32) -> Self {
        Self::bind(transport, prog, vers)
    }
}

impl<T: Transport, B: RecordBuf> RpcClient<T, B> {
    /// Create a client for `prog`/`vers` over `transport`; the transport
    /// type and the buffer policy come from the type the caller asks for.
    /// Allocates only what `B::fresh` does.
    pub fn bind(transport: T, prog: u32, vers: u32) -> Self {
        let mut cred = XdrEncoder::from_sink(FixedBuf::new([0u8; MAX_CRED]));
        OpaqueAuth::none().encode(&mut cred);
        Self {
            transport,
            prog,
            vers,
            // Start from a fixed seed; xids only need per-connection
            // uniqueness on a reliable transport.
            next_xid: 1,
            max_fragment: DEFAULT_MAX_FRAGMENT,
            cred,
            stats: ClientStats::default(),
            policy: RetryPolicy::default(),
            call_timeout: None,
            reconnect: None,
            jitter: 0x1234_5678_9abc_def0,
            scratch: XdrEncoder::from_sink(B::fresh()),
            reply_buf: B::fresh(),
        }
    }

    /// Install a retry policy (attempts, backoff, non-idempotent opt-in).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        assert!(policy.max_attempts > 0);
        self.policy = policy;
    }

    /// Bound how long each attempt may wait for its reply. Applied to the
    /// current transport immediately and to every reconnected transport.
    pub fn set_call_timeout(&mut self, dur: Option<Duration>) -> RpcResult<()> {
        self.call_timeout = dur;
        self.transport.set_read_timeout(dur)
    }

    /// Install a factory producing a replacement transport when the
    /// connection dies (reset, EOF). Without one, connection loss is fatal
    /// to the call.
    pub fn set_reconnect(&mut self, f: impl FnMut() -> RpcResult<T> + Send + 'static) {
        self.reconnect = Some(Box::new(f));
    }

    /// Override the maximum fragment size (fragmentation ablation).
    pub fn set_max_fragment(&mut self, max_fragment: usize) {
        assert!(max_fragment > 0);
        self.max_fragment = max_fragment;
    }

    /// Use a non-default credential for subsequent calls.
    ///
    /// # Panics
    /// If the body exceeds 400 bytes (`MAX_AUTH_BODY`), which no server accepts.
    pub fn set_credential(&mut self, cred: OpaqueAuth) {
        self.cred.clear();
        cred.encode(&mut self.cred);
        assert!(self.cred.finish().is_ok(), "credential body too large");
    }

    /// Send `token` as an `AUTH_SHORT` credential with every call (it keys
    /// the server's replay cache). Same bytes as
    /// `set_credential(OpaqueAuth::client_token(token))`, without building
    /// the heap-backed [`OpaqueAuth`].
    pub fn set_client_token(&mut self, token: u64) {
        self.cred.clear();
        self.cred.put_u32(AuthFlavor::Short as u32);
        self.cred.put_opaque(&token.to_be_bytes());
    }

    /// Rebase the xid sequence. A stripe pool (`cricket_client::stripe`)
    /// gives each lane a disjoint xid space so replay-cache entries from different lanes can never collide
    /// even when the lanes share one client token.
    pub fn set_xid_base(&mut self, base: u32) {
        self.next_xid = base;
    }

    /// Snapshot of the activity counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Reset the activity counters.
    pub fn reset_stats(&mut self) {
        self.stats = ClientStats::default();
    }

    /// Issue procedure `proc`, encoding `args` and decoding the reply as `R`.
    pub fn call<A: Xdr, R: Xdr>(&mut self, proc: u32, args: &A) -> RpcResult<R> {
        let reply = self.call_raw(proc, |enc| args.encode(enc))?;
        let mut dec = XdrDecoder::new(&reply);
        let result = R::decode(&mut dec)?;
        dec.finish()?;
        Ok(result)
    }

    /// Issue procedure `proc` with a caller-controlled argument encoder,
    /// returning the reply payload borrowed from the pooled record buffer.
    /// This is the primitive the generated stubs use; it avoids intermediate
    /// argument structs for multi-parameter procedures.
    pub fn call_raw(
        &mut self,
        proc: u32,
        encode_args: impl FnOnce(&mut XdrEncoder<B>),
    ) -> RpcResult<Reply<'_>> {
        self.call_raw_sg_tagged(proc, false, |enc| encode_args(enc))
    }

    /// [`RpcClient::call_raw`] for a procedure tagged idempotent in its
    /// RPCL definition: eligible for automatic retry under the policy.
    pub fn call_raw_tagged(
        &mut self,
        proc: u32,
        idempotent: bool,
        encode_args: impl FnOnce(&mut XdrEncoder<B>),
    ) -> RpcResult<Reply<'_>> {
        self.call_raw_sg_tagged(proc, idempotent, |enc| encode_args(enc))
    }

    /// The full-featured call primitive: scatter-gather argument encoding
    /// (deferred opaques are recorded as borrowed slices with lifetime `'d`
    /// and written to the transport as an iovec chain, never copied into
    /// the scratch buffer) plus the resilience machinery. The request is
    /// encoded *once*; each attempt re-sends the same bytes under the same
    /// xid, so a server-side replay cache can recognize retransmissions.
    /// Retries happen only for transport-level failures (timeout, reset,
    /// EOF, corrupt reply) and only when the call is `idempotent` or the
    /// policy opts non-idempotent calls in; RPC-level failures
    /// (accepted-but-failed, rejection) are returned immediately.
    pub fn call_raw_sg_tagged<'d>(
        &mut self,
        proc: u32,
        idempotent: bool,
        encode_args: impl FnOnce(&mut XdrSgEncoder<'d, '_, B>),
    ) -> RpcResult<Reply<'_>> {
        self.call_with(proc, idempotent, encode_args, None)
    }

    /// [`RpcClient::call_raw_sg_tagged`] for a result that is a union of a
    /// status and one bulk opaque (`bulk.0` is the opaque's arm): when the
    /// reply is that arm carrying exactly `bulk.1.len()` bytes, they are
    /// read off the transport straight into `bulk.1`, the pad must be zero
    /// and the record must end there, and the [`Reply`] is
    /// [`landed`](Reply::landed). Any other reply is read whole into the
    /// reply buffer, as for every other call, and `bulk.1` is untouched.
    pub fn call_raw_into<'d>(
        &mut self,
        proc: u32,
        idempotent: bool,
        encode_args: impl FnOnce(&mut XdrSgEncoder<'d, '_, B>),
        bulk: (i32, &mut [u8]),
    ) -> RpcResult<Reply<'_>> {
        self.call_with(proc, idempotent, encode_args, Some(bulk))
    }

    fn call_with<'d>(
        &mut self,
        proc: u32,
        idempotent: bool,
        encode_args: impl FnOnce(&mut XdrSgEncoder<'d, '_, B>),
        mut bulk: Option<(i32, &mut [u8])>,
    ) -> RpcResult<Reply<'_>> {
        let xid = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1);

        // Call header (RFC 5531 §9): xid, CALL, rpcvers, prog, vers, proc,
        // credential, AUTH_NONE verifier.
        self.scratch.clear();
        for word in [
            xid,
            MsgType::Call as u32,
            RPC_VERSION,
            self.prog,
            self.vers,
            proc,
        ] {
            self.scratch.put_u32(word);
        }
        self.scratch.extend_raw(self.cred.as_slice());
        OpaqueAuth::none().encode(&mut self.scratch);
        let mut sg = XdrSgEncoder::new(&mut self.scratch);
        encode_args(&mut sg);
        // A fixed buffer bounds only the owned stream: deferred bulk slices
        // never enter it.
        if let Err(XdrError::Truncated { needed, remaining }) = sg.finish() {
            return Err(RpcError::RecordTooLarge {
                size: needed,
                max: remaining,
            });
        }
        let total = sg.total_len();
        // Only the owned stream was memcpy'd into scratch; deferred slices
        // travel as borrowed iovec entries.
        self.stats.bytes_copied += sg.len() as u64;

        let may_retry = idempotent || self.policy.retry_non_idempotent;
        let mut attempt = 0u32;
        let (payload_start, landed) = loop {
            attempt += 1;
            let outcome = sg
                .with_segments(|segs| write_record_sg(&mut self.transport, segs, self.max_fragment))
                .and_then(|_| {
                    self.stats.bytes_sent += total as u64;
                    Self::receive_reply(
                        &mut self.transport,
                        &mut self.reply_buf,
                        &mut self.stats,
                        xid,
                        bulk.as_mut().map(|(arm, dst)| (*arm, &mut **dst)),
                    )
                });
            match outcome {
                Ok(pos) => break pos,
                Err(e) => {
                    let transient = matches!(
                        e,
                        RpcError::Io(_)
                            | RpcError::ConnectionClosed
                            | RpcError::TimedOut
                            | RpcError::Xdr(_)
                    );
                    // A shed call (`Busy`) never executed, so retrying it is
                    // safe regardless of idempotency.
                    let shed = matches!(e, RpcError::Busy { .. });
                    if !(((may_retry && transient) || shed) && attempt < self.policy.max_attempts) {
                        return Err(e);
                    }
                    self.stats.retries += 1;
                    if matches!(e, RpcError::Io(_) | RpcError::ConnectionClosed) {
                        // The stream is dead or desynchronized: only a fresh
                        // transport can carry the retransmission.
                        let Some(reconnect) = self.reconnect.as_mut() else {
                            return Err(e);
                        };
                        let mut fresh = reconnect()?;
                        fresh.set_read_timeout(self.call_timeout)?;
                        self.transport = fresh;
                        self.stats.reconnects += 1;
                    }
                    let mut delay = Self::backoff_delay(&self.policy, attempt, &mut self.jitter);
                    if let RpcError::Busy { retry_after_ns } = e {
                        // Honor the server's hint, but never sleep past the
                        // policy's cap — the hint is advisory, not a lease.
                        delay = delay
                            .max(Duration::from_nanos(retry_after_ns).min(self.policy.max_delay));
                    }
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
            }
        };
        self.stats.calls += 1;
        Ok(Reply {
            payload: &self.reply_buf.as_slice()[payload_start..],
            landed,
        })
    }

    /// Read reply records until `xid` answers, draining stale replies from
    /// abandoned attempts: the one receive path. On success returns the
    /// offset where the result payload begins in `reply_buf`, and whether
    /// the bulk opaque landed in `bulk`'s buffer instead (see
    /// [`RpcClient::call_raw_into`]): then `reply_buf` holds the head only.
    fn receive_reply(
        transport: &mut T,
        reply_buf: &mut B,
        stats: &mut ClientStats,
        xid: u32,
        mut bulk: Option<(i32, &mut [u8])>,
    ) -> RpcResult<(usize, bool)> {
        let mut last_got = 0u32;
        for _ in 0..MAX_STALE_REPLIES {
            reply_buf.truncate(0);
            let mut record = IncomingRecord::new(MAX_RECORD);
            let head = if bulk.is_some() {
                BULK_HEAD
            } else {
                usize::MAX
            };
            record
                .append(transport, reply_buf, head)?
                .ok_or(RpcError::ConnectionClosed)?;
            let landed = match bulk.as_mut() {
                Some((arm, dst)) if lands(reply_buf.as_slice(), xid, *arm, dst.len()) => {
                    Some(land(transport, &mut record, dst)?)
                }
                _ => None,
            };
            // The rest of the record, whole: all of any other reply, and
            // whatever follows a landed opaque's pad.
            let rest = record
                .append(transport, reply_buf, usize::MAX)?
                .unwrap_or(0);
            let received = record.ended().unwrap_or(0);
            stats.bytes_received += received as u64;
            stats.bytes_copied += received as u64;
            match landed {
                Some(false) => return Err(XdrError::NonZeroPadding.into()),
                Some(true) if rest > 0 => {
                    return Err(XdrError::TrailingBytes { remaining: rest }.into())
                }
                // The result payload is the arm and the length word.
                Some(true) => return Ok((BULK_HEAD - 8, true)),
                None => {}
            }

            let mut dec = XdrDecoder::new(reply_buf.as_slice());
            last_got = dec.get_u32()?;
            if last_got == xid {
                return reply_status(&mut dec).map(|()| (dec.position(), false));
            }
            // A late or duplicated reply to an earlier call: with same-xid
            // retransmission the answer we want is still ahead.
            stats.stale_replies += 1;
        }
        Err(RpcError::XidMismatch {
            expected: xid,
            got: last_got,
        })
    }

    /// Capped exponential backoff with deterministic jitter in [75%, 125%].
    fn backoff_delay(policy: &RetryPolicy, attempt: u32, jitter: &mut u64) -> Duration {
        if policy.base_delay.is_zero() {
            return Duration::ZERO;
        }
        let exp = attempt.saturating_sub(1).min(16);
        let scaled = policy.base_delay.saturating_mul(1u32 << exp);
        let capped = scaled.min(policy.max_delay);
        *jitter = jitter
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let permille = 750 + (*jitter >> 33) % 500; // 750..1250
        let us = capped.as_micros() as u64;
        Duration::from_micros(us * permille / 1000)
    }

    /// The underlying transport (its description, its copy counter).
    pub fn transport(&self) -> &T {
        &self.transport
    }
}

/// Whether `head`, the first [`BULK_HEAD`] bytes of a reply record, is the
/// accepted success of call `xid` whose result is the bulk arm `arm`
/// carrying exactly `len` bytes: the only reply whose opaque may land in a
/// caller's buffer.
fn lands(head: &[u8], xid: u32, arm: i32, len: usize) -> bool {
    let mut dec = XdrDecoder::new(head);
    len <= u32::MAX as usize
        && dec.get_u32() == Ok(xid)
        && reply_status(&mut dec).is_ok()
        && dec.get_i32() == Ok(arm)
        && dec.get_u32() == Ok(len as u32)
        && dec.position() == BULK_HEAD
}

/// Read a landing opaque of `dst.len()` bytes and its pad off `record`
/// into `dst`. Returns whether the pad is zero.
fn land<R: std::io::Read + ?Sized>(
    r: &mut R,
    record: &mut IncomingRecord,
    dst: &mut [u8],
) -> RpcResult<bool> {
    record.read_exact(r, dst)?;
    let mut pad = [0u8; 3];
    let pad = &mut pad[..(4 - dst.len() % 4) % 4];
    record.read_exact(r, pad)?;
    Ok(pad.iter().all(|&b| b == 0))
}

/// The one client-side reply-header parser (stream and datagram clients
/// both): parse what follows the xid (RFC 5531 §9), leaving `dec`
/// at the result payload of a successful reply and turning every other
/// outcome into its typed error. Borrows from the record; never allocates.
pub(crate) fn reply_status(dec: &mut XdrDecoder<'_>) -> RpcResult<()> {
    match dec.get_u32()? {
        t if t == MsgType::Reply as u32 => {}
        t if t == MsgType::Call as u32 => return Err(RpcError::UnexpectedMessageType),
        other => return Err(bad_arm("RpcMessage", other)),
    }
    match dec.get_u32()? {
        // MSG_ACCEPTED: verifier, accept_stat, stat-specific words.
        0 => {
            dec.get_u32()?;
            dec.get_opaque_max(MAX_AUTH_BODY)?;
            match AcceptStat::from_u32(dec.get_u32()?)? {
                AcceptStat::Success => Ok(()),
                AcceptStat::Busy => {
                    let (hi, lo) = (dec.get_u32()?, dec.get_u32()?);
                    Err(RpcError::Busy {
                        retry_after_ns: ((hi as u64) << 32) | lo as u64,
                    })
                }
                AcceptStat::ProgMismatch => {
                    // The supported version range (low, high) must be there.
                    dec.get_u32()?;
                    dec.get_u32()?;
                    Err(RpcError::Accepted(AcceptStat::ProgMismatch))
                }
                stat => Err(RpcError::Accepted(stat)),
            }
        }
        // MSG_DENIED.
        1 => Err(RpcError::Rejected(match dec.get_u32()? {
            0 => RejectStat::RpcMismatch {
                low: dec.get_u32()?,
                high: dec.get_u32()?,
            },
            1 => RejectStat::AuthError(dec.get_u32()?),
            other => return Err(bad_arm("ReplyBody::Denied", other)),
        })),
        other => Err(bad_arm("ReplyBody", other)),
    }
}

fn bad_arm(type_name: &'static str, discriminant: u32) -> RpcError {
    RpcError::Xdr(XdrError::InvalidUnionArm {
        type_name,
        discriminant: discriminant as i32,
    })
}

impl<T, B> std::fmt::Debug for RpcClient<T, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcClient")
            .field("prog", &self.prog)
            .field("vers", &self.vers)
            .field("next_xid", &self.next_xid)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{CallBody, RpcMessage};
    use std::io::{Read, Write};

    /// The fixed-buffer policy by name: an [`RpcClient`] that never allocates.
    type NoAllocRpcClient<T, const N: usize> = RpcClient<T, FixedBuf<[u8; N]>>;

    impl Reply<'_> {
        /// Copy the payload out, detaching it from the reply buffer.
        fn to_vec(&self) -> Vec<u8> {
            self.payload.to_vec()
        }
    }

    impl<T: Transport, B: RecordBuf> RpcClient<T, B> {
        /// The conventional "null" procedure (proc 0): no args, no results.
        pub(crate) fn call_null(&mut self) -> RpcResult<()> {
            self.call::<(), ()>(0, &())
        }
    }

    const LAST_FRAGMENT: u32 = 0x8000_0000;

    /// Loopback transport over fixed arrays: records the request, then
    /// serves one accepted-success reply (xid copied from the request),
    /// split into fragments of `fragment` bytes.
    struct Loopback {
        req: [u8; 2048],
        req_len: usize,
        /// The request is complete; the next write starts a new one.
        flushed: bool,
        result: [u8; 256],
        result_len: usize,
        fragment: usize,
        /// Serve a reply to another xid ahead of each answer.
        stale: bool,
        wire: [u8; 1024],
        wire_len: usize,
        read_pos: usize,
    }

    impl Loopback {
        /// A loopback answering every call with `result`; no reply at all
        /// (clean EOF) when `result` is `None`.
        fn new(result: Option<&[u8]>) -> Self {
            let mut lo = Self {
                req: [0; 2048],
                req_len: 0,
                flushed: false,
                result: [0; 256],
                result_len: usize::MAX,
                fragment: usize::MAX,
                stale: false,
                wire: [0; 1024],
                wire_len: 0,
                read_pos: 0,
            };
            if let Some(r) = result {
                lo.result[..r.len()].copy_from_slice(r);
                lo.result_len = r.len();
            }
            lo
        }

        fn request(&self) -> &[u8] {
            &self.req[..self.req_len]
        }
    }

    impl Write for Loopback {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if std::mem::take(&mut self.flushed) {
                self.req_len = 0;
            }
            self.req[self.req_len..self.req_len + buf.len()].copy_from_slice(buf);
            self.req_len += buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.flushed = true;
            if self.result_len == usize::MAX {
                return Ok(());
            }
            // xid (from the request), REPLY, MSG_ACCEPTED, verf, SUCCESS.
            let mut body = [0u8; 24 + 256];
            body[..4].copy_from_slice(&self.req[4..8]);
            body[4..8].copy_from_slice(&1u32.to_be_bytes());
            body[24..24 + self.result_len].copy_from_slice(&self.result[..self.result_len]);
            let body = &mut body[..24 + self.result_len];
            self.wire_len = 0;
            self.read_pos = 0;
            for stale in [true, false] {
                if stale && !self.stale {
                    continue;
                }
                body[3] ^= u8::from(stale);
                let mut chunks = body.chunks(self.fragment).peekable();
                while let Some(chunk) = chunks.next() {
                    let last = if chunks.peek().is_none() {
                        LAST_FRAGMENT
                    } else {
                        0
                    };
                    let mark = (chunk.len() as u32 | last).to_be_bytes();
                    for part in [&mark[..], chunk] {
                        self.wire[self.wire_len..self.wire_len + part.len()].copy_from_slice(part);
                        self.wire_len += part.len();
                    }
                }
                body[3] ^= u8::from(stale);
            }
            Ok(())
        }
    }

    impl Read for Loopback {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let avail = &self.wire[self.read_pos..self.wire_len];
            let n = avail.len().min(buf.len());
            buf[..n].copy_from_slice(&avail[..n]);
            self.read_pos += n;
            Ok(n)
        }
    }

    impl Transport for Loopback {}

    type Fixed<const N: usize> = FixedBuf<[u8; N]>;

    fn roundtrip<B: RecordBuf>() {
        let lo = Loopback::new(Some(&7i32.to_be_bytes()));
        let mut client: RpcClient<Loopback, B> = RpcClient::bind(lo, 99, 1);
        let reply = client.call_raw(4, |enc| enc.put_u64(0xdead_beef)).unwrap();
        assert_eq!(&*reply, 7i32.to_be_bytes());
        assert_eq!(client.call::<u64, i32>(4, &1).unwrap(), 7);
        assert_eq!(client.stats().calls, 2);
    }

    #[test]
    fn calls_roundtrip_under_both_buffer_policies() {
        roundtrip::<Vec<u8>>();
        roundtrip::<Fixed<256>>();
    }

    /// The client writes its call header word by word; it must stay what the
    /// canonical message type encodes, credential included.
    fn header_is_canonical<B: RecordBuf>() {
        for token in [None, Some(0xc11e_0001u64)] {
            let mut client: RpcClient<Loopback, B> =
                RpcClient::bind(Loopback::new(Some(&[])), 0x10, 0x2);
            let mut want = CallBody::new(0x10, 0x2, 0x3);
            if let Some(t) = token {
                client.set_client_token(t);
                want.cred = OpaqueAuth::client_token(t);
            }
            client.call_raw(0x3, |_| {}).unwrap();
            let req = client.transport.request();
            let header = xdr::encode(&RpcMessage::call(1, want));
            assert_eq!(
                &req[..4],
                (header.len() as u32 | LAST_FRAGMENT).to_be_bytes()
            );
            assert_eq!(&req[4..], header);
        }
    }

    #[test]
    fn call_header_matches_the_canonical_message_encoding() {
        header_is_canonical::<Vec<u8>>();
        header_is_canonical::<Fixed<256>>();
    }

    #[test]
    fn set_credential_and_set_client_token_agree() {
        let mut a = RpcClient::new(Box::new(Loopback::new(Some(&[]))), 9, 1);
        let mut b = RpcClient::new(Box::new(Loopback::new(Some(&[]))), 9, 1);
        a.set_credential(OpaqueAuth::client_token(77));
        b.set_client_token(77);
        assert_eq!(a.cred.as_slice(), b.cred.as_slice());
    }

    fn reassembles<B: RecordBuf>() {
        let payload: Vec<u8> = (0u8..64).collect();
        let mut lo = Loopback::new(Some(&payload));
        lo.fragment = 7; // force many tiny fragments
        let mut client: RpcClient<Loopback, B> = RpcClient::bind(lo, 9, 1);
        assert_eq!(&*client.call_raw(1, |_| {}).unwrap(), payload.as_slice());
    }

    #[test]
    fn multi_fragment_replies_reassemble() {
        reassembles::<Vec<u8>>();
        reassembles::<Fixed<256>>();
    }

    #[test]
    fn fixed_policy_bounds_the_owned_request_but_not_deferred_bulk() {
        let mut client: NoAllocRpcClient<Loopback, 64> =
            RpcClient::bind(Loopback::new(Some(&[])), 9, 1);
        let err = client
            .call_raw(1, |enc| enc.put_opaque_fixed(&[0u8; 128]))
            .unwrap_err();
        // 40-byte header + 128 bytes of arguments against N = 64.
        assert!(matches!(
            err,
            RpcError::RecordTooLarge { size: 168, max: 64 }
        ));
        assert_eq!(client.transport.req_len, 0, "nothing may hit the wire");

        // The same bytes as a deferred opaque ride an iovec segment instead.
        let bulk = [0x5au8; 1024];
        client
            .call_raw_sg_tagged(1, false, |enc| enc.put_opaque_deferred(&bulk))
            .unwrap();
        assert_eq!(client.transport.req_len, 4 + 40 + 4 + 1024);
    }

    #[test]
    fn fixed_policy_refuses_an_oversized_reply_at_its_fragment_header() {
        let mut client: NoAllocRpcClient<Loopback, 64> =
            RpcClient::bind(Loopback::new(Some(&[0u8; 64])), 9, 1);
        let err = client.call_raw(1, |_| {}).unwrap_err();
        assert!(matches!(
            err,
            RpcError::RecordTooLarge { size: 88, max: 64 }
        ));
        assert_eq!(client.transport.read_pos, 4, "only the header was read");
    }

    /// A `data_result`-shaped result: arm, then `data` as an opaque of
    /// `len` bytes (its length word says `len`), then `extra` bytes.
    fn bulk_result(arm: i32, len: u32, data: &[u8], extra: &[u8]) -> Vec<u8> {
        let mut out = arm.to_be_bytes().to_vec();
        out.extend_from_slice(&len.to_be_bytes());
        out.extend_from_slice(data);
        out.extend_from_slice(extra);
        out
    }

    /// What [`into_50`] saw: the outcome as (landed, payload), the
    /// destination afterwards and the client's counters.
    type Into50 = (RpcResult<(bool, Vec<u8>)>, [u8; 50], ClientStats);

    /// Call through `call_raw_into` with a 50-byte destination against a
    /// loopback serving `result` in fragments of `fragment` bytes, behind a
    /// stale reply when `stale`.
    fn into_50<B: RecordBuf>(result: &[u8], fragment: usize, stale: bool) -> Into50 {
        let mut lo = Loopback::new(Some(result));
        (lo.fragment, lo.stale) = (fragment, stale);
        let mut client: RpcClient<Loopback, B> = RpcClient::bind(lo, 9, 1);
        let mut dst = [0xEEu8; 50];
        let got = client
            .call_raw_into(1, false, |_| {}, (0, &mut dst))
            .map(|reply| (reply.landed(), reply.to_vec()));
        (got, dst, client.stats())
    }

    fn bulk_replies_land_or_read_whole<B: RecordBuf>() {
        let data: Vec<u8> = (1..=51).collect();
        let exact = bulk_result(0, 50, &data[..50], &[0, 0]);
        for fragment in [1, 3, 7, 100] {
            // The bulk arm carrying exactly `dst.len()` bytes lands there;
            // the payload ends at the opaque's length word.
            let (got, dst, stats) = into_50::<B>(&exact, fragment, false);
            assert_eq!(got.unwrap(), (true, exact[..8].to_vec()));
            assert_eq!(dst[..], data[..50]);
            assert_eq!(stats.bytes_received, 24 + exact.len() as u64);
            assert_eq!(stats.bytes_copied, stats.bytes_received + 40);
            // Behind a stale reply, too.
            let (got, dst, stats) = into_50::<B>(&exact, fragment, true);
            assert_eq!(got.unwrap(), (true, exact[..8].to_vec()));
            assert_eq!((dst[..] == data[..50], stats.stale_replies), (true, 1));

            // One byte short or long, or the other arm: read whole, as a
            // call without a destination reads it, and `dst` is untouched.
            for other in [
                bulk_result(0, 49, &data[..49], &[0, 0, 0]),
                bulk_result(0, 51, &data, &[0]),
                7i32.to_be_bytes().to_vec(),
            ] {
                let (got, dst, _) = into_50::<B>(&other, fragment, false);
                assert_eq!(got.unwrap(), (false, other));
                assert_eq!(dst, [0xEE; 50]);
            }

            // A non-zero pad, bytes past the pad and a record ending inside
            // the data are the errors the whole decode gives, never a panic.
            let (got, _, _) = into_50::<B>(&bulk_result(0, 50, &data[..50], &[0, 1]), 7, false);
            assert!(matches!(got, Err(RpcError::Xdr(XdrError::NonZeroPadding))));
            let long = bulk_result(0, 50, &data[..50], &[0, 0, 9, 9, 9]);
            let (got, _, _) = into_50::<B>(&long, fragment, false);
            assert!(
                matches!(
                    got,
                    Err(RpcError::Xdr(XdrError::TrailingBytes { remaining: 3 }))
                ),
                "{got:?}"
            );
            let cut = bulk_result(0, 50, &data[..20], &[]);
            let (got, _, _) = into_50::<B>(&cut, fragment, false);
            assert!(
                matches!(
                    got,
                    Err(RpcError::Xdr(XdrError::Truncated {
                        needed: 50,
                        remaining: 20
                    }))
                ),
                "{got:?}"
            );
        }
    }

    #[test]
    fn bulk_replies_land_in_the_destination_or_are_read_whole() {
        bulk_replies_land_or_read_whole::<Vec<u8>>();
        bulk_replies_land_or_read_whole::<Fixed<128>>();
    }

    /// A fixed reply buffer bounds what is read into it, not what lands: a
    /// reply read whole is refused at the fragment that would overflow it.
    #[test]
    fn a_landing_reply_may_exceed_the_fixed_reply_buffer() {
        let data = [0x5au8; 50];
        let exact = bulk_result(0, 50, &data, &[0, 0]);
        let (got, dst, _) = into_50::<Fixed<40>>(&exact, 16, false);
        assert!(got.unwrap().0);
        assert_eq!(dst, data);
        let (got, _, _) =
            into_50::<Fixed<40>>(&bulk_result(0, 49, &data[..49], &[0; 3]), 16, false);
        assert!(
            matches!(got, Err(RpcError::RecordTooLarge { size: 48, max: 40 })),
            "{got:?}"
        );
    }

    #[test]
    fn eof_maps_to_connection_closed() {
        let mut client: NoAllocRpcClient<Loopback, 256> =
            RpcClient::bind(Loopback::new(None), 9, 1);
        let err = client.call_raw(1, |_| {}).unwrap_err();
        assert!(matches!(err, RpcError::ConnectionClosed));
    }
}
