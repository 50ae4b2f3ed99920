//! One connection's RPC engine, with no socket, thread or clock of its own.
//!
//! Bytes go in — pushed as they arrive ([`Conn::push`]) or read from an
//! injected reader — and each whole call goes out to the driver's [`Calls`]
//! as the record buffer it was assembled in. The reply half ([`Replies`])
//! frames each reply lazily as it writes it to an injected writer and
//! applies the kill rules against an injected `now`.
//!
//! ```text
//!   bytes ──▶ Conn: RecordMarks strip ─▶ classify ─▶ Calls::call(&mut record)
//!               │ budget spent: hold the rest unparsed until Conn::resume
//!               ▼
//!   reply ──▶ Replies: queue ─▶ OutgoingRecord ─▶ writer (vectored)
//!               │ backlog / stall deadline at `now` ─▶ Backlog::Kill
//! ```
//!
//! Two drivers run it. The epoll reactor ([`crate::reactor`]) reads sockets
//! into it, swaps a parked call's record for a pooled buffer and hands it
//! to a worker shard, and takes `now` from a monotonic clock. The simulated
//! transport of `cricket-server` pushes each landed segment's payload into
//! it, answers every call from its record as it lands under a budget of
//! one, and takes `now` from the virtual clock. Time and I/O enter only
//! through those arguments, so the engine's rules run unchanged on either
//! clock.

use crate::auth::MAX_AUTH_BODY;
use crate::error::{RpcError, RpcResult};
use crate::record::{wire_len, OutgoingRecord, RecordMarks, DEFAULT_MAX_FRAGMENT, MAX_RECORD};
use crate::server::{RpcServer, Window};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::Duration;

/// How one procedure completes, mirroring the io_uring server contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcClass {
    /// Replies synchronously from server state (host_call paths): safe to
    /// execute inline, on the thread that read the call.
    Done,
    /// May wait — on a scheduler turn, a stream retire, a condvar
    /// (enqueue_at / wait_* paths): answered later, in order, off the
    /// thread that reads every connection.
    Parked,
}

/// Classifier from `(prog, vers, proc)` to [`ProcClass`]. `None` from the
/// header peek (not a call, short record) is always treated as `Parked`.
pub type Classifier = Arc<dyn Fn(u32, u32, u32) -> ProcClass + Send + Sync>;

/// Tuning knobs for a connection engine and the reactor that drives it
/// ([`crate::serve_tcp_reactor`]).
#[derive(Clone)]
pub struct ReactorConfig {
    /// Worker shards executing `Parked` calls. Connection `key` is pinned
    /// to shard `key % workers`.
    pub workers: usize,
    /// Bounded per-connection in-flight budget before the connection stops
    /// parsing (and the reactor stops reading its socket: backpressure).
    pub max_session_queue: usize,
    /// Procedure classifier; `None` parks everything (always correct,
    /// never inline).
    pub classify: Option<Classifier>,
    /// A connection whose writer accepts no reply bytes for this long
    /// while replies are queued is declared dead and closed, so one
    /// stalled client cannot keep its backlog forever. `Duration::MAX`
    /// switches the rule off.
    pub write_stall_deadline: Duration,
    /// Replies queued *behind* the record currently being written, per
    /// connection. Past this many bytes the peer is not reading and the
    /// connection is closed instead of buffering more.
    pub max_write_backlog: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_session_queue: 64,
            classify: None,
            write_stall_deadline: Duration::from_secs(5),
            max_write_backlog: 8 * 1024 * 1024,
        }
    }
}

/// The largest bulk payload whose records and replies the reactor's pools
/// recycle: one 64 KiB copy.
const POOLED_PAYLOAD_BYTES: usize = 64 * 1024;

/// What travels with that payload in one buffer: the record mark, the call
/// header (six words) with a credential and a verifier of up to
/// [`MAX_AUTH_BODY`] bytes each behind their flavor and length words, and
/// eight more XDR words of arguments or result (device pointer, opaque
/// length, status). A reply's header is smaller than a call's.
const RECORD_OVERHEAD_BYTES: usize = 4 + 6 * 4 + 2 * (8 + MAX_AUTH_BODY) + 8 * 4;

/// Largest buffer capacity a pool recycles. Records and replies range up to
/// `MAX_RECORD` (1 GiB); pooling those would let one burst of large
/// transfers pin huge allocations forever, so anything over one 64 KiB
/// payload with its headers is freed instead of pooled.
pub(crate) const MAX_POOLED_BUF_BYTES: usize = POOLED_PAYLOAD_BYTES + RECORD_OVERHEAD_BYTES;

/// Most reads one readiness event gets: a sender that keeps its socket full
/// yields to the other connections after this many reads, and
/// level-triggered readiness reports the rest on the next wait.
const READS_PER_EVENT: usize = 8;

/// What a driver does with the calls its [`Conn`] assembles.
pub trait Calls {
    /// Calls handed on and not answered yet. The in-flight budget counts
    /// these, and a `Done` call is handed on as such only when there are
    /// none, so no reply overtakes an earlier one.
    fn in_flight(&self) -> usize;

    /// `record` holds a whole call, marks stripped, `wire` bytes long on
    /// the wire. `Done`: answer it now. `Parked`: answer it later, in
    /// order; a driver that does so elsewhere takes the buffer, leaving
    /// another in its place. The engine clears whatever is left. An error
    /// closes the connection.
    fn call(&mut self, class: ProcClass, record: &mut Vec<u8>, wire: usize) -> RpcResult<()>;

    /// The server whose services land a call's last argument as it arrives
    /// ([`crate::Dispatch::lands`]); none (the default): every record whole.
    fn server(&self) -> Option<&Arc<RpcServer>> {
        None
    }

    /// [`Self::call`] for a call whose last argument went through a window
    /// (`RpcServer::open`), `record` keeping the rest.
    fn landed(&mut self, _: ProcClass, _: &mut Vec<u8>, _: Window, _: usize) -> RpcResult<()> {
        Err(RpcError::UnexpectedMessageType) // opened by no server of this driver
    }
}

/// What one [`Conn::drain`] came to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Drained {
    /// The reader would block, or had its share of reads for this event.
    Open,
    /// The in-flight budget is spent: read no more until calls complete.
    Stalled,
    /// End of stream, a failed read or a malformed stream: close.
    Closed,
}

/// The request half of one connection: strips record marks as bytes
/// arrive, classifies each whole call, and holds back what arrives while
/// the in-flight budget is spent.
pub struct Conn {
    /// Where the request stream stands, and the record being assembled,
    /// its marks stripped.
    marks: RecordMarks,
    record: Vec<u8>,
    /// The record bytes to strip before deciding whether its last argument
    /// lands elsewhere (`None`: decided), and where it lands if so.
    need: Option<usize>,
    window: Option<Window>,
    /// Bytes arrived but not parsed. While any wait, nothing newer is.
    unparsed: Vec<u8>,
    classify: Option<Classifier>,
    budget: usize,
}

impl Conn {
    /// An engine at the start of a request stream, classifying with
    /// `cfg.classify` under a budget of `cfg.max_session_queue` calls.
    pub fn new(cfg: &ReactorConfig) -> Self {
        Self {
            marks: RecordMarks::new(MAX_RECORD),
            record: Vec::new(),
            need: Some(HEAD),
            window: None,
            unparsed: Vec::new(),
            classify: cfg.classify.clone(),
            budget: cfg.max_session_queue,
        }
    }

    /// Take `bytes` that arrived on the connection: parse them unless older
    /// bytes still wait, and hold what is not parsed.
    pub fn push(&mut self, bytes: &[u8], calls: &mut impl Calls) -> RpcResult<()> {
        let used = if self.unparsed.is_empty() {
            self.parse(bytes, calls)?
        } else {
            0
        };
        self.unparsed.extend_from_slice(&bytes[used..]);
        Ok(())
    }

    /// Parse the held bytes as far as the budget allows: how a driver
    /// restarts a connection once calls have completed.
    pub fn resume(&mut self, calls: &mut impl Calls) -> RpcResult<()> {
        let mut held = std::mem::take(&mut self.unparsed);
        let used = self.parse(&held, calls)?;
        held.drain(..used);
        self.unparsed = held;
        Ok(())
    }

    /// Parse the held bytes and then up to [`READS_PER_EVENT`] reads of
    /// `r` into `scratch`, the last one that does not fill it. No read
    /// happens while any held byte waits, even if calls completed since:
    /// the driver resumes the connection.
    pub(crate) fn drain(
        &mut self,
        r: &mut impl Read,
        scratch: &mut [u8],
        calls: &mut impl Calls,
    ) -> Drained {
        let (mut reads, mut short) = (0, false);
        loop {
            if self.resume(calls).is_err() {
                return Drained::Closed;
            }
            if !self.unparsed.is_empty() || calls.in_flight() >= self.budget {
                return Drained::Stalled;
            }
            if reads == READS_PER_EVENT || short {
                return Drained::Open;
            }
            reads += 1;
            let n = match r.read(scratch) {
                Ok(0) => return Drained::Closed,
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Drained::Open,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Drained::Closed,
            };
            // A short read emptied the socket: level-triggered readiness
            // reports what arrives later, so no read finds nothing.
            short = n < scratch.len();
            if self.push(&scratch[..n], calls).is_err() {
                return Drained::Closed;
            }
        }
    }

    /// Strip the marks off `bytes` into `record` (its last argument into a
    /// window, if one opened) and hand each call on as it completes, while
    /// the budget has room. Returns how many of `bytes` it parsed. Every
    /// byte is parsed once, so reassembly is linear in the bytes received.
    fn parse(&mut self, bytes: &[u8], calls: &mut impl Calls) -> RpcResult<usize> {
        let mut used = 0;
        loop {
            // As far as the head tells, its last argument lands or not. A
            // window opens only when no earlier call is unanswered: none of
            // them may see the bytes it writes.
            while self.need == Some(self.record.len()) {
                let rpc = calls.server();
                let head = head_len(&self.record, |key| rpc?.lands(key));
                self.need = head.filter(|&n| n > self.record.len());
                if let (Some(rpc), Some(_), None) = (rpc, head, self.need) {
                    if calls.in_flight() > 0 {
                        self.need = head;
                        return Ok(used);
                    }
                    let len = word(&self.record, self.record.len() - 4).unwrap_or(0);
                    self.window = Some(rpc.open(&self.record, len as usize)?);
                }
            }
            if used == bytes.len() || calls.in_flight() >= self.budget {
                return Ok(used);
            }
            // Up to the head's end, the window's, or on: no payload run
            // straddles either.
            let (record, window) = (&mut self.record, &mut self.window);
            let open = window.as_ref().map_or(0, |w| w.left);
            let cap = match (self.need, open) {
                (Some(need), _) => need - record.len(),
                (None, 0) => usize::MAX,
                (None, open) => open,
            };
            let input = &bytes[used..][..cap.min(bytes.len() - used)];
            let (n, end) = self.marks.strip(input, |p| match window {
                Some(w) if open > 0 => w.land(p),
                _ => pooled_extend(record, p),
            })?;
            used += n;
            if let Some((_, wire)) = end {
                let class = match (&self.classify, peek_call(&self.record)) {
                    (Some(f), Some((prog, vers, proc))) if calls.in_flight() == 0 => {
                        f(prog, vers, proc)
                    }
                    _ => ProcClass::Parked,
                };
                let called = match self.window.take() {
                    Some(w) => calls.landed(class, &mut self.record, w, wire),
                    None => calls.call(class, &mut self.record, wire),
                };
                self.record.clear();
                self.need = Some(HEAD);
                called?;
            }
        }
    }

    /// May a stalled connection read again with `in_flight` calls
    /// unanswered: at half its budget, or at none while a window waits.
    pub(crate) fn may_resume(&self, in_flight: usize) -> bool {
        let waits = self.need == Some(self.record.len());
        in_flight <= if waits { 0 } else { self.budget / 2 }
    }
}

/// What a call record's head shows of its procedure and credential: xid,
/// message type, RPC and program versions, program, procedure, credential
/// flavor and length.
const HEAD: usize = 32;

/// The word at byte `i` of `record`, if it holds one.
fn word(record: &[u8], i: usize) -> Option<u32> {
    let w = record.get(i..i + 4)?;
    Some(u32::from_be_bytes([w[0], w[1], w[2], w[3]]))
}

/// The length of the call in `record` through the length word of a last
/// argument that `lands`, or of what `record` must hold to tell (its
/// [`HEAD`], then its verifier's length word); `None`: no such call.
fn head_len(record: &[u8], lands: impl Fn((u32, u32, u32)) -> Option<usize>) -> Option<usize> {
    let body = |i| word(record, i).map(|n| (n as usize).div_ceil(4) * 4);
    let Some(cred) = body(HEAD - 4) else {
        return Some(HEAD);
    };
    let args = lands(peek_call(record)?).filter(|_| cred <= MAX_AUTH_BODY)?;
    let verf = HEAD + cred + 8;
    match body(verf - 4) {
        None => Some(verf),
        Some(v) => (v <= MAX_AUTH_BODY).then_some(verf + v + args + 4),
    }
}

/// Append `bytes` to a record buffer. Growth doubles, but stops at
/// [`MAX_POOLED_BUF_BYTES`] while the contents fit under it, so a record
/// within the pools' cap lands in a buffer they take back.
fn pooled_extend(buf: &mut Vec<u8>, bytes: &[u8]) {
    let want = buf.len() + bytes.len();
    if want > buf.capacity() && want <= MAX_POOLED_BUF_BYTES {
        let cap = (2 * buf.capacity()).clamp(want, MAX_POOLED_BUF_BYTES);
        buf.reserve_exact(cap - buf.len());
    }
    buf.extend_from_slice(bytes);
}

/// Peek `(prog, vers, proc)` out of an un-decoded call record.
/// Returns `None` for anything that is not a plausible call header; such
/// records are parked so the full decoder produces the proper error reply
/// off the thread that reads every connection.
fn peek_call(record: &[u8]) -> Option<(u32, u32, u32)> {
    let w = |i| word(record, i);
    match (w(4)?, w(12)?, w(16)?, w(20)?) {
        (0, prog, vers, proc) => Some((prog, vers, proc)), // msg_type CALL
        _ => None,
    }
}

/// What the kill rules make of a reply queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Backlog {
    /// Nothing queued.
    Empty,
    /// Replies wait for the writer; the stall deadline is this far off.
    Wait(Duration),
    /// The peer is not reading: close the connection.
    Kill,
}

/// The reply half of one connection: replies in the order they were
/// produced, each framed as it is written, at most one partly written.
pub struct Replies {
    /// Reply payloads (encoded messages, unmarked), oldest first.
    queue: VecDeque<Vec<u8>>,
    /// How far the front reply's record is written.
    front: OutgoingRecord,
    /// Wire bytes of the replies behind the front one.
    behind: usize,
    /// When the writer last took a byte, or a reply landed on an empty
    /// queue, on the driver's clock.
    last_progress: Duration,
}

impl Default for Replies {
    fn default() -> Self {
        Self {
            queue: VecDeque::new(),
            front: OutgoingRecord::new(0, DEFAULT_MAX_FRAGMENT),
            behind: 0,
            last_progress: Duration::ZERO,
        }
    }
}

impl Replies {
    /// Queue a reply behind the others; one that lands on an empty queue
    /// gets the full stall deadline from `now`. Returns its length on the
    /// wire.
    pub fn push(&mut self, reply: Vec<u8>, now: Duration) -> usize {
        let wire = wire_len(reply.len(), DEFAULT_MAX_FRAGMENT);
        if self.queue.is_empty() {
            self.front = OutgoingRecord::new(reply.len(), DEFAULT_MAX_FRAGMENT);
            self.last_progress = now;
        } else {
            self.behind += wire;
        }
        self.queue.push_back(reply);
        wire
    }

    /// Write queued replies to `w` until it would block or the queue is
    /// empty, handing each written reply's buffer to `done`. `Err` means
    /// the connection is gone.
    pub fn flush(
        &mut self,
        w: &mut impl Write,
        now: Duration,
        mut done: impl FnMut(Vec<u8>),
    ) -> io::Result<()> {
        while let Some(reply) = self.queue.front() {
            let (wrote, out) = self.front.write_to(reply, w)?;
            if wrote > 0 {
                self.last_progress = now;
            }
            if !out {
                return Ok(());
            }
            if let Some(written) = self.queue.pop_front() {
                done(written);
            }
            if let Some(next) = self.queue.front() {
                self.behind -= wire_len(next.len(), DEFAULT_MAX_FRAGMENT);
                self.front = OutgoingRecord::new(next.len(), DEFAULT_MAX_FRAGMENT);
            }
        }
        Ok(())
    }

    /// True when every reply is written.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The kill rules at `now`: more than `max_write_backlog` bytes behind
    /// the reply being written, or no progress for `write_stall_deadline`.
    pub(crate) fn backlog(&self, cfg: &ReactorConfig, now: Duration) -> Backlog {
        let deadline = self.last_progress.saturating_add(cfg.write_stall_deadline);
        if self.queue.is_empty() {
            Backlog::Empty
        } else if self.behind > cfg.max_write_backlog || now >= deadline {
            Backlog::Kill
        } else {
            Backlog::Wait(deadline - now)
        }
    }

    /// Drop every queued reply, handing its buffer to `done`.
    pub(crate) fn kill(&mut self, done: impl FnMut(Vec<u8>)) {
        self.behind = 0;
        self.queue.drain(..).for_each(done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{AcceptStat, CallBody, RpcMessage};
    use crate::record::{mark, write_record};
    use crate::server::RpcServer;
    use std::time::Instant;
    use xdr::{Xdr, XdrDecoder, XdrEncoder};

    const PROG: u32 = 400;
    const VERS: u32 = 1;
    /// The chaos suite's seeds (`tests/chaos.rs`): every interleaving below
    /// runs under each.
    const CI_SEEDS: [u64; 6] = [1, 7, 42, 0xC41C_4E71, 0xDEAD_BEEF, 20_230_915];

    /// proc 1 echoes its opaque argument (parked), proc 2 adds two words
    /// (done).
    fn rpc() -> Arc<RpcServer> {
        let mut rpc = RpcServer::new();
        let service = |proc: u32, args: &mut XdrDecoder<'_>, reply: &mut XdrEncoder| match proc {
            1 => {
                let data = args.get_opaque().map_err(|_| AcceptStat::GarbageArgs)?;
                reply.put_opaque(data);
                Ok(())
            }
            2 => {
                let a = args.get_u32().map_err(|_| AcceptStat::GarbageArgs)?;
                let b = args.get_u32().map_err(|_| AcceptStat::GarbageArgs)?;
                reply.put_u32(a.wrapping_add(b));
                Ok(())
            }
            _ => Err(AcceptStat::ProcUnavail),
        };
        rpc.register(PROG, VERS, Arc::new(service));
        Arc::new(rpc)
    }

    fn config(max_session_queue: usize) -> ReactorConfig {
        let classify: Classifier = Arc::new(|_, _, proc| match proc {
            2 => ProcClass::Done,
            _ => ProcClass::Parked,
        });
        ReactorConfig {
            max_session_queue,
            classify: Some(classify),
            ..ReactorConfig::default()
        }
    }

    /// One call record on the wire.
    fn call(xid: u32, proc: u32, args: &impl Xdr) -> Vec<u8> {
        let mut enc = XdrEncoder::new();
        RpcMessage::call(xid, CallBody::new(PROG, VERS, proc)).encode(&mut enc);
        args.encode(&mut enc);
        let mut wire = Vec::new();
        write_record(&mut wire, enc.as_slice(), DEFAULT_MAX_FRAGMENT).unwrap();
        wire
    }

    /// The reply bytes the serial reference, `RpcServer::serve_connection`,
    /// sends for the request stream `wire`.
    fn serial(rpc: &RpcServer, wire: &[u8]) -> Vec<u8> {
        struct Duplex<'a>(&'a [u8], Vec<u8>);
        impl Read for Duplex<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.0.read(buf)
            }
        }
        impl Write for Duplex<'_> {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.1.write(buf)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut duplex = Duplex(wire, Vec::new());
        rpc.serve_connection(&mut duplex).unwrap();
        duplex.1
    }

    /// A driver that parks every call by taking it, as the reactor's
    /// worker shards do, and leaves answering it to the test.
    #[derive(Default)]
    struct Jobs {
        taken: Vec<Vec<u8>>,
        pending: usize,
    }

    impl Calls for Jobs {
        fn in_flight(&self) -> usize {
            self.pending
        }

        fn call(&mut self, _: ProcClass, record: &mut Vec<u8>, _: usize) -> RpcResult<()> {
            self.pending += 1;
            self.taken.push(std::mem::take(record));
            Ok(())
        }
    }

    /// The bytes of a socket that have arrived, read at most a buffer at a
    /// time; a read past them would block.
    struct Arrived<'a> {
        bytes: &'a [u8],
        reads: &'a mut usize,
    }

    impl Read for Arrived<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.bytes.is_empty() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            *self.reads += 1;
            self.bytes.read(buf)
        }
    }

    /// Reassembly parses each byte once: a record of 4 Mi one-byte
    /// fragments fed 64 KiB at a time, as the reactor reads it, takes about
    /// as long as the same bytes fed whole. A two-pass assembler that
    /// re-walks every mark of the unfinished record on each read is
    /// quadratic in the fragments: in a debug build it took 20.1 s fed in
    /// reads against 0.41 s fed whole, all of it on the one reactor thread
    /// that serves every connection. The two feeds are timed against each
    /// other, not a clock, so a busy machine slows both sides.
    #[test]
    fn reassembly_is_linear_in_the_bytes_received() {
        const FRAGMENTS: usize = 4 << 20;
        let mut conn = Conn::new(&config(64));
        let payload: Vec<u8> = (0..FRAGMENTS).map(|i| (i % 251) as u8).collect();
        let mut wire = Vec::with_capacity(5 * FRAGMENTS);
        for (i, &byte) in payload.iter().enumerate() {
            wire.extend_from_slice(&mark(1, i + 1 == FRAGMENTS));
            wire.push(byte);
        }
        let mut assemble = |read: usize| {
            let mut jobs = Jobs::default();
            let start = Instant::now();
            for chunk in wire.chunks(read) {
                conn.push(chunk, &mut jobs).unwrap();
                assert!(conn.unparsed.is_empty());
            }
            let took = start.elapsed();
            assert!(jobs.taken == [&payload[..]], "record damaged");
            took
        };
        // Best of two each, so one preemption does not decide it.
        let whole = assemble(wire.len()).min(assemble(wire.len()));
        let reads = assemble(64 << 10).min(assemble(64 << 10));
        assert!(reads < 4 * whole, "{reads:?} in reads, {whole:?} whole");
    }

    /// A parked 16 MiB request is assembled in the engine's buffer and
    /// that buffer itself moves to its job. While the in-flight budget (one
    /// call here) holds the calls behind it back, the bytes read but not
    /// parsed never exceed one read, however much the peer has sent.
    #[test]
    fn a_parked_record_moves_to_its_job_and_unparsed_bytes_stay_within_one_read() {
        let mut conn = Conn::new(&config(1));
        let (mut jobs, mut scratch) = (Jobs::default(), vec![0u8; 64 << 10]);
        let payload: Vec<u8> = (0..16u32 << 20).map(|i| (i % 253) as u8).collect();
        // Every fragment but an empty last one, so the read that completes
        // the record adds no payload to it.
        let mut wire = Vec::new();
        for chunk in payload.chunks(DEFAULT_MAX_FRAGMENT) {
            wire.extend_from_slice(&mark(chunk.len(), false));
            wire.extend_from_slice(chunk);
        }
        let body = wire.len();
        // Then 32 small calls and a 1 MiB one, all held back by the budget.
        wire.extend_from_slice(&mark(0, true));
        for xid in 0..33u32 {
            wire.extend(call(
                xid,
                1,
                &vec![7u8; if xid == 32 { 1 << 20 } else { 8 }],
            ));
        }
        let (mut arrived, mut read, mut reads) = (body, 0, 0);
        let mut drain = |conn: &mut Conn, jobs: &mut Jobs, arrived: usize| {
            let before = reads;
            let mut socket = Arrived {
                bytes: &wire[read..arrived],
                reads: &mut reads,
            };
            let drained = conn.drain(&mut socket, &mut scratch, jobs);
            read = arrived - socket.bytes.len();
            assert!(reads - before <= READS_PER_EVENT);
            assert!(conn.unparsed.len() <= 64 << 10, "{}", conn.unparsed.len());
            drained
        };
        while conn.record.len() < 16 << 20 {
            assert_eq!(drain(&mut conn, &mut jobs, arrived), Drained::Open);
        }
        let assembled = conn.record.as_ptr();
        arrived = wire.len();
        while jobs.taken.is_empty() {
            drain(&mut conn, &mut jobs, arrived);
        }
        let job = jobs.taken.pop().unwrap();
        assert_eq!(job.as_ptr(), assembled, "the record was copied");
        assert!(job == payload, "record damaged");
        for xid in 0..33u32 {
            assert_eq!(drain(&mut conn, &mut jobs, arrived), Drained::Stalled);
            assert!(jobs.taken.is_empty(), "over budget");
            // One completion releases the next call.
            jobs.pending -= 1;
            while jobs.taken.is_empty() {
                drain(&mut conn, &mut jobs, arrived);
            }
            assert_eq!(jobs.taken.pop().unwrap()[..4], xid.to_be_bytes());
        }
        assert_eq!(read, wire.len());
    }

    /// Bytes pushed while older ones wait unparsed queue behind them, even
    /// once the budget has room again: the next `resume` (or read loop)
    /// parses the older ones first, so calls are handed on in order.
    #[test]
    fn pushed_bytes_queue_behind_held_ones() {
        let mut conn = Conn::new(&config(1));
        let mut jobs = Jobs::default();
        let [a, b, c] = [0u32, 1, 2].map(|xid| call(xid, 1, &vec![xid as u8; 5]));
        conn.push(&[a, b].concat(), &mut jobs).unwrap();
        assert_eq!(jobs.taken.len(), 1, "the budget holds the second call back");
        jobs.pending = 0;
        conn.push(&c, &mut jobs).unwrap();
        assert_eq!(
            jobs.taken.len(),
            1,
            "a newer call was parsed ahead of a held one"
        );
        for _ in 0..2 {
            conn.resume(&mut jobs).unwrap();
            jobs.pending = 0;
        }
        let xids: Vec<&[u8]> = jobs.taken.iter().map(|r| &r[..4]).collect();
        assert_eq!(xids, [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 2]]);
        assert!(conn.unparsed.is_empty());
    }

    /// The peer's receive window: takes what fits across slices, would
    /// block when shut, and keeps every byte it took.
    struct Window<'a> {
        room: &'a mut usize,
        got: &'a mut Vec<u8>,
    }

    impl Write for Window<'_> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[io::IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
            let before = self.got.len();
            for buf in bufs {
                let n = buf.len().min(*self.room - (self.got.len() - before));
                self.got.extend_from_slice(&buf[..n]);
            }
            match self.got.len() - before {
                0 => Err(io::ErrorKind::WouldBlock.into()),
                n => {
                    *self.room -= n;
                    Ok(n)
                }
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// One connection of the virtual reactor: its engine and reply queue,
    /// and the peer's end of the socket.
    struct Peer {
        conn: Conn,
        replies: Replies,
        pending: usize,
        stalled: bool,
        closed: bool,
        /// The request stream, how much of it has arrived, how much the
        /// reactor has read, in how many reads.
        wire: Vec<u8>,
        arrived: usize,
        read: usize,
        reads: usize,
        /// Whether the peer reads its replies, the room in its receive
        /// window, and every reply byte it received.
        reads_replies: bool,
        window: usize,
        got: Vec<u8>,
        /// When a reply last landed on its empty queue, and when the kill
        /// rules closed it.
        queued_at: Duration,
        killed_at: Option<Duration>,
    }

    /// Queue the reply in `enc` and write it through if the queue was
    /// empty, as the reactor's `send_reply` does.
    fn send_reply(p: &mut Peer, enc: &XdrEncoder, now: Duration) {
        if p.replies.is_empty() {
            p.queued_at = now;
        }
        let idle = p.replies.is_empty();
        p.replies.push(enc.as_slice().to_vec(), now);
        if idle {
            p.flush(now);
        }
    }

    impl Peer {
        fn new(wire: Vec<u8>, cfg: &ReactorConfig) -> Self {
            Self {
                conn: Conn::new(cfg),
                replies: Replies::default(),
                pending: 0,
                stalled: false,
                closed: false,
                wire,
                arrived: 0,
                read: 0,
                reads: 0,
                reads_replies: true,
                window: 256 << 10,
                got: Vec::new(),
                queued_at: Duration::ZERO,
                killed_at: None,
            }
        }

        fn flush(&mut self, now: Duration) {
            let mut window = Window {
                room: &mut self.window,
                got: &mut self.got,
            };
            self.replies.flush(&mut window, now, drop).unwrap();
        }
    }

    /// The reactor thread's side of one peer's calls: `Done` inline, the
    /// rest onto the one worker shard.
    struct Shard<'a> {
        key: usize,
        rpc: &'a RpcServer,
        peer: &'a mut Peer,
        jobs: &'a mut VecDeque<(usize, Vec<u8>)>,
        enc: &'a mut XdrEncoder,
        now: Duration,
    }

    impl Calls for Shard<'_> {
        fn in_flight(&self) -> usize {
            self.peer.pending
        }

        fn call(&mut self, class: ProcClass, record: &mut Vec<u8>, _: usize) -> RpcResult<()> {
            if class == ProcClass::Done {
                self.rpc.handle_record_into(record, self.enc)?;
                send_reply(self.peer, self.enc, self.now);
            } else {
                self.peer.pending += 1;
                self.jobs.push_back((self.key, std::mem::take(record)));
            }
            Ok(())
        }
    }

    /// The reactor, its worker shard and its peers on virtual time, driven
    /// by a seeded schedule: bytes arrive in random pieces, and readiness
    /// waits, the worker, the peers' reads and the kill rules interleave in
    /// a random order while the clock moves in random steps of up to
    /// `STEP`. Nothing reads a wall clock or sleeps.
    struct Virtual {
        rpc: Arc<RpcServer>,
        cfg: ReactorConfig,
        peers: Vec<Peer>,
        jobs: VecDeque<(usize, Vec<u8>)>,
        enc: XdrEncoder,
        scratch: Vec<u8>,
        now: Duration,
        rng: u64,
        stalls: usize,
    }

    const STEP: Duration = Duration::from_micros(500);

    impl Virtual {
        fn new(seed: u64, cfg: ReactorConfig, wires: Vec<Vec<u8>>) -> Self {
            Self {
                rpc: rpc(),
                peers: wires.into_iter().map(|w| Peer::new(w, &cfg)).collect(),
                cfg,
                jobs: VecDeque::new(),
                enc: XdrEncoder::new(),
                scratch: vec![0; 64 << 10],
                now: Duration::ZERO,
                rng: seed,
                stalls: 0,
            }
        }

        fn rand(&mut self, below: usize) -> usize {
            self.rng = self
                .rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.rng >> 33) as usize % below
        }

        /// Read and dispatch what has arrived on peer `i`, as one readiness
        /// event does.
        fn drain(&mut self, i: usize) {
            let peer = &mut self.peers[i];
            let mut conn = std::mem::replace(&mut peer.conn, Conn::new(&self.cfg));
            let (wire, mut reads) = (std::mem::take(&mut peer.wire), 0);
            let mut socket = Arrived {
                bytes: &wire[peer.read..peer.arrived],
                reads: &mut reads,
            };
            let mut calls = Shard {
                key: i,
                rpc: &self.rpc,
                peer,
                jobs: &mut self.jobs,
                enc: &mut self.enc,
                now: self.now,
            };
            let drained = conn.drain(&mut socket, &mut self.scratch, &mut calls);
            let left = socket.bytes.len();
            let peer = &mut self.peers[i];
            assert!(conn.unparsed.len() <= self.scratch.len());
            (peer.conn, peer.wire, peer.reads) = (conn, wire, peer.reads + reads);
            peer.read = peer.arrived - left;
            match drained {
                Drained::Open => {}
                Drained::Stalled => {
                    peer.stalled = true;
                    self.stalls += 1;
                }
                Drained::Closed => peer.closed = true,
            }
        }

        /// One readiness wait: every peer with unread bytes that is neither
        /// stalled nor closed gets one event, starting at a seeded peer.
        fn poll(&mut self) {
            let n = self.peers.len();
            let first = self.rand(n);
            for i in (0..n).map(|k| (first + k) % n) {
                let p = &self.peers[i];
                if p.read < p.arrived && !p.stalled && !p.closed {
                    self.drain(i);
                }
            }
        }

        /// The worker shard answers its oldest call; a stalled peer resumes
        /// at the low watermark, as the reactor's sweep resumes it.
        fn work(&mut self) {
            let Some((i, record)) = self.jobs.pop_front() else {
                return;
            };
            self.rpc.handle_record_into(&record, &mut self.enc).unwrap();
            let p = &mut self.peers[i];
            if p.killed_at.is_none() {
                send_reply(p, &self.enc, self.now);
            }
            p.pending -= 1;
            let low = self.cfg.max_session_queue / 2;
            while self.peers[i].stalled && self.peers[i].pending <= low {
                self.peers[i].stalled = false;
                self.drain(i);
            }
        }

        /// One step of the schedule; false once every byte has arrived and
        /// every call is answered or its peer killed.
        fn step(&mut self) -> bool {
            let i = self.rand(self.peers.len());
            match self.rand(4) {
                0 => {
                    let more = 1 + self.rand(96 << 10);
                    let p = &mut self.peers[i];
                    p.arrived = p.wire.len().min(p.arrived + more);
                }
                1 => self.poll(),
                2 => self.work(),
                _ if self.peers[i].reads_replies => {
                    self.peers[i].window += 1 + self.rand(160 << 10);
                    self.peers[i].flush(self.now);
                }
                _ => {}
            }
            let tick = self.rand(1000) as u32;
            self.now += STEP * tick / 1000;
            for p in self.peers.iter_mut().filter(|p| p.killed_at.is_none()) {
                if p.replies.backlog(&self.cfg, self.now) == Backlog::Kill {
                    p.replies.kill(drop);
                    (p.killed_at, p.closed) = (Some(self.now), true);
                }
            }
            let busy = |p: &Peer| {
                let unread = p.reads_replies && !p.replies.is_empty();
                p.killed_at.is_none() && (p.arrived < p.wire.len() || p.read < p.arrived || unread)
            };
            !self.jobs.is_empty() || self.peers.iter().any(busy)
        }

        fn run(mut self) -> Self {
            for _ in 0..1_000_000 {
                if !self.step() {
                    return self;
                }
            }
            panic!("the schedule did not finish");
        }
    }

    /// Pipelined echoes of mixed sizes (past one read, one fragment and
    /// the pools' cap) and inline adds on three connections against a
    /// budget of one call (the simulated transport's only way of holding a
    /// call) and of two: under every seed the engine stalls, holds the rest
    /// of a read unparsed, and still sends each peer exactly the bytes the
    /// serial reference sends.
    #[test]
    fn seeded_interleavings_reply_as_serial_does() {
        let wires: Vec<Vec<u8>> = (0..3u32)
            .map(|peer| {
                (0..60u32)
                    .flat_map(|xid| match (xid * 7 + peer) % 5 {
                        0 => call(xid, 2, &(xid, peer)),
                        k => call(
                            xid,
                            1,
                            &vec![xid as u8; [0, 3, 70_000, 1_100_000, 301][k as usize]],
                        ),
                    })
                    .collect()
            })
            .collect();
        let rpc = rpc();
        for (budget, seed) in [1, 2].into_iter().flat_map(|b| CI_SEEDS.map(|s| (b, s))) {
            let run = Virtual::new(seed, config(budget), wires.clone()).run();
            assert!(run.stalls > 0, "{budget}/{seed}: the budget never filled");
            for (p, wire) in run.peers.iter().zip(&wires) {
                assert!(
                    p.got == serial(&rpc, wire),
                    "{budget}/{seed}: replies differ"
                );
            }
        }
    }

    /// One peer never reads the reply to its 8 MiB echo. Only the stall
    /// deadline can close it, and it does at the first check after the
    /// deadline has passed since the reply was queued, never before; the
    /// other peer is answered in full. Under `Duration::MAX` the rule is
    /// off: no kill however long the peer waits, and once it reads, it gets
    /// the whole reply.
    #[test]
    fn the_stall_deadline_kills_on_virtual_time() {
        const DEADLINE: Duration = Duration::from_millis(200);
        let wires = vec![
            call(0, 1, &vec![9u8; 8 << 20]),
            (0..400).flat_map(|x| call(x, 2, &(x, 1u32))).collect(),
        ];
        let rpc = rpc();
        for (seed, deadline) in CI_SEEDS
            .into_iter()
            .flat_map(|s| [(s, DEADLINE), (s, Duration::MAX)])
        {
            let cfg = ReactorConfig {
                write_stall_deadline: deadline,
                max_write_backlog: usize::MAX,
                ..config(64)
            };
            let mut run = Virtual::new(seed, cfg, wires.clone());
            run.peers[0].reads_replies = false;
            let mut run = run.run();
            assert!(run.peers[1].got == serial(&rpc, &wires[1]), "seed {seed}");
            while run.peers[0].killed_at.is_none() && run.now < Duration::from_secs(10) {
                run.step();
            }
            let silent = &run.peers[0];
            if deadline == DEADLINE {
                let killed = silent.killed_at.expect("never killed") - silent.queued_at;
                assert!(
                    killed >= DEADLINE && killed < DEADLINE + STEP,
                    "seed {seed}: {killed:?}"
                );
                continue;
            }
            assert!(
                silent.killed_at.is_none() && !silent.replies.is_empty(),
                "seed {seed}"
            );
            run.now += Duration::from_secs(1 << 40);
            assert_ne!(silent.replies.backlog(&run.cfg, run.now), Backlog::Kill);
            let silent = &mut run.peers[0];
            silent.window = usize::MAX;
            silent.flush(run.now);
            assert!(silent.got == serial(&rpc, &wires[0]), "seed {seed}");
        }
    }

    /// One peer floods a 1 MiB echo in one-byte fragments, all of it
    /// arrived at once, while another makes inline calls one at a time.
    /// Reads are capped per event, so each inline call is answered after at
    /// most one event's reads of the flood, not after the whole record.
    #[test]
    fn a_flood_yields_to_an_inline_caller_on_virtual_time() {
        let payload = vec![5u8; 1 << 20];
        let mut enc = XdrEncoder::new();
        RpcMessage::call(0, CallBody::new(PROG, VERS, 1)).encode(&mut enc);
        payload.encode(&mut enc);
        let mut flood = Vec::with_capacity(5 * enc.len());
        for (i, &byte) in enc.as_slice().iter().enumerate() {
            flood.extend_from_slice(&mark(1, i + 1 == enc.len()));
            flood.push(byte);
        }
        let calls: Vec<Vec<u8>> = (0..100u32).map(|x| call(x, 2, &(x, 1u32))).collect();
        let rpc = rpc();
        for seed in CI_SEEDS {
            let mut run = Virtual::new(seed, config(64), vec![flood.clone(), calls.concat()]);
            run.peers[0].arrived = flood.len();
            let mut worst = 0;
            for (n, call) in calls.iter().enumerate() {
                run.peers[1].arrived += call.len();
                let (flood_reads, answered) = (
                    run.peers[0].reads,
                    serial(&rpc, &calls[..=n].concat()).len(),
                );
                while run.peers[1].got.len() < answered {
                    run.poll();
                    run.work();
                }
                worst = worst.max(run.peers[0].reads - flood_reads);
            }
            assert!(
                worst <= READS_PER_EVENT,
                "seed {seed}: {worst} flood reads before a reply"
            );
            let run = run.run();
            assert!(
                run.peers[0].got == serial(&rpc, &flood),
                "seed {seed}: echo damaged"
            );
        }
    }

    /// A device of bytes behind proc 3's opaque, which follows a `u64`
    /// offset and lands: an opaque past its end is refused with status 7. It
    /// counts the windows it opened. A whole record of it runs the same
    /// three steps on its own bytes.
    struct Mem(parking_lot::Mutex<Vec<u8>>, std::sync::atomic::AtomicUsize);

    impl crate::Dispatch for Mem {
        fn dispatch(
            &self,
            _: u32,
            args: &mut XdrDecoder<'_>,
            reply: &mut XdrEncoder,
        ) -> Result<(), AcceptStat> {
            let dst = args.get_u64().map_err(|_| AcceptStat::GarbageArgs)?;
            let data = args.get_opaque().map_err(|_| AcceptStat::GarbageArgs)?;
            let mut head = XdrEncoder::new();
            (dst, data.len() as u32).encode(&mut head);
            let at = self.open(3, &mut XdrDecoder::new(head.as_slice()));
            reply.put_i32(at.and_then(|at| self.land(3, at, data)).err().unwrap_or(0));
            Ok(())
        }
        fn lands(&self, proc: u32) -> Option<usize> {
            (proc == 3).then_some(8)
        }
        fn open(&self, _: u32, args: &mut XdrDecoder<'_>) -> Result<u64, i32> {
            let (dst, len) = (args.get_u64().unwrap(), args.get_u32().unwrap());
            self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let fits = dst as usize + len as usize <= self.0.lock().len();
            fits.then_some(dst).ok_or(7)
        }
        fn land(&self, _: u32, at: u64, piece: &[u8]) -> Result<(), i32> {
            self.0.lock()[at as usize..][..piece.len()].copy_from_slice(piece);
            Ok(())
        }
        fn finish(
            &self,
            _: u32,
            args: &mut XdrDecoder<'_>,
            landed: Result<(), i32>,
        ) -> Result<i32, AcceptStat> {
            args.get_u64().unwrap();
            Ok(landed.err().unwrap_or(0))
        }
    }

    /// A server whose proc 3 lands in a [`Mem`] of `bytes` bytes.
    fn landing(bytes: usize) -> (Arc<RpcServer>, Arc<Mem>) {
        let mem = Arc::new(Mem(parking_lot::Mutex::new(vec![0; bytes]), 0.into()));
        let mut rpc = RpcServer::new();
        rpc.register(PROG, VERS, Arc::clone(&mem) as Arc<dyn crate::Dispatch>);
        (Arc::new(rpc), mem)
    }

    /// A driver answering every call as it is handed on, its windows too,
    /// with `pending` earlier calls unanswered.
    struct Answer(Arc<RpcServer>, Vec<Vec<u8>>, usize);

    impl Answer {
        fn answer(&mut self, record: &[u8], w: Option<crate::Window>) -> RpcResult<()> {
            let mut enc = XdrEncoder::new();
            self.0.serve_into(record, w, &mut enc)?;
            self.1.push(enc.into_inner());
            Ok(())
        }
    }

    impl Calls for Answer {
        fn in_flight(&self) -> usize {
            self.2
        }
        fn call(&mut self, _: ProcClass, record: &mut Vec<u8>, _: usize) -> RpcResult<()> {
            self.answer(record, None)
        }
        fn server(&self) -> Option<&Arc<RpcServer>> {
            Some(&self.0)
        }
        fn landed(
            &mut self,
            _: ProcClass,
            r: &mut Vec<u8>,
            w: crate::Window,
            _: usize,
        ) -> RpcResult<()> {
            self.answer(r, Some(w))
        }
    }

    /// A 16 MiB opaque of a landing procedure goes from the bytes pushed
    /// (as the simulated transport does) or read (as the reactor does)
    /// straight into the device: the engine's record buffer holds only the
    /// call's head, so it stays within what a pool takes back. The reply
    /// is the one the serial server gives the whole record.
    #[test]
    fn a_landing_opaque_never_enters_the_record_on_either_path() {
        let payload: Vec<u8> = (0..16u32 << 20).map(|i| (i % 241) as u8).collect();
        let wire = call(9, 3, &(8u64, payload.clone()));
        for pushed in [true, false] {
            let (rpc, mem) = landing((16 << 20) + 8);
            let (mut conn, mut calls) =
                (Conn::new(&config(64)), Answer(Arc::clone(&rpc), vec![], 0));
            if pushed {
                wire.chunks(8960)
                    .for_each(|p| conn.push(p, &mut calls).unwrap());
            } else {
                let (mut reads, mut scratch) = (0, vec![0u8; 64 << 10]);
                let mut socket = Arrived {
                    bytes: &wire,
                    reads: &mut reads,
                };
                while calls.1.is_empty() {
                    assert_eq!(
                        conn.drain(&mut socket, &mut scratch, &mut calls),
                        Drained::Open
                    );
                }
            }
            assert!(
                mem.0.lock()[8..] == payload[..],
                "pushed {pushed}: bytes landed wrong"
            );
            let cap = conn.record.capacity();
            assert!(
                cap <= MAX_POOLED_BUF_BYTES,
                "pushed {pushed}: a record of {cap} B"
            );
            assert_eq!(calls.1, [&serial(&rpc, &wire)[4..]], "pushed {pushed}");
        }
    }

    /// A window opens only once the calls ahead of it are answered, so a
    /// parked call never sees the bytes of one behind it: until then the
    /// engine holds the bytes after the head, and a stalled connection
    /// resumes only at no call in flight. A window the lander refuses takes
    /// no byte, and the call gets the status the serial server gives.
    #[test]
    fn a_window_opens_only_once_earlier_calls_are_answered() {
        let (rpc, mem) = landing(64);
        let (mut conn, mut calls) = (Conn::new(&config(64)), Answer(Arc::clone(&rpc), vec![], 1));
        let wire = call(1, 3, &(0u64, vec![5u8; 64]));
        conn.push(&wire, &mut calls).unwrap();
        assert_eq!(
            mem.1.load(std::sync::atomic::Ordering::Relaxed),
            0,
            "opened early"
        );
        assert!(!conn.unparsed.is_empty() && !conn.may_resume(1) && conn.may_resume(0));
        calls.2 = 0;
        conn.resume(&mut calls).unwrap();
        assert_eq!(mem.0.lock()[..], [5u8; 64]);
        let refused = call(2, 3, &(8u64, vec![6u8; 64]));
        conn.push(&refused, &mut calls).unwrap();
        assert_eq!(mem.0.lock()[..], [5u8; 64], "a refused window wrote");
        assert_eq!(mem.1.load(std::sync::atomic::Ordering::Relaxed), 2);
        let serial = [serial(&rpc, &wire), serial(&rpc, &refused)];
        assert_eq!(calls.1, serial.map(|reply| reply[4..].to_vec()));
        assert_eq!(calls.1[1][24..], 7i32.to_be_bytes());
    }

    /// A read that returns less than the scratch holds emptied the socket:
    /// the drain ends there, spending no read on finding nothing, and the
    /// next readiness event finds the rest.
    #[test]
    fn a_short_read_ends_the_drain() {
        struct Counting<'a>(&'a [u8], usize);
        impl Read for Counting<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.1 += 1;
                match self.0.read(buf)? {
                    0 => Err(io::ErrorKind::WouldBlock.into()),
                    n => Ok(n),
                }
            }
        }
        let (mut conn, mut jobs, mut scratch) =
            (Conn::new(&config(64)), Jobs::default(), [0u8; 256]);
        let wire = [call(1, 2, &(1u32, 2u32)), call(2, 1, &vec![1u8; 400])].concat();
        let mut socket = Counting(&wire, 0);
        assert_eq!(
            conn.drain(&mut socket, &mut scratch, &mut jobs),
            Drained::Open
        );
        assert!(wire.len() % 256 != 0);
        assert_eq!(socket.1, wire.len().div_ceil(256), "a read found nothing");
        assert_eq!(jobs.taken.len(), 2);
    }
}
