//! Deterministic fault injection for RPC transports.
//!
//! A [`FaultyTransport`] wraps any [`Transport`] and misbehaves according to
//! a [`FaultPlan`]: a seeded PRNG plus an optional scripted event list. Every
//! decision the plan makes is appended to an event trace, and decisions
//! depend only on the seed and the operation counter — never on wall-clock
//! time — so a failing schedule is named by its seed and replays exactly.
//!
//! The wrapper is *record-aware* in both directions: outgoing writes are
//! stripped of their record marks as they arrive ([`RecordMarks::strip`])
//! until a request record is complete, and incoming replies are pulled from
//! the inner transport one record at a time. Faults
//! therefore hit whole RPC messages (drop, duplicate, truncate, corrupt,
//! delay, reset) rather than arbitrary byte positions, which keeps the
//! schedule independent of the caller's fragment size.
//!
//! Test support only: the shipped crates name none of it.

use cricket_repro::oncrpc::record::{
    mark, read_record, write_record, RecordMarks, DEFAULT_MAX_FRAGMENT, MAX_RECORD,
};
use cricket_repro::oncrpc::{transport::Transport, RpcError, RpcResult};
use parking_lot::Mutex;
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::Duration;

/// One kind of injected misbehavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The connection resets while sending a request.
    ResetOnSend,
    /// A request record vanishes on the way to the server.
    DropRequest,
    /// One byte of the request payload is flipped.
    CorruptRequest,
    /// Only a prefix of the request reaches the server, then the
    /// connection is dead.
    TruncateRequest,
    /// A reply record vanishes on the way back; the read times out.
    DropReply,
    /// The reply is withheld for one read (which times out), then delivered
    /// late — the classic delayed-duplicate scenario once the client
    /// retransmits.
    DelayReply,
    /// The reply record is delivered twice.
    DuplicateReply,
    /// Only a prefix of the reply arrives, then the connection is dead.
    TruncateReply,
    /// One byte of the reply payload is flipped.
    CorruptReply,
}

impl Fault {
    fn code(self) -> &'static str {
        match self {
            Fault::ResetOnSend => "reset-on-send",
            Fault::DropRequest => "drop-request",
            Fault::CorruptRequest => "corrupt-request",
            Fault::TruncateRequest => "truncate-request",
            Fault::DropReply => "drop-reply",
            Fault::DelayReply => "delay-reply",
            Fault::DuplicateReply => "duplicate-reply",
            Fault::TruncateReply => "truncate-reply",
            Fault::CorruptReply => "corrupt-reply",
        }
    }
}

/// Direction of the record a decision applied to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dir {
    /// Client → server record.
    Request,
    /// Server → client record.
    Reply,
}

/// One entry in the replayable event trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TraceEvent {
    /// Operation counter at decision time (records seen, both directions).
    pub op: u64,
    /// Which direction the record was traveling.
    pub dir: Dir,
    /// The injected fault, or `None` for clean delivery.
    pub fault: Option<Fault>,
    /// Fault-specific detail (byte offset for corruption, prefix length for
    /// truncation); zero otherwise.
    pub detail: u64,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dir = match self.dir {
            Dir::Request => "req",
            Dir::Reply => "rep",
        };
        match self.fault {
            Some(fault) => write!(f, "{}:{}:{}@{}", self.op, dir, fault.code(), self.detail),
            None => write!(f, "{}:{}:ok", self.op, dir),
        }
    }
}

/// Per-fault probabilities in permille (‰), applied per record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// ‰ chance a request send resets the connection.
    pub reset_on_send: u32,
    /// ‰ chance a request record is dropped.
    pub drop_request: u32,
    /// ‰ chance a request byte is corrupted.
    pub corrupt_request: u32,
    /// ‰ chance a request is truncated mid-record.
    pub truncate_request: u32,
    /// ‰ chance a reply record is dropped.
    pub drop_reply: u32,
    /// ‰ chance a reply is delayed past one read.
    pub delay_reply: u32,
    /// ‰ chance a reply record is duplicated.
    pub duplicate_reply: u32,
    /// ‰ chance a reply is truncated mid-record.
    pub truncate_reply: u32,
    /// ‰ chance a reply byte is corrupted.
    pub corrupt_reply: u32,
    /// Hard cap on injected faults; once reached the transport runs clean,
    /// guaranteeing every bounded-retry test terminates.
    pub max_faults: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            reset_on_send: 30,
            drop_request: 30,
            corrupt_request: 20,
            truncate_request: 15,
            drop_reply: 30,
            delay_reply: 30,
            duplicate_reply: 30,
            truncate_reply: 15,
            corrupt_reply: 20,
            max_faults: 16,
        }
    }
}

impl FaultConfig {
    /// The default mix minus the corruption faults. Every fault in this set
    /// is either *detected* by the stack (reset, truncation, timeout) or
    /// *masked* by at-most-once retry, so a hardened client must complete
    /// every call with the correct result — the invariant the seeded CI
    /// matrix pins. Payload corruption, by contrast, is undetectable without
    /// an end-to-end checksum (on real wires TCP's checksum covers it): a
    /// flipped byte in still-well-formed XDR executes with wrong arguments
    /// or returns wrong data, so corruption is exercised separately under a
    /// weaker no-panic/no-hang contract.
    pub fn lossy() -> Self {
        Self {
            corrupt_request: 0,
            corrupt_reply: 0,
            ..Self::default()
        }
    }

    /// A configuration that never injects anything (useful as a baseline).
    pub(crate) fn none() -> Self {
        Self {
            reset_on_send: 0,
            drop_request: 0,
            corrupt_request: 0,
            truncate_request: 0,
            drop_reply: 0,
            delay_reply: 0,
            duplicate_reply: 0,
            truncate_reply: 0,
            corrupt_reply: 0,
            max_faults: 0,
        }
    }
}

/// splitmix64: tiny, seedable, and excellent avalanche for the low state
/// volume we need. Hand-rolled so the harness has no RNG dependency and the
/// stream is fixed forever (seeds printed by CI must replay years later).
#[derive(Debug, Clone)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// Seed the generator.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`; `n` must be non-zero.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Bernoulli trial with probability `permille`/1000.
    pub(crate) fn roll(&mut self, permille: u32) -> bool {
        self.below(1000) < permille as u64
    }
}

/// Shared handle to a [`FaultPlan`]: every [`FaultyTransport`] driven by a
/// schedule holds one, so reconnects continue where the dead transport
/// stopped and tests can read the trace when the run ends.
pub type SharedFaultPlan = Arc<Mutex<FaultPlan>>;

/// A replayable fault schedule: seeded probabilities plus scripted events.
///
/// Scripted events take precedence: if one is registered for the current
/// operation index it fires regardless of the dice. Every decision —
/// including clean deliveries — lands in `FaultPlan::trace`, so two runs
/// of the same workload under the same seed can be compared byte for byte
/// via [`FaultPlan::trace_string`].
#[derive(Debug)]
pub struct FaultPlan {
    rng: ChaosRng,
    cfg: FaultConfig,
    /// (operation index, fault) pairs; consumed when their index arrives.
    script: Vec<(u64, Fault)>,
    ops: u64,
    faults_injected: u64,
    trace: Vec<TraceEvent>,
}

impl FaultPlan {
    /// A plan driven purely by the seeded PRNG with default probabilities.
    pub fn from_seed(seed: u64) -> Self {
        Self::from_seed_with(seed, FaultConfig::default())
    }

    /// A plan driven by the seeded PRNG with explicit probabilities.
    pub fn from_seed_with(seed: u64, cfg: FaultConfig) -> Self {
        Self {
            rng: ChaosRng::new(seed),
            cfg,
            script: Vec::new(),
            ops: 0,
            faults_injected: 0,
            trace: Vec::new(),
        }
    }

    /// A purely scripted plan: `events` maps operation indices (records
    /// seen, both directions, starting at 0) to faults. No dice are rolled.
    pub fn scripted(events: Vec<(u64, Fault)>) -> Self {
        Self {
            rng: ChaosRng::new(0),
            cfg: FaultConfig::none(),
            script: events,
            ops: 0,
            faults_injected: 0,
            trace: Vec::new(),
        }
    }

    /// Move the plan behind its shared handle. One handle can drive any
    /// number of successive [`FaultyTransport`]s — a reconnect continues
    /// the same schedule — and is inspected afterwards for its trace.
    pub fn into_shared(self) -> SharedFaultPlan {
        Arc::new(Mutex::new(self))
    }

    /// The trace rendered one event per line — the byte-identical artifact
    /// the determinism test pins.
    pub fn trace_string(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for ev in &self.trace {
            let _ = writeln!(out, "{ev}");
        }
        out
    }

    /// Number of faults injected so far.
    pub(crate) fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    /// The decision trace so far.
    pub(crate) fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    fn take_scripted(&mut self, op: u64) -> Option<Fault> {
        let idx = self.script.iter().position(|&(at, _)| at == op)?;
        Some(self.script.swap_remove(idx).1)
    }

    pub(crate) fn decide(&mut self, dir: Dir, record_len: usize) -> TraceEvent {
        let op = self.ops;
        self.ops += 1;
        let scripted = self.take_scripted(op);
        let fault = if let Some(f) = scripted {
            Some(f)
        } else if self.faults_injected >= self.cfg.max_faults {
            None
        } else {
            // Fixed roll order per direction keeps the consumed PRNG stream
            // identical for identical workloads.
            match dir {
                Dir::Request => [
                    (Fault::ResetOnSend, self.cfg.reset_on_send),
                    (Fault::DropRequest, self.cfg.drop_request),
                    (Fault::CorruptRequest, self.cfg.corrupt_request),
                    (Fault::TruncateRequest, self.cfg.truncate_request),
                ]
                .into_iter()
                .find(|&(_, p)| self.rng.roll(p))
                .map(|(f, _)| f),
                Dir::Reply => [
                    (Fault::DropReply, self.cfg.drop_reply),
                    (Fault::DelayReply, self.cfg.delay_reply),
                    (Fault::DuplicateReply, self.cfg.duplicate_reply),
                    (Fault::TruncateReply, self.cfg.truncate_reply),
                    (Fault::CorruptReply, self.cfg.corrupt_reply),
                ]
                .into_iter()
                .find(|&(_, p)| self.rng.roll(p))
                .map(|(f, _)| f),
            }
        };
        let detail = match fault {
            Some(Fault::CorruptRequest | Fault::CorruptReply) => {
                self.rng.below(record_len.max(1) as u64)
            }
            Some(Fault::TruncateRequest | Fault::TruncateReply) => (record_len as u64) / 2,
            _ => 0,
        };
        if fault.is_some() {
            self.faults_injected += 1;
        }
        let ev = TraceEvent {
            op,
            dir,
            fault,
            detail,
        };
        self.trace.push(ev);
        ev
    }
}

fn reset_err() -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionReset, "chaos: connection reset")
}

/// A [`Transport`] that injects the faults a [`FaultPlan`] schedules.
///
/// The plan is shared behind `Arc<Mutex<…>>` so the trace stays inspectable
/// after the transport is boxed into a client, and so a reconnecting client
/// can hand the *same* plan to its replacement transport, continuing the
/// schedule across connections.
pub struct FaultyTransport {
    inner: Box<dyn Transport>,
    plan: Arc<Mutex<FaultPlan>>,
    /// Where the outgoing stream stands, and the payload of the request
    /// record it is in.
    out_marks: RecordMarks,
    out_record: Vec<u8>,
    /// Faulted, re-framed reply bytes ready for the client to read.
    in_buf: Vec<u8>,
    in_off: usize,
    /// A reply withheld by [`Fault::DelayReply`], delivered on the next read.
    delayed: Option<Vec<u8>>,
    /// Once set, writes fail with `ConnectionReset` and reads return EOF.
    broken: bool,
}

impl FaultyTransport {
    /// Wrap `inner`, misbehaving per `plan`.
    pub fn new(inner: Box<dyn Transport>, plan: Arc<Mutex<FaultPlan>>) -> Self {
        Self {
            inner,
            plan,
            out_marks: RecordMarks::new(MAX_RECORD),
            out_record: Vec::new(),
            in_buf: Vec::new(),
            in_off: 0,
            delayed: None,
            broken: false,
        }
    }

    /// Apply the plan to the outgoing request record just completed.
    fn forward_request(&mut self) -> io::Result<()> {
        let mut payload = std::mem::take(&mut self.out_record);
        let ev = self.plan.lock().decide(Dir::Request, payload.len());
        match ev.fault {
            None => {
                write_record(&mut self.inner, &payload, DEFAULT_MAX_FRAGMENT)
                    .map_err(|_| reset_err())?;
            }
            Some(Fault::ResetOnSend) => {
                self.broken = true;
                return Err(reset_err());
            }
            Some(Fault::DropRequest) => {} // vanishes; client deadline fires
            Some(Fault::CorruptRequest) => {
                let at = (ev.detail as usize).min(payload.len().saturating_sub(1));
                if !payload.is_empty() {
                    payload[at] ^= 0x5a;
                }
                write_record(&mut self.inner, &payload, DEFAULT_MAX_FRAGMENT)
                    .map_err(|_| reset_err())?;
            }
            Some(Fault::TruncateRequest) => {
                // Promise the full record, deliver a prefix, then die: the
                // server is left holding an incomplete record.
                let keep = ev.detail as usize;
                let _ = self.inner.write_all(&mark(payload.len(), true));
                let _ = self.inner.write_all(&payload[..keep]);
                let _ = self.inner.flush();
                self.broken = true;
                return Err(reset_err());
            }
            Some(other) => unreachable!("reply fault {other:?} on request path"),
        }
        self.inner.flush().map_err(|_| reset_err())
    }

    /// Pull one reply record from the inner transport, apply the plan, and
    /// queue the resulting bytes for the client. Returns `false` on EOF.
    fn fetch_reply(&mut self) -> io::Result<bool> {
        if let Some(delayed) = self.delayed.take() {
            self.queue_reply(&delayed, false);
            return Ok(true);
        }
        let payload = match read_record(&mut self.inner, MAX_RECORD) {
            Ok(Some(p)) => p,
            Ok(None) => return Ok(false),
            Err(RpcError::TimedOut) => {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "read timed out"))
            }
            Err(RpcError::Io(e)) => return Err(e),
            Err(_) => return Ok(false),
        };
        let ev = self.plan.lock().decide(Dir::Reply, payload.len());
        match ev.fault {
            None => self.queue_reply(&payload, false),
            Some(Fault::DropReply) => {
                // Swallowed: behave exactly like a reply that never came.
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "chaos: reply dropped",
                ));
            }
            Some(Fault::DelayReply) => {
                self.delayed = Some(payload);
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "chaos: reply delayed",
                ));
            }
            Some(Fault::DuplicateReply) => {
                self.queue_reply(&payload, false);
                self.queue_reply(&payload, false);
            }
            Some(Fault::TruncateReply) => {
                self.queue_reply(&payload[..ev.detail as usize], true);
                self.broken = true;
            }
            Some(Fault::CorruptReply) => {
                let mut p = payload;
                let at = (ev.detail as usize).min(p.len().saturating_sub(1));
                if !p.is_empty() {
                    p[at] ^= 0x5a;
                }
                self.queue_reply(&p, false);
            }
            Some(other) => unreachable!("request fault {other:?} on reply path"),
        }
        Ok(true)
    }

    /// Re-frame `payload` into the client-facing read buffer. When
    /// `truncated`, the framing promises the original length so the client's
    /// record reader observes a mid-record connection loss.
    fn queue_reply(&mut self, payload: &[u8], truncated: bool) {
        if self.in_off >= self.in_buf.len() {
            self.in_buf.clear();
            self.in_off = 0;
        }
        if truncated {
            // Header promising more than will ever arrive.
            self.in_buf
                .extend_from_slice(&mark(payload.len() + 8, true));
            self.in_buf.extend_from_slice(payload);
        } else {
            write_record(&mut self.in_buf, payload, DEFAULT_MAX_FRAGMENT).expect("vec write");
        }
    }
}

impl Read for FaultyTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        while self.in_off >= self.in_buf.len() {
            if self.broken {
                return Ok(0); // mid-record EOF → ConnectionClosed upstream
            }
            if !self.fetch_reply()? {
                return Ok(0);
            }
        }
        let avail = &self.in_buf[self.in_off..];
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.in_off += n;
        Ok(n)
    }
}

impl Write for FaultyTransport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.broken {
            return Err(reset_err());
        }
        let mut rest = buf;
        while !rest.is_empty() {
            let record = &mut self.out_record;
            let stripped = self.out_marks.strip(rest, |p| record.extend_from_slice(p));
            let (used, end) = stripped.map_err(io::Error::other)?;
            rest = &rest[used..];
            if end.is_some() {
                self.forward_request()?;
            }
        }
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        if self.broken {
            return Err(reset_err());
        }
        Ok(())
    }
}

impl Transport for FaultyTransport {
    fn describe(&self) -> String {
        format!("chaos({})", self.inner.describe())
    }

    fn set_read_timeout(&mut self, dur: Option<Duration>) -> RpcResult<()> {
        self.inner.set_read_timeout(dur)
    }

    fn bytes_copied(&self) -> u64 {
        self.inner.bytes_copied()
    }
}

impl fmt::Debug for FaultyTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyTransport")
            .field("broken", &self.broken)
            .finish()
    }
}
