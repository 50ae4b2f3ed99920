//! The two transports the benchmark puts under a client.
//!
//! [`MeteredTransport`] wraps the real transport handed to
//! `CricketClient::new`. It always counts the bytes crossing the client's
//! `Transport` boundary (that is `wire_bytes_per_op`); in a traced pass it
//! also times every call into the wrapped transport, reads the virtual
//! clock at both ends of each request→reply exchange, and keeps the request
//! bytes, so the same requests can be replayed into single layers
//! afterwards. It forwards every call unchanged.
//!
//! [`CannedTransport`] has no peer: it swallows a request and answers with
//! a recorded reply whose xid it patches to match. A client over it
//! exercises exactly the client half of the stack.

use oncrpc::Transport;
use std::io::{self, IoSlice, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Reads the virtual clock a simulated transport charges.
pub type VirtClock = Arc<dyn Fn() -> u64 + Send + Sync>;

/// What crossed the transport boundary since it was last taken.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Exchanges {
    /// Request→reply exchanges begun.
    pub count: u64,
    /// Wall time spent *inside* the wrapped transport's `write`, `flush`
    /// and `read` calls: the client's children, so that the client's self
    /// time is its call span less this. (Not first write to last read: the
    /// client's own record marking runs between those calls.)
    pub wall_ns: u64,
    /// Virtual time that passed inside those calls. The model only moves
    /// its clock below the boundary, so this is the whole exchange.
    pub virt_ns: u64,
}

/// Bytes kept for the replays.
#[derive(Default)]
struct Captured {
    /// Request bytes of every captured exchange, in order, as written
    /// (record marks included).
    requests: Vec<Vec<u8>>,
    /// Reply bytes of the last captured exchange.
    reply: Vec<u8>,
}

/// Counters shared between a [`MeteredTransport`] (boxed away inside the
/// client) and the benchmark loop. All statistics: `Relaxed` throughout.
#[derive(Default)]
pub struct Meter {
    written: AtomicU64,
    read: AtomicU64,
    tracing: AtomicBool,
    /// Keep request and reply bytes (only looked at while tracing). Bulk
    /// passes switch it off where spans are taken: copying 16 MiB aside
    /// per request would itself show up in them.
    capturing: AtomicBool,
    exchanges: AtomicU64,
    inner_wall_ns: AtomicU64,
    inner_virt_ns: AtomicU64,
    captured: Mutex<Captured>,
}

impl Meter {
    pub fn new(tracing: bool) -> Arc<Self> {
        Arc::new(Self {
            tracing: AtomicBool::new(tracing),
            capturing: AtomicBool::new(true),
            ..Self::default()
        })
    }

    pub fn set_capturing(&self, on: bool) {
        self.capturing.store(on, Ordering::Relaxed);
    }

    /// Bytes written plus bytes read at the boundary so far.
    pub fn wire_bytes(&self) -> u64 {
        self.written.load(Ordering::Relaxed) + self.read.load(Ordering::Relaxed)
    }

    pub fn bytes_written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    fn captured(&self) -> std::sync::MutexGuard<'_, Captured> {
        // Plain data, valid after any panic elsewhere.
        self.captured.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// What crossed the boundary since the last call (traced passes only).
    pub fn take_exchanges(&self) -> Exchanges {
        Exchanges {
            count: self.exchanges.swap(0, Ordering::Relaxed),
            wall_ns: self.inner_wall_ns.swap(0, Ordering::Relaxed),
            virt_ns: self.inner_virt_ns.swap(0, Ordering::Relaxed),
        }
    }

    /// Requests recorded so far (traced passes only), oldest first.
    pub fn take_requests(&self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.captured().requests)
    }

    /// Requests recorded and not yet taken.
    pub fn request_count(&self) -> usize {
        self.captured().requests.len()
    }

    /// The reply bytes of the last captured exchange.
    pub fn last_reply(&self) -> Vec<u8> {
        self.captured().reply.clone()
    }
}

/// See the [module docs](self).
pub struct MeteredTransport {
    inner: Box<dyn Transport>,
    meter: Arc<Meter>,
    virt: Option<VirtClock>,
    /// The reply to the last request has begun (or nothing was sent yet):
    /// the next write starts a new exchange.
    idle: bool,
    /// The exchange in progress keeps its bytes.
    capturing: bool,
}

impl MeteredTransport {
    pub fn new(inner: Box<dyn Transport>, meter: Arc<Meter>, virt: Option<VirtClock>) -> Self {
        Self {
            inner,
            meter,
            virt,
            idle: true,
            capturing: false,
        }
    }

    fn tracing(&self) -> bool {
        self.meter.tracing.load(Ordering::Relaxed)
    }

    /// Run one call into the wrapped transport; when tracing, add the wall
    /// and virtual time it took to the meter.
    fn inner_call<R>(&mut self, f: impl FnOnce(&mut dyn Transport) -> R) -> R {
        if !self.tracing() {
            return f(self.inner.as_mut());
        }
        let virt_now = |v: &Option<VirtClock>| v.as_ref().map_or(0, |f| f());
        let (v0, t0) = (virt_now(&self.virt), crate::sys::now_ns());
        let r = f(self.inner.as_mut());
        let wall = crate::sys::now_ns() - t0;
        self.meter.inner_wall_ns.fetch_add(wall, Ordering::Relaxed);
        self.meter
            .inner_virt_ns
            .fetch_add(virt_now(&self.virt) - v0, Ordering::Relaxed);
        r
    }

    /// Open a new exchange if this write starts one.
    fn before_write(&mut self) {
        if self.tracing() && self.idle {
            self.idle = false;
            self.meter.exchanges.fetch_add(1, Ordering::Relaxed);
            self.capturing = self.meter.capturing.load(Ordering::Relaxed);
            if self.capturing {
                let mut c = self.meter.captured();
                c.requests.push(Vec::new());
                c.reply.clear();
            }
        }
    }

    fn after_write(&self, bufs: &[IoSlice<'_>], mut n: usize) {
        self.meter.written.fetch_add(n as u64, Ordering::Relaxed);
        if !(self.tracing() && self.capturing) {
            return;
        }
        let mut c = self.meter.captured();
        let req = c.requests.last_mut().expect("opened by before_write");
        for buf in bufs {
            let take = n.min(buf.len());
            req.extend_from_slice(&buf[..take]);
            n -= take;
        }
    }

    fn after_read(&mut self, got: &[u8]) {
        self.meter
            .read
            .fetch_add(got.len() as u64, Ordering::Relaxed);
        if !self.tracing() || got.is_empty() {
            return;
        }
        self.idle = true;
        if self.capturing {
            self.meter.captured().reply.extend_from_slice(got);
        }
    }
}

impl Write for MeteredTransport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.before_write();
        let n = self.inner_call(|t| t.write(buf))?;
        self.after_write(&[IoSlice::new(buf)], n);
        Ok(n)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.before_write();
        let n = self.inner_call(|t| t.write_vectored(bufs))?;
        self.after_write(bufs, n);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner_call(|t| t.flush())
    }
}

impl Read for MeteredTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner_call(|t| t.read(buf))?;
        self.after_read(&buf[..n]);
        Ok(n)
    }
}

impl Transport for MeteredTransport {
    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn set_read_timeout(&mut self, dur: Option<std::time::Duration>) -> oncrpc::RpcResult<()> {
        self.inner.set_read_timeout(dur)
    }
}

/// Offset of the xid in a record-marked message: right after the 4-byte
/// fragment header.
const XID_AT: usize = 4;

/// See the [module docs](self).
pub struct CannedTransport {
    /// Recorded reply, record marks included.
    reply: Vec<u8>,
    /// Bytes of the current request seen so far (only the first 8 kept).
    head: [u8; 8],
    seen: usize,
    /// Read position in `reply`; `reply.len()` when nothing is pending.
    pos: usize,
}

impl CannedTransport {
    pub fn new(reply: Vec<u8>) -> Self {
        assert!(
            reply.len() >= XID_AT + 4,
            "canned reply shorter than an RPC header"
        );
        let pos = reply.len();
        Self {
            reply,
            head: [0; 8],
            seen: 0,
            pos,
        }
    }
}

impl Write for CannedTransport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.seen < self.head.len() {
            let take = buf.len().min(self.head.len() - self.seen);
            self.head[self.seen..self.seen + take].copy_from_slice(&buf[..take]);
        }
        self.seen += buf.len();
        Ok(buf.len())
    }

    /// The record layer flushes once per request: arm the reply.
    fn flush(&mut self) -> io::Result<()> {
        if self.seen >= self.head.len() {
            self.reply[XID_AT..XID_AT + 4].copy_from_slice(&self.head[XID_AT..]);
            self.pos = 0;
        }
        self.seen = 0;
        Ok(())
    }
}

impl Read for CannedTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.reply.len() - self.pos);
        buf[..n].copy_from_slice(&self.reply[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl Transport for CannedTransport {
    fn describe(&self) -> String {
        "canned".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A peer that echoes each flushed request back, byte for byte.
    #[derive(Default)]
    struct Echo {
        pending: Vec<u8>,
        ready: Vec<u8>,
        log: Arc<Mutex<Vec<u8>>>,
    }

    impl Write for Echo {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            // Short writes, to prove the wrapper honours the returned count.
            let n = buf.len().min(5);
            self.pending.extend_from_slice(&buf[..n]);
            self.log.lock().unwrap().extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.ready.append(&mut self.pending);
            Ok(())
        }
    }

    impl Read for Echo {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.ready.len()).min(3);
            buf[..n].copy_from_slice(&self.ready[..n]);
            self.ready.drain(..n);
            Ok(n)
        }
    }

    impl Transport for Echo {}

    fn exchange(t: &mut MeteredTransport, msg: &[u8]) -> Vec<u8> {
        t.write_all(msg).unwrap();
        t.flush().unwrap();
        let mut back = vec![0u8; msg.len()];
        t.read_exact(&mut back).unwrap();
        back
    }

    #[test]
    fn metered_transport_is_byte_transparent() {
        for tracing in [false, true] {
            let log = Arc::new(Mutex::new(Vec::new()));
            let meter = Meter::new(tracing);
            let ticks = Arc::new(AtomicU64::new(0));
            let t2 = Arc::clone(&ticks);
            let virt: VirtClock = Arc::new(move || t2.fetch_add(10, Ordering::Relaxed));
            let mut t = MeteredTransport::new(
                Box::new(Echo {
                    log: Arc::clone(&log),
                    ..Echo::default()
                }),
                Arc::clone(&meter),
                Some(virt),
            );
            let a: Vec<u8> = (0..=40).collect();
            let b: Vec<u8> = (100..=120).collect();
            assert_eq!(exchange(&mut t, &a), a);
            assert_eq!(exchange(&mut t, &b), b);
            assert_eq!(*log.lock().unwrap(), [a.clone(), b.clone()].concat());
            assert_eq!(meter.bytes_written(), (a.len() + b.len()) as u64);
            assert_eq!(meter.wire_bytes(), 2 * (a.len() + b.len()) as u64);
            let spans = meter.take_exchanges();
            let requests = meter.take_requests();
            if tracing {
                assert_eq!(spans.count, 2, "one exchange per request→reply");
                assert!(spans.virt_ns >= 20, "virtual clock read around each call");
                assert_eq!(requests, vec![a.clone(), b.clone()]);
                assert_eq!(meter.last_reply(), b);
            } else {
                assert!(spans == Exchanges::default() && requests.is_empty());
            }
        }
    }

    #[test]
    fn vectored_writes_pass_through_and_are_counted() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let meter = Meter::new(true);
        let mut t = MeteredTransport::new(
            Box::new(Echo {
                log: Arc::clone(&log),
                ..Echo::default()
            }),
            Arc::clone(&meter),
            None,
        );
        let n = t
            .write_vectored(&[IoSlice::new(b"abc"), IoSlice::new(b"defgh")])
            .unwrap();
        // `Echo` has no vectored write: std hands it the first buffer only.
        assert_eq!(n, 3);
        assert_eq!(*log.lock().unwrap(), b"abc");
        assert_eq!(meter.take_requests(), vec![b"abc".to_vec()]);
    }

    #[test]
    fn canned_transport_answers_with_the_callers_xid() {
        // Reply: record mark, xid 0xAAAAAAAA, then a body.
        let mut reply = vec![0x80, 0, 0, 8, 0xAA, 0xAA, 0xAA, 0xAA, 1, 2, 3, 4];
        let mut t = CannedTransport::new(reply.clone());
        let mut sink = [0u8; 16];
        assert_eq!(t.read(&mut sink).unwrap(), 0, "nothing before a request");
        for xid in [7u32, 8] {
            // Request arrives as the record layer writes it: mark, then body.
            t.write_all(&[0x80, 0, 0, 12]).unwrap();
            t.write_all(&xid.to_be_bytes()).unwrap();
            t.write_all(&[9; 8]).unwrap();
            t.flush().unwrap();
            let mut got = vec![0u8; reply.len()];
            t.read_exact(&mut got).unwrap();
            reply[4..8].copy_from_slice(&xid.to_be_bytes());
            assert_eq!(got, reply, "only the xid differs from the recording");
            assert_eq!(t.read(&mut sink).unwrap(), 0);
        }
    }
}
