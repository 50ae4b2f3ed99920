//! Completion-driven server reactor: multiplex many connections over a few
//! threads.
//!
//! The threaded path in [`crate::server`] spends one OS thread per
//! connection; with thousands of tenant sessions the thread stacks and
//! scheduler churn become the ceiling long before the wire does. This module
//! replaces it with the classic reactor split, mirroring the
//! `RingResult::Done` vs `MoreIo` contract of io_uring-style RPC servers.
//! What happens to a connection's bytes is the sans-IO engine's
//! ([`Conn`], [`Replies`]); this driver owns the sockets, the poller, the
//! worker shards and the clock:
//!
//! ```text
//!   accept thread ──(new conns)──▶ reactor thread
//!                                    │  poll readiness (shims/polling)
//!                                    │  Conn::drain(socket): ≤ 8 reads, to a short one,
//!                                    │    marks stripped, each call classified
//!                            Done ───┤ execute inline from the record, send_reply
//!                          Parked ───┴─▶ (Arc<Link>, record, window) onto the queue of shard
//!                                           │ key % workers (record swapped for a pooled one)
//!                                           ▼ worker: take the whole queue, execute, send_reply
//!
//!   send_reply (on the producing thread): swap the reply out of the
//!       encoder, lock the link's Outbound, queue it on its Replies;
//!       write through if the queue was empty
//!           │ bytes the socket did not take: the key on the notice list
//!           ▼
//!   reactor thread: write interest on that socket, flush it when writable,
//!       close it when Replies::backlog says Kill at Instant-derived `now`
//! ```
//!
//! **Ordering guarantee.** Every `Parked` call for one connection lands on
//! the same worker shard (`key % workers`), whose queue is FIFO — so parked
//! replies stay in request order. A `Done` call is executed inline *only
//! when the connection has zero parked calls in flight* (`pending == 0`);
//! otherwise the engine demotes it to the shard like any parked call.
//! Workers send the encoded reply *before* decrementing `pending`, so when
//! the reactor observes `pending == 0` every earlier reply is already
//! written or queued in the connection's [`Replies`] — and a reply is
//! written through only onto an empty queue, under that queue's lock, so it
//! never overtakes one. Net effect: per-connection reply order equals
//! request order, exactly like the serial reference path
//! ([`RpcServer::serve_connection`]), which is what the byte-identical
//! equivalence tests assert.
//!
//! **Backpressure.** Each connection has a bounded in-flight budget
//! (`max_session_queue`). When it fills, the engine stops parsing and the
//! reactor stops reading that socket ([`polling::Poller::suspend`]) — unread
//! bytes accumulate in the kernel buffer and the TCP window closes, pushing
//! the stall back to the client. Workers flag the poller when a stalled
//! connection drains to the low watermark and the reactor resumes it.
//!
//! **Slow readers.** No thread blocks on any one socket: sockets are
//! nonblocking and every flush writes only what the kernel accepts, so a
//! peer that stops reading its replies backs up only its own queue. The
//! reactor arms write interest on that socket and flushes the queue when
//! the poller reports room. If such a peer accepts no bytes for
//! [`ReactorConfig::write_stall_deadline`] (or lets more than
//! [`ReactorConfig::max_write_backlog`] bytes pile up behind the record in
//! flight) the reactor drops the queue, shuts the socket down and closes
//! the connection. Its wait never outlasts the earliest such deadline.
//!
//! **Hand-off.** A worker swaps its shard's whole queue for its own drained
//! one, so both keep their capacity: a warm server allocates nothing per
//! call. Unbounded: each connection's budget bounds what it parks. Shutdown
//! closes it (`None`) once every connection is finalized: no call is lost.
//!
//! **Replay correctness.** Replies can complete out of *connection* order
//! (two connections make progress independently), but the at-most-once
//! cache is keyed by `(client token, xid)` and written inside
//! [`RpcServer::handle_record_into`] on whichever thread executes the call
//! — per-session ordering above means a retransmission still observes
//! either the cached reply or nothing, never a half-executed call.

use crate::conn::{
    Backlog, Calls, Conn, Drained, ProcClass, ReactorConfig, Replies, MAX_POOLED_BUF_BYTES,
};
use crate::error::{RpcError, RpcResult};
use crate::server::{RpcServer, ServerHandle, Window};
use crate::telemetry::Metrics;
use parking_lot::{Condvar, Mutex};
use polling::{Event, Poller};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use xdr::XdrEncoder;

/// Per-connection service state handed back by the connection factory.
pub struct ConnHandler {
    /// The dispatch registry (usually one `RpcServer` per connection
    /// wrapping per-session state, sharing a replay cache).
    pub rpc: Arc<RpcServer>,
    /// Invoked exactly once when the connection is finalized — after its
    /// last in-flight call completed and its reply queue emptied (flushed,
    /// or dropped by a kill).
    /// Session teardown (scheduler forget, resource release) goes here.
    pub on_close: Option<Box<dyn FnOnce() + Send>>,
}

crate::counters! {
    /// The reactor's counters (`reactor.*`, read through
    /// [`ServerHandle::metrics`]): one set per [`serve_tcp_reactor`], shared
    /// by its reactor thread, workers and buffer pools.
    pub const METRICS = {
        INLINE_REPLIES = "reactor.inline_replies", // `Done`, answered on the reactor thread
        PARKED_CALLS = "reactor.parked_calls", // `Parked`, executed on a worker shard
        STALLS = "reactor.stalls", // reads suspended: the session's call budget was spent
        BUFS_REUSED = "reactor.bufs_reused", // pooled buffers recycled
        BUFS_ALLOCATED = "reactor.bufs_allocated", // buffers allocated: none pooled was free
        WRITER_KILLS = "reactor.writer_kills", // closed for unread replies or a failed write
        QUEUED_REPLIES = "reactor.queued_replies", // not written whole, left to the reactor
        WAKEUPS = "reactor.wakeups", // returns of the reactor thread from its wait
        READS = "reactor.reads", // socket reads that returned data
        READS_WOULD_BLOCK = "reactor.reads_would_block", // socket reads that found nothing
        NOTIFIES = "reactor.notifies", // a `Poller::notify` or a shard's `notify_one`
        WORKER_WAKEUPS = "reactor.worker_wakeups", // returns of a worker from its condvar
    }
}

/// A connection's read half as the engine reads it, each read counted.
struct Counted<'a>(&'a TcpStream, &'a Metrics);

impl Read for Counted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let read = self.0.read(buf);
        match &read {
            Ok(1..) => self.1.add(READS, 1),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => self.1.add(READS_WOULD_BLOCK, 1),
            _ => {}
        }
        read
    }
}

/// One connection as every thread serving it sees it: its [`Socket`] on the
/// reactor thread holds it, and so does each of its calls parked on a
/// worker shard.
///
/// The reactor sets `attention` and then reads `pending`; a worker
/// decrements `pending` and then reads `attention`. Both pairs are
/// `SeqCst`, so at least one side sees the other's write: the reactor sees
/// the drained count, or the worker sees the flag and notifies. With
/// anything weaker both could read the stale value, and the reactor, which
/// has no periodic tick, would never look at the connection again.
struct Link {
    key: usize,
    rpc: Arc<RpcServer>,
    /// Parked calls in flight (submitted, reply not yet sent). Incremented
    /// by the reactor before submit; decremented by the worker *after*
    /// [`send_reply`] returned.
    pending: AtomicUsize,
    /// Reactor wants a `Poller::notify` when `pending` drops (the
    /// connection is stalled or closing).
    attention: AtomicBool,
    /// The reply half. Its write half closes when the last clone of the
    /// link drops.
    out: Mutex<Outbound>,
}

/// One parked call on a shard's queue: its connection, the record buffer
/// the engine assembled it in, and the window its last argument landed
/// through, if one did.
type Job = (Arc<Link>, Vec<u8>, Option<Window>);

/// A worker shard: its queue of parked calls (`None` once closed) and wake-up.
type Shard = (Mutex<Option<VecDeque<Job>>>, Condvar);

/// Reactor-thread-owned connection state: the socket and the engine
/// parsing what it reads.
struct Socket {
    stream: TcpStream,
    engine: Conn,
    link: Arc<Link>,
    on_close: Option<Box<dyn FnOnce() + Send>>,
    /// Reading suspended: in-flight budget exhausted.
    stalled: bool,
    /// EOF / error seen; torn down when `pending` hits zero and the reply
    /// queue is empty.
    closing: bool,
    /// Write interest armed: replies wait in the link's queue for the
    /// socket.
    backlogged: bool,
}

impl Socket {
    /// Connection `key` reading `stream`, its replies going out through
    /// `out`, a dup of it.
    fn new(
        key: usize,
        stream: TcpStream,
        out: TcpStream,
        handler: ConnHandler,
        cfg: &ReactorConfig,
    ) -> Self {
        let out = Outbound {
            stream: out,
            replies: Replies::default(),
            dead: false,
        };
        Self {
            stream,
            engine: Conn::new(cfg),
            link: Arc::new(Link {
                key,
                rpc: handler.rpc,
                pending: AtomicUsize::new(0),
                attention: AtomicBool::new(false),
                out: Mutex::new(out),
            }),
            on_close: handler.on_close,
            stalled: false,
            closing: false,
            backlogged: false,
        }
    }

    /// Stop reading this connection for good: finalized by the sweep once
    /// `pending` drains, which a worker's `notify` drives — not a hot
    /// readiness loop over a socket nobody reads — and its backlog is gone.
    fn close(&mut self, poller: &Poller) {
        self.closing = true;
        self.link.attention.store(true, Ordering::SeqCst);
        poller.suspend(self.link.key);
    }

    /// Read and dispatch what is available, as far as the engine's read
    /// share and in-flight budget allow.
    fn drain(&mut self, ctx: &Reactor, scratch: &mut [u8], enc: &mut XdrEncoder) {
        let mut calls = Route {
            link: &self.link,
            ctx,
            enc,
        };
        let mut stream = Counted(&self.stream, &ctx.metrics);
        match self.engine.drain(&mut stream, scratch, &mut calls) {
            Drained::Open => {}
            Drained::Closed => self.close(&ctx.poller),
            Drained::Stalled => {
                // Budget spent: stop reading this socket; the kernel buffer
                // fills and TCP flow control stalls the client.
                self.stalled = true;
                self.link.attention.store(true, Ordering::SeqCst);
                ctx.poller.suspend(self.link.key);
                ctx.metrics.add(STALLS, 1);
            }
        }
    }

    /// Flush the reply backlog if the socket is `writable`, then apply the
    /// kill rules: a failed write, or [`Backlog::Kill`]. A kill closes the
    /// connection. Clears write interest once the queue is empty; otherwise
    /// returns the time left to the stall deadline.
    fn pump(&mut self, ctx: &Reactor, writable: bool) -> Option<Duration> {
        let now = ctx.epoch.elapsed();
        let mut ob = self.link.out.lock();
        let failed = writable && ob.flush(now, &ctx.replies).is_err();
        match ob.replies.backlog(&ctx.cfg, now) {
            Backlog::Empty => drop(ob),
            Backlog::Wait(left) if !failed => return Some(left),
            _ => {
                ob.kill(&ctx.replies);
                drop(ob);
                ctx.metrics.add(WRITER_KILLS, 1);
                self.close(&ctx.poller);
            }
        }
        self.backlogged = false;
        ctx.poller.set_write_interest(self.link.key, false);
        None
    }
}

/// What the reactor thread does with one connection's calls: answer a
/// `Done` call inline, from the engine's record buffer, or swap that buffer
/// for a pooled one and hand it to the connection's worker shard.
struct Route<'a> {
    link: &'a Arc<Link>,
    ctx: &'a Reactor,
    enc: &'a mut XdrEncoder,
}

impl Calls for Route<'_> {
    fn in_flight(&self) -> usize {
        self.link.pending.load(Ordering::Acquire)
    }

    fn call(&mut self, class: ProcClass, record: &mut Vec<u8>, _: usize) -> RpcResult<()> {
        self.route(class, record, None)
    }

    fn server(&self) -> Option<&Arc<RpcServer>> {
        Some(&self.link.rpc)
    }

    fn landed(&mut self, c: ProcClass, r: &mut Vec<u8>, w: Window, _: usize) -> RpcResult<()> {
        self.route(c, r, Some(w))
    }
}

impl Route<'_> {
    /// Answer a call inline or park it, with the window its last argument
    /// went through, if one did.
    fn route(&mut self, class: ProcClass, rec: &mut Vec<u8>, w: Option<Window>) -> RpcResult<()> {
        let (ctx, link, record) = (self.ctx, self.link, rec);
        if class == ProcClass::Done {
            serve(link, record, w, self.enc)?;
            // Counted before the reply can reach the peer: a client that
            // has its answer finds the call counted.
            ctx.metrics.add(INLINE_REPLIES, 1);
            send_reply(link, self.enc, ctx);
            return Ok(());
        }
        let record = std::mem::replace(record, ctx.records.get(&ctx.metrics));
        link.pending.fetch_add(1, Ordering::AcqRel);
        ctx.metrics.add(PARKED_CALLS, 1);
        let (queue, ready) = &ctx.shards[link.key % ctx.shards.len()];
        // Closed only once every connection is finalized, so never here.
        if let Some(queue) = queue.lock().as_mut() {
            queue.push_back((Arc::clone(link), record, w));
        }
        ctx.metrics.add(NOTIFIES, 1);
        ready.notify_one();
        Ok(())
    }
}

/// Execute a call on `link`'s server into `enc`. A body that panics fails
/// the call, which closes only its connection; unwinding released what the
/// call held (its token-gate admission, its scheduler turn).
fn serve(link: &Link, record: &[u8], w: Option<Window>, enc: &mut XdrEncoder) -> RpcResult<()> {
    let served = catch_unwind(AssertUnwindSafe(|| link.rpc.serve_into(record, w, enc)));
    served.unwrap_or(Err(RpcError::ConnectionClosed))
}

/// What every thread serving connections needs besides the connection,
/// fixed for the life of the event loop: the reactor thread and each
/// worker hold it.
struct Reactor {
    cfg: ReactorConfig,
    poller: Arc<Poller>,
    /// Free record buffers, each swapped into an engine for a parked call's
    /// record, and reply buffers, each swapped into an encoder for a
    /// reply's.
    records: BufPool,
    replies: BufPool,
    shards: Vec<Shard>,
    /// Connections the reactor must act on, each pushed with a
    /// [`Poller::notify`] by the thread that found out: `(key, true)` when
    /// a parked call failed to dispatch (close it), `(key, false)` when a
    /// reply left bytes queued or its write failed (flush it when
    /// writable). Drained by the reactor on every pass.
    notices: Mutex<Vec<(usize, bool)>>,
    metrics: Arc<Metrics>,
    /// Where the engine's clock starts: its `now` is the time since.
    epoch: Instant,
}

impl Reactor {
    /// Wake the reactor thread, counted.
    fn notify(&self) {
        self.metrics.add(NOTIFIES, 1);
        self.poller.notify();
    }
}

/// Lock-based free list of byte buffers shared across the reactor and its
/// workers. Bounded in count (`max_pooled`) *and* per-buffer bytes
/// ([`MAX_POOLED_BUF_BYTES`]), so one pool pins at most `max_pooled` ×
/// [`MAX_POOLED_BUF_BYTES`] bytes: about 8.1 MiB each for the record and
/// the reply pool under the default [`ReactorConfig`] (2 workers × 64).
struct BufPool {
    free: Mutex<Vec<Vec<u8>>>,
    max_pooled: usize,
}

impl BufPool {
    fn get(&self, metrics: &Metrics) -> Vec<u8> {
        if let Some(buf) = self.free.lock().pop() {
            metrics.add(BUFS_REUSED, 1);
            buf
        } else {
            metrics.add(BUFS_ALLOCATED, 1);
            Vec::with_capacity(1024)
        }
    }

    fn put(&self, mut buf: Vec<u8>) {
        if buf.capacity() > MAX_POOLED_BUF_BYTES {
            return;
        }
        buf.clear();
        let mut free = self.free.lock();
        if free.len() < self.max_pooled {
            free.push(buf);
        }
    }
}

/// Per-connection outbound state: the engine's reply queue in front of the
/// connection's write half, shared under its [`Link`]'s lock by whichever
/// thread produces a reply (through [`send_reply`]) and the reactor, which
/// flushes what is left.
///
/// `O_NONBLOCK` lives on the open file description, so the `try_clone`
/// write half shares nonblocking mode with the reactor's read handle, and
/// no thread ever blocks on a write: each flush writes only what the kernel
/// buffer accepts. A peer that stops reading its replies therefore backs up
/// only its own queue; every other connection keeps draining.
struct Outbound {
    stream: TcpStream,
    replies: Replies,
    /// Killed by the reactor: later replies are dropped.
    dead: bool,
}

impl Outbound {
    /// Write as much queued data as the socket accepts right now.
    /// `Ok(())` may leave data queued (kernel buffer full); `Err` means
    /// the connection is gone.
    fn flush(&mut self, now: Duration, pool: &BufPool) -> io::Result<()> {
        self.replies.flush(&mut &self.stream, now, |b| pool.put(b))
    }

    /// Shut the shared file description down both ways, so the peer learns
    /// at once, and drop everything queued.
    fn kill(&mut self, pool: &BufPool) {
        let _ = self.stream.shutdown(Shutdown::Both);
        self.dead = true;
        self.replies.kill(|b| pool.put(b));
    }
}

/// Send the reply encoded in `enc` on `link` from the thread that produced
/// it.
///
/// The reply's buffer moves out of the encoder, which gets a pooled one in
/// its place, and joins the connection's queue under its lock. If the queue
/// was empty the reply is written through at once. If it was not, the
/// reply only queues behind the ones already there, so no reply overtakes
/// an earlier one, whichever thread produced it. Only when bytes are left
/// over, or the write failed, does the reactor get a notice: one per empty
/// → non-empty turn of the queue, since only the reactor empties a queue it
/// was told about.
fn send_reply(link: &Link, enc: &mut XdrEncoder, ctx: &Reactor) {
    let pooled = XdrEncoder::from_sink(ctx.replies.get(&ctx.metrics));
    let reply = std::mem::replace(enc, pooled).into_inner();
    let now = ctx.epoch.elapsed();
    let mut ob = link.out.lock();
    if ob.dead {
        return ctx.replies.put(reply);
    }
    let idle = ob.replies.is_empty();
    ob.replies.push(reply, now);
    if idle && (ob.flush(now, &ctx.replies).is_err() || !ob.replies.is_empty()) {
        drop(ob);
        ctx.metrics.add(QUEUED_REPLIES, 1);
        ctx.notices.lock().push((link.key, false));
        ctx.notify();
    }
}

/// Bind a TCP listener and serve it with the completion-driven reactor.
///
/// `factory(conn_id)` is invoked on the accept thread for every accepted
/// connection and returns that connection's dispatch registry plus close
/// hook. Shutdown (via the returned [`ServerHandle`]) drains every
/// in-flight call, flushes every enqueued reply, and runs every `on_close`
/// hook before the handle's join returns.
pub fn serve_tcp_reactor<A, F>(addr: A, cfg: ReactorConfig, factory: F) -> RpcResult<ServerHandle>
where
    A: ToSocketAddrs,
    F: Fn(u64) -> ConnHandler + Send + Sync + 'static,
{
    if cfg.workers == 0 || cfg.max_session_queue == 0 {
        return Err(RpcError::Io(io::Error::new(
            io::ErrorKind::InvalidInput,
            "reactor needs at least one worker and a nonzero session queue",
        )));
    }
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_accept = Arc::clone(&stop);
    let max_pooled = cfg.workers * cfg.max_session_queue;
    let pool = || BufPool {
        free: Mutex::default(),
        max_pooled,
    };
    let shard = |_| (Mutex::new(Some(VecDeque::new())), Condvar::new());
    let ctx = Arc::new(Reactor {
        shards: (0..cfg.workers).map(shard).collect(),
        cfg,
        poller: Arc::new(Poller::try_new()?),
        records: pool(),
        replies: pool(),
        notices: Mutex::default(),
        metrics: Arc::new(Metrics::new(METRICS)),
        epoch: Instant::now(),
    });
    let ctx_accept = Arc::clone(&ctx);
    let (newconn_tx, newconn_rx) = mpsc::channel::<(usize, TcpStream, ConnHandler)>();

    let reactor_join = std::thread::Builder::new()
        .name("oncrpc-reactor".into())
        .spawn({
            let (stop, ctx) = (Arc::clone(&stop), Arc::clone(&ctx));
            move || reactor_main(ctx, &stop, newconn_rx)
        })?;

    let accept_join = std::thread::Builder::new()
        .name("oncrpc-accept".into())
        .spawn(move || {
            let mut next_key: usize = 1;
            for stream in listener.incoming() {
                if stop_accept.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // Small RPCs must not eat Nagle delays on the eager path.
                let _ = stream.set_nodelay(true);
                let key = next_key;
                next_key += 1;
                let handler = factory(key as u64);
                if newconn_tx.send((key, stream, handler)).is_err() {
                    break;
                }
                ctx_accept.notify();
            }
            // Hang up the new-connection ring so the reactor drains and
            // exits, then wait for it to flush replies and close hooks.
            drop(newconn_tx);
            ctx_accept.notify();
            let _ = reactor_join.join();
        })
        .inspect_err(|_| {
            // The closure, and with it the new-connection ring, is gone:
            // wake the reactor so it sees the hang-up and exits.
            stop.store(true, Ordering::SeqCst);
            ctx.notify();
        })?;

    let metrics = Arc::clone(&ctx.metrics);
    Ok(ServerHandle::from_parts(local, stop, accept_join, metrics))
}

/// The reactor event loop. Owns every connection's read half and the worker
/// pool, and flushes every backlog; returns only after all of them drained.
fn reactor_main(
    ctx: Arc<Reactor>,
    stop: &AtomicBool,
    newconn_rx: mpsc::Receiver<(usize, TcpStream, ConnHandler)>,
) {
    let (cfg, poller) = (&ctx.cfg, &ctx.poller);

    // No serving without every worker: after a failed spawn accept nothing,
    // so the loop below ends at once and the accept thread at its next one.
    let workers: Vec<_> = (0..cfg.workers)
        .map_while(|shard| {
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name(format!("oncrpc-worker-{shard}"))
                .spawn(move || worker_main(&ctx.shards[shard], &ctx))
                .ok()
        })
        .collect();
    let (mut accepting, mut stopping) = (workers.len() == cfg.workers, false);

    let mut conns: HashMap<usize, Socket> = HashMap::new();
    // Exactly the connections marked stalled, closing or backlogged: all the
    // sweep visits.
    let mut watch: HashSet<usize> = HashSet::new();
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut inline_enc = XdrEncoder::with_capacity(4096);
    // Swapped with `ctx.notices` on every pass: both keep their capacity.
    let mut noticed = Vec::new();
    // The earliest stall deadline among backlogged connections, as a wait.
    let mut timeout = Duration::MAX;

    loop {
        // Adopt newly accepted connections.
        while accepting && !stopping {
            match newconn_rx.try_recv() {
                Ok((key, stream, handler)) => match stream.try_clone() {
                    Ok(out) if poller.register(&stream, key).is_ok() => {
                        conns.insert(key, Socket::new(key, stream, out, handler, cfg));
                    }
                    // Not adopted: finalized at once, its hook run exactly once.
                    _ => handler.on_close.into_iter().for_each(|hook| hook()),
                },
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => accepting = false,
            }
        }
        if (stopping || !accepting) && conns.is_empty() {
            break; // accept loop gone and nothing left to serve
        }

        // No periodic tick. Besides socket readiness and the stall deadline
        // in `timeout`, the sweep below acts on four changes, and each is
        // announced through `poller.notify`, whose eventfd holds the wake-up
        // until this wait consumes it:
        //   * a new connection: the accept thread, after queueing it;
        //   * `pending` dropping on a connection with `attention` set
        //     (stalled or closing): the worker, after decrementing;
        //   * a notice: whoever pushed it, after pushing;
        //   * shutdown: the accept thread, after hanging up the ring.
        // A test that hangs here is missing one of those notifies.
        let _ = poller.wait(&mut events, timeout);
        ctx.metrics.add(WAKEUPS, 1);
        for ev in events.drain(..) {
            let Some(conn) = conns.get_mut(&ev.key) else {
                continue;
            };
            if conn.backlogged {
                conn.pump(&ctx, true);
            }
            if !(conn.stalled || conn.closing) {
                conn.drain(&ctx, &mut scratch, &mut inline_enc);
            }
            if conn.stalled || conn.closing || conn.backlogged {
                watch.insert(ev.key);
            }
        }
        std::mem::swap(&mut noticed, &mut *ctx.notices.lock());
        for (key, failed) in noticed.drain(..) {
            let Some(conn) = conns.get_mut(&key) else {
                continue;
            };
            if failed {
                conn.close(poller);
            } else if !conn.backlogged {
                conn.backlogged = true;
                poller.set_write_interest(key, true);
            }
            watch.insert(key);
        }
        if !stopping && stop.load(Ordering::SeqCst) {
            // Shutdown: read nothing more; each connection is finalized once
            // its calls are answered and its backlog is flushed or killed.
            stopping = true;
            for (&key, conn) in &mut conns {
                conn.close(poller);
                watch.insert(key);
            }
        }

        // Sweep: resume drained stalled connections, apply the kill rules to
        // backlogged ones, tear down drained closing ones.
        timeout = Duration::MAX;
        watch.retain(|&key| {
            let Some(conn) = conns.get_mut(&key) else {
                return false;
            };
            // Draining a resumed connection can stall it again, and workers
            // that finished meanwhile saw `attention` clear and sent no
            // notify: re-check `pending` before leaving it.
            while conn.stalled
                && !conn.closing
                && (conn.engine).may_resume(conn.link.pending.load(Ordering::SeqCst))
            {
                conn.stalled = false;
                conn.link.attention.store(false, Ordering::Release);
                poller.resume(key);
                conn.drain(&ctx, &mut scratch, &mut inline_enc);
            }
            if conn.backlogged {
                if let Some(left) = conn.pump(&ctx, false) {
                    timeout = timeout.min(left);
                }
            }
            // A reply queued by the last call may still have its notice on
            // the list: tear down on an empty queue, not on `backlogged`.
            if conn.closing
                && conn.link.pending.load(Ordering::SeqCst) == 0
                && conn.link.out.lock().replies.is_empty()
            {
                // Deregister while `conn.stream` is still open: the write
                // half's dup of it would keep the registration alive past
                // the drop, which closes both halves.
                poller.deregister(key);
                if let Some(hook) = conn.on_close.take() {
                    hook();
                }
                conns.remove(&key);
                return false;
            }
            conn.stalled || conn.closing || conn.backlogged
        });
    }

    // Every connection is finalized, so no call is in flight: close each
    // shard's queue, now empty, and its worker exits.
    for (queue, ready) in &ctx.shards {
        *queue.lock() = None;
        ctx.metrics.add(NOTIFIES, 1);
        ready.notify_one();
    }
    for j in workers {
        let _ = j.join();
    }
}

/// Worker shard: take the whole queue, leaving this worker's drained one in
/// its place, and execute its calls in FIFO order, each reply sent before
/// the decrement is published.
fn worker_main((queue, ready): &Shard, ctx: &Reactor) {
    let mut enc = XdrEncoder::with_capacity(4096);
    let mut batch = VecDeque::with_capacity(ctx.cfg.max_session_queue);
    loop {
        let mut jobs = queue.lock();
        while jobs.as_ref().is_some_and(VecDeque::is_empty) {
            ready.wait(&mut jobs);
            ctx.metrics.add(WORKER_WAKEUPS, 1);
        }
        let Some(waiting) = jobs.as_mut() else {
            return;
        };
        std::mem::swap(waiting, &mut batch);
        drop(jobs);
        for (link, record, w) in batch.drain(..) {
            let ok = serve(&link, &record, w, &mut enc).is_ok();
            ctx.records.put(record);
            if ok {
                send_reply(&link, &mut enc, ctx);
            } else {
                ctx.notices.lock().push((link.key, true));
            }
            // The reply is written or queued; only now may the reactor treat
            // this connection as drained (ordering guarantee — see module
            // doc; SeqCst for the `attention` handshake — see `Link`).
            link.pending.fetch_sub(1, Ordering::SeqCst);
            if !ok || link.attention.load(Ordering::SeqCst) {
                ctx.notify();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RpcClient;
    use crate::conn::Classifier;
    use crate::msg::{AcceptStat, CallBody, MessageBody, RpcMessage};
    use crate::record::{mark, read_record, write_record, DEFAULT_MAX_FRAGMENT, MAX_RECORD};
    use crate::server::Dispatch;
    use crate::transport::TcpTransport;
    use std::io::{Read, Write};
    use std::sync::atomic::AtomicU64;
    use xdr::{Xdr, XdrDecoder};

    const PROG: u32 = 400;
    const VERS: u32 = 1;

    type Counts = std::collections::BTreeMap<&'static str, u64>;

    /// `handle`'s reactor counters by name.
    fn counts(handle: &ServerHandle) -> Counts {
        handle.metrics().iter().collect()
    }

    /// proc 1 = echo (parked), proc 2 = add (done), proc 3 = slow add
    /// (parked, sleeps to build queue depth).
    fn service() -> Arc<dyn Dispatch> {
        Arc::new(
            |proc: u32, args: &mut XdrDecoder<'_>, reply: &mut XdrEncoder| match proc {
                0 => Ok(()),
                1 => {
                    let data = args.get_opaque().map_err(|_| AcceptStat::GarbageArgs)?;
                    reply.put_opaque(data);
                    Ok(())
                }
                2 | 3 => {
                    let a = args.get_u32().map_err(|_| AcceptStat::GarbageArgs)?;
                    let b = args.get_u32().map_err(|_| AcceptStat::GarbageArgs)?;
                    if proc == 3 {
                        std::thread::sleep(Duration::from_micros(300));
                    }
                    reply.put_u32(a.wrapping_add(b));
                    Ok(())
                }
                _ => Err(AcceptStat::ProcUnavail),
            },
        )
    }

    fn classifier() -> Classifier {
        Arc::new(|_prog, _vers, proc| {
            if proc == 2 {
                ProcClass::Done
            } else {
                ProcClass::Parked
            }
        })
    }

    fn start(cfg: ReactorConfig) -> (ServerHandle, Arc<AtomicU64>) {
        let closes = Arc::new(AtomicU64::new(0));
        let closes2 = Arc::clone(&closes);
        let handle = serve_tcp_reactor("127.0.0.1:0", cfg, move |_conn| {
            let mut rpc = RpcServer::new();
            rpc.register(PROG, VERS, service());
            let rpc = Arc::new(rpc);
            let closes = Arc::clone(&closes2);
            ConnHandler {
                rpc,
                on_close: Some(Box::new(move || {
                    closes.fetch_add(1, Ordering::SeqCst);
                })),
            }
        })
        .unwrap();
        (handle, closes)
    }

    #[test]
    fn concurrent_clients_mixed_done_and_parked() {
        let cfg = ReactorConfig {
            workers: 2,
            classify: Some(classifier()),
            ..ReactorConfig::default()
        };
        let (handle, closes) = start(cfg);
        let addr = handle.addr();
        let mut joins = Vec::new();
        for t in 0..8u32 {
            joins.push(std::thread::spawn(move || {
                let transport = TcpTransport::connect(addr).unwrap();
                let mut client = RpcClient::new(Box::new(transport), PROG, VERS);
                for i in 0..40u32 {
                    // Alternate inline-eligible and parked procedures.
                    let proc = if i % 2 == 0 { 2 } else { 3 };
                    let sum: u32 = client.call(proc, &(i, t)).unwrap();
                    assert_eq!(sum, i + t);
                    if i % 10 == 0 {
                        let out: Vec<u8> = client.call(1, &vec![i as u8; 64]).unwrap();
                        assert_eq!(out, vec![i as u8; 64]);
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        handle.shutdown();
        assert_eq!(closes.load(Ordering::SeqCst), 8, "every conn closed once");
    }

    #[test]
    fn pipelined_burst_preserves_reply_order_across_classes() {
        let cfg = ReactorConfig {
            workers: 2,
            max_session_queue: 4,
            classify: Some(classifier()),
            ..ReactorConfig::default()
        };
        let (handle, _closes) = start(cfg);
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        // Fire a burst mixing Done (2) and Parked (3) calls without reading
        // replies; with max_session_queue=4 this forces backpressure.
        const N: u32 = 64;
        for i in 0..N {
            let mut enc = XdrEncoder::new();
            let proc = if i % 3 == 0 { 2 } else { 3 };
            RpcMessage::call(i, CallBody::new(PROG, VERS, proc)).encode(&mut enc);
            (i, 1u32).encode(&mut enc);
            write_record(&mut stream, enc.as_slice(), DEFAULT_MAX_FRAGMENT).unwrap();
        }
        for i in 0..N {
            let rec = read_record(&mut stream, MAX_RECORD).unwrap().unwrap();
            let mut dec = XdrDecoder::new(&rec);
            let msg = RpcMessage::decode(&mut dec).unwrap();
            assert_eq!(msg.xid, i, "reply order must match request order");
            assert!(matches!(msg.body, MessageBody::Reply(_)));
            let sum = dec.get_u32().unwrap();
            assert_eq!(sum, i + 1);
        }
        let stats = counts(&handle);
        assert!(
            stats["reactor.stalls"] >= 1,
            "a 64-deep burst against a 4-deep budget must stall at least once"
        );
        assert_eq!(
            stats["reactor.inline_replies"] + stats["reactor.parked_calls"],
            u64::from(N)
        );
        drop(stream);
        handle.shutdown();
    }

    #[test]
    fn slow_reader_is_killed_and_never_wedges_other_connections() {
        let cfg = ReactorConfig {
            workers: 2,
            max_session_queue: 256,
            classify: Some(classifier()),
            write_stall_deadline: Duration::from_millis(200),
            max_write_backlog: 256 * 1024,
        };
        let (handle, closes) = start(cfg);
        let addr = handle.addr();

        // A tenant that floods large echo calls and never reads one reply:
        // kernel buffers fill, the writer's backlog cap (or stall deadline)
        // trips, and the connection is shut down server-side.
        let stuck = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let payload = vec![0xabu8; 128 * 1024];
            for i in 0..256u32 {
                let mut enc = XdrEncoder::new();
                RpcMessage::call(i, CallBody::new(PROG, VERS, 1)).encode(&mut enc);
                payload.encode(&mut enc);
                if write_record(&mut stream, enc.as_slice(), DEFAULT_MAX_FRAGMENT).is_err() {
                    break; // server killed us — expected
                }
            }
            stream
        });

        // Meanwhile a healthy tenant on the same writer thread must keep
        // getting replies; before the per-connection outbound queues this
        // hung forever inside the single blocking writer.
        let transport = TcpTransport::connect(addr).unwrap();
        let mut client = RpcClient::new(Box::new(transport), PROG, VERS);
        for i in 0..50u32 {
            let sum: u32 = client.call(2, &(i, 1u32)).unwrap();
            assert_eq!(sum, i + 1);
        }

        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while counts(&handle)["reactor.writer_kills"] == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "writer never killed the non-reading connection"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            counts(&handle)["reactor.writer_kills"],
            1,
            "only the stuck one"
        );
        assert!(
            counts(&handle)["reactor.queued_replies"] >= 1,
            "the stuck connection's replies never reached the backlog writer"
        );
        let stuck_stream = stuck.join().unwrap();
        drop(stuck_stream);
        drop(client);
        handle.shutdown();
        assert_eq!(closes.load(Ordering::SeqCst), 2, "both conns finalized");
    }

    #[test]
    fn four_thousand_idle_connections_and_one_busy_one() {
        const IDLE: usize = 4000;
        let cfg = ReactorConfig {
            classify: Some(classifier()),
            ..ReactorConfig::default()
        };
        let (handle, closes) = start(cfg);
        let addr = handle.addr();
        // Three descriptors each: this end, the reactor's, its write half.
        let idle: Vec<TcpStream> = (0..IDLE)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();
        // Connected last, so the reactor has adopted every idle connection
        // by the time this one is answered.
        let transport = TcpTransport::connect(addr).unwrap();
        let mut client = RpcClient::new(Box::new(transport), PROG, VERS);
        for i in 0..1000u32 {
            if i % 2 == 0 {
                let sum: u32 = client.call(2, &(i, 7u32)).unwrap();
                assert_eq!(sum, i + 7);
            } else {
                let out: Vec<u8> = client.call(1, &i.to_be_bytes().to_vec()).unwrap();
                assert_eq!(out, i.to_be_bytes());
            }
        }
        // Every echo parks, and an add parks too when it arrives before the
        // worker's decrement for the echo ahead of it, which may trail that
        // echo's reply: the split is a timing, the total is not.
        let stats = counts(&handle);
        assert_eq!(
            stats["reactor.inline_replies"] + stats["reactor.parked_calls"],
            1000
        );
        assert!(stats["reactor.parked_calls"] >= 500, "{stats:?}");
        assert_eq!(
            stats["reactor.queued_replies"], 0,
            "every small reply goes straight through on the thread that produced it"
        );
        handle.shutdown();
        assert_eq!(
            closes.load(Ordering::SeqCst),
            IDLE as u64 + 1,
            "every connection closed once"
        );
        drop((idle, client));
    }

    /// A reply produced while the connection has a backlog — on the worker
    /// behind the backlog's own call, or inline on the reactor after it —
    /// queues behind that backlog, even at a moment the socket has room.
    #[test]
    fn write_through_never_overtakes_a_backlog() {
        fn send(stream: &mut TcpStream, xid: u32, proc: u32, args: &impl Xdr) {
            let mut enc = XdrEncoder::new();
            RpcMessage::call(xid, CallBody::new(PROG, VERS, proc)).encode(&mut enc);
            args.encode(&mut enc);
            write_record(stream, enc.as_slice(), DEFAULT_MAX_FRAGMENT).unwrap();
        }
        let cfg = ReactorConfig {
            classify: Some(classifier()),
            ..ReactorConfig::default()
        };
        let (handle, _closes) = start(cfg);
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        // A damaged stream can announce a record longer than what follows:
        // fail on it instead of waiting forever.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();

        // A parked echo whose reply is more than the server's send buffer
        // and this end's receive buffer hold while nobody reads, and an
        // inline-class call pipelined right behind it.
        let payload: Vec<u8> = (0..8u32 << 20).map(|i| (i % 251) as u8).collect();
        send(&mut stream, 0, 1, &payload);
        send(&mut stream, 1, 2, &(0u32, 0u32));
        let deadline = Instant::now() + Duration::from_secs(10);
        while counts(&handle)["reactor.queued_replies"] == 0 {
            assert!(Instant::now() < deadline, "the echo reply never backed up");
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(100));

        // Now read a little at a time and call between reads: each of these
        // inline replies is produced just after the socket took room again
        // and before the backlog writer's next pass refills it, which is
        // exactly when writing it through would overtake the backlog.
        const CALLS: u32 = 16;
        let mut head = vec![0u8; CALLS as usize * 64 * 1024];
        for (i, chunk) in (0u32..).zip(head.chunks_mut(64 * 1024)) {
            stream.read_exact(chunk).unwrap();
            send(&mut stream, 2 + i, 2, &(i, 1u32));
        }
        let mut wire = (&head[..]).chain(&mut stream);
        let rec = read_record(&mut wire, MAX_RECORD).unwrap().unwrap();
        let mut dec = XdrDecoder::new(&rec);
        assert_eq!(RpcMessage::decode(&mut dec).unwrap().xid, 0);
        assert!(dec.get_opaque().unwrap() == payload, "echo bytes damaged");
        for xid in 1..2 + CALLS {
            let rec = read_record(&mut wire, MAX_RECORD).unwrap().unwrap();
            let mut dec = XdrDecoder::new(&rec);
            assert_eq!(
                RpcMessage::decode(&mut dec).unwrap().xid,
                xid,
                "reply order"
            );
            assert_eq!(dec.get_u32().unwrap(), xid - 1);
        }

        let stats = counts(&handle);
        assert!(stats["reactor.queued_replies"] >= 1);
        assert_eq!(stats["reactor.writer_kills"], 0);
        assert_eq!(
            stats["reactor.inline_replies"] + stats["reactor.parked_calls"],
            u64::from(CALLS) + 2
        );
        assert!(
            stats["reactor.inline_replies"] >= u64::from(CALLS),
            "the calls made after the backlog formed must run inline: {stats:?}"
        );
        drop(stream);
        handle.shutdown();
    }

    /// A 64 KiB payload with its headers fits under the pools' per-buffer
    /// cap: once warm, parked 64 KiB echo calls recycle their record and
    /// reply buffers instead of freeing and allocating them every call.
    #[test]
    fn pools_recycle_the_buffers_of_64_kib_calls() {
        let cfg = ReactorConfig {
            classify: Some(classifier()),
            ..ReactorConfig::default()
        };
        let (handle, _closes) = start(cfg);
        let transport = TcpTransport::connect(handle.addr()).unwrap();
        let mut client = RpcClient::new(Box::new(transport), PROG, VERS);
        let payload: Vec<u8> = (0..64u32 << 10).map(|i| i as u8).collect();
        let mut round = || {
            for _ in 0..8 {
                let out: Vec<u8> = client.call(1, &payload).unwrap();
                assert!(out == payload, "echo bytes damaged");
            }
        };
        round();
        let warm = counts(&handle);
        for _ in 0..5 {
            round();
        }
        let stats = counts(&handle);
        assert_eq!(stats["reactor.parked_calls"], 48);
        assert_eq!(
            stats["reactor.bufs_allocated"], warm["reactor.bufs_allocated"],
            "{stats:?}"
        );
        assert!(
            stats["reactor.bufs_reused"] >= warm["reactor.bufs_reused"] + 80,
            "{stats:?}"
        );
        drop(client);
        handle.shutdown();
    }

    /// Pipelined parked calls of mixed sizes against a two-call budget: the
    /// worker keeps freeing the budget while the reactor holds the rest of
    /// a read unparsed, and no later read may be parsed ahead of those
    /// bytes. Every reply comes back, in order, with its own bytes.
    #[test]
    fn held_bytes_are_parsed_before_the_next_read() {
        let cfg = ReactorConfig {
            workers: 1,
            max_session_queue: 2,
            ..ReactorConfig::default()
        };
        let (handle, _closes) = start(cfg);
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        // A misparsed stream can leave a call unanswered or announce a
        // record longer than what follows: fail instead of waiting forever.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        const CALLS: u32 = 4000;
        let body = |xid: u32| vec![xid as u8; (xid as usize * 37) % 301];
        let mut wire = Vec::new();
        for xid in 0..CALLS {
            let mut enc = XdrEncoder::new();
            RpcMessage::call(xid, CallBody::new(PROG, VERS, 1)).encode(&mut enc);
            body(xid).encode(&mut enc);
            write_record(&mut wire, enc.as_slice(), DEFAULT_MAX_FRAGMENT).unwrap();
        }
        let mut send = stream.try_clone().unwrap();
        let writer = std::thread::spawn(move || send.write_all(&wire));
        for xid in 0..CALLS {
            let rec = read_record(&mut stream, MAX_RECORD).unwrap().unwrap();
            let mut dec = XdrDecoder::new(&rec);
            assert_eq!(
                RpcMessage::decode(&mut dec).unwrap().xid,
                xid,
                "reply order"
            );
            assert!(dec.get_opaque().unwrap() == body(xid), "echo bytes damaged");
        }
        writer.join().unwrap().unwrap();
        assert!(counts(&handle)["reactor.stalls"] > 0);
        drop(stream);
        handle.shutdown();
    }

    /// Write one call record onto a raw stream.
    fn send_call(stream: &mut TcpStream, xid: u32, proc: u32, args: &impl Xdr) {
        let mut enc = XdrEncoder::new();
        RpcMessage::call(xid, CallBody::new(PROG, VERS, proc)).encode(&mut enc);
        args.encode(&mut enc);
        write_record(stream, enc.as_slice(), DEFAULT_MAX_FRAGMENT).unwrap();
    }

    /// At a budget of one call, a stalled connection resumes only once its
    /// call is answered, so pipelined calls stall at most once each.
    /// Resumed with the call still in flight, it would stall again at once,
    /// and the sweep would spin, counting a stall each turn, until the
    /// worker finished.
    #[test]
    fn a_budget_of_one_resumes_once_its_call_is_answered() {
        let cfg = ReactorConfig {
            workers: 1,
            max_session_queue: 1,
            ..ReactorConfig::default()
        };
        let (handle, _closes) = start(cfg);
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        const CALLS: u32 = 200;
        for xid in 0..CALLS {
            send_call(&mut stream, xid, 3, &(xid, 1u32));
        }
        for xid in 0..CALLS {
            let rec = read_record(&mut stream, MAX_RECORD).unwrap().unwrap();
            let mut dec = XdrDecoder::new(&rec);
            assert_eq!(RpcMessage::decode(&mut dec).unwrap().xid, xid);
            assert_eq!(dec.get_u32().unwrap(), xid + 1);
        }
        let stalls = counts(&handle)["reactor.stalls"];
        assert!(stalls > 0 && stalls <= u64::from(CALLS), "{stalls} stalls");
        drop(stream);
        handle.shutdown();
    }

    /// An echo payload whose reply is more than the server's send buffer and
    /// the peer's receive buffer hold while nobody reads.
    fn backlog_payload() -> Vec<u8> {
        (0..8u32 << 20).map(|i| (i % 251) as u8).collect()
    }

    /// Wait until a reply of `handle`'s server has backed up.
    fn await_backlog(handle: &ServerHandle) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while counts(handle)["reactor.queued_replies"] == 0 {
            assert!(Instant::now() < deadline, "the echo reply never backed up");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Read one echo reply and check its xid and bytes.
    fn expect_echo(stream: &mut TcpStream, xid: u32, payload: &[u8]) {
        let rec = read_record(stream, MAX_RECORD).unwrap().unwrap();
        let mut dec = XdrDecoder::new(&rec);
        assert_eq!(RpcMessage::decode(&mut dec).unwrap().xid, xid);
        assert!(dec.get_opaque().unwrap() == payload, "echo bytes damaged");
    }

    /// A peer that shuts its write side while the reply to its call is
    /// backed up still gets every byte of that reply, then EOF: the closing
    /// connection keeps flushing its backlog before it is finalized.
    #[test]
    fn a_half_closed_peer_still_gets_its_backlog() {
        let (handle, closes) = start(ReactorConfig::default());
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let payload = backlog_payload();
        send_call(&mut stream, 7, 1, &payload);
        await_backlog(&handle);
        stream.shutdown(Shutdown::Write).unwrap();
        expect_echo(&mut stream, 7, &payload);
        assert!(read_record(&mut stream, MAX_RECORD).unwrap().is_none());
        assert_eq!(closes.load(Ordering::SeqCst), 1, "finalized before EOF");
        handle.shutdown();
    }

    /// `shutdown` waits for a backlog the peer has not read yet, and the
    /// peer then reads the whole reply.
    #[test]
    fn shutdown_flushes_a_pending_backlog() {
        let (handle, closes) = start(ReactorConfig::default());
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let payload = backlog_payload();
        send_call(&mut stream, 3, 1, &payload);
        await_backlog(&handle);
        let stopper = std::thread::spawn(move || handle.shutdown());
        std::thread::sleep(Duration::from_millis(100));
        assert!(!stopper.is_finished(), "shutdown left a reply unsent");
        expect_echo(&mut stream, 3, &payload);
        stopper.join().unwrap();
        assert_eq!(closes.load(Ordering::SeqCst), 1);
    }

    /// `shutdown` while parked calls still wait on a shard's queue: the
    /// queue closes only once every connection is finalized, so each call
    /// is answered, in order, before its connection closes and `shutdown`
    /// returns.
    #[test]
    fn shutdown_answers_every_parked_call_queued_on_a_shard() {
        const CONNS: usize = 4;
        const CALLS: u32 = 16;
        fn expect_sum(stream: &mut TcpStream, xid: u32) {
            let rec = read_record(stream, MAX_RECORD).unwrap().unwrap();
            let mut dec = XdrDecoder::new(&rec);
            assert_eq!(RpcMessage::decode(&mut dec).unwrap().xid, xid);
            assert_eq!(dec.get_u32().unwrap(), xid + 1);
        }
        let cfg = ReactorConfig {
            workers: 1,
            ..ReactorConfig::default()
        };
        let (handle, closes) = start(cfg);
        let mut streams: Vec<TcpStream> = (0..CONNS)
            .map(|_| TcpStream::connect(handle.addr()).unwrap())
            .collect();
        for (i, stream) in streams.iter_mut().enumerate() {
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            for xid in 0..CALLS {
                send_call(stream, xid, 3, &(xid, 1u32));
            }
            // The worker has taken the first connection's calls, so the
            // others' calls wait on the shard's queue behind them (300 µs
            // each).
            if i == 0 {
                expect_sum(stream, 0);
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while counts(&handle)["reactor.parked_calls"] < (CONNS as u64) * u64::from(CALLS) {
            assert!(Instant::now() < deadline, "calls never parked");
            std::thread::sleep(Duration::from_micros(100));
        }
        let stopper = std::thread::spawn(move || handle.shutdown());
        for (i, stream) in streams.iter_mut().enumerate() {
            for xid in u32::from(i == 0)..CALLS {
                expect_sum(stream, xid);
            }
        }
        stopper.join().unwrap();
        assert_eq!(closes.load(Ordering::SeqCst), CONNS as u64);
    }

    /// One reply backs up behind a peer that never reads, with nothing
    /// queued behind it: only `write_stall_deadline` can kill the
    /// connection, and it does, but never before the deadline has passed
    /// since the call was sent (which precedes the reply's queueing).
    #[test]
    fn the_stall_deadline_alone_kills_a_silent_peer() {
        const DEADLINE: Duration = Duration::from_millis(200);
        let cfg = ReactorConfig {
            classify: Some(classifier()),
            write_stall_deadline: DEADLINE,
            max_write_backlog: usize::MAX,
            ..ReactorConfig::default()
        };
        let (handle, closes) = start(cfg);
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let sent = Instant::now();
        send_call(&mut stream, 0, 1, &backlog_payload());
        loop {
            let kills = counts(&handle)["reactor.writer_kills"];
            // Taken after the read: the kill, if seen, happened before it.
            let seen = Instant::now();
            if kills > 0 {
                assert!(seen - sent >= DEADLINE, "killed after {:?}", seen - sent);
                break;
            }
            assert!(seen - sent < Duration::from_secs(10), "never killed");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(counts(&handle)["reactor.writer_kills"], 1);
        drop(stream);
        handle.shutdown();
        assert_eq!(closes.load(Ordering::SeqCst), 1);
    }

    /// `Duration::MAX` switches the stall rule off, as `usize::MAX` does the
    /// backlog rule: an 8 MiB echo behind a peer that does not read is
    /// never killed, and is read whole once the peer reads.
    #[test]
    fn a_stall_deadline_of_duration_max_never_kills() {
        let cfg = ReactorConfig {
            classify: Some(classifier()),
            write_stall_deadline: Duration::MAX,
            max_write_backlog: usize::MAX,
            ..ReactorConfig::default()
        };
        let (handle, closes) = start(cfg);
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let payload = backlog_payload();
        send_call(&mut stream, 5, 1, &payload);
        await_backlog(&handle);
        // The reactor computes the deadline as soon as the reply backs up,
        // and again on every pass; give it a few while the peer is silent.
        std::thread::sleep(Duration::from_millis(100));
        let _: u32 = {
            let transport = TcpTransport::connect(handle.addr()).unwrap();
            let mut other = RpcClient::new(Box::new(transport), PROG, VERS);
            other.call(2, &(1u32, 2u32)).unwrap()
        };
        assert_eq!(counts(&handle)["reactor.writer_kills"], 0);
        expect_echo(&mut stream, 5, &payload);
        drop(stream);
        handle.shutdown();
        assert_eq!(closes.load(Ordering::SeqCst), 2);
    }

    /// One connection streams a record of one-byte fragments as fast as the
    /// reactor can read it while another makes inline calls. Reads are capped
    /// per readiness event, so the second connection waits for a few reads
    /// of the first, not for its whole record. Two timings of the same run
    /// are compared, so a slow machine slows both.
    #[test]
    fn a_flooding_connection_does_not_hold_the_reactor() {
        let cfg = ReactorConfig {
            classify: Some(classifier()),
            ..ReactorConfig::default()
        };
        let (handle, _closes) = start(cfg);
        let payload = vec![5u8; 4 << 20];
        let mut enc = XdrEncoder::new();
        RpcMessage::call(0, CallBody::new(PROG, VERS, 1)).encode(&mut enc);
        payload.encode(&mut enc);
        let body = enc.as_slice();
        let mut wire = Vec::with_capacity(5 * body.len());
        for (i, &byte) in body.iter().enumerate() {
            wire.extend_from_slice(&mark(1, i + 1 == body.len()));
            wire.push(byte);
        }
        let mut flood = TcpStream::connect(handle.addr()).unwrap();
        let transport = TcpTransport::connect(handle.addr()).unwrap();
        let mut client = RpcClient::new(Box::new(transport), PROG, VERS);
        let _: u32 = client.call(2, &(0u32, 0u32)).unwrap();
        let done = Arc::new(AtomicBool::new(false));
        let flooder = std::thread::spawn({
            let done = Arc::clone(&done);
            move || {
                let start = Instant::now();
                flood.write_all(&wire).unwrap();
                expect_echo(&mut flood, 0, &payload);
                done.store(true, Ordering::SeqCst);
                start.elapsed()
            }
        });
        let mut worst = Duration::ZERO;
        for i in 0u32.. {
            let start = Instant::now();
            let sum: u32 = client.call(2, &(i, 1u32)).unwrap();
            worst = worst.max(start.elapsed());
            assert_eq!(sum, i.wrapping_add(1));
            if done.load(Ordering::SeqCst) {
                break;
            }
        }
        let took = flooder.join().unwrap();
        assert!(
            worst < took / 4,
            "{worst:?} worst call during a {took:?} flood"
        );
        handle.shutdown();
    }

    /// A call that leaves the client in one write reaches the reactor in
    /// one read and at most one wake-up: 1 000 warm small calls of each
    /// class from a `TcpTransport` client raise `reads` by exactly 1 000 and
    /// `wakeups` by at most 1 000 and a 2 % slack for spurious returns of
    /// the wait. Fewer wake-ups is fine: a drain that finds the client's
    /// next call already there reads it in the same wake-up. With the
    /// record mark written alone, most calls took two reads and two
    /// wake-ups.
    #[test]
    fn a_call_is_one_read_and_one_wakeup() {
        const CALLS: u64 = 1000;
        const SLACK: u64 = CALLS / 50;
        let cfg = ReactorConfig {
            classify: Some(classifier()),
            ..ReactorConfig::default()
        };
        let (handle, _closes) = start(cfg);
        let transport = TcpTransport::connect(handle.addr()).unwrap();
        let mut client = RpcClient::new(Box::new(transport), PROG, VERS);
        // Proc 2 is answered inline (nothing is parked before it), proc 0
        // (null) parked.
        for proc in [2, 0] {
            let mut call = |i: u32| match proc {
                2 => assert_eq!(client.call::<_, u32>(2, &(i, 1u32)).unwrap(), i + 1),
                _ => client.call_null().unwrap(),
            };
            (0..64).for_each(&mut call);
            let before = counts(&handle);
            (0..CALLS as u32).for_each(&mut call);
            let after = counts(&handle);
            let class = |s: &Counts| match proc {
                2 => s["reactor.inline_replies"],
                _ => s["reactor.parked_calls"],
            };
            assert_eq!(class(&after) - class(&before), CALLS, "proc {proc}");
            assert_eq!(
                after["reactor.reads"] - before["reactor.reads"],
                CALLS,
                "proc {proc}: {after:?}"
            );
            let wakeups = after["reactor.wakeups"] - before["reactor.wakeups"];
            assert!(
                wakeups <= CALLS + SLACK,
                "proc {proc}: {wakeups} wake-ups for {CALLS} calls"
            );
        }
        handle.shutdown();
    }

    #[test]
    fn unknown_proc_still_replies_through_worker() {
        let (handle, _closes) = start(ReactorConfig::default());
        let transport = TcpTransport::connect(handle.addr()).unwrap();
        let mut client = RpcClient::new(Box::new(transport), PROG, VERS);
        let err = client.call::<(), ()>(99, &()).unwrap_err();
        assert!(matches!(err, RpcError::Accepted(AcceptStat::ProcUnavail)));
        handle.shutdown();
    }

    #[test]
    fn shutdown_runs_close_hooks_for_live_conns() {
        let (handle, closes) = start(ReactorConfig::default());
        let addr = handle.addr();
        // Open connections, do one call each, keep them open.
        let mut clients = Vec::new();
        for _ in 0..5 {
            let transport = TcpTransport::connect(addr).unwrap();
            let mut client = RpcClient::new(Box::new(transport), PROG, VERS);
            client.call_null().unwrap();
            clients.push(client);
        }
        handle.shutdown();
        assert_eq!(
            closes.load(Ordering::SeqCst),
            5,
            "shutdown must finalize live connections"
        );
        drop(clients);
    }

    /// A procedure body that panics fails its call, which closes only its
    /// connection: after one panic inline on the reactor thread and one
    /// parked on the one worker shard, a fresh connection's `RPC_NULL` and
    /// a parked call on that shard are answered.
    #[test]
    fn a_panicking_body_closes_only_its_connection() {
        let classify: Classifier = Arc::new(|_, _, proc| match proc {
            5 => ProcClass::Done,
            _ => ProcClass::Parked,
        });
        let cfg = ReactorConfig {
            workers: 1,
            classify: Some(classify),
            ..ReactorConfig::default()
        };
        let handle = serve_tcp_reactor("127.0.0.1:0", cfg, |_| {
            let service = |proc: u32, args: &mut XdrDecoder<'_>, reply: &mut XdrEncoder| match proc
            {
                4 | 5 => panic!("procedure {proc} panics"),
                _ => service().dispatch(proc, args, reply),
            };
            let mut rpc = RpcServer::new();
            rpc.register(PROG, VERS, Arc::new(service));
            let (rpc, on_close) = (Arc::new(rpc), None);
            ConnHandler { rpc, on_close }
        })
        .unwrap();
        // A dead reactor thread or worker shows as a call that times out.
        let client = || {
            let transport = TcpTransport::connect(handle.addr()).unwrap();
            let mut client = RpcClient::new(Box::new(transport), PROG, VERS);
            client
                .set_call_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            client
        };
        for proc in [5, 4] {
            let answered = client().call::<_, u32>(proc, &(1u32, 2u32));
            assert!(
                answered.is_err(),
                "procedure {proc} was answered: {answered:?}"
            );
        }
        let mut fresh = client();
        fresh.call_null().unwrap();
        let echoed: Vec<u8> = fresh.call(1, &vec![3u8; 16]).unwrap();
        assert_eq!(echoed, [3u8; 16]);
        assert_eq!(counts(&handle)["reactor.parked_calls"], 3);
        handle.shutdown();
    }
}
