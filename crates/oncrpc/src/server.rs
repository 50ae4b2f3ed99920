//! RPC server: program registry, per-connection record loop, threaded TCP
//! listener, and an in-process dispatch entry point used by the simulated
//! environments.

use crate::error::{RpcError, RpcResult};
use crate::msg::{AcceptStat, MessageBody, ReplyBody, RpcMessage};
use crate::record::{read_record_into, write_record, DEFAULT_MAX_FRAGMENT, MAX_RECORD};
use crate::telemetry::Metrics;
use crate::RPC_VERSION;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use xdr::{Xdr, XdrDecoder, XdrEncoder};

/// A service implementation for one RPC program version.
///
/// Generated server skeletons implement this by decoding `args`, invoking the
/// user's service trait, and encoding results into `reply`. Returning
/// `Err(stat)` produces the corresponding accepted-but-failed reply —
/// except `Busy`, which is not a body's to return: shedding a call is the
/// admission hook's decision ([`RpcServer::set_admission`]), made before
/// the body runs.
pub trait Dispatch: Send + Sync {
    /// Handle procedure `proc`. Arguments are read from `args`; results are
    /// appended to `reply` only on success.
    fn dispatch(
        &self,
        proc: u32,
        args: &mut XdrDecoder<'_>,
        reply: &mut XdrEncoder,
    ) -> Result<(), AcceptStat>;
}

impl<F> Dispatch for F
where
    F: Fn(u32, &mut XdrDecoder<'_>, &mut XdrEncoder) -> Result<(), AcceptStat> + Send + Sync,
{
    fn dispatch(
        &self,
        proc: u32,
        args: &mut XdrDecoder<'_>,
        reply: &mut XdrEncoder,
    ) -> Result<(), AcceptStat> {
        self(proc, args, reply)
    }
}

/// Admission gate for token-tagged calls (see
/// [`RpcServer::set_token_gate`]). `admit` runs before the replay-cache
/// lookup; returning `false` refuses the call by closing its connection.
/// `complete` fires when an admitted call leaves the server — replied,
/// replayed, or failed — so implementations can track in-flight calls per
/// token: live migration drains a token's in-flight work between evicting
/// it and taking the final snapshot.
pub trait TokenGate: Send + Sync {
    /// May a call from `token` proceed?
    fn admit(&self, token: u64) -> bool;
    /// An admitted call from `token` has finished.
    fn complete(&self, token: u64);
}

/// Admission hook for calls about to execute (see
/// [`RpcServer::set_admission`]): given the procedure number and its
/// still-undecoded arguments, `Err(retry_after_ns)` sheds the call.
type Admission = dyn Fn(u32, &XdrDecoder<'_>) -> Result<(), u64> + Send + Sync;

/// Calls `complete` on every exit path of an admitted call.
struct GateGuard<'a>(Option<(&'a dyn TokenGate, u64)>);

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        if let Some((gate, token)) = self.0.take() {
            gate.complete(token);
        }
    }
}

/// Registry of (program, version) → service and the hooks every call
/// passes, all set up (`&mut self`) before the server is shared.
#[derive(Default)]
pub struct RpcServer {
    services: HashMap<(u32, u32), Arc<dyn Dispatch>>,
    /// Optional at-most-once duplicate-request cache. Only calls carrying a
    /// client token in their credential participate; `AUTH_NONE` traffic is
    /// untouched.
    replay: Option<Arc<crate::replay::ReplayCache>>,
    /// Optional per-call admission gate on the client token (live
    /// migration's eviction mechanism). `AUTH_NONE` traffic is untouched.
    token_gate: Option<Box<dyn TokenGate>>,
    /// Optional overload control in front of every procedure body.
    admission: Option<Box<Admission>>,
}

impl RpcServer {
    /// Create an empty server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable at-most-once semantics for token-tagged clients. The cache is
    /// shared (`Arc`) so several `RpcServer` instances — e.g. one per
    /// connection — can dedupe retransmissions that arrive on a *new*
    /// connection after a reset.
    pub fn set_replay_cache(&mut self, cache: Arc<crate::replay::ReplayCache>) {
        self.replay = Some(cache);
    }

    /// Install a per-call admission gate consulted with the client token of
    /// every token-tagged call, *before* the replay-cache lookup. When the
    /// gate returns `false` the call is not answered at all — its connection
    /// is torn down — so the client's retry logic reconnects and its
    /// retransmission (same xid) lands wherever it is pointed next. This is
    /// how live migration evicts a session from its source server.
    pub fn set_token_gate(&mut self, gate: impl TokenGate + 'static) {
        self.token_gate = Some(Box::new(gate));
    }

    /// Install an admission hook consulted for every call to a registered
    /// program after the replay-cache lookup (a retransmission of a call
    /// that already ran is replayed, not re-judged) and before the
    /// procedure body. `Err(retry_after_ns)` sheds the call: it never
    /// executes, its reply is `Busy` carrying the hint, and that reply is
    /// NOT stored in the replay cache — the client's retransmission has to
    /// re-attempt execution, not replay the rejection.
    pub fn set_admission(
        &mut self,
        admit: impl Fn(u32, &XdrDecoder<'_>) -> Result<(), u64> + Send + Sync + 'static,
    ) {
        self.admission = Some(Box::new(admit));
    }

    /// Register `service` for `prog`/`vers`, replacing any prior entry.
    pub fn register(&mut self, prog: u32, vers: u32, service: Arc<dyn Dispatch>) {
        self.services.insert((prog, vers), service);
    }

    /// Registered versions of `prog`, for `PROG_MISMATCH` replies.
    fn version_range(&self, prog: u32) -> Option<(u32, u32)> {
        let versions = self.services.keys().filter(|&&(p, _)| p == prog);
        let versions = versions.map(|&(_, v)| v);
        versions.clone().min().zip(versions.max())
    }

    /// Process one already-read request record, encoding the complete reply
    /// record into `reply_enc` (cleared first). This is the core of the
    /// server and also the entry point for the in-process
    /// (simulated-network) mode.
    ///
    /// The reply header is encoded optimistically as `Success` and the
    /// service appends results directly after it — no intermediate result
    /// buffer, no post-dispatch copy. If the service fails, the encoder is
    /// rolled back and the error header is encoded instead.
    pub fn handle_record_into(&self, record: &[u8], reply_enc: &mut XdrEncoder) -> RpcResult<()> {
        reply_enc.clear();
        let mut dec = XdrDecoder::new(record);
        let msg = RpcMessage::decode(&mut dec)?;
        let call = match msg.body {
            MessageBody::Call(c) => c,
            MessageBody::Reply(_) => return Err(RpcError::UnexpectedMessageType),
        };

        if call.rpcvers != RPC_VERSION {
            RpcMessage::reply(
                msg.xid,
                ReplyBody::Denied(crate::msg::RejectStat::RpcMismatch {
                    low: RPC_VERSION,
                    high: RPC_VERSION,
                }),
            )
            .encode(reply_enc);
            return Ok(());
        }

        let Some(service) = self.services.get(&(call.prog, call.vers)) else {
            let body = match self.version_range(call.prog) {
                Some((lo, hi)) => ReplyBody::prog_mismatch(lo, hi),
                None => ReplyBody::failure(AcceptStat::ProgUnavail),
            };
            RpcMessage::reply(msg.xid, body).encode(reply_enc);
            return Ok(());
        };

        let token = call.cred.as_client_token();

        // Admission gate: a refused token gets no reply — the connection
        // closes so the client's retransmission lands on a fresh connection
        // (for migration: at the session's new home). Admitted calls hold
        // the guard until the reply is encoded, so `complete` pairs with
        // every successful `admit` on all exit paths. A call without a
        // token never touches the gate.
        let mut gate_guard = GateGuard(None);
        if let (Some(gate), Some(t)) = (self.token_gate.as_deref(), token) {
            if !gate.admit(t) {
                return Err(RpcError::ConnectionClosed);
            }
            gate_guard.0 = Some((gate, t));
        }

        // At-most-once: a retransmission (same client token, same xid)
        // replays the reply that was already produced — the procedure body
        // never runs twice. A call without a token never touches the cache.
        let replay = self.replay.as_deref().zip(token);
        if let Some((cache, token)) = replay {
            if let Some(cached) = cache.lookup(token, msg.xid) {
                reply_enc.extend_raw(&cached);
                return Ok(());
            }
        }

        if let Some(admit) = self.admission.as_deref() {
            if let Err(retry_after_ns) = admit(call.proc, &dec) {
                // Shed: never executed, so never cached either.
                RpcMessage::reply(msg.xid, ReplyBody::busy(retry_after_ns)).encode(reply_enc);
                return Ok(());
            }
        }

        RpcMessage::reply(msg.xid, ReplyBody::success()).encode(reply_enc);
        if let Err(stat) = service.dispatch(call.proc, &mut dec, reply_enc) {
            // Roll back any partial results plus the optimistic header.
            reply_enc.truncate(0);
            RpcMessage::reply(msg.xid, ReplyBody::failure(stat)).encode(reply_enc);
        }
        // Cache the outcome — success *or* failure — so a retransmission
        // observes the identical reply.
        if let Some((cache, token)) = replay {
            cache.store(token, msg.xid, reply_enc.as_slice());
        }
        Ok(())
    }

    /// Serve one connection until the peer disconnects. The request record
    /// buffer and reply encoder are pooled per connection, so steady-state
    /// service does not allocate.
    pub fn serve_connection<T: Read + Write>(&self, conn: &mut T) -> RpcResult<()> {
        let mut record = Vec::with_capacity(4096);
        let mut reply_enc = XdrEncoder::with_capacity(4096);
        loop {
            if read_record_into(conn, &mut record, MAX_RECORD)?.is_none() {
                return Ok(());
            }
            self.handle_record_into(&record, &mut reply_enc)?;
            write_record(conn, reply_enc.as_slice(), DEFAULT_MAX_FRAGMENT)?;
        }
    }
}

/// Handle to a running TCP server; dropping it requests shutdown.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
    /// The serving reactor's counters; all zero behind the threaded loop.
    reactor: Arc<Metrics>,
}

impl ServerHandle {
    /// Assemble a handle from its parts (used by the threaded accept loop
    /// here and by the [`crate::reactor`] event loop).
    pub(crate) fn from_parts(
        addr: std::net::SocketAddr,
        stop: Arc<AtomicBool>,
        join: std::thread::JoinHandle<()>,
        reactor: Arc<Metrics>,
    ) -> Self {
        Self {
            addr,
            stop,
            join: Some(join),
            reactor,
        }
    }

    /// What this server's reactor has counted since it started serving
    /// (`reactor.*`): its own calls, stalls, buffers and writer kills,
    /// nobody else's.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.reactor
    }

    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Request shutdown and wait for the accept loop to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the listener so the accept loop observes the flag.
        let _ = std::net::TcpStream::connect(self.addr);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.join.is_some() {
            self.stop_and_join();
        }
    }
}

/// Bind a TCP listener and run `handler` on a dedicated thread for every
/// accepted connection. This is the generic accept loop behind
/// [`serve_tcp`]; servers that need per-connection state (session ids,
/// cleanup when a client vanishes) pass their own handler.
pub fn serve_tcp_with<A, F>(addr: A, handler: F) -> RpcResult<ServerHandle>
where
    A: ToSocketAddrs,
    F: Fn(crate::transport::TcpTransport) + Send + Sync + 'static,
{
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handler = Arc::new(handler);
    let join = std::thread::Builder::new()
        .name("oncrpc-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let handler = Arc::clone(&handler);
                let _ = std::thread::Builder::new()
                    .name("oncrpc-conn".into())
                    .spawn(move || {
                        if let Ok(t) = crate::transport::TcpTransport::from_stream(stream) {
                            handler(t);
                        }
                    });
            }
        })?;
    let reactor = Arc::new(Metrics::new(crate::reactor::METRICS));
    Ok(ServerHandle::from_parts(local, stop, join, reactor))
}

/// Bind a TCP listener and serve `server` on background threads
/// (one thread per connection, as libtirpc-based Cricket does).
pub fn serve_tcp<A: ToSocketAddrs>(server: Arc<RpcServer>, addr: A) -> RpcResult<ServerHandle> {
    serve_tcp_with(addr, move |mut t| {
        let _ = server.serve_connection(&mut t);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RpcClient;
    use crate::msg::RejectStat;
    use crate::transport::{duplex_pair, TcpTransport};

    impl RpcServer {
        /// [`RpcServer::handle_record_into`] with a fresh encoder: the
        /// bytes of the complete reply record.
        fn handle_record(&self, record: &[u8]) -> RpcResult<Vec<u8>> {
            let mut reply_enc = XdrEncoder::with_capacity(64);
            self.handle_record_into(record, &mut reply_enc)?;
            Ok(reply_enc.into_inner())
        }
    }

    /// Echo service: proc 0 = null, proc 1 = echo opaque, proc 2 = add two u32.
    fn echo_service() -> Arc<dyn Dispatch> {
        Arc::new(
            |proc: u32, args: &mut XdrDecoder<'_>, reply: &mut XdrEncoder| match proc {
                0 => Ok(()),
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
            },
        )
    }

    fn spawn_pair(server: Arc<RpcServer>) -> RpcClient {
        let (client_end, server_end) = duplex_pair();
        std::thread::spawn(move || {
            let mut conn = server_end;
            let _ = server.serve_connection(&mut conn);
        });
        RpcClient::new(Box::new(client_end), 400, 1)
    }

    fn test_server() -> Arc<RpcServer> {
        let mut s = RpcServer::new();
        s.register(400, 1, echo_service());
        Arc::new(s)
    }

    #[test]
    fn null_call() {
        let mut client = spawn_pair(test_server());
        client.call_null().unwrap();
        assert_eq!(client.stats().calls, 1);
    }

    #[test]
    fn echo_and_add() {
        let mut client = spawn_pair(test_server());
        let out: Vec<u8> = client.call(1, &vec![9u8, 8, 7]).unwrap();
        assert_eq!(out, vec![9, 8, 7]);
        let sum: u32 = client.call(2, &(40u32, 2u32)).unwrap();
        assert_eq!(sum, 42);
    }

    #[test]
    fn large_echo_exercises_fragmentation() {
        let mut client = spawn_pair(test_server());
        client.set_max_fragment(4096);
        let big: Vec<u8> = (0..1_000_000u32).map(|i| (i % 255) as u8).collect();
        let out: Vec<u8> = client.call(1, &big).unwrap();
        assert_eq!(out, big);
    }

    #[test]
    fn unknown_proc_reports_proc_unavail() {
        let mut client = spawn_pair(test_server());
        let err = client.call::<(), ()>(99, &()).unwrap_err();
        assert!(matches!(err, RpcError::Accepted(AcceptStat::ProcUnavail)));
    }

    #[test]
    fn unknown_program_reports_prog_unavail() {
        let server = Arc::new(RpcServer::new());
        let mut client = spawn_pair(server);
        let err = client.call::<(), ()>(0, &()).unwrap_err();
        assert!(matches!(err, RpcError::Accepted(AcceptStat::ProgUnavail)));
    }

    #[test]
    fn wrong_version_reports_mismatch() {
        let server = test_server();
        let (client_end, server_end) = duplex_pair();
        let s2 = Arc::clone(&server);
        std::thread::spawn(move || {
            let mut conn = server_end;
            let _ = s2.serve_connection(&mut conn);
        });
        let mut client = RpcClient::new(Box::new(client_end), 400, 7);
        let err = client.call::<(), ()>(0, &()).unwrap_err();
        match err {
            RpcError::Accepted(AcceptStat::ProgMismatch) => {}
            other => panic!("expected ProgMismatch, got {other:?}"),
        }
    }

    #[test]
    fn bad_rpc_version_denied() {
        let server = test_server();
        // Hand-roll a call with rpcvers=3.
        let mut enc = XdrEncoder::new();
        let mut call = crate::msg::CallBody::new(400, 1, 0);
        call.rpcvers = 3;
        RpcMessage::call(5, call).encode(&mut enc);
        let reply = server.handle_record(enc.as_slice()).unwrap();
        let msg: RpcMessage = xdr::decode(&reply).unwrap();
        match msg.body {
            MessageBody::Reply(ReplyBody::Denied(RejectStat::RpcMismatch { low: 2, high: 2 })) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn garbage_args_status() {
        let mut client = spawn_pair(test_server());
        // proc 2 wants two u32s; send nothing.
        let err = client.call::<(), u32>(2, &()).unwrap_err();
        assert!(matches!(err, RpcError::Accepted(AcceptStat::GarbageArgs)));
    }

    #[test]
    fn tcp_end_to_end_with_concurrent_clients() {
        let server = test_server();
        let handle = serve_tcp(server, "127.0.0.1:0").unwrap();
        let addr = handle.addr();
        let mut joins = Vec::new();
        for t in 0..8 {
            joins.push(std::thread::spawn(move || {
                let transport = TcpTransport::connect(addr).unwrap();
                let mut client = RpcClient::new(Box::new(transport), 400, 1);
                for i in 0..50u32 {
                    let sum: u32 = client.call(2, &(i, t as u32)).unwrap();
                    assert_eq!(sum, i + t as u32);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        handle.shutdown();
    }

    #[test]
    fn token_gate_refuses_by_closing_the_connection() {
        struct Refuse(u64);
        impl TokenGate for Refuse {
            fn admit(&self, token: u64) -> bool {
                token != self.0
            }
            fn complete(&self, _token: u64) {}
        }
        let mut server = RpcServer::new();
        server.register(400, 1, echo_service());
        server.set_token_gate(Refuse(0xBAD));

        // An admitted token is served normally.
        let mut enc = XdrEncoder::new();
        let mut call = crate::msg::CallBody::new(400, 1, 2);
        call.cred = crate::OpaqueAuth::client_token(0x600D);
        RpcMessage::call(1, call).encode(&mut enc);
        (3u32, 4u32).encode(&mut enc);
        assert!(server.handle_record(enc.as_slice()).is_ok());

        // A refused token produces a connection-fatal error, not a reply.
        let mut enc = XdrEncoder::new();
        let mut call = crate::msg::CallBody::new(400, 1, 2);
        call.cred = crate::OpaqueAuth::client_token(0xBAD);
        RpcMessage::call(2, call).encode(&mut enc);
        (3u32, 4u32).encode(&mut enc);
        assert!(matches!(
            server.handle_record(enc.as_slice()),
            Err(RpcError::ConnectionClosed)
        ));

        // Untagged (AUTH_NONE) traffic is not consulted at all.
        let mut enc = XdrEncoder::new();
        RpcMessage::call(3, crate::msg::CallBody::new(400, 1, 0)).encode(&mut enc);
        assert!(server.handle_record(enc.as_slice()).is_ok());
    }

    /// A shed call is answered `Busy` with the admission hook's hint, never
    /// executed and never cached; the hint travels in the hook's return
    /// value, so it is the shedding connection's alone — also when one
    /// worker thread serves two connections and only one is over quota.
    #[test]
    fn busy_reply_is_never_stored_in_the_replay_cache() {
        use std::sync::atomic::AtomicU32;
        let executions = Arc::new(AtomicU32::new(0));
        // One connection's server: sheds with `hint` while `over_quota`.
        let connection = |hint: u64, over_quota: Arc<AtomicBool>| {
            let mut server = RpcServer::new();
            let execs = Arc::clone(&executions);
            server.register(
                400,
                1,
                Arc::new(
                    move |_proc: u32, _args: &mut XdrDecoder<'_>, reply: &mut XdrEncoder| {
                        execs.fetch_add(1, Ordering::SeqCst);
                        reply.put_u32(77);
                        Ok(())
                    },
                ),
            );
            server.set_admission(move |_proc, _args| {
                if over_quota.load(Ordering::SeqCst) {
                    Err(hint)
                } else {
                    Ok(())
                }
            });
            server.set_replay_cache(Arc::new(crate::replay::ReplayCache::new(16)));
            Arc::new(server)
        };
        let over_quota = Arc::new(AtomicBool::new(true));
        let server = connection(123_456, Arc::clone(&over_quota));

        let call_record = |xid: u32| {
            let mut enc = XdrEncoder::new();
            let mut call = crate::msg::CallBody::new(400, 1, 1);
            call.cred = crate::OpaqueAuth::client_token(0xFEED);
            RpcMessage::call(xid, call).encode(&mut enc);
            enc.into_inner()
        };

        // Attempt 1: shed, with the hint the hook returned.
        let reply = server.handle_record(&call_record(9)).unwrap();
        let msg: RpcMessage = xdr::decode(&reply).unwrap();
        let MessageBody::Reply(body) = msg.body else {
            panic!("expected reply")
        };
        assert_eq!(body, ReplyBody::busy(123_456));
        assert_eq!(executions.load(Ordering::SeqCst), 0, "shed, not executed");

        // Retransmission (same token, same xid) once back under quota:
        // must EXECUTE, not replay the rejection — the busy reply was
        // never cached.
        over_quota.store(false, Ordering::SeqCst);
        let reply = server.handle_record(&call_record(9)).unwrap();
        // The success reply carries a result payload after the header, so
        // decode the header only.
        let mut dec = XdrDecoder::new(&reply);
        let msg = RpcMessage::decode(&mut dec).unwrap();
        let MessageBody::Reply(body) = msg.body else {
            panic!("expected reply")
        };
        assert!(matches!(
            body,
            ReplyBody::Accepted {
                stat: AcceptStat::Success,
                ..
            }
        ));
        assert_eq!(dec.get_u32().unwrap(), 77);
        assert_eq!(executions.load(Ordering::SeqCst), 1);

        // Third retransmission, over quota again: the *success* was cached
        // and a replay is not re-judged, so the body does not run again.
        over_quota.store(true, Ordering::SeqCst);
        let reply2 = server.handle_record(&call_record(9)).unwrap();
        assert_eq!(reply2, reply);
        assert_eq!(executions.load(Ordering::SeqCst), 1);

        // Two connections on ONE worker thread, the first over quota, the
        // second not: every shed reaches its own client with its own hint
        // and the neighbour's calls run, however the two interleave.
        let conns = [server, connection(999, Arc::default())];
        let cfg = crate::ReactorConfig {
            workers: 1,
            ..Default::default()
        };
        let handle = crate::serve_tcp_reactor("127.0.0.1:0", cfg, move |conn| crate::ConnHandler {
            rpc: Arc::clone(&conns[(conn as usize - 1) % 2]),
            on_close: None,
        })
        .unwrap();
        let connect = || {
            let t = TcpTransport::connect(handle.addr()).unwrap();
            RpcClient::new(Box::new(t), 400, 1)
        };
        let (mut shed, mut served) = (connect(), connect());
        for _ in 0..16 {
            let err = shed.call::<(), u32>(1, &()).unwrap_err();
            assert!(
                matches!(
                    err,
                    RpcError::Busy {
                        retry_after_ns: 123_456
                    }
                ),
                "{err:?}"
            );
            assert_eq!(served.call::<(), u32>(1, &()).unwrap(), 77);
        }
        assert_eq!(executions.load(Ordering::SeqCst), 1 + 16);
        let parked = handle
            .metrics()
            .iter()
            .find(|&(n, _)| n == "reactor.parked_calls");
        assert_eq!(parked, Some(("reactor.parked_calls", 32)));
        handle.shutdown();
    }

    #[test]
    fn stats_track_bytes() {
        let mut client = spawn_pair(test_server());
        let payload = vec![1u8; 100];
        let _: Vec<u8> = client.call(1, &payload).unwrap();
        let stats = client.stats();
        assert_eq!(stats.calls, 1);
        assert!(stats.bytes_sent as usize >= 100);
        assert!(stats.bytes_received as usize >= 100);
    }
}
