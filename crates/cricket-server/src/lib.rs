//! The Cricket server.
//!
//! "The Cricket server executes the CUDA APIs and forwards the results back
//! to the application" (paper §3.3). This crate implements that server for
//! the simulated GPU:
//!
//! * [`service`] — the generated [`cricket_proto::CricketV1Service`] trait
//!   implemented over [`vgpu::Device`], one body per procedure, each
//!   charged the host cost `cricket.x` declares for it on the shared
//!   virtual clock. Its siblings hold the [`CricketServer`] code by
//!   concern: `server` (state, tables, configuration), `prologue` (the
//!   call prologue, routing, QoS admission and the migration token gate),
//!   `batch` (the batchable ops' one body and `CRICKET_BATCH_EXEC`) and
//!   `state` (session-state export, apply and reclaim);
//! * `scheduler` — configurable GPU-sharing policies (FIFO, round-robin,
//!   priority, weighted fair queuing) arbitrating concurrent client
//!   sessions, the paper's "managing the shared access through
//!   configurable schedulers";
//! * [`migrate`] — the one session-state wire format, declared in
//!   `cricket.x`: a session's memory, modules, functions, streams, events
//!   and library handles as XDR blobs restored at their exact handle
//!   values. At rest they are the paper's Checkpoint/Restart support, in
//!   flight they are live migration;
//! * `transport` — the simulated client↔server paths: an in-process
//!   transport that carries real RPC bytes through the functional guest TCP
//!   stack and charges network time from the environment's cost model.
//!
//! [`ServerBuilder`] serves the protocol over real TCP; the `cricket-server`
//! binary is a thin command line over it.

mod batch;
mod builder;
pub mod migrate;
mod prologue;
mod scheduler;
mod server;
pub mod service;
mod state;
mod stats;
mod transport;

pub use builder::{ServeHandle, ServerBuilder};
pub use cricket_proto::MigKind;
use scheduler::SessionId;
pub use scheduler::{QosSpec, SchedulerPolicy};
pub use server::{CricketServer, QosServerConfig, ServerConfig, SessionCleanup};
pub use state::MAX_MODULE_BYTES;
pub use transport::SimTransport;

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// Register a [`CricketServer`] on an [`oncrpc::RpcServer`] as session 0
/// (the in-process simulated environments, which have no connections).
pub fn make_rpc_server(server: Arc<CricketServer>) -> Arc<oncrpc::RpcServer> {
    Arc::new(make_session_rpc(server, 0))
}

/// Build an `RpcServer` bound to one session of `server`, with the
/// server's at-most-once replay cache (the one its statistics report) and
/// QoS admission installed: every call passes `CricketServer::qos_admit`
/// before its procedure body runs, and a shed call is answered
/// `CRICKET_BUSY` with the retry-after hint `qos_admit` returned — never
/// executed, never replay-cached. Public so in-process harnesses (benches,
/// examples) serve per-session views through the same admission path as
/// real connections.
pub fn make_session_rpc(server: Arc<CricketServer>, session: SessionId) -> oncrpc::RpcServer {
    view_rpc(server, session).0
}

/// One connection's view of a server, as its RPC dispatcher sees it.
type View = cricket_proto::CricketV1Dispatch<service::Sessioned>;

/// [`make_session_rpc`], and the view it serves.
fn view_rpc(server: Arc<CricketServer>, session: SessionId) -> (oncrpc::RpcServer, Arc<View>) {
    let mut rpc = oncrpc::RpcServer::new();
    rpc.set_replay_cache(Arc::clone(&server.replay));
    let sessioned = service::Sessioned::new(Arc::clone(&server), session);
    let view = Arc::new(cricket_proto::CricketV1Dispatch(sessioned));
    let (prog, vers) = (cricket_proto::CRICKET_CUDA, cricket_proto::CRICKET_V1);
    rpc.register(prog, vers, Arc::clone(&view) as Arc<dyn oncrpc::Dispatch>);
    let admitted = Arc::clone(&view);
    rpc.set_admission(move |proc, args| {
        // Peek the CUDA_MALLOC size (without consuming the argument stream)
        // so the resident-bytes quota can refuse before allocating.
        let malloc_size = if proc == cricket_proto::cricket_v1::CUDA_MALLOC {
            args.clone().get_u64().ok()
        } else {
            None
        };
        server.qos_admit(admitted.0.session(), proc, malloc_size)
    });
    (rpc, view)
}

/// How [`ServerBuilder::serve`] maps TCP connections onto OS threads. Both
/// modes give every accepted connection its own session until a
/// token-tagged call binds it to the token's, share one replay cache, and
/// release a session once when the last connection acting in it ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// One thread per connection running the blocking request/reply loop
    /// ([`oncrpc::RpcServer::serve_connection`]). Not a production path:
    /// it is the reference the reactor's byte-identical equivalence tests
    /// and the connscale bench compare against.
    Serial,
    /// The completion-driven reactor ([`oncrpc::serve_tcp_reactor`]):
    /// every connection multiplexed over one poller thread, which also
    /// flushes reply backlogs, and `workers` execution shards. The default.
    Reactor {
        /// Worker shards executing `Parked` procedures.
        workers: usize,
    },
}

/// Classify a Cricket procedure for the reactor's inline fast path: `Done`
/// (safe to execute on the reactor thread) for exactly the procedures
/// `cricket.x` declares `inline` — the attribute's contract is stated
/// there — and `Parked` on a worker shard for everything else.
pub(crate) fn proc_class(proc: u32) -> oncrpc::ProcClass {
    if cricket_proto::cricket_v1::is_inline(proc) {
        oncrpc::ProcClass::Done
    } else {
        oncrpc::ProcClass::Parked
    }
}

/// The `proc_class` table as the TCP reactor's [`oncrpc::Classifier`]
/// (only the reactor classifies): foreign programs/versions are parked so
/// the full dispatcher produces the proper error reply off its thread.
pub fn cricket_classifier() -> oncrpc::Classifier {
    Arc::new(|prog, vers, proc| {
        if prog == cricket_proto::CRICKET_CUDA && vers == cricket_proto::CRICKET_V1 {
            proc_class(proc)
        } else {
            oncrpc::ProcClass::Parked
        }
    })
}

/// Serve one TCP connection: [`make_session_rpc`] plus the token gate, and
/// on close the release of its own session and of the one a token bound it
/// to (which waits for that session's last connection).
pub(crate) fn session_rpc(server: &Arc<CricketServer>, session: SessionId) -> oncrpc::ConnHandler {
    // The gate binds the connection to its token's session and admits or
    // refuses each token-tagged call before replay lookup (migration's
    // eviction and adoption); completions are reported so eviction can
    // drain in-flight work before the final snapshot.
    struct SessionGate(Arc<View>);
    impl oncrpc::server::TokenGate for SessionGate {
        fn admit(&self, token: u64) -> bool {
            let view = &self.0 .0;
            let admitted = view.srv.observe_token(token, view.session());
            if let Some(bound) = view.srv.session_of_token(token).filter(|_| admitted) {
                view.session.store(bound, Relaxed);
            }
            admitted
        }
        fn complete(&self, token: u64) {
            self.0 .0.srv.call_complete(token);
        }
    }
    let (mut rpc, view) = view_rpc(Arc::clone(server), session);
    rpc.set_token_gate(SessionGate(Arc::clone(&view)));
    let close = move || {
        let (srv, bound) = (&view.0.srv, view.0.session());
        if bound != session {
            srv.release_session(session);
        }
        srv.release_session(bound);
    };
    let (rpc, on_close) = (Arc::new(rpc), Some(Box::new(close) as Box<_>));
    oncrpc::ConnHandler { rpc, on_close }
}
