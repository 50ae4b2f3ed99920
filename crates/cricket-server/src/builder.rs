//! The single server entry point: [`ServerBuilder`].
//!
//! Every way of standing up a Cricket server — serial, pipelined, bounded
//! pool, completion-driven reactor, with or without fleet-directory
//! registration — goes through one builder:
//!
//! ```no_run
//! use cricket_server::{ServerBuilder, ServeMode};
//!
//! let handle = ServerBuilder::new("127.0.0.1:0")
//!     .mode(ServeMode::Reactor { workers: 2 })
//!     .serve()
//!     .unwrap();
//! println!("serving on {}", handle.addr());
//! handle.shutdown();
//! ```
//!
//! With `.directory(dir_addr, prog, vers)` the server registers itself as a
//! *shard* in an [`oncrpc::Portmap`] directory on start, heartbeats a fresh
//! [`oncrpc::LoadReport`] on an interval, and deregisters on
//! [`ServeHandle::shutdown`]. [`ServeHandle::kill`] skips deregistration —
//! that simulates a crashed shard whose stale directory entry clients must
//! fail over around.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use oncrpc::portmap::client::PortmapClient;
use oncrpc::{ReplayCache, RpcError, RpcResult, TcpTransport};
use simnet::clock::SimClock;

use crate::scheduler::SchedulerPolicy;
use crate::service::{CricketServer, ServerConfig};
use crate::{cricket_classifier, session_rpc, ServeMode};

/// Where (and as what) a server registers itself in a fleet directory.
#[derive(Debug, Clone)]
pub struct DirectoryRegistration {
    /// The directory service's TCP address (an [`oncrpc::Portmap`] serving
    /// the shard procedures).
    pub dir_addr: SocketAddr,
    /// RPC program number the shard serves (normally
    /// `cricket_proto::CRICKET_CUDA`).
    pub prog: u32,
    /// RPC program version (normally `cricket_proto::CRICKET_V1`).
    pub vers: u32,
    /// Interval between load-report heartbeats.
    pub heartbeat: Duration,
}

/// Builder for every Cricket server deployment shape. See the [module
/// docs](self) for an example.
pub struct ServerBuilder {
    addrs: std::io::Result<Vec<SocketAddr>>,
    server: Option<Arc<CricketServer>>,
    config: ServerConfig,
    mode: ServeMode,
    reactor: Option<oncrpc::ReactorConfig>,
    policy: Option<SchedulerPolicy>,
    directory: Option<DirectoryRegistration>,
}

impl ServerBuilder {
    /// Start a builder listening on `addr` (resolved eagerly; resolution
    /// errors surface from [`Self::serve`]). Defaults: a fresh
    /// [`CricketServer`] from [`ServerConfig::default`], pipelined serving,
    /// FIFO scheduling, no directory registration.
    pub fn new<A: std::net::ToSocketAddrs>(addr: A) -> Self {
        Self {
            addrs: addr.to_socket_addrs().map(|it| it.collect()),
            server: None,
            config: ServerConfig::default(),
            mode: ServeMode::Pipelined,
            reactor: None,
            policy: None,
            directory: None,
        }
    }

    /// Serve an existing [`CricketServer`] instead of building a fresh one
    /// (ignores [`Self::config`]).
    pub fn server(mut self, server: Arc<CricketServer>) -> Self {
        self.server = Some(server);
        self
    }

    /// Device configuration for the server this builder creates.
    pub fn config(mut self, config: ServerConfig) -> Self {
        self.config = config;
        self
    }

    /// How connections are multiplexed onto threads.
    pub fn mode(mut self, mode: ServeMode) -> Self {
        self.mode = mode;
        self
    }

    /// Reactor tuning for [`ServeMode::Reactor`] (worker count still comes
    /// from the mode; a `classify` of `None` gets the Cricket classifier).
    pub fn reactor_config(mut self, cfg: oncrpc::ReactorConfig) -> Self {
        self.reactor = Some(cfg);
        self
    }

    /// GPU-sharing scheduler policy.
    pub fn scheduler(mut self, policy: SchedulerPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// QoS / overload-control configuration (session watermark, admission
    /// retry hint). Applies to the server this builder creates; ignored
    /// when [`Self::server`] supplies an existing one.
    pub fn qos(mut self, qos: crate::service::QosServerConfig) -> Self {
        self.config.qos = qos;
        self
    }

    /// Register this server as a shard of `(prog, vers)` in the directory
    /// at `dir_addr`, with a 250 ms load-report heartbeat (tune via
    /// [`Self::heartbeat`]). Resolution errors surface from [`Self::serve`]
    /// as an unregistered server would silently never receive fleet
    /// traffic.
    pub fn directory<A: std::net::ToSocketAddrs>(
        mut self,
        dir_addr: A,
        prog: u32,
        vers: u32,
    ) -> Self {
        match dir_addr.to_socket_addrs().map(|mut it| it.next()) {
            Ok(Some(dir_addr)) => {
                self.directory = Some(DirectoryRegistration {
                    dir_addr,
                    prog,
                    vers,
                    heartbeat: Duration::from_millis(250),
                });
            }
            Ok(None) => {
                self.addrs = Err(std::io::Error::new(
                    std::io::ErrorKind::AddrNotAvailable,
                    "directory address resolved to nothing",
                ));
            }
            Err(e) => self.addrs = Err(e),
        }
        self
    }

    /// Heartbeat interval for directory load reports (no-op without
    /// [`Self::directory`]).
    pub fn heartbeat(mut self, interval: Duration) -> Self {
        if let Some(dir) = self.directory.as_mut() {
            dir.heartbeat = interval;
        }
        self
    }

    /// Bind, start serving, register with the directory (if configured),
    /// and return the running server's handle.
    pub fn serve(self) -> RpcResult<ServeHandle> {
        let addrs = self.addrs.map_err(RpcError::Io)?;
        let server = self
            .server
            .unwrap_or_else(|| CricketServer::new(self.config, SimClock::new()));
        if let Some(policy) = self.policy {
            server.scheduler.set_policy(policy);
        }
        let (inner, replay) =
            serve_sessions(Arc::clone(&server), &addrs[..], self.mode, self.reactor)?;
        let registration = match self.directory {
            Some(dir) => Some(Registration::start(&server, inner.addr(), dir)?),
            None => None,
        };
        Ok(ServeHandle {
            inner,
            replay,
            server,
            registration: std::sync::Mutex::new(registration),
        })
    }
}

/// A running heartbeat loop plus the identity needed to deregister.
struct Registration {
    dir: DirectoryRegistration,
    port: u32,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Registration {
    /// Register `(prog, vers, port)` with an initial load report, then spawn
    /// the heartbeat thread. Registration failure fails `serve` — a shard
    /// the directory never saw would never receive fleet traffic.
    fn start(
        server: &Arc<CricketServer>,
        addr: SocketAddr,
        dir: DirectoryRegistration,
    ) -> RpcResult<Self> {
        let port = u32::from(addr.port());
        let mut client = dir_client(dir.dir_addr)?;
        client.shard_set(dir.prog, dir.vers, port, server.load_report())?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let server = Arc::clone(server);
            let stop = Arc::clone(&stop);
            let dir = dir.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::park_timeout(dir.heartbeat);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    // Re-resolve the client each beat: the directory may have
                    // restarted, and a beat is cheap at this cadence.
                    let Ok(mut client) = dir_client(dir.dir_addr) else {
                        continue;
                    };
                    let _ = client.shard_set(dir.prog, dir.vers, port, server.load_report());
                }
            })
        };
        Ok(Self {
            dir,
            port,
            stop,
            thread: Some(thread),
        })
    }

    /// Stop heartbeating; deregister from the directory iff `deregister`.
    fn finish(mut self, deregister: bool) {
        self.stop_heartbeat();
        if deregister {
            if let Ok(mut client) = dir_client(self.dir.dir_addr) {
                let _ = client.shard_unset(self.dir.prog, self.dir.vers, self.port);
            }
        }
    }

    fn stop_heartbeat(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        // A `ServeHandle` dropped without `shutdown`/`kill` must not leak
        // the heartbeat thread. No deregistration here: drop-without-
        // shutdown is the crash path.
        self.stop_heartbeat();
    }
}

fn dir_client(addr: SocketAddr) -> RpcResult<PortmapClient> {
    let t = TcpTransport::connect(addr)?;
    Ok(PortmapClient::new(Box::new(t)))
}

/// A running Cricket server started by [`ServerBuilder::serve`].
pub struct ServeHandle {
    inner: oncrpc::ServerHandle,
    replay: Arc<ReplayCache>,
    server: Arc<CricketServer>,
    registration: std::sync::Mutex<Option<Registration>>,
}

impl ServeHandle {
    /// The bound listening address.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }

    /// The server's shared state (scheduler, devices, clock, stats).
    pub fn server(&self) -> &Arc<CricketServer> {
        &self.server
    }

    /// The shared at-most-once replay cache.
    pub fn replay(&self) -> &Arc<ReplayCache> {
        &self.replay
    }

    /// Graceful stop: deregister from the directory (if registered), stop
    /// the heartbeat, close the listener.
    pub fn shutdown(self) {
        self.stop(true);
    }

    /// Crash stop: close the listener *without* deregistering, leaving a
    /// stale shard entry in the directory. Clients resolving through the
    /// directory must detect the dead listener and fail over to the
    /// next-best shard.
    pub fn kill(self) {
        self.stop(false);
    }

    fn stop(self, deregister: bool) {
        let reg = self
            .registration
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(reg) = reg {
            reg.finish(deregister);
        }
        self.inner.shutdown();
    }
}

/// The mode dispatch behind [`ServerBuilder::serve`]. All modes share the same session semantics —
/// one `SessionId` per accepted connection, one shared replay cache,
/// [`CricketServer::release_session`] exactly once when the connection ends —
/// and differ only in how connections map onto threads.
pub(crate) fn serve_sessions<A: std::net::ToSocketAddrs>(
    server: Arc<CricketServer>,
    addr: A,
    mode: ServeMode,
    reactor: Option<oncrpc::ReactorConfig>,
) -> RpcResult<(oncrpc::ServerHandle, Arc<ReplayCache>)> {
    let replay = Arc::new(ReplayCache::default());
    server.attach_replay(&replay);
    let shared = Arc::clone(&replay);
    let handle = match mode {
        ServeMode::Reactor { workers } => {
            let mut cfg = reactor.unwrap_or_default();
            cfg.workers = workers.max(1);
            if cfg.classify.is_none() {
                cfg.classify = Some(cricket_classifier());
            }
            let next_session = AtomicU32::new(1);
            oncrpc::serve_tcp_reactor(addr, cfg, move |_conn| {
                let session = next_session.fetch_add(1, Ordering::Relaxed);
                let rpc = Arc::new(session_rpc(&server, &shared, session));
                let server = Arc::clone(&server);
                oncrpc::ConnHandler {
                    rpc,
                    // Runs after the session's last in-flight call completed
                    // and its last reply hit the completion ring. Replay
                    // entries are deliberately kept — a reconnecting client
                    // may still retransmit calls from the dead connection.
                    on_close: Some(Box::new(move || {
                        server.release_session(session);
                    })),
                }
            })?
        }
        ServeMode::PipelinedBounded { max_conns } => {
            // Fixed serving pool: accepted connections queue; `max_conns`
            // threads each serve one connection to completion at a time.
            let (conn_tx, conn_rx) = crossbeam_channel::unbounded::<oncrpc::TcpTransport>();
            let conn_rx = Arc::new(std::sync::Mutex::new(conn_rx));
            let next_session = Arc::new(AtomicU32::new(1));
            for _ in 0..max_conns.max(1) {
                let conn_rx = Arc::clone(&conn_rx);
                let server = Arc::clone(&server);
                let shared = Arc::clone(&shared);
                let next_session = Arc::clone(&next_session);
                std::thread::spawn(move || loop {
                    let queued = {
                        let rx = conn_rx.lock().unwrap_or_else(|e| e.into_inner());
                        rx.recv()
                    };
                    let Ok(mut conn) = queued else { break };
                    let session = next_session.fetch_add(1, Ordering::Relaxed);
                    let rpc = session_rpc(&server, &shared, session);
                    match conn.try_clone() {
                        Ok(writer) => {
                            let _ = rpc.serve_pipelined(&mut conn, writer);
                        }
                        Err(_) => {
                            let _ = rpc.serve_connection(&mut conn);
                        }
                    }
                    server.release_session(session);
                });
            }
            oncrpc::server::serve_tcp_with(addr, move |conn| {
                let _ = conn_tx.send(conn);
            })?
        }
        ServeMode::Serial | ServeMode::Pipelined => {
            let next_session = AtomicU32::new(1);
            oncrpc::server::serve_tcp_with(addr, move |mut conn| {
                let session = next_session.fetch_add(1, Ordering::Relaxed);
                let rpc = session_rpc(&server, &shared, session);
                let writer = match mode {
                    ServeMode::Pipelined => conn.try_clone().ok(),
                    _ => None,
                };
                match writer {
                    Some(writer) => {
                        let _ = rpc.serve_pipelined(&mut conn, writer);
                    }
                    None => {
                        let _ = rpc.serve_connection(&mut conn);
                    }
                }
                // The client is gone (or reset): reclaim everything it
                // still holds. Replay-cache entries are deliberately kept —
                // a reconnecting client may still retransmit calls it sent
                // on the dead connection.
                server.release_session(session);
            })?
        }
    };
    Ok((handle, replay))
}
