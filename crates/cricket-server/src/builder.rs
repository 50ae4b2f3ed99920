//! The single server entry point: [`ServerBuilder`].

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use oncrpc::{PmapVersClient, ReplayCache, RpcError, RpcResult, TcpTransport};
use simnet::clock::SimClock;

use crate::scheduler::SchedulerPolicy;
use crate::{cricket_classifier, session_rpc, ServeMode};
use crate::{CricketServer, ServerConfig};

/// Where (and as what) a server registers itself in a fleet directory.
#[derive(Debug, Clone)]
pub(crate) struct DirectoryRegistration {
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

/// Builder for every Cricket server deployment shape: the single server
/// entry point.
///
/// Every TCP deployment of a Cricket server — the `cricket-server` binary,
/// a fleet shard registered in a directory, a test — goes through one
/// builder, and is served by the completion-driven reactor:
///
/// ```no_run
/// use cricket_server::ServerBuilder;
///
/// let handle = ServerBuilder::new("127.0.0.1:0").serve().unwrap();
/// println!("serving on {}", handle.addr());
/// handle.shutdown();
/// ```
///
/// With `.directory(dir_addr, prog, vers)` the server registers itself as a
/// *shard* in an [`oncrpc::Portmap`] directory on start, heartbeats a fresh
/// [`oncrpc::LoadReport`] on an interval, and deregisters on
/// [`ServeHandle::shutdown`]. [`ServeHandle::kill`] skips deregistration —
/// that simulates a crashed shard whose stale directory entry clients must
/// fail over around.
pub struct ServerBuilder {
    addrs: std::io::Result<Vec<SocketAddr>>,
    server: Option<Arc<CricketServer>>,
    config: ServerConfig,
    mode: ServeMode,
    policy: Option<SchedulerPolicy>,
    directory: Option<DirectoryRegistration>,
}

impl ServerBuilder {
    /// Start a builder listening on `addr` (resolved eagerly; resolution
    /// errors surface from [`Self::serve`]). Defaults: a fresh
    /// [`CricketServer`] from [`ServerConfig::default`], reactor serving
    /// with two worker shards, FIFO scheduling, no directory registration.
    pub fn new<A: std::net::ToSocketAddrs>(addr: A) -> Self {
        Self {
            addrs: addr.to_socket_addrs().map(|it| it.collect()),
            server: None,
            config: ServerConfig::default(),
            mode: ServeMode::Reactor { workers: 2 },
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

    /// How connections are multiplexed onto threads: the reactor's worker
    /// count, or [`ServeMode::Serial`] for the reference path.
    pub fn mode(mut self, mode: ServeMode) -> Self {
        self.mode = mode;
        self
    }

    /// GPU-sharing scheduler policy.
    pub fn scheduler(mut self, policy: SchedulerPolicy) -> Self {
        self.policy = Some(policy);
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
        let inner = serve_sessions(&server, &addrs, self.mode)?;
        *server.reactor.lock() = Arc::clone(inner.metrics());
        let registration = match self.directory {
            Some(dir) => Some(Registration::start(&server, inner.addr(), dir)?),
            None => None,
        };
        Ok(ServeHandle {
            inner,
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
        if !client.shard_set(&dir.prog, &dir.vers, &port, &server.load_report())? {
            let full = std::io::Error::other("shard directory full: registration refused");
            return Err(RpcError::Io(full));
        }
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
                    let _ = client.shard_set(&dir.prog, &dir.vers, &port, &server.load_report());
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
                let _ = client.shard_unset(&self.dir.prog, &self.dir.vers, &self.port);
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

fn dir_client(addr: SocketAddr) -> RpcResult<PmapVersClient> {
    let t = TcpTransport::connect(addr)?;
    Ok(PmapVersClient::new(Box::new(t)))
}

/// A running Cricket server started by [`ServerBuilder::serve`].
pub struct ServeHandle {
    inner: oncrpc::ServerHandle,
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

    /// The server's at-most-once replay cache, shared by every connection.
    pub fn replay(&self) -> &Arc<ReplayCache> {
        &self.server.replay
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

/// The mode dispatch behind [`ServerBuilder::serve`]. Both modes share the
/// same session semantics — one `SessionId` per accepted connection until
/// its first token-tagged call binds it to the token's session, the
/// server's one replay cache, [`CricketServer::release_session`] once when
/// the last connection acting in a session ends (replay entries are
/// deliberately kept: a reconnecting client may still retransmit calls it
/// sent on the dead connection) — and differ only in how connections map
/// onto threads.
fn serve_sessions(
    server: &Arc<CricketServer>,
    addrs: &[SocketAddr],
    mode: ServeMode,
) -> RpcResult<oncrpc::ServerHandle> {
    let server = Arc::clone(server);
    let next_session = AtomicU32::new(1);
    let handle = match mode {
        ServeMode::Reactor { workers } => {
            let cfg = oncrpc::ReactorConfig {
                workers: workers.max(1),
                classify: Some(cricket_classifier()),
                ..oncrpc::ReactorConfig::default()
            };
            // A connection's `on_close` runs after its last in-flight call
            // completed and its last reply was written or queued.
            oncrpc::serve_tcp_reactor(addrs, cfg, move |_conn| {
                session_rpc(&server, next_session.fetch_add(1, Ordering::Relaxed))
            })?
        }
        ServeMode::Serial => oncrpc::server::serve_tcp_with(addrs, move |mut conn| {
            let conn_handler = session_rpc(&server, next_session.fetch_add(1, Ordering::Relaxed));
            let _ = conn_handler.rpc.serve_connection(&mut conn);
            conn_handler.on_close.into_iter().for_each(|close| close());
        })?,
    };
    Ok(handle)
}
