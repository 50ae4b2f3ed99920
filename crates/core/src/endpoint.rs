//! Where a client connects: [`Endpoint`].

use std::net::{SocketAddr, ToSocketAddrs};

use crate::error::{ClientError, ClientResult};
pub use cricket_fleet::Placement;
use cricket_fleet::ShardDirectory;

/// Where a client connects: one type for every deployment shape.
///
/// * [`Endpoint::Addr`] — a single Cricket server, connect directly.
/// * [`Endpoint::Directory`] — a fleet: resolve a shard through the portmap
///   shard directory exactly once, at connect time, then talk to it over
///   the normal zero-copy path. The directory ranks shards under a
///   [`Placement`] policy; if the best shard's listener is down (crashed
///   shard behind a stale directory entry) the connect transparently fails
///   over to the next-ranked candidate.
///
/// ```no_run
/// use cricket_client::{Context, Endpoint};
///
/// // Direct:
/// let ctx = Context::connect(&Endpoint::addr("127.0.0.1:4000").unwrap()).unwrap();
/// // Through a fleet directory:
/// let ctx = Context::connect(&Endpoint::directory("127.0.0.1:111").unwrap()).unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// One specific server.
    Addr(SocketAddr),
    /// Resolve a shard of `(prog, vers)` through the fleet directory at
    /// `dir_addr` under `placement`, with failover down the ranked
    /// candidate list.
    Directory {
        /// The directory service's TCP address.
        dir_addr: SocketAddr,
        /// RPC program whose shards to resolve.
        prog: u32,
        /// RPC program version.
        vers: u32,
        /// Shard ranking policy.
        placement: Placement,
    },
}

impl Endpoint {
    /// A direct endpoint (first address `addr` resolves to).
    pub fn addr<A: ToSocketAddrs>(addr: A) -> ClientResult<Self> {
        Ok(Endpoint::Addr(resolve(addr)?))
    }

    /// A Cricket fleet-directory endpoint with the default [`Placement`].
    pub fn directory<A: ToSocketAddrs>(dir_addr: A) -> ClientResult<Self> {
        Ok(Endpoint::Directory {
            dir_addr: resolve(dir_addr)?,
            prog: cricket_proto::CRICKET_CUDA,
            vers: cricket_proto::CRICKET_V1,
            placement: Placement::default(),
        })
    }

    /// Override the placement policy (no-op on [`Endpoint::Addr`]).
    pub fn placement(mut self, p: Placement) -> Self {
        if let Endpoint::Directory { placement, .. } = &mut self {
            *placement = p;
        }
        self
    }

    /// Resolve this endpoint to a connected TCP transport and the address
    /// it landed on. For [`Endpoint::Directory`] this performs the
    /// dump → rank → connect → assign sequence, failing over down the
    /// candidate list; placement never recurs on the per-call path.
    pub fn connect_transport(&self) -> ClientResult<(oncrpc::TcpTransport, SocketAddr)> {
        self.connect_transport_for(None)
    }

    /// [`connect_transport`](Self::connect_transport), but session-home
    /// aware: when `token` identifies a client whose session was pinned to
    /// a shard by live migration, the directory's home entry is tried
    /// before placement ranking. A dead or unset home falls back to the
    /// normal candidate walk, so a crashed destination never strands the
    /// client. Hardened clients pass their replay token here from the
    /// reconnect hook; plain connects pass `None`.
    pub fn connect_transport_for(
        &self,
        token: Option<u64>,
    ) -> ClientResult<(oncrpc::TcpTransport, SocketAddr)> {
        match *self {
            Endpoint::Addr(addr) => {
                let t = oncrpc::TcpTransport::connect(addr).map_err(ClientError::Rpc)?;
                Ok((t, addr))
            }
            Endpoint::Directory {
                dir_addr,
                prog,
                vers,
                placement,
            } => {
                let dir = ShardDirectory {
                    addr: dir_addr,
                    prog,
                    vers,
                };
                if let Some(token) = token {
                    // The directory already returns 0 when the pinned
                    // shard has deregistered, so only a crashed-but-stale
                    // home reaches the connect failure path here.
                    if let Ok(port) = dir.home(token) {
                        if port != 0 {
                            let home_addr = SocketAddr::new(dir_addr.ip(), port as u16);
                            if let Ok(t) = oncrpc::TcpTransport::connect(home_addr) {
                                // No assign(): the session already lives
                                // there, this is not new load.
                                return Ok((t, home_addr));
                            }
                        }
                    }
                }
                let candidates = dir.candidates(placement).map_err(ClientError::Rpc)?;
                if candidates.is_empty() {
                    return Err(ClientError::Directory(format!(
                        "no shard of prog {prog} vers {vers} registered at {dir_addr}"
                    )));
                }
                let total = candidates.len();
                for entry in candidates {
                    let shard_addr = dir.shard_addr(&entry);
                    // A dead listener here is a crashed shard behind a stale
                    // directory entry — fall over to the next candidate.
                    let Ok(t) = oncrpc::TcpTransport::connect(shard_addr) else {
                        continue;
                    };
                    // Best-effort: tell the directory this shard just took a
                    // session so concurrent connects spread out before its
                    // next heartbeat.
                    let _ = dir.assign(entry.port);
                    return Ok((t, shard_addr));
                }
                Err(ClientError::Directory(format!(
                    "all {total} shards of prog {prog} vers {vers} at {dir_addr} unreachable"
                )))
            }
        }
    }
}

fn resolve<A: ToSocketAddrs>(addr: A) -> ClientResult<SocketAddr> {
    addr.to_socket_addrs()
        .map_err(|e| ClientError::Rpc(oncrpc::RpcError::Io(e)))?
        .next()
        .ok_or_else(|| ClientError::Directory("address resolved to nothing".into()))
}
