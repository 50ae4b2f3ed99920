//! GPU fleet layer: shard a Cricket deployment across N servers behind a
//! portmap shard directory.
//!
//! The paper's endgame is many lightweight unikernel guests sharing remote
//! GPUs; the scale win comes from multiplexing virtualized GPUs across a
//! *fleet* of servers, not one. Placement must stay off the per-call path
//! (RPCAcc's thin-RPC lesson), so it happens exactly once, at connect time:
//!
//! ```text
//!   client ──(1) SHARD_DUMP──▶ directory (oncrpc::Portmap over TCP)
//!     │                            ▲ heartbeats: LoadReport {free_mem,
//!     │ (2) rank by Placement      │   total_mem, served_ns, sessions}
//!     │ (3) SHARD_ASSIGN winner    │
//!     └─(4) RPC directly──▶ shard i (cricket_server::ServerBuilder)
//! ```
//!
//! After step 4 the client talks to its shard over the normal zero-copy
//! path; the directory never sees another byte from it. Failover: the
//! ranked candidate list from step 2 is kept, so if the winner's listener
//! is down (crashed shard, stale directory entry) the client just tries
//! the next-best candidate.
//!
//! What lives here:
//! * [`Placement`] — connect-time placement policies over
//!   [`oncrpc::ShardEntry`] load reports;
//! * [`ShardDirectory`] — the client-side directory view (dump → rank →
//!   assign);
//! * [`Fleet`] / [`FleetBuilder`] — a directory plus N
//!   [`cricket_server::ServeHandle`] shards with graceful-stop vs
//!   crash-kill lifecycle, and live session migration between shards.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use cricket_proto::{CricketV1Client, IntResult};
use cricket_server::{MigKind, SchedulerPolicy, ServeHandle, ServerBuilder, ServerConfig};
pub use oncrpc::{LoadReport, ShardEntry};
use oncrpc::{PmapVersClient, Portmap, RpcResult, TcpTransport};

/// Connect-time placement policy: given the directory's shard load
/// reports, in what order should a new session try shards?
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Placement {
    /// Spread sessions: fewest effective sessions first (live sessions plus
    /// assignments since the last heartbeat — the freshest load signal),
    /// then most free device memory, then least served time. Keeps every
    /// shard warm and is the right default for throughput scaling.
    #[default]
    Spread,
    /// Bin-pack by device memory: fullest shard that is still alive first
    /// (least free memory), tie-break on least served time. Concentrates
    /// load so whole shards stay idle — the right policy when idle shards
    /// can be reclaimed.
    Pack,
}

impl Placement {
    /// Rank `shards` into candidate order, best first. The full ranked
    /// list (not just the winner) is the failover order: if candidate 0's
    /// listener is down, try candidate 1, and so on.
    pub fn rank(self, shards: &[ShardEntry]) -> Vec<ShardEntry> {
        let mut ranked = shards.to_vec();
        // A saturated shard (QoS pressure at or past 1000 permille: session
        // watermark hit, or it shed calls since its last heartbeat) is only
        // a candidate of last resort under either policy — new sessions
        // placed there would be admission-refused with `CRICKET_BUSY`.
        let saturated = |e: &ShardEntry| u32::from(e.load.qos_pressure >= 1000);
        match self {
            Placement::Spread => ranked.sort_by(|a, b| {
                saturated(a)
                    .cmp(&saturated(b))
                    .then(a.effective_sessions().cmp(&b.effective_sessions()))
                    .then(b.load.free_mem.cmp(&a.load.free_mem))
                    .then(a.load.served_ns.cmp(&b.load.served_ns))
                    .then(a.port.cmp(&b.port))
            }),
            Placement::Pack => ranked.sort_by(|a, b| {
                saturated(a)
                    .cmp(&saturated(b))
                    .then(a.load.free_mem.cmp(&b.load.free_mem))
                    .then(a.load.served_ns.cmp(&b.load.served_ns))
                    .then(a.port.cmp(&b.port))
            }),
        }
        ranked
    }

    /// The single best shard, if any.
    pub fn pick(self, shards: &[ShardEntry]) -> Option<ShardEntry> {
        self.rank(shards).into_iter().next()
    }
}

/// Client-side view of a shard directory: where it is and which program's
/// shards to resolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardDirectory {
    /// TCP address of the [`Portmap`] directory service.
    pub addr: SocketAddr,
    /// RPC program whose shards we resolve.
    pub prog: u32,
    /// RPC program version.
    pub vers: u32,
}

impl ShardDirectory {
    /// A directory view for the Cricket program.
    pub fn cricket(addr: SocketAddr) -> Self {
        Self {
            addr,
            prog: cricket_proto::CRICKET_CUDA,
            vers: cricket_proto::CRICKET_V1,
        }
    }

    fn client(&self) -> RpcResult<PmapVersClient> {
        let t = TcpTransport::connect(self.addr)?;
        Ok(PmapVersClient::new(Box::new(t)))
    }

    /// Dump the program's shards and rank them under `placement` (best
    /// first). Empty if no shard is registered.
    pub fn candidates(&self, placement: Placement) -> RpcResult<Vec<ShardEntry>> {
        let mut client = self.client()?;
        let shards = client.shard_dump(&self.prog, &self.vers)?.0;
        Ok(placement.rank(&shards))
    }

    /// Record at the directory that a new session was just placed on
    /// `port`, so concurrent connects spread out even before the shard's
    /// next heartbeat. Returns false if the shard is no longer registered.
    pub fn assign(&self, port: u32) -> RpcResult<bool> {
        self.client()?.shard_assign(&self.prog, &self.vers, &port)
    }

    /// The socket address of a shard entry: the directory's IP with the
    /// shard's registered port (shards and directory share a host in this
    /// simulated fleet, as unikernel shards share their host's NIC).
    pub fn shard_addr(&self, entry: &ShardEntry) -> SocketAddr {
        SocketAddr::new(self.addr.ip(), entry.port as u16)
    }

    /// Pin a client token's session home to the shard on `port` (0 clears).
    /// Written by live migration at cutover so the evicted client's
    /// reconnect resolves straight to the session's new shard.
    pub fn set_home(&self, token: u64, port: u32) -> RpcResult<bool> {
        self.client()?
            .shard_home_set(&self.prog, &self.vers, &token, &port)
    }

    /// The pinned home port for a client token (0 = none, or home shard
    /// deregistered — fall back to [`candidates`](Self::candidates)).
    pub fn home(&self, token: u64) -> RpcResult<u32> {
        self.client()?
            .shard_home_get(&self.prog, &self.vers, &token)
    }
}

/// Builder for a local fleet: one directory plus `shards` Cricket servers,
/// each registered and heartbeating.
pub struct FleetBuilder {
    shards: usize,
    config: ServerConfig,
    policy: Option<SchedulerPolicy>,
    heartbeat: Duration,
}

impl FleetBuilder {
    /// A fleet of `shards` servers (each with its own vgpu device set,
    /// scheduler, and clock), reactor-served, heartbeating every 250 ms.
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
            config: ServerConfig::default(),
            policy: None,
            heartbeat: Duration::from_millis(250),
        }
    }

    /// Device configuration applied to every shard.
    pub fn config(mut self, config: ServerConfig) -> Self {
        self.config = config;
        self
    }

    /// Scheduler policy applied to every shard.
    pub fn scheduler(mut self, policy: SchedulerPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Heartbeat interval for shard load reports.
    pub fn heartbeat(mut self, interval: Duration) -> Self {
        self.heartbeat = interval;
        self
    }

    /// Start the directory and all shards on loopback.
    pub fn launch(self) -> RpcResult<Fleet> {
        let portmap = Portmap::new();
        let dir_handle = portmap.serve("127.0.0.1:0")?;
        let dir_addr = dir_handle.addr();
        let mut shards = Vec::with_capacity(self.shards);
        for _ in 0..self.shards {
            let mut b = ServerBuilder::new("127.0.0.1:0")
                .config(self.config.clone())
                .directory(
                    dir_addr,
                    cricket_proto::CRICKET_CUDA,
                    cricket_proto::CRICKET_V1,
                )
                .heartbeat(self.heartbeat);
            if let Some(policy) = self.policy {
                b = b.scheduler(policy);
            }
            shards.push(Some(b.serve()?));
        }
        Ok(Fleet {
            dir_handle,
            portmap,
            dir_addr,
            shards,
        })
    }
}

/// A running fleet: the directory service plus its shard servers.
pub struct Fleet {
    dir_handle: oncrpc::ServerHandle,
    portmap: Portmap,
    dir_addr: SocketAddr,
    shards: Vec<Option<ServeHandle>>,
}

impl Fleet {
    /// The directory service's TCP address.
    pub fn dir_addr(&self) -> SocketAddr {
        self.dir_addr
    }

    /// A client-side directory view for this fleet's Cricket shards.
    pub fn directory(&self) -> ShardDirectory {
        ShardDirectory::cricket(self.dir_addr)
    }

    /// The directory's in-process state (test hook: inspect registrations
    /// without a TCP round trip).
    pub fn portmap(&self) -> &Portmap {
        &self.portmap
    }

    /// Live shard handles (killed/stopped shards are absent).
    pub fn shard(&self, i: usize) -> Option<&ServeHandle> {
        self.shards.get(i).and_then(|s| s.as_ref())
    }

    /// Number of shard slots (live or not).
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True if no shard slot exists.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Addresses of live shards, slot order.
    pub fn shard_addrs(&self) -> Vec<SocketAddr> {
        self.shards.iter().flatten().map(|s| s.addr()).collect()
    }

    /// Gracefully stop shard `i`: deregisters from the directory first, so
    /// new sessions immediately stop landing on it. Returns false if the
    /// slot is already empty.
    pub fn stop_shard(&mut self, i: usize) -> bool {
        match self.shards.get_mut(i).and_then(|s| s.take()) {
            Some(s) => {
                s.shutdown();
                true
            }
            None => false,
        }
    }

    /// Crash shard `i`: the listener dies but the directory keeps the stale
    /// entry (no deregistration, no final heartbeat) — exactly what a
    /// powered-off shard looks like. Clients must discover the corpse by
    /// failing to connect and fall over to the next-ranked candidate.
    pub fn kill_shard(&mut self, i: usize) -> bool {
        match self.shards.get_mut(i).and_then(|s| s.take()) {
            Some(s) => {
                s.kill();
                true
            }
            None => false,
        }
    }

    /// Stop every shard (gracefully) and the directory.
    pub fn shutdown(mut self) {
        for slot in self.shards.iter_mut() {
            if let Some(s) = slot.take() {
                s.shutdown();
            }
        }
        self.dir_handle.shutdown();
    }

    /// The slot index of the live shard registered on `port` — the bridge
    /// from the directory's port-speak to migration's slot-speak.
    pub fn shard_by_port(&self, port: u32) -> Option<usize> {
        self.shards
            .iter()
            .position(|s| s.as_ref().map(|h| u32::from(h.addr().port())) == Some(port))
    }

    /// Start a live migration of `token`'s session from shard `from` to
    /// shard `to`: connect to the destination, export the source's base
    /// snapshot, and stage it. The source keeps serving the client; call
    /// [`SessionMigration::round`] to stream dirty deltas and
    /// [`SessionMigration::cutover`] to finish (or use
    /// [`migrate_session`](Self::migrate_session) for the whole dance).
    pub fn begin_migration(
        &self,
        token: u64,
        from: usize,
        to: usize,
    ) -> Result<SessionMigration, MigrateError> {
        if from == to {
            return Err(MigrateError::Plan(
                "source and destination are the same shard".into(),
            ));
        }
        let src = self
            .shard(from)
            .ok_or_else(|| MigrateError::SourceLost(format!("shard {from} is not live")))?;
        let dst = self
            .shard(to)
            .ok_or_else(|| MigrateError::DestLost(format!("shard {to} is not live")))?;
        if src.server().session_of_token(token).is_none() {
            return Err(MigrateError::Plan(format!(
                "no live session for token {token:#x} on shard {from}"
            )));
        }
        // The driver's own connection carries no client-token credential,
        // so the destination's eviction/adoption gate never applies to it.
        let t =
            TcpTransport::connect(dst.addr()).map_err(|e| MigrateError::DestLost(e.to_string()))?;
        let client = CricketV1Client::new(Box::new(t));
        let mut known = BTreeSet::new();
        let blob = src
            .server()
            .mig_export(token, &mut known, MigKind::Base)
            .map_err(|e| MigrateError::Plan(e.to_string()))?;
        let mut mig = SessionMigration {
            token,
            from,
            to,
            client,
            known,
            evicted: false,
            home_set: false,
            report: MigrationReport {
                base_bytes: blob.len() as u64,
                ..MigrationReport::default()
            },
        };
        match mig.client.mig_apply_base(&blob) {
            Ok(0) => Ok(mig),
            Ok(code) => Err(MigrateError::Apply(code)),
            Err(e) => Err(MigrateError::DestLost(e.to_string())),
        }
    }

    /// Migrate `token`'s session from shard `from` to shard `to` with
    /// `copy_rounds` incremental pre-copy rounds before the cutover,
    /// aborting cleanly (home cleared, token readmitted at the source,
    /// destination's staged state discarded) on any failure.
    pub fn migrate_session(
        &self,
        token: u64,
        from: usize,
        to: usize,
        copy_rounds: u32,
    ) -> Result<MigrationReport, MigrateError> {
        let mut mig = self.begin_migration(token, from, to)?;
        for _ in 0..copy_rounds {
            if let Err(e) = mig.round(self) {
                mig.abort(self);
                return Err(e);
            }
        }
        match mig.cutover(self) {
            Ok(()) => Ok(mig.finish()),
            Err(e) => {
                mig.abort(self);
                Err(e)
            }
        }
    }
}

/// What one live migration moved and what it cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Incremental pre-copy rounds streamed while the source kept serving.
    pub rounds: u32,
    /// Wire bytes of the base snapshot blob.
    pub base_bytes: u64,
    /// Wire bytes of all incremental delta blobs.
    pub delta_bytes: u64,
    /// Wire bytes of the final post-barrier blob — the only bytes moved
    /// while the client was paused.
    pub final_bytes: u64,
    /// The session's full footprint (device blocks + module images) at
    /// cutover: what a naive non-incremental migration would have moved
    /// under pause.
    pub naive_bytes: u64,
    /// Wall-clock duration of the client-visible pause: eviction at the
    /// source until the destination acknowledged the final blob.
    pub pause_ns: u64,
}

impl MigrationReport {
    /// Total wire bytes streamed across all migration blobs.
    pub fn streamed_bytes(&self) -> u64 {
        self.base_bytes + self.delta_bytes + self.final_bytes
    }

    /// Bytes moved after the base snapshot — the incremental resync a
    /// naive migration would instead pay as a second full copy.
    pub fn resync_bytes(&self) -> u64 {
        self.delta_bytes + self.final_bytes
    }
}

/// Why a live migration failed. Every failure path leaves the source
/// session intact and serving (unless the source itself is what died).
#[derive(Debug)]
pub enum MigrateError {
    /// The migration request itself was invalid (unknown token, same
    /// source and destination, export failure).
    Plan(String),
    /// The source shard died or was stopped mid-migration.
    SourceLost(String),
    /// The destination shard died, was stopped, or became unreachable.
    DestLost(String),
    /// The destination rejected a blob with this CUDA error code.
    Apply(i32),
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::Plan(s) => write!(f, "migration plan invalid: {s}"),
            MigrateError::SourceLost(s) => write!(f, "migration source lost: {s}"),
            MigrateError::DestLost(s) => write!(f, "migration destination lost: {s}"),
            MigrateError::Apply(code) => write!(f, "destination rejected blob: error {code}"),
        }
    }
}

impl std::error::Error for MigrateError {}

/// An in-flight live migration: source still serving, destination holding
/// a staged adoption. Drive it with [`round`](Self::round) /
/// [`cutover`](Self::cutover), or drop it via [`abort`](Self::abort).
pub struct SessionMigration {
    token: u64,
    from: usize,
    to: usize,
    client: CricketV1Client,
    known: BTreeSet<u64>,
    evicted: bool,
    home_set: bool,
    report: MigrationReport,
}

impl SessionMigration {
    /// Progress so far.
    pub fn report(&self) -> &MigrationReport {
        &self.report
    }

    /// Stream one incremental delta (everything the session dirtied,
    /// allocated, or freed since the previous blob) while the source keeps
    /// serving the client. Returns the delta's wire size.
    pub fn round(&mut self, fleet: &Fleet) -> Result<u64, MigrateError> {
        let src = fleet.shard(self.from).ok_or_else(|| {
            MigrateError::SourceLost(format!("shard {} died mid-migration", self.from))
        })?;
        if fleet.shard(self.to).is_none() {
            return Err(MigrateError::DestLost(format!(
                "shard {} died mid-migration",
                self.to
            )));
        }
        let blob = src
            .server()
            .mig_export(self.token, &mut self.known, MigKind::Delta)
            .map_err(|e| MigrateError::SourceLost(e.to_string()))?;
        match self.client.mig_apply_delta(&blob) {
            Ok(IntResult::Data(_)) => {}
            Ok(IntResult::Default(code)) => return Err(MigrateError::Apply(code)),
            Err(e) => return Err(MigrateError::DestLost(e.to_string())),
        }
        self.report.rounds += 1;
        self.report.delta_bytes += blob.len() as u64;
        Ok(blob.len() as u64)
    }

    /// Cut the session over to the destination:
    ///
    /// 1. pin the session's directory home to the destination (so the
    ///    evicted client's reconnect resolves straight there),
    /// 2. evict the token at the source — its next call is refused, the
    ///    connection closes, the client enters its reconnect loop,
    /// 3. export the final post-barrier delta (streams fenced, replay
    ///    entries attached) and apply it at the destination, which flips
    ///    the staged adoption to ready,
    /// 4. finalize the source: replay entries dropped, session released.
    ///
    /// The pause clock runs from eviction to the destination's ack.
    pub fn cutover(&mut self, fleet: &Fleet) -> Result<(), MigrateError> {
        let src = fleet.shard(self.from).ok_or_else(|| {
            MigrateError::SourceLost(format!("shard {} died before cutover", self.from))
        })?;
        let dst = fleet.shard(self.to).ok_or_else(|| {
            MigrateError::DestLost(format!("shard {} died before cutover", self.to))
        })?;
        self.report.naive_bytes = src.server().session_footprint(self.token);
        let dir = fleet.directory();
        let pinned = dir
            .set_home(self.token, u32::from(dst.addr().port()))
            .map_err(|e| MigrateError::DestLost(format!("directory home update failed: {e}")))?;
        if !pinned {
            return Err(MigrateError::Plan("directory home table full".into()));
        }
        self.home_set = true;
        src.server().evict_token(self.token);
        self.evicted = true;
        let pause = Instant::now();
        let blob = src
            .server()
            .mig_export(self.token, &mut self.known, MigKind::Final)
            .map_err(|e| MigrateError::SourceLost(e.to_string()))?;
        match self.client.mig_apply_delta(&blob) {
            Ok(IntResult::Data(_)) => {}
            Ok(IntResult::Default(code)) => return Err(MigrateError::Apply(code)),
            Err(e) => return Err(MigrateError::DestLost(e.to_string())),
        }
        self.report.pause_ns = pause.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.report.final_bytes = blob.len() as u64;
        src.server().mig_finalize_source(self.token);
        Ok(())
    }

    /// Abandon the migration: clear the pinned home, readmit the token at
    /// the source (if it still exists), and tell the destination to
    /// discard its staged state. Every step is best-effort — the parts
    /// that still exist are cleaned.
    pub fn abort(mut self, fleet: &Fleet) {
        if self.home_set {
            let _ = fleet.directory().set_home(self.token, 0);
        }
        if self.evicted {
            if let Some(src) = fleet.shard(self.from) {
                src.server().readmit_token(self.token);
            }
        }
        let _ = self.client.mig_abort(&self.token);
    }

    /// Consume a completed migration, yielding its report.
    pub fn finish(self) -> MigrationReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(port: u32, sessions: u32, free_mem: u64, served_ns: u64) -> ShardEntry {
        ShardEntry {
            port,
            load: LoadReport {
                free_mem,
                total_mem: free_mem.max(1),
                served_ns,
                sessions,
                qos_pressure: 0,
            },
            assigned: 0,
        }
    }

    #[test]
    fn spread_ranks_by_sessions_then_memory_then_time() {
        let shards = [
            entry(5001, 3, 100, 10),
            entry(5002, 1, 50, 10),
            entry(5003, 1, 80, 10),
            entry(5004, 1, 80, 5),
        ];
        let ranked = Placement::Spread.rank(&shards);
        let ports: Vec<u32> = ranked.iter().map(|s| s.port).collect();
        // Fewest sessions first; among the 1-session shards most free
        // memory wins; among equal memory least served time wins.
        assert_eq!(ports, vec![5004, 5003, 5002, 5001]);
    }

    #[test]
    fn saturated_shards_rank_last_under_both_policies() {
        // The otherwise-best shard reports QoS saturation (admission is
        // shedding there); placement must prefer any unsaturated shard.
        let mut best = entry(5001, 0, 500, 0);
        best.load.qos_pressure = 1000;
        let loaded = entry(5002, 7, 10, 99);
        assert_eq!(Placement::Spread.pick(&[best, loaded]).unwrap().port, 5002);
        assert_eq!(Placement::Pack.pick(&[best, loaded]).unwrap().port, 5002);
        // Below saturation, pressure is informational only: ordering is
        // unchanged from the classic keys.
        let mut warm = entry(5003, 0, 500, 0);
        warm.load.qos_pressure = 999;
        assert_eq!(Placement::Spread.pick(&[warm, loaded]).unwrap().port, 5003);
    }

    #[test]
    fn spread_counts_unheartbeaten_assignments() {
        let mut a = entry(5001, 0, 100, 0);
        a.assigned = 5;
        let b = entry(5002, 3, 100, 0);
        assert_eq!(Placement::Spread.pick(&[a, b]).unwrap().port, 5002);
    }

    #[test]
    fn pack_fills_fullest_first() {
        let shards = [
            entry(5001, 0, 10, 99),
            entry(5002, 0, 500, 0),
            entry(5003, 0, 10, 1),
        ];
        let ranked = Placement::Pack.rank(&shards);
        let ports: Vec<u32> = ranked.iter().map(|s| s.port).collect();
        assert_eq!(ports, vec![5003, 5001, 5002]);
    }

    #[test]
    fn fleet_launch_register_stop_kill() {
        let mut fleet = FleetBuilder::new(3)
            .heartbeat(Duration::from_secs(3600))
            .launch()
            .unwrap();
        let dir = fleet.directory();
        let cands = dir.candidates(Placement::Spread).unwrap();
        assert_eq!(cands.len(), 3, "all shards registered on launch");
        let ports: Vec<u16> = fleet.shard_addrs().iter().map(|a| a.port()).collect();
        assert!(cands.iter().all(|c| ports.contains(&(c.port as u16))));

        // Graceful stop deregisters.
        let stopped_port = fleet.shard(0).unwrap().addr().port();
        assert!(fleet.stop_shard(0));
        assert!(!fleet.stop_shard(0), "double stop is a no-op");
        let cands = dir.candidates(Placement::Spread).unwrap();
        assert_eq!(cands.len(), 2);
        assert!(cands.iter().all(|c| c.port != u32::from(stopped_port)));

        // Crash-kill leaves the stale entry for clients to fail over past.
        let killed_port = fleet.shard(1).unwrap().addr().port();
        assert!(fleet.kill_shard(1));
        let cands = dir.candidates(Placement::Spread).unwrap();
        assert_eq!(cands.len(), 2, "stale entry survives a crash");
        assert!(cands.iter().any(|c| c.port == u32::from(killed_port)));
        assert!(TcpTransport::connect(
            dir.shard_addr(
                cands
                    .iter()
                    .find(|c| c.port == u32::from(killed_port))
                    .unwrap()
            )
        )
        .is_err());

        // Assignment bumps show up in the next dump.
        let live = cands
            .iter()
            .find(|c| c.port != u32::from(killed_port))
            .unwrap();
        assert!(dir.assign(live.port).unwrap());
        let cands = dir.candidates(Placement::Spread).unwrap();
        let seen = cands.iter().find(|c| c.port == live.port).unwrap();
        assert_eq!(seen.assigned, 1);

        fleet.shutdown();
    }
}
