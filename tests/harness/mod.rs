//! The scenario harness: the stack's promises under faults, written once
//! as oracles, and one [`Scenario`] — workload × fault plan × feature set
//! × driver — that a row runs over [`CI_SEEDS`]:
//! * *exactly-once*: `server.bytes_in` equals the payload, and no pointer
//!   is handed out twice;
//! * *same trace*: what the client saw is byte-identical to a reference
//!   run (the fault-free one, or the serial server for reactor TCP);
//! * *nothing leaks*: at quiescence no session, device memory, scheduler
//!   ledger, replay window or staged adoption is left;
//! * *monotonic clock*: virtual time never runs backwards.
//!
//! A failure names the row, the seed and the oracle (DESIGN §7).
#![allow(dead_code)] // every suite uses its own rows' share

use cricket_repro::client::env::ClientFlavor;
use cricket_repro::client::stripe::StripePool;
use cricket_repro::oncrpc::{self, transport::Transport, ConnHandler, ReactorConfig, ServerHandle};
use cricket_repro::oncrpc::{Fault, FaultConfig, FaultPlan, FaultyTransport, ReplayCache};
use cricket_repro::oncrpc::{RetryPolicy, RpcClient, RpcError, RpcResult, SharedFaultPlan};
use cricket_repro::proto::{CricketV1Client, QosParams};
use cricket_repro::server::SchedulerPolicy;
use cricket_repro::server::{cricket_classifier, make_rpc_server, CricketServer, SimTransport};
use cricket_repro::{oncrpc::TcpTransport, prelude::*, simnet::SimClock};
use std::io::{Read, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The fixed seed matrix every seeded row runs.
pub const CI_SEEDS: [u64; 6] = [1, 7, 42, 0xC41C_4E71, 0xDEAD_BEEF, 20_230_915];

/// The client token of every scenario, and of its stripe lanes.
pub const TOKEN: u64 = 0xC11E_0001;

/// Run `body` once per seed; a failure is raised again naming `row`, the
/// seed and how to replay its schedule.
pub fn for_each_seed(row: &str, mut body: impl FnMut(u64)) {
    for seed in CI_SEEDS {
        if let Err(cause) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(seed))) {
            let msg = (cause.downcast_ref::<String>().map(String::as_str))
                .or_else(|| cause.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!("{row} failed at seed {seed} (replay with FaultPlan::from_seed({seed})): {msg}");
        }
    }
}

/// Makes the transport that replaces a dead connection.
pub type Redial = Box<dyn FnMut() -> RpcResult<Box<dyn Transport>> + Send>;

/// The one hardened client: `token` for at-most-once dedupe, capped-backoff
/// retries that include non-idempotent calls (the server's replay cache
/// makes them safe), a per-call deadline, and `redial` for a dead
/// connection.
pub fn harden(rpc: &mut RpcClient, token: u64, deadline_ms: u64, redial: Redial) {
    rpc.set_client_token(token);
    rpc.set_retry_policy(RetryPolicy {
        max_attempts: 40,
        base_delay: Duration::from_micros(50),
        max_delay: Duration::from_millis(1),
        retry_non_idempotent: true,
    });
    let deadline = Duration::from_millis(deadline_ms);
    rpc.set_call_timeout(Some(deadline)).unwrap();
    rpc.set_reconnect(redial);
}

/// A hardened client of `setup` in `env` whose records pass through `plan`.
pub fn sim_client(setup: &SimSetup, env: EnvConfig, plan: &SharedFaultPlan) -> CricketClient {
    let mut client = setup.chaos_client(env, plan);
    harden(client.rpc(), TOKEN, 40, sim_redial(setup, env, plan));
    client
}

/// Dial `setup` again from a guest of `env`, through `plan`.
fn sim_redial(setup: &SimSetup, env: EnvConfig, plan: &SharedFaultPlan) -> Redial {
    let (rpc, clock) = (Arc::clone(&setup.rpc), Arc::clone(&setup.clock));
    let plan = Arc::clone(plan);
    Box::new(move || {
        let fresh = SimTransport::new(Arc::clone(&rpc), env.guest(), Arc::clone(&clock));
        let fresh = Box::new(fresh);
        Ok(Box::new(FaultyTransport::new(fresh, Arc::clone(&plan))))
    })
}

/// A hardened fleet client for `token`, and the shard address it landed
/// on. It redials the session's home, the way a migrated client finds its
/// new shard.
pub fn fleet_client(ep: &Endpoint, token: u64) -> (CricketClient, std::net::SocketAddr) {
    let (t, addr) = ep.connect_transport_for(Some(token)).unwrap();
    let mut client = CricketClient::over(t, ClientFlavor::RustRpcLib, None);
    harden(client.rpc(), token, 250, home(*ep, token));
    (client, addr)
}

/// Dial the home of `token`'s session through the fleet directory `ep`.
fn home(ep: Endpoint, token: u64) -> Redial {
    Box::new(move || {
        let home = ep.connect_transport_for(Some(token));
        let (t, _) = home.map_err(|e| RpcError::Io(std::io::Error::other(e.to_string())))?;
        Ok(Box::new(t))
    })
}

/// A two-shard fleet whose shards report their load once an hour.
pub fn two_shards() -> Fleet {
    let fleet = FleetBuilder::new(2).heartbeat(Duration::from_secs(3600));
    fleet.launch().unwrap()
}

/// A plain TCP client of the Cricket server at `addr`.
pub fn tcp_client(addr: impl std::net::ToSocketAddrs) -> CricketClient {
    let t = TcpTransport::connect(addr).unwrap();
    CricketClient::over(t, ClientFlavor::RustRpcLib, None)
}

/// Retransmissions the server's own replay cache answered, from the list
/// `SRV_GET_STATS` returns.
pub fn replay_hits(server: &CricketServer) -> u64 {
    server.stats().get("replay.hits").unwrap()
}

/// Oracle *exactly-once*, by payload: `server.bytes_in` since the last
/// `SRV_RESET_STATS` is `payload`.
pub fn bytes_in_is(c: &mut CricketClient, payload: u64) {
    let got = c.server_stats().unwrap().get("server.bytes_in");
    assert_eq!(got, Some(payload), "exactly-once: server.bytes_in");
}

/// Oracle *same trace*: `got` is byte-identical to the reference `want`.
pub fn same_trace<T: PartialEq + std::fmt::Debug + ?Sized>(what: &str, got: &T, want: &T) {
    assert_eq!(got, want, "same trace: {what} diverged from the reference");
}

/// Oracle *nothing leaks*: `server` holds no session and no device memory
/// (so no staged adoption holding any), [`TOKEN`] is bound to no session,
/// and, when given, `session`'s scheduler ledger is gone and `replay`
/// keeps no window.
pub fn quiescent(server: &CricketServer, session: Option<u32>, replay: Option<&ReplayCache>) {
    let lr = server.load_report();
    assert_eq!(lr.sessions, 0, "nothing leaks: a session");
    assert_eq!(lr.free_mem, lr.total_mem, "nothing leaks: device memory");
    let token = server.session_of_token(TOKEN);
    assert_eq!(token, None, "nothing leaks: the token's binding");
    let ledger = session.is_some_and(|s| server.scheduler.knows(s));
    assert!(!ledger, "nothing leaks: a scheduler ledger");
    let windows = replay.map_or(0, ReplayCache::client_count);
    assert_eq!(windows, 0, "nothing leaks: replay windows");
}

/// The faults of a row: the seed's schedule over [`FaultConfig::lossy`].
pub fn lossy(seed: u64) -> FaultPlan {
    FaultPlan::from_seed_with(seed, FaultConfig::lossy())
}

/// The faults of a fault-free row.
pub fn clean(_seed: u64) -> FaultPlan {
    FaultPlan::scripted(vec![])
}

/// What the client turns on. `Sparse` needs no switch; `Striping(n)` is
/// `n` lanes in process that take the row's faults, a schedule each, the
/// control connection clean (on a fleet, `n` clean TCP lanes to the
/// session's shard); `Migration` happens at the seed's phase.
#[derive(Clone, Copy, PartialEq)]
pub enum Feature {
    Batching,
    Striping(usize),
    Sparse,
    /// Weighted fair queuing and [`QUOTA`].
    QuotaShed,
    Migration,
}

/// A device-time rate quota on session 0: a round trip (about 60 µs) at
/// 1/20 of device time banks about 3 µs of the 6 µs quantum, so about
/// every other work call is shed `CRICKET_BUSY`.
pub const QUOTA: QosParams = QosParams {
    session: 0,
    weight: 1,
    priority: 100,
    rate_ns_per_s: 50_000_000,
    burst_ns: 6_000,
    max_resident_bytes: 0,
};

/// Where the client's calls are served: in process over `SimTransport`
/// from a guest of an environment; over real TCP in a serve mode, every
/// connection in session 0 as in process (a reset must not lose what the
/// workload holds); or by a two-shard fleet, a session per connection.
#[derive(Clone, Copy)]
pub enum Driver {
    Sim(EnvConfig),
    Tcp(ServeMode),
    Fleet,
}

/// One row: a workload, under a fault plan, with a feature set, on a driver.
#[derive(Clone, Copy)]
pub struct Scenario {
    pub workload: fn(&mut Run),
    pub faults: fn(u64) -> FaultPlan,
    pub features: &'static [Feature],
    pub driver: Driver,
}

/// The servers a run's driver started.
enum Node {
    Sim(SimSetup),
    Tcp(ServerHandle),
    /// The fleet, and the shard the session started on.
    Fleet(Fleet, usize),
}

/// One run of a scenario, as its workload sees it.
pub struct Run {
    pub seed: u64,
    pub c: CricketClient,
    /// The server the session starts on.
    pub server: Arc<CricketServer>,
    pub features: &'static [Feature],
    /// What the client saw, for the *same trace* oracle.
    pub trace: Vec<String>,
    node: Node,
    ptrs: Vec<u64>,
    clocks: Vec<(Arc<SimClock>, u64)>,
    /// The phase a migration row migrates at, until it has.
    migrate_at: Option<u64>,
}

impl Run {
    /// `cudaMalloc`, under the *exactly-once* oracle's pointer check.
    pub fn malloc(&mut self, size: u64) -> u64 {
        let ptr = self.c.malloc(size).unwrap();
        let twice = self.ptrs.contains(&ptr);
        assert!(!twice, "exactly-once: pointer {ptr:#x} handed out twice");
        self.ptrs.push(ptr);
        self.at(u64::MAX);
        ptr
    }

    /// `cudaFree`, under the *exactly-once* oracle: the pointer was handed
    /// out once, so a free that fails ran twice.
    pub fn free(&mut self, ptr: u64) {
        let freed = self.c.free(ptr);
        assert!(
            freed.is_ok(),
            "exactly-once: cudaFree({ptr:#x}) ran twice: {freed:?}"
        );
    }

    /// A point between workload steps: the *monotonic clock* oracle reads
    /// every server's clock, and a migration row moves the session to the
    /// other shard at its phase, after which the source must be quiescent.
    pub fn at(&mut self, phase: u64) {
        for (clock, last) in &mut self.clocks {
            let now = clock.now_ns();
            assert!(now >= *last, "monotonic clock: {last} then {now} ns");
            *last = now;
        }
        let due = self.migrate_at.take_if(|at| *at == phase);
        let (Node::Fleet(fleet, from), Some(_)) = (&self.node, due) else {
            return;
        };
        let (rounds, src) = ((self.seed % 3) as u32 + 1, fleet.shard(*from).unwrap());
        let session = src.server().session_of_token(TOKEN);
        let r = (fleet.migrate_session(TOKEN, *from, (*from + 1) % fleet.len(), rounds))
            .unwrap_or_else(|e| panic!("migration at phase {phase} failed: {e}"));
        assert!(r.rounds == rounds && r.base_bytes > 0, "{r:?}");
        quiescent(src.server(), session, Some(src.replay()));
    }
}

/// Logs every byte the server put on the wire, across reconnects. It sits
/// under the fault injector: the log is what was sent, not what survived.
struct Recorder(Box<dyn Transport>, Arc<Mutex<Vec<u8>>>);

impl Read for Recorder {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.0.read(buf)?;
        self.1.lock().unwrap().extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

impl Write for Recorder {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

impl Transport for Recorder {
    fn set_read_timeout(&mut self, dur: Option<Duration>) -> RpcResult<()> {
        self.0.set_read_timeout(dur)
    }
}

/// What a run leaves to compare: the fault plan's decisions, the reply
/// bytes the server put on the client's connection, and the run's trace.
#[derive(Debug, PartialEq)]
pub struct Trace {
    pub plan: String,
    pub replies: Vec<u8>,
    pub client: Vec<String>,
}

impl Scenario {
    /// Run every seed of [`CI_SEEDS`] (see [`for_each_seed`]).
    pub fn matrix(&self, row: &str) {
        for_each_seed(row, |seed| drop(self.run(seed)));
    }

    /// Run the row once under `seed`, checking every oracle on the way.
    pub fn run(&self, seed: u64) -> Trace {
        let on = |f| self.features.contains(&f);
        let lanes = self.features.iter().find_map(|f| match *f {
            Feature::Striping(n) => Some(n),
            _ => None,
        });
        let plan = lanes.map_or_else(|| (self.faults)(seed), |_| clean(seed));
        let (plan, log) = (plan.into_shared(), Arc::new(Mutex::new(Vec::new())));
        let (plan2, log2) = (Arc::clone(&plan), Arc::clone(&log));
        let wrap = move |t| -> Box<dyn Transport> {
            let recorded = Box::new(Recorder(t, Arc::clone(&log2)));
            Box::new(FaultyTransport::new(recorded, Arc::clone(&plan2)))
        };
        let (node, server, first, dial, deadline): (_, _, _, Redial, _) = match self.driver {
            Driver::Sim(env) => {
                let setup = SimSetup::new();
                let (rpc, clock) = (Arc::clone(&setup.rpc), Arc::clone(&setup.clock));
                let dial = move || {
                    let t = SimTransport::new(Arc::clone(&rpc), env.guest(), Arc::clone(&clock));
                    Ok(wrap(Box::new(t)))
                };
                let (server, first) = (Arc::clone(&setup.server), dial().unwrap());
                (Node::Sim(setup), server, first, Box::new(dial), 40)
            }
            Driver::Tcp(mode) => {
                let server = CricketServer::a100();
                let rpc = make_rpc_server(Arc::clone(&server));
                let handle = match mode {
                    ServeMode::Reactor { workers } => {
                        let classify = Some(cricket_classifier());
                        let cfg = ReactorConfig {
                            workers,
                            classify,
                            ..Default::default()
                        };
                        let conn = move |_| ConnHandler {
                            rpc: Arc::clone(&rpc),
                            on_close: None,
                        };
                        oncrpc::serve_tcp_reactor("127.0.0.1:0", cfg, conn).unwrap()
                    }
                    ServeMode::Serial => oncrpc::server::serve_tcp(rpc, "127.0.0.1:0").unwrap(),
                };
                let addr = handle.addr();
                let dial = move || Ok(wrap(Box::new(TcpTransport::connect(addr)?)));
                let first = dial().unwrap();
                (Node::Tcp(handle), server, first, Box::new(dial), 150)
            }
            Driver::Fleet => {
                let fleet = two_shards();
                let ep = Endpoint::directory(fleet.dir_addr()).unwrap();
                let (t, addr) = ep.connect_transport_for(Some(TOKEN)).unwrap();
                let from = fleet.shard_by_port(u32::from(addr.port())).unwrap();
                let server = Arc::clone(fleet.shard(from).unwrap().server());
                let (first, mut home) = (wrap(Box::new(t)), home(ep, TOKEN));
                let dial = move || Ok(wrap(home()?));
                (Node::Fleet(fleet, from), server, first, Box::new(dial), 250)
            }
        };
        let (flavor, clock) = match (&node, self.driver) {
            (Node::Sim(setup), Driver::Sim(env)) => (env.flavor(), Some(Arc::clone(&setup.clock))),
            _ => (ClientFlavor::RustRpcLib, None),
        };
        let mut c = CricketClient::new(first, flavor, clock);
        harden(c.rpc(), TOKEN, deadline, dial);
        if on(Feature::Batching) {
            c.enable_batching();
        }
        if let (Some(n), Node::Sim(setup), Driver::Sim(env)) = (lanes, &node, self.driver) {
            let lane = |i: u64| (self.faults)(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let plans: Vec<_> = (0..n as u64).map(|i| lane(i).into_shared()).collect();
            let mut pool = setup.stripe_pool_with(env, n, |t, i| {
                Box::new(FaultyTransport::new(t, Arc::clone(&plans[i])))
            });
            for (lane, plan) in pool.lanes_mut().iter_mut().zip(&plans) {
                harden(&mut lane.rpc, TOKEN, 40, sim_redial(setup, env, plan));
            }
            c.enable_striping(pool);
        }
        if let (Some(n), Node::Fleet(fleet, from)) = (lanes, &node) {
            // TCP lanes to the session's shard, each following the token's
            // home when it redials (across a cutover).
            let (ep, at) = (
                Endpoint::directory(fleet.dir_addr()).unwrap(),
                fleet.shard(*from),
            );
            let lanes = (0..n).map(|_| {
                let mut lane = CricketV1Client::new(Box::new(
                    TcpTransport::connect(at.unwrap().addr()).unwrap(),
                ));
                harden(&mut lane.rpc, TOKEN, deadline, home(ep, TOKEN));
                lane
            });
            c.enable_striping(StripePool::new(lanes.collect(), None));
        }
        if on(Feature::QuotaShed) {
            server.scheduler.set_policy(SchedulerPolicy::Wfq);
            c.set_qos(&QUOTA).unwrap();
        }
        let clocks = match &node {
            Node::Fleet(f, _) => (0..f.len())
                .map(|i| f.shard(i).unwrap().server().clock())
                .cloned()
                .collect(),
            _ => vec![Arc::clone(server.clock())],
        };
        let clocks = clocks.into_iter().map(|clock| (clock, 0)).collect();
        let migrate_at = on(Feature::Migration).then_some(seed % 8);
        let features = self.features;
        let (trace, ptrs) = (Vec::new(), Vec::new());
        let mut run = Run {
            seed,
            c,
            server,
            features,
            trace,
            node,
            ptrs,
            clocks,
            migrate_at,
        };
        (self.workload)(&mut run);
        assert!(run.migrate_at.is_none(), "no migration happened");
        drop(run.c);
        settle(run.node, &run.server);
        let (plan, replies) = (plan.lock().trace_string(), log.lock().unwrap().clone());
        Trace {
            plan,
            replies,
            client: run.trace,
        }
    }
}

/// Close the run's servers and check *nothing leaks* on each: session 0
/// released in process and on the shared-session TCP server, every
/// connection's session on a fleet's shards.
fn settle(node: Node, server: &CricketServer) {
    match node {
        Node::Sim(_) => {}
        Node::Tcp(handle) => handle.shutdown(),
        Node::Fleet(fleet, _) => {
            // Sessions are released as their connections close.
            let deadline = Instant::now() + Duration::from_secs(10);
            for shard in (0..fleet.len()).map(|i| fleet.shard(i).unwrap().server()) {
                while shard.load_report().sessions > 0 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(5));
                }
                quiescent(shard, None, None);
            }
            return fleet.shutdown();
        }
    }
    server.release_session(0);
    quiescent(server, Some(0), None);
}

/// Six mallocs, each written and read back, then freed, in process under
/// the seed's lossy schedule: resets, drops, delays, duplicates and
/// truncations are all detected or masked by the stack, so every call
/// must return the correct result.
pub const SIX_MALLOCS: Scenario = Scenario {
    workload: six_mallocs,
    faults: lossy,
    features: &[],
    driver: Driver::Sim(EnvConfig::RustyHermit),
};

fn six_mallocs(r: &mut Run) {
    let baseline = r.c.mem_get_info().unwrap().free;
    let mut ptrs: Vec<(u64, Vec<u8>)> = Vec::new();
    for i in 0..6u8 {
        let ptr = r.malloc(4096);
        let pattern: Vec<u8> = (0..128u32).map(|b| (b as u8).wrapping_mul(i + 1)).collect();
        r.c.memcpy_htod(ptr, &pattern).unwrap();
        ptrs.push((ptr, pattern));
    }
    assert_eq!(r.c.device_count().unwrap(), 4);
    for (ptr, pattern) in &ptrs {
        assert_eq!(&r.c.memcpy_dtoh(*ptr, 128).unwrap(), pattern, "readback");
    }
    for (ptr, _) in &ptrs {
        r.free(*ptr);
    }
    let free = r.c.mem_get_info().unwrap().free;
    assert_eq!(free, baseline, "exactly-once: a call ran twice or leaked");
}

/// A batch whose reply is dropped (event 3; the malloc is events 0 and 1)
/// is retransmitted and answered from the replay cache with the identical
/// status vector: sub-op 0 ran, sub-op 1 failed, sub-op 2 was skipped, and
/// none ran twice.
pub const BATCH_DROP: Scenario = Scenario {
    workload: batch_drop,
    faults: |_| FaultPlan::scripted(vec![(3, Fault::DropReply)]),
    features: &[Feature::Batching],
    driver: Driver::Sim(EnvConfig::RustyHermit),
};

fn batch_drop(r: &mut Run) {
    let ptr = r.malloc(4096);
    r.c.memset(ptr, 1, 64).unwrap();
    r.c.memset(0xdead_beef_0000, 2, 8).unwrap();
    r.c.memset(ptr + 64, 3, 64).unwrap();
    match r.c.flush_batch().unwrap_err() {
        ClientError::Batch { api, index, code } => {
            assert_eq!(api, "cudaMemset");
            assert_eq!(index, 1, "the cached status vector named another sub-op");
            assert_ne!(code, 0);
        }
        other => panic!("expected a typed batch error, got {other}"),
    }
    // The error came from the retransmission's reply: the replay cache's.
    assert!(r.c.rpc().stats().retries >= 1);
    assert!(replay_hits(&r.server) >= 1, "the replay cache was bypassed");
    let back = r.c.memcpy_dtoh(ptr, 128).unwrap();
    assert_eq!(&back[..64], &[1u8; 64][..]);
    assert_eq!(
        &back[64..],
        &[0u8; 64][..],
        "exactly-once: a skipped op ran"
    );
    r.free(ptr);
}

/// A connection reset while the batch request itself (event 2) is in
/// flight: the server never saw it, so the retransmission on the new
/// connection executes it exactly once.
pub const BATCH_RESET: Scenario = Scenario {
    workload: batch_reset,
    faults: |_| FaultPlan::scripted(vec![(2, Fault::ResetOnSend)]),
    features: &[Feature::Batching],
    driver: Driver::Sim(EnvConfig::Unikraft),
};

fn batch_reset(r: &mut Run) {
    let ptr = r.malloc(4096);
    for i in 0..8u64 {
        r.c.memset(ptr + i * 8, i as i32, 8).unwrap();
    }
    r.c.flush_batch().unwrap();
    assert_eq!(r.c.rpc().stats().reconnects, 1);
    let back = r.c.memcpy_dtoh(ptr, 64).unwrap();
    for i in 0..8usize {
        assert_eq!(&back[i * 8..(i + 1) * 8], &[i as u8; 8][..]);
    }
    r.free(ptr);
}
