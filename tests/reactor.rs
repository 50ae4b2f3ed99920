//! Reactor-mode integration: the completion-driven server must be
//! observationally identical to the serial thread-per-connection reference
//! (`RpcServer::serve_connection`) — byte-identical reply streams under the
//! full chaos seed matrix, including mid-batch reset replay — and must
//! survive heavy connection churn without leaking scheduler sessions,
//! replay-cache entries, or reply buffers.

use cricket_repro::oncrpc::server::ServerHandle;
use cricket_repro::oncrpc::telemetry::Metrics;
use cricket_repro::oncrpc::{
    serve_tcp_reactor, transport::Transport, ConnHandler, ReactorConfig, RpcResult,
};
use cricket_repro::oncrpc::{
    Fault, FaultConfig, FaultPlan, FaultyTransport, OpaqueAuth, ReplayCache, RetryPolicy,
    SharedFaultPlan, TcpTransport,
};
use cricket_repro::prelude::*;
use cricket_repro::proto::ServerStats;
use cricket_repro::server::{
    cricket_classifier, make_rpc_server, CricketServer, ServeMode, ServerBuilder,
};
use std::io::{Read, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The same fixed fault matrix `ci.sh chaos` runs (see `tests/chaos.rs`).
const CI_SEEDS: [u64; 6] = [1, 7, 42, 0xC41C_4E71, 0xDEAD_BEEF, 20_230_915];

const REACTOR: ServeMode = ServeMode::Reactor { workers: 2 };

/// A transport shim *under* the fault injector that appends every byte the
/// server actually put on the wire to a shared log. The log outlives any
/// single connection (reconnects keep appending), so two runs of the same
/// workload can be compared as one reply byte stream per mode.
struct Recorder {
    inner: TcpTransport,
    log: Arc<Mutex<Vec<u8>>>,
}

impl Read for Recorder {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

impl Write for Recorder {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl Transport for Recorder {
    fn describe(&self) -> String {
        "recorder(tcp)".into()
    }
    fn set_read_timeout(&mut self, dur: Option<Duration>) -> RpcResult<()> {
        TcpTransport::set_read_timeout(&self.inner, dur)
    }
}

/// A TCP server in `mode` where every connection shares **one** session
/// (session 0, no per-connection release) — the same session model as the
/// in-process chaos harness. Reconnect-inducing faults (resets, framing
/// truncations) must not invalidate earlier allocations here, because the
/// equivalence runs hold device pointers across the whole fault schedule;
/// per-connection session release is exercised separately by the churn
/// soak and by `tests/chaos.rs`.
fn spawn_shared_session_server(mode: ServeMode) -> (ServerHandle, Arc<ReplayCache>) {
    let server = CricketServer::a100();
    let rpc = make_rpc_server(server);
    let replay = Arc::new(ReplayCache::default());
    rpc.set_replay_cache(Arc::clone(&replay));
    let handle = match mode {
        ServeMode::Reactor { workers } => serve_tcp_reactor(
            "127.0.0.1:0",
            ReactorConfig {
                workers,
                classify: Some(cricket_classifier()),
                ..ReactorConfig::default()
            },
            move |_conn| ConnHandler {
                rpc: Arc::clone(&rpc),
                on_close: None,
            },
        )
        .unwrap(),
        ServeMode::Serial => cricket_repro::oncrpc::server::serve_tcp(rpc, "127.0.0.1:0").unwrap(),
    };
    (handle, replay)
}

/// Counter `name` of one owner's metrics.
fn count(metrics: &Metrics, name: &str) -> u64 {
    metrics.iter().find(|&(n, _)| n == name).unwrap().1
}

/// Dial `addr` through recorder + fault injector.
fn dial(
    addr: &str,
    log: &Arc<Mutex<Vec<u8>>>,
    plan: &SharedFaultPlan,
) -> RpcResult<Box<dyn Transport>> {
    Ok(Box::new(FaultyTransport::new(
        Box::new(Recorder {
            inner: TcpTransport::connect(addr)?,
            log: Arc::clone(log),
        }),
        Arc::clone(plan),
    )))
}

/// A hardened chaos client over TCP whose incoming bytes are recorded:
/// client token for at-most-once dedupe, capped retries, a generous
/// per-call deadline (localhost round trips are microseconds; the deadline
/// only fires when a reply was really dropped), and a reconnector that
/// continues the same fault schedule *and* the same reply log.
fn traced_client(addr: &str, log: &Arc<Mutex<Vec<u8>>>, plan: &SharedFaultPlan) -> CricketClient {
    let mut client = CricketClient::new(
        dial(addr, log, plan).unwrap(),
        cricket_repro::client::env::ClientFlavor::RustRpcLib,
        None,
    );
    let rpc = client.rpc();
    rpc.set_credential(OpaqueAuth::client_token(0xC11E_0003));
    rpc.set_retry_policy(RetryPolicy {
        max_attempts: 8,
        base_delay: Duration::from_micros(200),
        max_delay: Duration::from_millis(5),
        retry_non_idempotent: true,
    });
    rpc.set_call_timeout(Some(Duration::from_millis(150)))
        .unwrap();
    let dial_addr = addr.to_string();
    let log2 = Arc::clone(log);
    let plan2 = Arc::clone(plan);
    rpc.set_reconnect(move || dial(&dial_addr, &log2, &plan2));
    client
}

/// Run the chaos-matrix GPU workload (same shape as
/// `tests/chaos.rs::run_seeded_workload`) against a fresh TCP server in
/// `mode` while `seed`'s schedule mangles the wire. Returns the rendered
/// fault-decision trace and the raw reply byte stream.
fn run_traced(mode: ServeMode, seed: u64) -> (String, Vec<u8>) {
    let (handle, _replay) = spawn_shared_session_server(mode);
    let addr = handle.addr().to_string();
    let plan = FaultPlan::from_seed_with(seed, FaultConfig::lossy()).into_shared();
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut client = traced_client(&addr, &log, &plan);

    let baseline = client.mem_get_info().unwrap().free;
    let mut ptrs: Vec<(u64, Vec<u8>)> = Vec::new();
    for i in 0..6u8 {
        let ptr = client.malloc(4096).unwrap();
        assert!(
            ptrs.iter().all(|(p, _)| *p != ptr),
            "seed {seed}: duplicate pointer {ptr:#x} — a malloc executed twice"
        );
        let pattern: Vec<u8> = (0..128u32).map(|b| (b as u8).wrapping_mul(i + 1)).collect();
        client.memcpy_htod(ptr, &pattern).unwrap();
        ptrs.push((ptr, pattern));
    }
    assert_eq!(client.device_count().unwrap(), 4, "seed {seed}");
    for (ptr, pattern) in &ptrs {
        assert_eq!(
            &client.memcpy_dtoh(*ptr, 128).unwrap(),
            pattern,
            "seed {seed}: readback corrupted"
        );
    }
    for (ptr, _) in &ptrs {
        client.free(*ptr).unwrap();
    }
    assert_eq!(
        client.mem_get_info().unwrap().free,
        baseline,
        "seed {seed}: leaked server allocation"
    );
    drop(client);
    handle.shutdown();
    let bytes = log.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let trace = plan.lock().trace_string();
    (trace, bytes)
}

/// Acceptance criterion: across the full CI seed matrix, the reactor path
/// is byte-for-byte indistinguishable from the serial reference — the same
/// fault schedule produces the same reply stream (same xids, same framing,
/// same payloads, same retransmissions served from the replay cache).
#[test]
fn reactor_reply_traces_match_serial_across_seed_matrix() {
    for seed in CI_SEEDS {
        let outcome = std::panic::catch_unwind(|| {
            let (trace_s, bytes_s) = run_traced(ServeMode::Serial, seed);
            let (trace_r, bytes_r) = run_traced(REACTOR, seed);
            assert_eq!(
                trace_s, trace_r,
                "seed {seed}: fault schedules diverged — client behaved differently"
            );
            assert!(!bytes_s.is_empty(), "seed {seed}: nothing recorded");
            assert_eq!(
                bytes_s, bytes_r,
                "seed {seed}: reply byte streams diverged between serial and reactor"
            );
        });
        if let Err(cause) = outcome {
            let msg = cause
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| cause.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!(
                "reactor equivalence failed at seed {seed} \
                 (replay with FaultPlan::from_seed({seed})): {msg}"
            );
        }
    }
}

/// Mid-batch drop replay (the TCP analogue of
/// `dropped_batch_reply_is_replayed_with_identical_status_vector`): the
/// coalesced batch's reply dies on the wire, the retransmission is served
/// from the replay cache with the identical status vector, and the typed
/// error names the same failing sub-op — run in `mode`, traced.
fn run_batch_drop(mode: ServeMode) -> (String, Vec<u8>) {
    let (handle, replay) = spawn_shared_session_server(mode);
    let addr = handle.addr().to_string();
    // Events alternate request/reply: malloc is 0/1, the CRICKET_BATCH_EXEC
    // flush is 2/3 — drop the batch *reply*.
    let plan = FaultPlan::scripted(vec![(3, Fault::DropReply)]).into_shared();
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut client = traced_client(&addr, &log, &plan);
    client.enable_batching();

    let ptr = client.malloc(4096).unwrap();
    client.memset(ptr, 1, 64).unwrap(); // sub-op 0: executes
    client.memset(0xdead_beef_0000, 2, 8).unwrap(); // sub-op 1: fails
    client.memset(ptr + 64, 3, 64).unwrap(); // sub-op 2: skipped
    let err = client.flush_batch().unwrap_err();
    match err {
        ClientError::Batch { api, index, code } => {
            assert_eq!(api, "cudaMemset");
            assert_eq!(index, 1, "cached status vector named a different sub-op");
            assert_ne!(code, 0);
        }
        other => panic!("expected a typed batch error, got {other}"),
    }
    assert!(client.rpc().stats().retries >= 1);
    assert!(
        count(replay.metrics(), "replay.hits") >= 1,
        "batch retransmission bypassed the replay cache: {:?}",
        replay.metrics()
    );
    // Exactly-once, observable in device memory.
    let back = client.memcpy_dtoh(ptr, 128).unwrap();
    assert_eq!(&back[..64], &[1u8; 64][..]);
    assert_eq!(&back[64..], &[0u8; 64][..], "skipped sub-op executed");
    client.free(ptr).unwrap();
    drop(client);
    handle.shutdown();
    let bytes = log.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let trace = plan.lock().trace_string();
    (trace, bytes)
}

/// Mid-batch reset replay (the TCP analogue of
/// `reset_batch_request_executes_exactly_once_after_reconnect`): the
/// connection resets while the batch request itself is in flight, the
/// client reconnects and retransmits, and the batch executes exactly once.
fn run_batch_reset(mode: ServeMode) -> (String, Vec<u8>) {
    let (handle, _replay) = spawn_shared_session_server(mode);
    let addr = handle.addr().to_string();
    // Event 2 is the batch *request* record (malloc is events 0/1).
    let plan = FaultPlan::scripted(vec![(2, Fault::ResetOnSend)]).into_shared();
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut client = traced_client(&addr, &log, &plan);
    client.enable_batching();

    let ptr = client.malloc(4096).unwrap();
    for i in 0..8u64 {
        client.memset(ptr + i * 8, i as i32, 8).unwrap();
    }
    client.flush_batch().unwrap();
    assert_eq!(client.rpc().stats().reconnects, 1);
    let back = client.memcpy_dtoh(ptr, 64).unwrap();
    for i in 0..8usize {
        assert_eq!(&back[i * 8..(i + 1) * 8], &[i as u8; 8][..]);
    }
    client.free(ptr).unwrap();
    drop(client);
    handle.shutdown();
    let bytes = log.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let trace = plan.lock().trace_string();
    (trace, bytes)
}

/// The mid-batch fault scenarios hold in reactor mode with reply streams
/// byte-identical to the serial reference — batches park on worker shards,
/// yet replay, reconnect, and status-vector semantics are unchanged.
#[test]
fn reactor_mid_batch_drop_and_reset_match_serial() {
    let (trace_s, bytes_s) = run_batch_drop(ServeMode::Serial);
    let (trace_r, bytes_r) = run_batch_drop(REACTOR);
    assert_eq!(trace_s, trace_r, "batch-drop fault schedules diverged");
    assert_eq!(bytes_s, bytes_r, "batch-drop reply streams diverged");

    let (trace_s, bytes_s) = run_batch_reset(ServeMode::Serial);
    let (trace_r, bytes_r) = run_batch_reset(REACTOR);
    assert_eq!(trace_s, trace_r, "batch-reset fault schedules diverged");
    assert_eq!(bytes_s, bytes_r, "batch-reset reply streams diverged");
}

/// Connection-churn soak: 500 sessions opened and closed through the
/// reactor — half of them vanishing with memory still allocated — must
/// leave zero scheduler sessions behind, reclaim every allocation, keep
/// the replay cache inside its per-client window, and recycle pooled
/// reply buffers instead of allocating per call.
#[test]
fn reactor_churn_soak_releases_all_sessions() {
    const THREADS: usize = 10;
    const CONNS_PER_THREAD: usize = 50;
    const TOTAL: usize = THREADS * CONNS_PER_THREAD;

    let server = CricketServer::a100();
    let handle = ServerBuilder::new("127.0.0.1:0")
        .server(Arc::clone(&server))
        .mode(REACTOR)
        .serve()
        .unwrap();
    let replay = Arc::clone(handle.replay());
    let addr = handle.addr().to_string();

    // The probe is connection 1 (session 1); churned sessions are 2..=TOTAL+1.
    let mut probe = CricketClient::new(
        Box::new(TcpTransport::connect(&addr).unwrap()),
        cricket_repro::client::env::ClientFlavor::RustRpcLib,
        None,
    );
    let baseline = probe.mem_get_info().unwrap().free;

    let mut joins = Vec::new();
    for t in 0..THREADS {
        let addr = addr.clone();
        joins.push(std::thread::spawn(move || {
            for c in 0..CONNS_PER_THREAD {
                let mut client = CricketClient::new(
                    Box::new(TcpTransport::connect(&addr).unwrap()),
                    cricket_repro::client::env::ClientFlavor::RustRpcLib,
                    None,
                );
                client.rpc().set_credential(OpaqueAuth::client_token(
                    0x50_0000 + (t * CONNS_PER_THREAD + c) as u64,
                ));
                let ptr = client.malloc(8192).unwrap();
                client.memcpy_htod(ptr, &[0xAB; 64]).unwrap();
                assert_eq!(client.memcpy_dtoh(ptr, 64).unwrap(), vec![0xAB; 64]);
                assert_eq!(client.device_count().unwrap(), 4);
                client.free(ptr).unwrap();
                // Half the connections vanish with memory still held:
                // the reactor's close hook must reclaim it.
                if c % 2 == 0 {
                    let _leak = client.malloc(4096).unwrap();
                }
                drop(client);
            }
        }));
    }
    for j in joins {
        j.join().expect("churn thread panicked");
    }

    // Zero leaked scheduler sessions: every churned session is forgotten
    // once its connection finalizes (close hooks run after the last
    // in-flight call completed, so poll briefly).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let leaked: Vec<u32> = (2..=(TOTAL + 1) as u32)
            .filter(|s| server.scheduler.knows(*s))
            .collect();
        if leaked.is_empty() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "leaked scheduler sessions after churn: {leaked:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Every vanished session's memory came back.
    loop {
        if probe.mem_get_info().unwrap().free == baseline {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "server never reclaimed churned sessions' memory"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Replay cache stays inside the per-client window even through the
    // reactor's out-of-order completion path: one client hammering 200
    // non-idempotent calls keeps at most DEFAULT_REPLAY_WINDOW entries.
    let mut burst = CricketClient::new(
        Box::new(TcpTransport::connect(&addr).unwrap()),
        cricket_repro::client::env::ClientFlavor::RustRpcLib,
        None,
    );
    burst
        .rpc()
        .set_credential(OpaqueAuth::client_token(0xB125_7000));
    let cache = || ["replay.stores", "replay.evictions"].map(|n| count(replay.metrics(), n));
    let before = cache();
    for _ in 0..100 {
        let p = burst.malloc(1024).unwrap();
        burst.free(p).unwrap();
    }
    let after = cache();
    let stored = after[0] - before[0];
    let evicted = after[1] - before[1];
    assert!(stored >= 200, "burst calls not cached: {stored}");
    assert!(
        evicted
            >= stored.saturating_sub(cricket_repro::oncrpc::replay::DEFAULT_REPLAY_WINDOW as u64),
        "replay cache grew unboundedly through the reactor: stored {stored}, evicted {evicted}"
    );

    // Pooled buffers are recycled, not allocated per call: across ~3000
    // RPCs this reactor's pools serve far more buffers than they allocate.
    let bufs = handle.server().stats();
    let get = |name| bufs.get(name).unwrap();
    assert!(
        get("reactor.inline_replies") + get("reactor.parked_calls") >= 5 * TOTAL as u64,
        "the churn's calls are missing from its own reactor: {bufs:?}"
    );
    assert!(
        get("reactor.bufs_reused") > get("reactor.bufs_allocated"),
        "reply/record pool not recycling: {bufs:?}"
    );

    drop(probe);
    drop(burst);
    handle.shutdown();
}

/// Counters live on the instance that counts: two simulated stacks copying
/// at the same time, and two reactors serving at the same time, each report
/// exactly what they alone did — to the byte and to the call.
#[test]
fn two_stacks_in_one_process_count_only_their_own_traffic() {
    // Copies. (bytes staged by the RPC client + its transport, payload bytes.)
    let copy_script = |h2d: usize, d2h: usize, rounds: usize| {
        let setup = SimSetup::new();
        let mut c = setup.client(EnvConfig::RustNative);
        let ptr = c.malloc(h2d.max(d2h) as u64).unwrap();
        let data = vec![0x5a; h2d];
        for _ in 0..rounds {
            c.memcpy_htod(ptr, &data).unwrap();
            assert_eq!(c.memcpy_dtoh(ptr, d2h as u64).unwrap().len(), d2h);
        }
        let transferred = c.stats.bytes_total();
        let rpc = c.rpc();
        let copied = rpc.stats().bytes_copied + rpc.transport().bytes_copied();
        (copied, transferred)
    };
    let (a, b) = ((1 << 20, 4096, 5), (70_001, 300_000, 9));
    let alone = (copy_script(a.0, a.1, a.2), copy_script(b.0, b.1, b.2));
    assert_ne!(alone.0, alone.1, "the scripts must be told apart");
    // H2D is staged twice (send buffer, server-side reassembly), D2H once
    // (the client's reply reassembly), plus headers.
    let floor = |(h2d, d2h, rounds): (usize, usize, usize)| ((2 * h2d + d2h) * rounds) as u64;
    assert!(alone.0 .0 >= floor(a) && alone.0 .0 < floor(a) + 16_384);
    assert_eq!(alone.0 .1, ((a.0 + a.1) * a.2) as u64);
    for _ in 0..3 {
        let together = std::thread::scope(|s| {
            let ta = s.spawn(|| copy_script(a.0, a.1, a.2));
            let tb = s.spawn(|| copy_script(b.0, b.1, b.2));
            (ta.join().unwrap(), tb.join().unwrap())
        });
        assert_eq!(together, alone, "a stack counted its neighbour's copies");
    }

    // Calls. Every call is counted once, inline or parked; which of the
    // two an `inline` procedure gets depends on whether the worker has
    // published the previous reply's decrement yet, so only their sum and
    // the parked floor are exact.
    let serve = || {
        ServerBuilder::new("127.0.0.1:0")
            .mode(REACTOR)
            .serve()
            .unwrap()
    };
    let drive = |addr: std::net::SocketAddr, inline: u64, pairs: u64| {
        let mut c = CricketClient::new(
            Box::new(TcpTransport::connect(addr).unwrap()),
            cricket_repro::client::env::ClientFlavor::RustRpcLib,
            None,
        );
        for i in 0..inline.max(pairs) {
            if i < inline {
                assert_eq!(c.device_count().unwrap(), 4);
            }
            if i < pairs {
                let p = c.malloc(1024).unwrap();
                c.free(p).unwrap();
            }
        }
    };
    let (one, two) = (serve(), serve());
    let fresh = one.server().stats();
    let reactor = fresh
        .stats
        .iter()
        .filter(|s| s.name.starts_with("reactor."));
    assert!(
        reactor.map(|s| s.value).all(|v| v == 0),
        "fresh reads zero: {fresh:?}"
    );
    std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| drive(one.addr(), 40, 7));
            s.spawn(|| drive(two.addr(), 11, 23));
        }
    });
    for (stats, inline, pairs) in [
        (one.server().stats(), 40, 7),
        (two.server().stats(), 11, 23),
    ] {
        let get = |name| stats.get(name).unwrap();
        let calls = get("reactor.inline_replies") + get("reactor.parked_calls");
        assert_eq!(calls, 3 * (inline + 2 * pairs), "{stats:?}");
        assert!(get("reactor.parked_calls") >= 3 * 2 * pairs, "{stats:?}");
        assert!(get("reactor.inline_replies") > 0, "{stats:?}");
    }
    one.shutdown();
    two.shutdown();
}

/// `SRV_GET_STATS` returns the whole list, over `SimTransport` and over
/// reactor TCP: the same names in the same order as the server's own
/// read, each value between the owners' reads taken before and after the
/// call (over TCP the read is itself an inline reactor call, so the
/// reactor's counters move while it is answered).
#[test]
fn the_whole_statistics_list_crosses_the_wire() {
    let within = |before: &ServerStats, wire: &ServerStats, after: &ServerStats| {
        let names = |s: &ServerStats| s.stats.iter().map(|s| s.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(wire), names(before));
        assert_eq!(names(wire), names(after));
        let rows = before
            .stats
            .iter()
            .zip(wire.stats.iter())
            .zip(after.stats.iter());
        for ((b, w), a) in rows {
            assert!(
                b.value <= w.value && w.value <= a.value,
                "{}: {b:?} {w:?} {a:?}",
                w.name
            );
        }
        assert!(wire.get("server.calls").unwrap() >= 3, "{wire:?}");
        assert_eq!(wire.get("server.sessions"), Some(1), "{wire:?}");
    };
    let traffic = |c: &mut CricketClient| {
        let p = c.malloc(1024).unwrap();
        c.memcpy_htod(p, &[7; 64]).unwrap();
        c.free(p).unwrap();
    };

    let setup = SimSetup::new();
    let mut c = setup.client(EnvConfig::RustyHermit);
    traffic(&mut c);
    let before = setup.server.stats();
    let wire = c.server_stats().unwrap();
    within(&before, &wire, &setup.server.stats());
    assert_eq!(wire.get("reactor.reads"), Some(0), "no reactor serves it");

    let handle = ServerBuilder::new("127.0.0.1:0")
        .mode(REACTOR)
        .serve()
        .unwrap();
    let mut c = CricketClient::new(
        Box::new(TcpTransport::connect(handle.addr()).unwrap()),
        cricket_repro::client::env::ClientFlavor::RustRpcLib,
        None,
    );
    traffic(&mut c);
    let before = handle.server().stats();
    let wire = c.server_stats().unwrap();
    let after = handle.server().stats();
    within(&before, &wire, &after);
    let inline = |s: &ServerStats| s.get("reactor.inline_replies").unwrap();
    assert!(
        inline(&before) < inline(&after),
        "the read was an inline call"
    );
    assert!(wire.get("reactor.reads").unwrap() >= 4, "{wire:?}");
    drop(c);
    handle.shutdown();
}
