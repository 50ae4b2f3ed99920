//! Deterministic chaos harness: full client↔server stacks under exact,
//! replayable fault schedules (ISSUE: every schedule is named by its seed).
//!
//! The CI `chaos` step runs this file across the fixed seed matrix below;
//! a failure always names the seed so the schedule can be replayed with
//! `FaultPlan::from_seed(<seed>)`.

use cricket_repro::oncrpc::{
    Fault, FaultConfig, FaultPlan, FaultyTransport, OpaqueAuth, ReplayCache, RetryPolicy,
    RpcClient, RpcError, SharedFaultPlan, TcpTransport,
};
use cricket_repro::prelude::*;
use cricket_repro::server::{ServerBuilder, SimTransport};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The fixed fault matrix exercised by `ci.sh chaos`.
const CI_SEEDS: [u64; 6] = [1, 7, 42, 0xC41C_4E71, 0xDEAD_BEEF, 20_230_915];

/// Retransmissions `replay` answered without executing them again.
fn hits(replay: &ReplayCache) -> u64 {
    replay
        .metrics()
        .iter()
        .find(|&(n, _)| n == "replay.hits")
        .unwrap()
        .1
}

/// Wire a chaos client for survival: client token for at-most-once
/// dedupe, capped-backoff retries (including non-idempotent calls — the
/// server's replay cache makes them safe), a short per-call deadline, and
/// a reconnector that continues the same fault schedule.
fn harden(client: &mut CricketClient, setup: &SimSetup, env: EnvConfig, plan: &SharedFaultPlan) {
    let rpc_srv = Arc::clone(&setup.rpc);
    let clock = Arc::clone(&setup.clock);
    let plan2 = Arc::clone(plan);
    let rpc = client.rpc();
    rpc.set_credential(OpaqueAuth::client_token(0xC11E_0001));
    rpc.set_retry_policy(RetryPolicy {
        max_attempts: 20,
        base_delay: Duration::from_micros(50),
        max_delay: Duration::from_millis(1),
        retry_non_idempotent: true,
    });
    rpc.set_call_timeout(Some(Duration::from_millis(40)))
        .unwrap();
    rpc.set_reconnect(move || {
        let fresh = SimTransport::new(Arc::clone(&rpc_srv), env.guest(), Arc::clone(&clock));
        Ok(Box::new(FaultyTransport::new(
            Box::new(fresh),
            Arc::clone(&plan2),
        )))
    });
}

/// Run a fixed GPU workload against a fresh simulated server while `plan`
/// mangles the wire. Every call must return the correct result; no server
/// allocation may leak. Returns the plan's rendered decision trace.
///
/// Uses [`FaultConfig::lossy`]: resets, drops, delays, duplicates and
/// truncations are all detected or masked by the stack, so full success is
/// the contract. Payload corruption is undetectable without an end-to-end
/// checksum and is exercised separately (see
/// `corrupted_payloads_surface_as_typed_errors_not_panics`).
fn run_seeded_workload(seed: u64) -> String {
    let setup = SimSetup::new();
    let replay = Arc::new(ReplayCache::default());
    setup.rpc.set_replay_cache(Arc::clone(&replay));
    let plan = FaultPlan::from_seed_with(seed, FaultConfig::lossy()).into_shared();
    let env = EnvConfig::RustyHermit;
    let mut client = setup.chaos_client(env, &plan);
    harden(&mut client, &setup, env, &plan);

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
    let trace = plan.lock().trace_string();
    trace
}

/// Acceptance criterion: `FaultPlan::from_seed(s)` produces byte-identical
/// event traces across two same-seed runs of the same workload.
#[test]
fn same_seed_produces_byte_identical_traces() {
    let seed = 0xC41C_4E71;
    let first = run_seeded_workload(seed);
    let second = run_seeded_workload(seed);
    assert!(!first.is_empty());
    assert_eq!(first, second, "same seed must replay the same schedule");
    // The chosen seed actually injects faults — a trace of clean deliveries
    // would pin nothing.
    assert!(
        first.lines().any(|l| !l.ends_with(":ok")),
        "seed {seed} injected no faults:\n{first}"
    );
}

#[test]
fn different_seeds_produce_different_schedules() {
    assert_ne!(run_seeded_workload(1), run_seeded_workload(2));
}

/// The CI fault matrix. Runs each fixed seed and names the failing seed in
/// the panic message so the schedule can be replayed locally.
#[test]
fn fault_matrix_fixed_seeds() {
    for seed in CI_SEEDS {
        let outcome = std::panic::catch_unwind(|| run_seeded_workload(seed));
        if let Err(cause) = outcome {
            let msg = cause
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| cause.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!("chaos matrix failed at seed {seed} (replay with FaultPlan::from_seed({seed})): {msg}");
        }
    }
}

/// Acceptance criterion: a coalesced batch whose reply is dropped
/// mid-flight is retransmitted under the same xid and served from the
/// replay cache with a **byte-identical status vector** — its sub-ops
/// execute exactly once, and the typed error decoded from the cached
/// reply names the same failing sub-op the original execution recorded.
#[test]
fn dropped_batch_reply_is_replayed_with_identical_status_vector() {
    let setup = SimSetup::new();
    let replay = Arc::new(ReplayCache::default());
    setup.rpc.set_replay_cache(Arc::clone(&replay));
    // Events alternate request/reply: malloc is 0/1, the
    // CRICKET_BATCH_EXEC flush is 2/3 — drop the batch *reply*.
    let plan = FaultPlan::scripted(vec![(3, Fault::DropReply)]).into_shared();
    let env = EnvConfig::RustyHermit;
    let mut client = setup.chaos_client(env, &plan);
    harden(&mut client, &setup, env, &plan);
    client.enable_batching();

    let ptr = client.malloc(4096).unwrap();
    client.memset(ptr, 1, 64).unwrap(); // sub-op 0: executes
    client.memset(0xdead_beef_0000, 2, 8).unwrap(); // sub-op 1: fails
    client.memset(ptr + 64, 3, 64).unwrap(); // sub-op 2: skipped (same slice)
    let err = client.flush_batch().unwrap_err();
    match err {
        ClientError::Batch { api, index, code } => {
            assert_eq!(api, "cudaMemset");
            assert_eq!(index, 1, "cached status vector named a different sub-op");
            assert_ne!(code, 0);
        }
        other => panic!("expected a typed batch error, got {other}"),
    }
    // The error above was decoded from the *retransmitted* reply: the
    // first one died on the wire, so the client retried and the server
    // answered from the replay cache instead of executing again.
    assert!(client.rpc().stats().retries >= 1);
    assert!(
        hits(&replay) >= 1,
        "batch retransmission bypassed the replay cache: {:?}",
        replay.metrics()
    );
    // Exactly-once, observable in device memory: sub-op 0 applied once,
    // sub-op 2 never ran.
    let back = client.memcpy_dtoh(ptr, 128).unwrap();
    assert_eq!(&back[..64], &[1u8; 64][..]);
    assert_eq!(&back[64..], &[0u8; 64][..], "skipped sub-op executed");
    client.free(ptr).unwrap();
}

/// An in-process server reports the replay cache its calls use: the
/// server's own cache, with no cache attached by hand. A token-tagged
/// malloc whose reply is dropped is retransmitted over `SimTransport`
/// under the same xid, answered from that cache, and `SRV_GET_STATS`
/// counts exactly that one hit.
#[test]
fn an_in_process_server_reports_the_replays_its_own_cache_answers() {
    let setup = SimSetup::new();
    // Events alternate request/reply: drop the malloc's reply.
    let plan = FaultPlan::scripted(vec![(1, Fault::DropReply)]).into_shared();
    let env = EnvConfig::RustyHermit;
    let mut client = setup.chaos_client(env, &plan);
    harden(&mut client, &setup, env, &plan);

    let ptr = client.malloc(4096).unwrap();
    assert_eq!(client.rpc().stats().retries, 1);
    let stats = client.server_stats().unwrap();
    assert_eq!(stats.get("replay.hits"), Some(1), "{stats:?}");
    assert_eq!(setup.server.stats().get("replay.hits"), Some(1));
    // Executed once: nothing is left once the one allocation is freed.
    client.free(ptr).unwrap();
    assert_eq!(setup.server.release_session(0).total(), 0);
}

/// A connection reset while the batch request itself is in flight: the
/// server never saw it, so the reconnect-and-retransmit path must execute
/// the batch exactly once (no replay hit, no double execution).
#[test]
fn reset_batch_request_executes_exactly_once_after_reconnect() {
    let setup = SimSetup::new();
    let replay = Arc::new(ReplayCache::default());
    setup.rpc.set_replay_cache(Arc::clone(&replay));
    // Event 2 is the batch *request* record (malloc is events 0/1).
    let plan = FaultPlan::scripted(vec![(2, Fault::ResetOnSend)]).into_shared();
    let env = EnvConfig::Unikraft;
    let mut client = setup.chaos_client(env, &plan);
    harden(&mut client, &setup, env, &plan);
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
}

/// Seeded batch workload for the CI matrix: a hardened *batching* client
/// runs a memset/H2D-heavy loop under the seed's fault schedule; every
/// readback must match unbatched semantics and nothing may leak.
fn run_seeded_batch_workload(seed: u64) {
    let setup = SimSetup::new();
    let replay = Arc::new(ReplayCache::default());
    setup.rpc.set_replay_cache(Arc::clone(&replay));
    let plan = FaultPlan::from_seed_with(seed, FaultConfig::lossy()).into_shared();
    let env = EnvConfig::RustyHermit;
    let mut client = setup.chaos_client(env, &plan);
    harden(&mut client, &setup, env, &plan);
    client.enable_batching();

    let baseline = client.mem_get_info().unwrap().free;
    let ptr = client.malloc(4096).unwrap();
    for round in 0..4u8 {
        for i in 0..8u64 {
            client
                .memset(ptr + i * 64, (round + 1) as i32 * 10 + i as i32, 64)
                .unwrap();
        }
        let pattern: Vec<u8> = (0..64u32).map(|b| (b as u8) ^ round).collect();
        client.memcpy_htod(ptr + 512, &pattern).unwrap();
        // The D2H readback is the sync point: it flushes the batch and
        // must observe every recorded op, exactly once, in order.
        let back = client.memcpy_dtoh(ptr, 576).unwrap();
        for i in 0..8usize {
            assert_eq!(
                &back[i * 64..i * 64 + 64],
                &[(round + 1) * 10 + i as u8; 64][..],
                "seed {seed}: batched memset {i} of round {round} lost or reordered"
            );
        }
        assert_eq!(&back[512..], &pattern[..], "seed {seed}: batched H2D lost");
    }
    client.free(ptr).unwrap();
    assert_eq!(
        client.mem_get_info().unwrap().free,
        baseline,
        "seed {seed}: leaked server allocation"
    );
}

/// The CI batch fault matrix: the coalescing path holds its contract on
/// every fixed seed; failures name the seed for local replay.
#[test]
fn batch_fault_matrix_fixed_seeds() {
    for seed in CI_SEEDS {
        let outcome = std::panic::catch_unwind(|| run_seeded_batch_workload(seed));
        if let Err(cause) = outcome {
            let msg = cause
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| cause.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!("batch chaos matrix failed at seed {seed} (replay with FaultPlan::from_seed({seed})): {msg}");
        }
    }
}

/// Seeded overload workload for the CI matrix: the session runs under a
/// tight device-time rate quota, so the admission gate sheds calls with
/// `CRICKET_BUSY` *while the seed's fault schedule mangles the wire*. The
/// hardened client backs off by the server's retry-after hint and
/// retransmits; the contract is that every call still completes exactly
/// once. This doubles as the end-to-end proof that busy rejections are
/// never replay-cached: a cached rejection would be replayed to the
/// same-xid retransmission forever and the workload could never finish.
fn run_seeded_shed_workload(seed: u64) {
    let setup = SimSetup::new();
    let replay = Arc::new(ReplayCache::default());
    setup.rpc.set_replay_cache(Arc::clone(&replay));
    let plan = FaultPlan::from_seed_with(seed, FaultConfig::lossy()).into_shared();
    let env = EnvConfig::RustyHermit;
    let mut client = setup.chaos_client(env, &plan);
    harden(&mut client, &setup, env, &plan);

    // ~60µs of virtual time elapses per RPC round trip. At a 1/20 refill
    // rate (50ms of device time per wall second) one round trip banks
    // ~3µs of the 6µs dispatch quantum, so work calls are shed roughly
    // every other attempt and every shed recovers within a retry or two —
    // each rejection itself advances the virtual clock toward the refill.
    client
        .set_qos(&cricket_repro::proto::QosParams {
            session: 0,
            weight: 1,
            priority: 100,
            rate_ns_per_s: 50_000_000,
            burst_ns: 6_000,
            max_resident_bytes: 0,
        })
        .unwrap();

    let baseline = client.mem_get_info().unwrap().free;
    let mut ptrs: Vec<(u64, Vec<u8>)> = Vec::new();
    for i in 0..4u8 {
        let ptr = client.malloc(4096).unwrap();
        assert!(
            ptrs.iter().all(|(p, _)| *p != ptr),
            "seed {seed}: duplicate pointer {ptr:#x} — a shed malloc executed twice"
        );
        let pattern: Vec<u8> = (0..64u32).map(|b| (b as u8).wrapping_add(i)).collect();
        client.memcpy_htod(ptr, &pattern).unwrap();
        ptrs.push((ptr, pattern));
    }
    for (ptr, pattern) in &ptrs {
        assert_eq!(
            &client.memcpy_dtoh(*ptr, 64).unwrap(),
            pattern,
            "seed {seed}: readback corrupted under shedding"
        );
    }
    for (ptr, _) in &ptrs {
        client.free(*ptr).unwrap();
    }
    assert_eq!(
        client.mem_get_info().unwrap().free,
        baseline,
        "seed {seed}: a shed-then-retried call executed twice or leaked"
    );
    // The quota actually bit: sheds since the last report saturate the
    // shard's advertised QoS pressure.
    assert_eq!(
        setup.server.load_report().qos_pressure,
        1000,
        "seed {seed}: the rate quota never shed a call — nothing was exercised"
    );
}

/// The CI overload matrix: `CRICKET_BUSY` shedding composes with every
/// fixed fault seed; failures name the seed for local replay.
#[test]
fn shed_and_retry_matrix_fixed_seeds() {
    for seed in CI_SEEDS {
        let outcome = std::panic::catch_unwind(|| run_seeded_shed_workload(seed));
        if let Err(cause) = outcome {
            let msg = cause
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| cause.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!("shed chaos matrix failed at seed {seed} (replay with FaultPlan::from_seed({seed})): {msg}");
        }
    }
}

/// Payload corruption is *undetectable* by RPC/XDR (there is no checksum —
/// on real wires TCP's covers it): a flipped byte can change arguments or
/// results while every record still parses. The contract is therefore
/// weaker than the lossy matrix's: a call may fail with a typed error —
/// never a panic or a hang — and the stack keeps serving correct results
/// once the wire is clean again.
#[test]
fn corrupted_payloads_surface_as_typed_errors_not_panics() {
    let setup = SimSetup::new();
    let plan = FaultPlan::scripted(vec![(0, Fault::CorruptRequest), (3, Fault::CorruptReply)])
        .into_shared();
    let env = EnvConfig::RustyHermit;
    let mut client = setup.chaos_client(env, &plan);
    harden(&mut client, &setup, env, &plan);

    // No unwraps: any typed outcome is within contract.
    let mut outcomes = Vec::new();
    for _ in 0..4 {
        outcomes.push(client.malloc(4096));
    }
    outcomes.push(client.device_count().map(|n| n as u64));
    let trace = plan.lock().trace_string();
    assert!(trace.contains("corrupt-request"), "{trace}");

    // The script is exhausted: the wire is clean and the stack still
    // serves correct results.
    assert_eq!(client.device_count().unwrap(), 4);
}

/// Acceptance criterion: under a reset-and-retry schedule, non-idempotent
/// calls (cudaMalloc here) execute exactly once server-side — the replay
/// cache serves the retransmission — and the client completes every call.
#[test]
fn reset_and_retry_runs_non_idempotent_calls_exactly_once() {
    let setup = SimSetup::new();
    let replay = Arc::new(ReplayCache::default());
    setup.rpc.set_replay_cache(Arc::clone(&replay));
    // op 0: malloc #1 request arrives and executes; op 1: its reply is
    // dropped → same-xid retransmission must hit the replay cache.
    // op 4: malloc #2 request dies with a connection reset → reconnect and
    // retransmit; the server never saw it, so it executes once.
    // op 8: a reply is duplicated → the spare must be drained as stale.
    let plan = FaultPlan::scripted(vec![
        (1, Fault::DropReply),
        (4, Fault::ResetOnSend),
        (8, Fault::DuplicateReply),
    ])
    .into_shared();
    let env = EnvConfig::Unikraft;
    let mut client = setup.chaos_client(env, &plan);
    harden(&mut client, &setup, env, &plan);

    let baseline = client.mem_get_info().unwrap().free;
    let p1 = client.malloc(8192).unwrap();
    let p2 = client.malloc(8192).unwrap();
    let p3 = client.malloc(8192).unwrap();
    assert!(p1 != p2 && p2 != p3 && p1 != p3, "a malloc ran twice");
    client.memcpy_htod(p1, &[0xA5; 64]).unwrap();
    assert_eq!(client.memcpy_dtoh(p1, 64).unwrap(), vec![0xA5; 64]);
    for p in [p1, p2, p3] {
        client.free(p).unwrap();
    }
    assert_eq!(
        client.mem_get_info().unwrap().free,
        baseline,
        "retransmitted malloc leaked — executed more than once"
    );

    // Telemetry: the dropped reply was answered from the replay cache, the
    // reset forced one reconnect, and the duplicated reply was drained.
    let cache = replay.metrics();
    assert!(hits(&replay) >= 1, "no replay-cache hit: {cache:?}");
    let stats = client.rpc().stats();
    assert!(stats.retries >= 2, "stats: {stats:?}");
    assert_eq!(stats.reconnects, 1, "stats: {stats:?}");
    assert!(stats.stale_replies >= 1, "stats: {stats:?}");

    // The trace names every decision for the postmortem.
    let trace = plan.lock().trace_string();
    assert!(trace.contains("rep:drop-reply"), "{trace}");
    assert!(trace.contains("req:reset"), "{trace}");
    assert!(trace.contains("rep:duplicate-reply"), "{trace}");
}

/// Per-call deadlines: a connected but silent server must not hang the
/// client; the pooled read path surfaces a typed timeout.
#[test]
fn per_call_deadline_fires_on_a_silent_server() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hold = std::thread::spawn(move || {
        // Accept, then never reply.
        let conn = listener.accept();
        std::thread::sleep(Duration::from_millis(500));
        drop(conn);
    });
    let t = TcpTransport::connect(addr).unwrap();
    let mut rpc = RpcClient::new(
        Box::new(t),
        cricket_repro::proto::CRICKET_CUDA,
        cricket_repro::proto::CRICKET_V1,
    );
    rpc.set_call_timeout(Some(Duration::from_millis(60)))
        .unwrap();
    let start = Instant::now();
    let err = rpc
        .call_raw(cricket_repro::proto::cricket_v1::RPC_NULL, |_enc| {})
        .unwrap_err();
    assert!(matches!(err, RpcError::TimedOut), "got {err:?}");
    assert!(
        start.elapsed() < Duration::from_millis(400),
        "deadline overshot: {:?}",
        start.elapsed()
    );
    hold.join().unwrap();
}

/// TCP server hardening: when a client vanishes mid-session, its vGPU
/// allocations and streams are reclaimed by the per-connection cleanup.
#[test]
fn tcp_session_cleanup_reclaims_vanished_clients_resources() {
    let server = cricket_repro::server::CricketServer::a100();
    let handle = ServerBuilder::new("127.0.0.1:0")
        .server(Arc::clone(&server))
        .serve()
        .unwrap();
    let addr = handle.addr().to_string();

    let mut watcher = CricketClient::new(
        Box::new(TcpTransport::connect(&addr).unwrap()),
        cricket_repro::client::env::ClientFlavor::RustRpcLib,
        None,
    );
    let baseline = watcher.mem_get_info().unwrap().free;

    {
        let mut doomed = CricketClient::new(
            Box::new(TcpTransport::connect(&addr).unwrap()),
            cricket_repro::client::env::ClientFlavor::RustRpcLib,
            None,
        );
        let ptr = doomed.malloc(1 << 20).unwrap();
        doomed.memcpy_htod(ptr, &[1; 256]).unwrap();
        let _stream = doomed.stream_create().unwrap();
        assert!(watcher.mem_get_info().unwrap().free < baseline);
        // The client vanishes without freeing anything.
        drop(doomed);
    }

    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if watcher.mem_get_info().unwrap().free == baseline {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "server never reclaimed the vanished session's memory"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
}

/// TCP resilience end to end: a chaos transport over real TCP, with the
/// reconnector dialing the server again. The shared replay cache keeps
/// retransmitted non-idempotent calls exactly-once across connections.
#[test]
fn tcp_reset_and_retry_with_session_server() {
    let server = cricket_repro::server::CricketServer::a100();
    let handle = ServerBuilder::new("127.0.0.1:0")
        .server(Arc::clone(&server))
        .serve()
        .unwrap();
    let replay = Arc::clone(handle.replay());
    let addr = handle.addr().to_string();

    let plan =
        FaultPlan::scripted(vec![(1, Fault::DropReply), (4, Fault::ResetOnSend)]).into_shared();
    let mut client = CricketClient::new(
        Box::new(FaultyTransport::new(
            Box::new(TcpTransport::connect(&addr).unwrap()),
            Arc::clone(&plan),
        )),
        cricket_repro::client::env::ClientFlavor::RustRpcLib,
        None,
    );
    {
        let dial = addr.clone();
        let plan2 = Arc::clone(&plan);
        let rpc = client.rpc();
        rpc.set_credential(OpaqueAuth::client_token(0x7C9_0002));
        rpc.set_retry_policy(RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_micros(200),
            max_delay: Duration::from_millis(5),
            retry_non_idempotent: true,
        });
        rpc.set_call_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        rpc.set_reconnect(move || {
            Ok(Box::new(FaultyTransport::new(
                Box::new(TcpTransport::connect(&dial)?),
                Arc::clone(&plan2),
            )))
        });
    }

    let _p1 = client.malloc(4096).unwrap(); // reply dropped → replay hit
    let p2 = client.malloc(4096).unwrap(); // reset → reconnect, fresh session
    client.memcpy_htod(p2, &[7; 32]).unwrap();
    assert_eq!(client.memcpy_dtoh(p2, 32).unwrap(), vec![7; 32]);

    assert!(hits(&replay) >= 1, "{:?}", replay.metrics());
    assert_eq!(client.rpc().stats().reconnects, 1);
    handle.shutdown();
}
