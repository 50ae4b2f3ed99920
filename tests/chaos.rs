//! Deterministic chaos: full client↔server stacks under exact, replayable
//! fault schedules, in process. The seeded rows are scenarios of
//! `tests/harness`, whose failures name the seed to replay.

mod harness;

use cricket_repro::oncrpc::{transport::Transport, Fault, FaultPlan, FaultyTransport};
use cricket_repro::oncrpc::{RpcClient, RpcError, RpcResult, TcpTransport};
use cricket_repro::server::ServerBuilder;
use cricket_repro::{client::BatchPolicy, prelude::*, proto};
use harness::{replay_hits, sim_client, Driver, Feature, Run, Scenario, SIX_MALLOCS};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SIM: Driver = Driver::Sim(EnvConfig::RustyHermit);

/// Acceptance criterion: `FaultPlan::from_seed(s)` produces byte-identical
/// event traces across two same-seed runs of the same workload.
#[test]
fn same_seed_produces_byte_identical_traces() {
    let seed = 0xC41C_4E71;
    let first = SIX_MALLOCS.run(seed).plan;
    let second = SIX_MALLOCS.run(seed).plan;
    assert!(!first.is_empty());
    harness::same_trace("the same seed's schedule", &second, &first);
    // The chosen seed actually injects faults — a trace of clean deliveries
    // would pin nothing.
    let faulty = first.lines().any(|l| !l.ends_with(":ok"));
    assert!(faulty, "seed {seed} injected no faults:\n{first}");
}

#[test]
fn different_seeds_produce_different_schedules() {
    assert_ne!(SIX_MALLOCS.run(1).plan, SIX_MALLOCS.run(2).plan);
}

#[test]
fn fault_matrix_fixed_seeds() {
    SIX_MALLOCS.matrix("six mallocs, lossy, in process");
}

/// Acceptance criterion: a coalesced batch whose reply is dropped
/// mid-flight is retransmitted under the same xid and served from the
/// replay cache with a **byte-identical status vector**.
#[test]
fn dropped_batch_reply_is_replayed_with_identical_status_vector() {
    harness::BATCH_DROP.run(0);
}

/// An in-process server reports the replays its own cache answers: a
/// malloc whose reply is dropped is retransmitted under the same xid,
/// answered from that cache, and `SRV_GET_STATS` counts that one hit.
#[test]
fn an_in_process_server_reports_the_replays_its_own_cache_answers() {
    let setup = SimSetup::new();
    // Events alternate request/reply: drop the malloc's reply.
    let plan = FaultPlan::scripted(vec![(1, Fault::DropReply)]).into_shared();
    let mut client = sim_client(&setup, EnvConfig::RustyHermit, &plan);

    let ptr = client.malloc(4096).unwrap();
    assert_eq!(client.rpc().stats().retries, 1);
    let stats = client.server_stats().unwrap();
    assert_eq!(stats.get("replay.hits"), Some(1), "{stats:?}");
    assert_eq!(replay_hits(&setup.server), 1);
    // Executed once: nothing is left once the one allocation is freed.
    client.free(ptr).unwrap();
    assert_eq!(setup.server.release_session(0).total(), 0);
}

/// A connection reset while the batch request itself is in flight: the
/// server never saw it, so the reconnect-and-retransmit path must execute
/// the batch exactly once (no replay hit, no double execution).
#[test]
fn reset_batch_request_executes_exactly_once_after_reconnect() {
    harness::BATCH_RESET.run(0);
}

/// A batching client runs a memset/H2D-heavy loop; every readback must
/// match unbatched semantics.
fn batch_rounds(r: &mut Run) {
    let baseline = r.c.mem_get_info().unwrap().free;
    let ptr = r.malloc(4096);
    for round in 0..4u8 {
        for i in 0..8u64 {
            let value = (round + 1) as i32 * 10 + i as i32;
            r.c.memset(ptr + i * 64, value, 64).unwrap();
        }
        let pattern: Vec<u8> = (0..64u32).map(|b| (b as u8) ^ round).collect();
        r.c.memcpy_htod(ptr + 512, &pattern).unwrap();
        // The D2H readback is the sync point: it flushes the batch and
        // must observe every recorded op, exactly once, in order.
        let back = r.c.memcpy_dtoh(ptr, 576).unwrap();
        for i in 0..8usize {
            assert_eq!(
                &back[i * 64..i * 64 + 64],
                &[(round + 1) * 10 + i as u8; 64][..],
                "batched memset {i} of round {round} lost or reordered"
            );
        }
        assert_eq!(&back[512..], &pattern[..], "batched H2D lost");
        r.at(u64::from(round));
    }
    r.free(ptr);
    let free = r.c.mem_get_info().unwrap().free;
    assert_eq!(free, baseline, "exactly-once: a call ran twice or leaked");
}

/// The coalescing path holds its contract on every fixed seed.
#[test]
fn batch_fault_matrix_fixed_seeds() {
    Scenario {
        workload: batch_rounds,
        faults: harness::lossy,
        features: &[Feature::Batching],
        driver: SIM,
    }
    .matrix("batch rounds, lossy, in process");
}

/// Under a tight device-time quota the admission gate sheds calls with
/// `CRICKET_BUSY` *while the seed's schedule mangles the wire*; the client
/// backs off by the hint and retransmits, and every call still completes
/// exactly once. It doubles as the proof that a busy reply is never
/// replay-cached: a cached one would answer every retransmission.
fn shed_mallocs(r: &mut Run) {
    let baseline = r.c.mem_get_info().unwrap().free;
    let mut ptrs: Vec<(u64, Vec<u8>)> = Vec::new();
    for i in 0..4u8 {
        let ptr = r.malloc(4096);
        let pattern: Vec<u8> = (0..64u32).map(|b| (b as u8).wrapping_add(i)).collect();
        r.c.memcpy_htod(ptr, &pattern).unwrap();
        ptrs.push((ptr, pattern));
    }
    for (ptr, pattern) in &ptrs {
        let back = r.c.memcpy_dtoh(*ptr, 64).unwrap();
        assert_eq!(&back, pattern, "readback corrupted under shedding");
    }
    for (ptr, _) in &ptrs {
        r.free(*ptr);
    }
    let free = r.c.mem_get_info().unwrap().free;
    assert_eq!(free, baseline, "exactly-once: a shed call ran twice");
    quota_bit(r);
}

/// The quota bit: sheds since the last report saturate the pressure.
fn quota_bit(r: &Run) {
    let pressure = r.server.load_report().qos_pressure;
    assert_eq!(pressure, 1000, "the rate quota never shed a call");
}

/// `CRICKET_BUSY` shedding composes with every fixed fault seed.
#[test]
fn shed_and_retry_matrix_fixed_seeds() {
    Scenario {
        workload: shed_mallocs,
        faults: harness::lossy,
        features: &[Feature::QuotaShed],
        driver: SIM,
    }
    .matrix("shed mallocs, lossy, WFQ quota shed, in process");
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
    let mut client = sim_client(&setup, EnvConfig::RustyHermit, &plan);

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
    let mut client = sim_client(&setup, EnvConfig::Unikraft, &plan);

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
    assert!(replay_hits(&setup.server) >= 1, "no replay-cache hit");
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
    let t = Box::new(TcpTransport::connect(addr).unwrap());
    let mut rpc = RpcClient::new(t, proto::CRICKET_CUDA, proto::CRICKET_V1);
    rpc.set_call_timeout(Some(Duration::from_millis(60)))
        .unwrap();
    let start = Instant::now();
    let err = rpc
        .call_raw(proto::cricket_v1::RPC_NULL, |_| {})
        .unwrap_err();
    assert!(matches!(err, RpcError::TimedOut), "got {err:?}");
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(400),
        "deadline overshot: {took:?}"
    );
    hold.join().unwrap();
}

/// TCP server hardening: when a client vanishes mid-session, its vGPU
/// allocations and streams are reclaimed by the per-connection cleanup.
#[test]
fn tcp_session_cleanup_reclaims_vanished_clients_resources() {
    let handle = ServerBuilder::new("127.0.0.1:0").serve().unwrap();
    let mut watcher = harness::tcp_client(handle.addr());
    let baseline = watcher.mem_get_info().unwrap().free;

    {
        let mut doomed = harness::tcp_client(handle.addr());
        let ptr = doomed.malloc(1 << 20).unwrap();
        doomed.memcpy_htod(ptr, &[1; 256]).unwrap();
        let _stream = doomed.stream_create().unwrap();
        assert!(watcher.mem_get_info().unwrap().free < baseline);
        // The client vanishes without freeing anything.
        drop(doomed);
    }

    let deadline = Instant::now() + Duration::from_secs(5);
    while watcher.mem_get_info().unwrap().free != baseline {
        let late = Instant::now() > deadline;
        assert!(!late, "the vanished session's memory was never reclaimed");
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
}

/// TCP resilience end to end: a chaos transport over real TCP, with the
/// reconnector dialing the server again. The shared replay cache keeps
/// retransmitted non-idempotent calls exactly-once across connections.
#[test]
fn tcp_reset_and_retry_with_session_server() {
    let handle = ServerBuilder::new("127.0.0.1:0").serve().unwrap();
    let (addr, server) = (handle.addr(), handle.server());
    let plan =
        FaultPlan::scripted(vec![(1, Fault::DropReply), (4, Fault::ResetOnSend)]).into_shared();
    let plan2 = Arc::clone(&plan);
    let redial = move || -> RpcResult<Box<dyn Transport>> {
        let t = Box::new(TcpTransport::connect(addr)?);
        Ok(Box::new(FaultyTransport::new(t, Arc::clone(&plan2))))
    };
    let flavor = cricket_repro::client::env::ClientFlavor::RustRpcLib;
    let mut client = CricketClient::new(redial().unwrap(), flavor, None);
    harness::harden(client.rpc(), 0x7C9_0002, 100, Box::new(redial));

    let _p1 = client.malloc(4096).unwrap(); // reply dropped → replay hit
    let p2 = client.malloc(4096).unwrap(); // reset → reconnect, fresh session
    client.memcpy_htod(p2, &[7; 32]).unwrap();
    assert_eq!(client.memcpy_dtoh(p2, 32).unwrap(), vec![7; 32]);

    assert!(replay_hits(server) >= 1);
    assert_eq!(client.rpc().stats().reconnects, 1);
    handle.shutdown();
}

/// Sub-ops of the contended batch; the one at `FAILS` fails.
const OPS: u64 = 200;
const FAILS: u64 = 150;

/// One batch of `OPS` memsets and small H2D copies on one stream: one
/// slice that offers its turn back every 32 sub-ops. With `QuotaShed`, a
/// second session hammers the device meanwhile, outranks the batch under
/// WFQ so it yields, and the quota sheds the batch's calls. The trace
/// keeps the batch's status, `server.bytes_in`, memory and turns.
fn contended_batch(r: &mut Run) {
    use cricket_repro::server::{make_session_rpc, SimTransport};
    use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
    let contended = r.features.contains(&Feature::QuotaShed);
    let stop = Arc::new(AtomicBool::new(false));
    let (server, stop2) = (Arc::clone(&r.server), Arc::clone(&stop));
    let rival = std::thread::spawn(move || {
        let clock = Arc::clone(server.clock());
        let rpc = Arc::new(make_session_rpc(server, 1));
        let (env, clock2) = (EnvConfig::RustyHermit, Some(Arc::clone(&clock)));
        let t = Box::new(SimTransport::new(rpc, env.guest(), clock));
        let mut b = CricketClient::new(t, env.flavor(), clock2);
        let p = b.malloc(4096).unwrap();
        while contended && !stop2.load(Relaxed) {
            b.memset(p, 7, 4096).unwrap();
        }
        b.free(p).unwrap();
    });
    r.c.enable_batching_with(BatchPolicy::new(256, 64 << 10));
    r.server.scheduler.set_trace(true);
    let buf = r.malloc(OPS * 64);
    r.c.server_reset_stats().unwrap();
    for i in 0..OPS {
        match i {
            FAILS => r.c.memset(0xdead_beef_0000, 2, 8).unwrap(),
            _ if i % 8 == 0 => r.c.memcpy_htod(buf + i * 64, &[i as u8; 64]).unwrap(),
            _ => r.c.memset(buf + i * 64, i as i32, 64).unwrap(),
        }
    }
    r.trace.push(r.c.flush_batch().unwrap_err().to_string());
    r.trace.push(format!(
        "{:?}",
        r.c.server_stats().unwrap().get("server.bytes_in")
    ));
    r.trace
        .push(format!("{:?}", r.c.memcpy_dtoh(buf, OPS * 64).unwrap()));
    stop.store(true, Relaxed);
    rival.join().unwrap();
    r.server.release_session(1);
    let grants = r.server.scheduler.take_trace();
    r.trace
        .push(grants.iter().filter(|&&s| s == 0).count().to_string());
    if contended {
        quota_bit(r);
    }
    r.free(buf);
}

/// A batch whose slices yield under WFQ while quota sheds its calls and
/// the wire is lossy executes every sub-op once: status vector, payload
/// and memory equal the fault-free, uncontended run's, in more turns.
#[test]
fn batch_slices_yield_under_quota_shed_exactly_once() {
    let row = Scenario {
        workload: contended_batch,
        faults: harness::lossy,
        features: &[Feature::Batching, Feature::QuotaShed],
        driver: SIM,
    };
    let fault_free = Scenario {
        faults: harness::clean,
        features: &[],
        ..row
    };
    let want = fault_free.run(0).client;
    harness::for_each_seed("contended batch, lossy, WFQ quota shed", |seed| {
        let got = row.run(seed).client;
        harness::same_trace("status, payload and memory", &got[..3], &want[..3]);
        let turns = |t: &[String]| t[3].parse::<u32>().unwrap();
        assert!(turns(&got) > turns(&want), "no slice yielded");
    });
}
