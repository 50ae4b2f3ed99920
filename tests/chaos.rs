//! Deterministic chaos: full client↔server stacks under exact, replayable
//! fault schedules, in process. The seeded rows are scenarios of
//! `tests/harness`, whose failures name the seed to replay.

mod harness;

use cricket_repro::oncrpc::transport::Transport;
use cricket_repro::oncrpc::{RpcClient, RpcError, RpcResult, TcpTransport};
use cricket_repro::server::ServerBuilder;
use cricket_repro::{client::BatchPolicy, prelude::*, proto};
use harness::chaos::{Fault, FaultPlan, FaultyTransport};
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

/// Sub-ops of the contended batch; the one at `FAILS` fails. Every sub-op
/// from the 32nd to it offers the turn back, so the count is how long a
/// rival has to queue: long enough that a host busy with other work still
/// runs one of them meanwhile.
const OPS: u64 = 8000;
const FAILS: u64 = 7950;

/// Rival connections of the second session: enough that one of them waits
/// for the device at some offer of the batch's turn, however the host
/// schedules their threads.
const RIVALS: usize = 3;

/// Session 0's quota while its batch is sent: `QUOTA` with a bucket that
/// never holds one dispatch quantum, so every work call is shed until the
/// watcher restores `QUOTA`. Under `QUOTA` alone the rivals' device time
/// on the shared clock refills the bucket, and whether a call is shed
/// would hang on how the host schedules their threads.
const SHUT: proto::QosParams = proto::QosParams {
    burst_ns: 1,
    ..harness::QUOTA
};

/// One batch of `OPS` memsets and small H2D copies on one stream: one
/// slice that offers its turn back from its 32nd sub-op on. With
/// `QuotaShed`, a second session hammers the device over `RIVALS`
/// connections meanwhile (each in its loop before the batch is sent) and
/// outranks the batch under WFQ so it yields; the batch is sent under
/// `SHUT`, so the quota sheds it, and a watcher that reads the shed off
/// the load report (the quota bit) restores `QUOTA` so its retry runs.
/// The trace keeps the batch's status, `server.bytes_in`, memory and turns.
fn contended_batch(r: &mut Run) {
    use cricket_repro::server::{make_session_rpc, QosSpec, SimTransport};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
    let contended = r.features.contains(&Feature::QuotaShed);
    let (stop, looping) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicUsize::new(0)),
    );
    let rpc = Arc::new(make_session_rpc(Arc::clone(&r.server), 1));
    let rivals: Vec<_> = (0..RIVALS)
        .map(|_| {
            let (clock, rpc) = (Arc::clone(r.server.clock()), Arc::clone(&rpc));
            let (stop, looping) = (Arc::clone(&stop), Arc::clone(&looping));
            std::thread::spawn(move || {
                let (env, clock2) = (EnvConfig::RustyHermit, Some(Arc::clone(&clock)));
                let t = Box::new(SimTransport::new(rpc, env.guest(), clock));
                let mut b = CricketClient::new(t, env.flavor(), clock2);
                let p = b.malloc(4096).unwrap();
                if contended {
                    b.memset(p, 7, 4096).unwrap();
                    looping.fetch_add(1, Relaxed);
                }
                while contended && !stop.load(Relaxed) {
                    b.memset(p, 7, 4096).unwrap();
                }
                b.free(p).unwrap();
            })
        })
        .collect();
    r.c.enable_batching_with(BatchPolicy::new(4096, 1 << 20));
    r.server.scheduler.set_trace(true);
    let buf = r.malloc(OPS * 64);
    r.c.server_reset_stats().unwrap();
    let watcher = contended.then(|| {
        // Sheds until now were the set-up's, not the batch's.
        r.server.load_report();
        r.c.set_qos(&SHUT).unwrap();
        let (server, q, sent) = (Arc::clone(&r.server), harness::QUOTA, Arc::clone(&stop));
        std::thread::spawn(move || {
            // The quota bit, read while the batch is pending.
            while server.load_report().qos_pressure != 1000 {
                if sent.load(Relaxed) {
                    return false;
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            let quota = QosSpec {
                weight: q.weight,
                priority: q.priority,
                rate_ns_per_s: q.rate_ns_per_s,
                burst_ns: q.burst_ns,
                max_resident_bytes: q.max_resident_bytes,
            };
            server.scheduler.set_qos(q.session, quota);
            true
        })
    });
    for i in 0..OPS {
        match i {
            FAILS => r.c.memset(0xdead_beef_0000, 2, 8).unwrap(),
            _ if i % 8 == 0 => r.c.memcpy_htod(buf + i * 64, &[i as u8; 64]).unwrap(),
            _ => r.c.memset(buf + i * 64, i as i32, 64).unwrap(),
        }
    }
    while contended && looping.load(Relaxed) < RIVALS {
        std::thread::yield_now();
    }
    r.trace.push(r.c.flush_batch().unwrap_err().to_string());
    stop.store(true, Relaxed);
    if let Some(watcher) = watcher {
        assert!(watcher.join().unwrap(), "the rate quota never shed a call");
    }
    r.trace.push(format!(
        "{:?}",
        r.c.server_stats().unwrap().get("server.bytes_in")
    ));
    r.trace
        .push(format!("{:?}", r.c.memcpy_dtoh(buf, OPS * 64).unwrap()));
    rivals.into_iter().for_each(|rival| rival.join().unwrap());
    r.server.release_session(1);
    let grants = r.server.scheduler.take_trace();
    r.trace
        .push(grants.iter().filter(|&&s| s == 0).count().to_string());
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

/// The fault injector's own contract: a fixed PRNG stream, decisions that
/// depend only on the seed and the operation counter, and each fault doing
/// what its name says to the records that pass through.
mod fault_injector {
    use crate::harness::chaos::{ChaosRng, Dir, Fault, FaultConfig, FaultPlan, FaultyTransport};
    use cricket_repro::oncrpc::record::{read_record, write_record, MAX_RECORD};
    use cricket_repro::oncrpc::{duplex_pair, RpcError};
    use parking_lot::Mutex;
    use std::io::Read;
    use std::sync::Arc;

    #[test]
    fn rng_stream_is_fixed() {
        // Pin the first outputs forever: CI prints seeds that must replay.
        let mut r = ChaosRng::new(42);
        let first: Vec<u64> = (0..3).map(|_| r.next_u64()).collect();
        let mut r2 = ChaosRng::new(42);
        let again: Vec<u64> = (0..3).map(|_| r2.next_u64()).collect();
        assert_eq!(first, again);
        let mut r3 = ChaosRng::new(43);
        assert_ne!(first[0], r3.next_u64());
    }

    #[test]
    fn same_seed_same_decisions() {
        let mut a = FaultPlan::from_seed(7);
        let mut b = FaultPlan::from_seed(7);
        for i in 0..200 {
            let dir = if i % 2 == 0 { Dir::Request } else { Dir::Reply };
            assert_eq!(a.decide(dir, 100), b.decide(dir, 100));
        }
        assert_eq!(a.trace_string(), b.trace_string());
        assert!(!a.trace_string().is_empty());
    }

    #[test]
    fn scripted_events_fire_at_their_index() {
        let mut p = FaultPlan::scripted(vec![(2, Fault::DropReply), (0, Fault::ResetOnSend)]);
        assert_eq!(p.decide(Dir::Request, 10).fault, Some(Fault::ResetOnSend));
        assert_eq!(p.decide(Dir::Reply, 10).fault, None);
        assert_eq!(p.decide(Dir::Reply, 10).fault, Some(Fault::DropReply));
        assert_eq!(p.faults_injected(), 2);
    }

    #[test]
    fn max_faults_caps_injection() {
        let cfg = FaultConfig {
            drop_reply: 1000,
            max_faults: 3,
            ..FaultConfig::none()
        };
        let mut p = FaultPlan::from_seed_with(1, cfg);
        let injected = (0..10)
            .filter(|_| p.decide(Dir::Reply, 10).fault.is_some())
            .count();
        assert_eq!(injected, 3);
    }

    #[test]
    fn clean_plan_passes_records_through() {
        let (client_end, mut server_end) = duplex_pair();
        let plan = Arc::new(Mutex::new(FaultPlan::from_seed_with(
            0,
            FaultConfig::none(),
        )));
        let mut faulty = FaultyTransport::new(Box::new(client_end), Arc::clone(&plan));
        let payload: Vec<u8> = (0..3000u32).map(|i| i as u8).collect();
        write_record(&mut faulty, &payload, 256).unwrap();
        let got = read_record(&mut server_end, MAX_RECORD).unwrap().unwrap();
        assert_eq!(got, payload);
        // Echo back; the reply path re-frames but must preserve bytes.
        write_record(&mut server_end, &payload, 512).unwrap();
        let back = read_record(&mut faulty, MAX_RECORD).unwrap().unwrap();
        assert_eq!(back, payload);
        assert_eq!(plan.lock().trace().len(), 2);
        assert!(plan.lock().trace().iter().all(|e| e.fault.is_none()));
    }

    #[test]
    fn reset_on_send_breaks_the_transport() {
        let (client_end, _server_end) = duplex_pair();
        let plan = Arc::new(Mutex::new(FaultPlan::scripted(vec![(
            0,
            Fault::ResetOnSend,
        )])));
        let mut faulty = FaultyTransport::new(Box::new(client_end), plan);
        let err = write_record(&mut faulty, b"ping", 64).unwrap_err();
        assert!(matches!(err, RpcError::Io(_)));
        // Still broken afterwards.
        assert!(write_record(&mut faulty, b"ping", 64).is_err());
        let mut buf = [0u8; 4];
        assert_eq!(faulty.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn duplicate_reply_is_delivered_twice() {
        let (client_end, mut server_end) = duplex_pair();
        let plan = Arc::new(Mutex::new(FaultPlan::scripted(vec![(
            1,
            Fault::DuplicateReply,
        )])));
        let mut faulty = FaultyTransport::new(Box::new(client_end), plan);
        write_record(&mut faulty, b"call", 64).unwrap();
        let _ = read_record(&mut server_end, MAX_RECORD).unwrap().unwrap();
        write_record(&mut server_end, b"answer", 64).unwrap();
        let a = read_record(&mut faulty, MAX_RECORD).unwrap().unwrap();
        let b = read_record(&mut faulty, MAX_RECORD).unwrap().unwrap();
        assert_eq!(a, b"answer");
        assert_eq!(b, b"answer");
    }

    #[test]
    fn truncated_reply_surfaces_as_connection_loss() {
        let (client_end, mut server_end) = duplex_pair();
        let plan = Arc::new(Mutex::new(FaultPlan::scripted(vec![(
            1,
            Fault::TruncateReply,
        )])));
        let mut faulty = FaultyTransport::new(Box::new(client_end), plan);
        write_record(&mut faulty, b"call", 64).unwrap();
        let _ = read_record(&mut server_end, MAX_RECORD).unwrap().unwrap();
        write_record(&mut server_end, b"long answer bytes", 64).unwrap();
        let err = read_record(&mut faulty, MAX_RECORD).unwrap_err();
        assert!(matches!(err, RpcError::ConnectionClosed));
    }
}
