//! Acceptance tests for the asynchronous stream execution engine:
//!
//! * async calls enqueue and return at submission; only sync points wait;
//! * two sessions on separate (per-session default) streams finish in
//!   measurably less total virtual time than the serial sum;
//! * same-stream commands retire strictly in issue order while cross-stream
//!   work overlaps;
//! * the scheduler arbitrates time: per-session served-time ledgers reflect
//!   the offered load, and `release_session` forgets every trace;
//! * the whole engine is deterministic: identical workloads produce
//!   identical clocks and identical retirement logs.

use cricket_proto::{CricketV1Service, DataResult, DataResultReply};
use cricket_server::service::Sessioned;
use cricket_server::{CricketServer, SchedulerPolicy, ServerConfig};
use simnet::SimClock;
use std::sync::Arc;
use vgpu::module::CubinBuilder;

/// 4 Mi f32 elements: ~30 µs of device time per vectorAdd launch, well above
/// the ~10 µs host dispatch cost, so stream queues genuinely back up.
const N: usize = 1 << 22;
const LAUNCHES: usize = 32;

struct Harness {
    clock: Arc<SimClock>,
    server: Arc<CricketServer>,
}

impl Harness {
    fn new() -> Self {
        let clock = SimClock::new();
        let server = CricketServer::new(ServerConfig::default(), Arc::clone(&clock));
        Self { clock, server }
    }

    /// A tenant with vectorAdd loaded and inputs staged; returns the session
    /// view plus the launch parameter blob.
    fn tenant(&self, session: u32) -> (Sessioned, u64, Vec<u8>) {
        let api = Sessioned::new(Arc::clone(&self.server), session);
        let image = CubinBuilder::new()
            .kernel("vectorAdd", &[8, 8, 8, 4])
            .code(b"vectorAdd SASS")
            .build(false);
        let module = api
            .cu_module_load_data(&image)
            .unwrap()
            .into_result()
            .unwrap();
        let func = api
            .cu_module_get_function(module, "vectorAdd")
            .unwrap()
            .into_result()
            .unwrap();
        let bytes = (N * 4) as u64;
        let a = api.cuda_malloc(bytes).unwrap().into_result().unwrap();
        let b = api.cuda_malloc(bytes).unwrap().into_result().unwrap();
        let c = api.cuda_malloc(bytes).unwrap().into_result().unwrap();
        let fill = |v: f32| -> Vec<u8> {
            v.to_le_bytes()
                .iter()
                .copied()
                .cycle()
                .take(N * 4)
                .collect()
        };
        api.cuda_memcpy_htod(a, &fill(1.0)).unwrap();
        api.cuda_memcpy_htod(b, &fill(2.0)).unwrap();
        let params = vgpu::kernels::ParamBuilder::new()
            .ptr(c)
            .ptr(a)
            .ptr(b)
            .u32(N as u32)
            .build();
        (api, func, params)
    }
}

fn launch(api: &Sessioned, func: u64, params: &[u8]) {
    let grid = ((N as u32).div_ceil(256), 1, 1).into();
    let block = (256, 1, 1).into();
    assert_eq!(
        api.cuda_launch_kernel(func, grid, block, 0, 0, params)
            .unwrap(),
        0
    );
}

/// Run the two-tenant workload; `interleave` issues launches alternately,
/// otherwise each tenant runs to completion before the next starts.
/// Returns (elapsed_ns, final_clock_ns).
fn run_workload(interleave: bool) -> (u64, u64) {
    let h = Harness::new();
    let (ta, fa, pa) = h.tenant(1);
    let (tb, fb, pb) = h.tenant(2);
    let t0 = h.clock.now_ns();
    if interleave {
        for _ in 0..LAUNCHES {
            launch(&ta, fa, &pa);
            launch(&tb, fb, &pb);
        }
        assert_eq!(ta.cuda_device_synchronize().unwrap(), 0);
        assert_eq!(tb.cuda_device_synchronize().unwrap(), 0);
    } else {
        for (t, f, p) in [(&ta, fa, &pa), (&tb, fb, &pb)] {
            for _ in 0..LAUNCHES {
                launch(t, f, p);
            }
            assert_eq!(t.cuda_device_synchronize().unwrap(), 0);
        }
    }
    (h.clock.now_ns() - t0, h.clock.now_ns())
}

#[test]
fn two_sessions_overlap_beats_serial_sum() {
    let (serial, _) = run_workload(false);
    let (pipelined, _) = run_workload(true);
    assert!(
        pipelined * 4 < serial * 3,
        "pipelined {pipelined} ns must undercut serial {serial} ns by ≥ 25%"
    );
}

#[test]
fn async_launches_return_before_completion() {
    let h = Harness::new();
    let (api, func, params) = h.tenant(1);
    let t0 = h.clock.now_ns();
    for _ in 0..LAUNCHES {
        launch(&api, func, &params);
    }
    let submitted = h.clock.now_ns() - t0;
    assert_eq!(api.cuda_device_synchronize().unwrap(), 0);
    let drained = h.clock.now_ns() - t0 - submitted;
    // Submission is cheap; the stream drain carries the device time.
    assert!(
        drained > submitted,
        "sync wait ({drained} ns) should dominate submission ({submitted} ns)"
    );
}

#[test]
fn same_stream_commands_retire_in_issue_order_across_sessions() {
    let h = Harness::new();
    let (ta, fa, pa) = h.tenant(1);
    let (tb, fb, pb) = h.tenant(2);
    for _ in 0..6 {
        launch(&ta, fa, &pa);
        launch(&tb, fb, &pb);
    }
    assert_eq!(ta.cuda_device_synchronize().unwrap(), 0);
    assert_eq!(tb.cuda_device_synchronize().unwrap(), 0);
    let retired = h.server.drain_retired(0);
    assert!(!retired.is_empty());
    // Per stream: issue sequence strictly increasing, start/completion
    // monotone, no command overlapping its predecessor on the same stream.
    let mut streams: std::collections::HashMap<u64, Vec<&vgpu::Retired>> =
        std::collections::HashMap::new();
    for r in &retired {
        streams.entry(r.stream).or_default().push(r);
    }
    let kernel_streams = streams
        .values()
        .filter(|rs| {
            rs.iter()
                .any(|r| matches!(r.kind, vgpu::CommandKind::Kernel { .. }))
        })
        .count();
    assert_eq!(kernel_streams, 2, "one default stream per session");
    for rs in streams.values() {
        for w in rs.windows(2) {
            assert!(w[0].seq < w[1].seq, "retire order must match issue order");
            assert!(
                w[0].completes_at_ns <= w[1].starts_at_ns,
                "no same-stream overlap"
            );
        }
    }
    // Cross-stream: at least one pair of kernels from different streams
    // overlapped in device time.
    let kernels: Vec<_> = retired
        .iter()
        .filter(|r| matches!(r.kind, vgpu::CommandKind::Kernel { .. }))
        .collect();
    let overlapped = kernels.iter().any(|x| {
        kernels.iter().any(|y| {
            x.stream != y.stream
                && x.starts_at_ns < y.completes_at_ns
                && y.starts_at_ns < x.completes_at_ns
        })
    });
    assert!(
        overlapped,
        "kernels on different sessions' streams must overlap"
    );
}

#[test]
fn served_time_ledger_tracks_offered_load_per_policy() {
    for policy in [
        SchedulerPolicy::Fifo,
        SchedulerPolicy::RoundRobin,
        SchedulerPolicy::Priority,
    ] {
        let h = Harness::new();
        h.server.scheduler.set_policy(policy);
        if policy == SchedulerPolicy::Priority {
            h.server.scheduler.set_priority(1, 1);
            h.server.scheduler.set_priority(2, 50);
            h.server.scheduler.set_priority(3, 100);
        }
        // Sessions 1/2/3 offer load in a 1:2:3 ratio. Setup (module load,
        // 16 MiB staging copies) charges every session equally, so ratio
        // math works on the post-setup delta.
        let tenants: Vec<_> = (1..=3u32).map(|s| h.tenant(s)).collect();
        let baseline_ns = h.server.scheduler.served_ns();
        let baseline_ops = h.server.scheduler.served_ops();
        for round in 0..4 {
            for (i, (api, func, params)) in tenants.iter().enumerate() {
                let _ = round;
                for _ in 0..(i + 1) * 4 {
                    launch(api, *func, params);
                }
            }
        }
        for (api, _, _) in &tenants {
            assert_eq!(api.cuda_device_synchronize().unwrap(), 0);
        }
        let ns = h.server.scheduler.served_ns();
        let delta = |s: u32| ns[&s] - baseline_ns[&s];
        let (a, b, c) = (delta(1), delta(2), delta(3));
        assert!(a > 0, "{policy:?}: every session must be charged");
        // Device-time charges are workload-proportional under every policy —
        // the arbiter orders issuance, it does not starve anyone.
        let ratio_ba = b as f64 / a as f64;
        let ratio_ca = c as f64 / a as f64;
        assert!(
            (ratio_ba - 2.0).abs() < 0.2 && (ratio_ca - 3.0).abs() < 0.3,
            "{policy:?}: served-ns ratios {ratio_ba:.2}, {ratio_ca:.2} should be ≈ 2 and 3"
        );
        // Ops ledger: same story in call counts.
        let ops = h.server.scheduler.served_ops();
        let dops = |s: u32| ops[&s] - baseline_ops[&s];
        assert!(
            dops(2) > dops(1) && dops(3) > dops(2),
            "{policy:?}: {ops:?} (baseline {baseline_ops:?})"
        );
    }
}

#[test]
fn concurrent_sessions_all_get_served_and_stay_isolated() {
    let h = Harness::new();
    h.server.scheduler.set_policy(SchedulerPolicy::RoundRobin);
    let mut joins = Vec::new();
    for s in 1..=4u32 {
        let server = Arc::clone(&h.server);
        joins.push(std::thread::spawn(move || {
            let api = Sessioned::new(server, s);
            let ptr = api.cuda_malloc(4096).unwrap().into_result().unwrap();
            let fill = vec![s as u8; 4096];
            for _ in 0..25 {
                api.cuda_memcpy_htod(ptr, &fill).unwrap();
                let mut reply = xdr::XdrEncoder::new();
                api.cuda_memcpy_dtoh(ptr, 4096, DataResultReply(&mut reply))
                    .unwrap();
                let back: DataResult = xdr::decode(reply.as_slice()).unwrap();
                let back = back.into_result().unwrap();
                assert!(back.iter().all(|&v| v == s as u8), "tenant isolation");
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let ns = h.server.scheduler.served_ns();
    let ops = h.server.scheduler.served_ops();
    for s in 1..=4u32 {
        assert!(ns[&s] > 0, "session {s} charged no device time");
        assert!(ops[&s] >= 50, "session {s} under-served: {:?}", ops);
    }
}

#[test]
fn release_session_forgets_scheduler_state() {
    let h = Harness::new();
    let (api, func, params) = h.tenant(7);
    launch(&api, func, &params);
    assert_eq!(api.cuda_device_synchronize().unwrap(), 0);
    assert!(h.server.scheduler.knows(7));
    assert!(h.server.scheduler.served_ns()[&7] > 0);

    let cleanup = h.server.release_session(7);
    assert!(cleanup.total() > 0);
    assert!(
        !h.server.scheduler.knows(7),
        "scheduler must not leak per-session state after release"
    );
    assert!(!h.server.scheduler.served_ns().contains_key(&7));
    assert!(!h.server.scheduler.served_ops().contains_key(&7));
}

#[test]
fn host_only_queries_bypass_the_arbiter() {
    let h = Harness::new();
    let api = Sessioned::new(Arc::clone(&h.server), 3);
    api.cuda_get_device_count().unwrap();
    api.cuda_get_device_properties(0).unwrap();
    api.cuda_get_device().unwrap();
    api.cuda_mem_get_info().unwrap();
    assert!(h.server.scheduler.served_ops().is_empty());
    assert!(h.server.scheduler.served_ns().is_empty());
}

#[test]
fn identical_workloads_produce_identical_clocks_and_logs() {
    let run = || {
        let h = Harness::new();
        let (ta, fa, pa) = h.tenant(1);
        let (tb, fb, pb) = h.tenant(2);
        for _ in 0..8 {
            launch(&ta, fa, &pa);
            launch(&tb, fb, &pb);
        }
        assert_eq!(ta.cuda_device_synchronize().unwrap(), 0);
        assert_eq!(tb.cuda_device_synchronize().unwrap(), 0);
        let log: Vec<String> = h
            .server
            .drain_retired(0)
            .into_iter()
            .map(|r| {
                format!(
                    "{}:{}:{:?}:{}..{}",
                    r.stream, r.seq, r.kind, r.starts_at_ns, r.completes_at_ns
                )
            })
            .collect();
        (h.clock.now_ns(), log)
    };
    let (clock1, log1) = run();
    let (clock2, log2) = run();
    assert_eq!(clock1, clock2, "virtual clocks must be identical");
    assert_eq!(log1, log2, "retirement logs must be identical");
}
