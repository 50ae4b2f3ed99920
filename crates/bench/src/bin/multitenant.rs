//! Multi-tenant asynchronous-execution snapshot: serial vs pipelined
//! virtual time for two tenants sharing one simulated A100, the device
//! busy-span/overlap telemetry behind the speedup, and the per-policy
//! served-time ledgers — written to `BENCH_multitenant.json`.
//!
//! ```text
//! cargo run --release -p cricket-bench --bin multitenant
//! cargo run --release -p cricket-bench --bin multitenant -- --launches 96
//! ```

use cricket_proto::CricketV1Service;
use cricket_server::service::Sessioned;
use cricket_server::{CricketServer, SchedulerPolicy, ServerConfig};
use std::sync::{Arc, Barrier, Mutex};
use vgpu::kernels::ParamBuilder;
use vgpu::module::CubinBuilder;

/// 4 Mi f32 elements per vector — ~30 µs of device time per launch.
const N: usize = 1 << 22;

struct Tenant {
    api: Sessioned,
    func: u64,
    params: Vec<u8>,
    input: u64,
    fill: Vec<u8>,
    elems: usize,
}

impl Tenant {
    fn new(server: Arc<CricketServer>, session: u32) -> Self {
        Self::with_elems(server, session, N)
    }

    /// A tenant with `elems` f32 elements per vector — the 50-session QoS
    /// sweep uses small vectors so host-backed simulated allocations stay
    /// cheap while the per-op device time (the 256 KiB refill) is unchanged.
    fn with_elems(server: Arc<CricketServer>, session: u32, elems: usize) -> Self {
        let api = Sessioned::new(server, session);
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
        let bytes = (elems * 4) as u64;
        let a = api.cuda_malloc(bytes).unwrap().into_result().unwrap();
        let b = api.cuda_malloc(bytes).unwrap().into_result().unwrap();
        let c = api.cuda_malloc(bytes).unwrap().into_result().unwrap();
        let fill: Vec<u8> = 1.0f32
            .to_le_bytes()
            .iter()
            .copied()
            .cycle()
            .take(elems * 4)
            .collect();
        api.cuda_memcpy_htod(a, &fill).unwrap();
        api.cuda_memcpy_htod(b, &fill).unwrap();
        let params = ParamBuilder::new()
            .ptr(c)
            .ptr(a)
            .ptr(b)
            .u32(elems as u32)
            .build();
        Self {
            api,
            func,
            params,
            input: a,
            fill,
            elems,
        }
    }

    fn launch(&self) {
        let grid = ((self.elems as u32).div_ceil(256), 1, 1).into();
        let block = (256, 1, 1).into();
        assert_eq!(
            self.api
                .cuda_launch_kernel(self.func, grid, block, 0, 0, &self.params)
                .unwrap(),
            0
        );
    }

    /// A host-to-device refill of the input vector's first 256 KiB — the
    /// synchronous-transfer path that holds a scheduler turn for the whole
    /// copy, used to make the bulk tenants' op mix heavier.
    fn refill(&self) {
        let len = (256 << 10).min(self.fill.len());
        assert_eq!(
            self.api
                .cuda_memcpy_htod(self.input, &self.fill[..len])
                .unwrap(),
            0
        );
    }

    /// A full-buffer synchronous H2D copy — the big turn-holding op the
    /// QoS favoritism phase gives its bulk tenants.
    fn refill_all(&self) {
        assert_eq!(
            self.api.cuda_memcpy_htod(self.input, &self.fill).unwrap(),
            0
        );
    }

    fn synchronize(&self) {
        assert_eq!(self.api.cuda_device_synchronize().unwrap(), 0);
    }
}

struct OverlapRun {
    serial_ns: u64,
    pipelined_ns: u64,
    busy_span_ns: u64,
    device_time_ns: u64,
}

/// Two tenants, `launches` kernels each: back-to-back, then interleaved on
/// a fresh server. Returns both virtual durations plus the pipelined run's
/// device utilization telemetry.
fn overlap(launches: usize) -> OverlapRun {
    let run = |interleave: bool| -> (u64, u64, u64) {
        let clock = simnet::SimClock::new();
        let server = CricketServer::new(ServerConfig::default(), Arc::clone(&clock));
        let ta = Tenant::new(Arc::clone(&server), 1);
        let tb = Tenant::new(Arc::clone(&server), 2);
        let t0 = clock.now_ns();
        if interleave {
            for _ in 0..launches {
                ta.launch();
                tb.launch();
            }
            ta.synchronize();
            tb.synchronize();
        } else {
            for t in [&ta, &tb] {
                for _ in 0..launches {
                    t.launch();
                }
                t.synchronize();
            }
        }
        let elapsed = clock.now_ns() - t0;
        let (span, device) = server.device_utilization(0).unwrap();
        (elapsed, span, device)
    };
    let (serial_ns, _, _) = run(false);
    let (pipelined_ns, busy_span_ns, device_time_ns) = run(true);
    OverlapRun {
        serial_ns,
        pipelined_ns,
        busy_span_ns,
        device_time_ns,
    }
}

/// One tenant's outcome under a scheduling policy.
struct FairRow {
    session: u32,
    served_ops: u64,
    served_ns: u64,
    /// Virtual time at which this tenant's synchronize returned, relative
    /// to the contention phase's start — the number the policy actually
    /// moves (the served_* ledgers total the same work under any policy).
    finish_ns: u64,
}

/// Four *concurrent* sessions with heterogeneous op mixes under `policy`.
///
/// Session 1 is the light, latency-sensitive tenant that `Priority`
/// favors (lowest priority value); sessions 2–4 offer progressively
/// heavier mixes (more launches, plus synchronous refill copies that hold
/// scheduler turns longer). The tenants run on real threads against the
/// shared virtual clock, so the scheduler's ticket queue is genuinely
/// contended and the policies produce different per-tenant finish times —
/// a sequential driver (the old bench) never has two waiters and reports
/// byte-identical ledgers under every policy.
fn fairness(policy: SchedulerPolicy, launches: usize) -> Vec<FairRow> {
    let clock = simnet::SimClock::new();
    let server = CricketServer::new(ServerConfig::default(), Arc::clone(&clock));
    server.scheduler.set_policy(policy);
    let weights = [1usize, 2, 3, 4];
    // Setup (module load, mallocs, fills) happens before the measured
    // contention phase. Priorities are configured under every policy so
    // the runs differ only in what the scheduler does with them.
    let tenants: Vec<_> = (1..=4u32)
        .map(|s| {
            server.scheduler.set_priority(s, s * 10);
            // WFQ weights match the 1:2:3:4 offered load, so under `Wfq`
            // the heavier tenants earn proportionally more turns. The
            // other policies ignore weights; configuring them everywhere
            // keeps the runs identical except for the scheduler.
            server.scheduler.set_weight(s, s);
            Tenant::new(Arc::clone(&server), s)
        })
        .collect();
    let base_ops = server.scheduler.served_ops();
    let base_ns = server.scheduler.served_ns();
    let t0 = clock.now_ns();
    let barrier = Arc::new(std::sync::Barrier::new(tenants.len()));
    let mut joins = Vec::new();
    for (t, w) in tenants.into_iter().zip(weights) {
        let barrier = Arc::clone(&barrier);
        let clock = Arc::clone(&clock);
        joins.push(std::thread::spawn(move || {
            let session = t.api.session();
            barrier.wait();
            for i in 0..launches * w {
                t.launch();
                // Bulk tenants intersperse synchronous copies: a heavier,
                // turn-holding mix the favored tenant never issues.
                if session != 1 && i % 4 == 3 {
                    t.refill();
                }
            }
            t.synchronize();
            (session, clock.now_ns() - t0)
        }));
    }
    let mut finishes: Vec<(u32, u64)> = joins
        .into_iter()
        .map(|j| j.join().expect("tenant thread panicked"))
        .collect();
    finishes.sort_unstable_by_key(|&(s, _)| s);
    let ops = server.scheduler.served_ops();
    let ns = server.scheduler.served_ns();
    finishes
        .into_iter()
        .map(|(s, finish_ns)| FairRow {
            session: s,
            served_ops: ops[&s] - base_ops[&s],
            served_ns: ns[&s] - base_ns[&s],
            finish_ns,
        })
        .collect()
}

/// How many sessions contend in the WFQ favoritism phase. Depth matters:
/// with 7 equally loaded weight-1 competitors, FIFO's arrival rotation
/// hands the favored tenant ~1/8 of the issue slots, while WFQ's
/// virtual-finish-time ledger (its clock runs 4x slower) readmits it as
/// soon as it re-queues — so the favored finish gap is the policy's doing,
/// not the workload's.
const FAVORITISM_SESSIONS: u32 = 8;

/// WFQ favoritism: [`FAVORITISM_SESSIONS`] tenants with *identical*
/// offered load; session 1 has WFQ weight 4, everyone else weight 1.
/// Every op is a full-buffer (4 MiB) synchronous copy, big enough that
/// every thread's workload spans many OS timeslices, so all tenants stay
/// backlogged in the scheduler queue and the finish order is the policy's
/// alone — FIFO rotates sessions evenly, while WFQ (with the scheduler's
/// handoff grace letting the just-served session's next request contend)
/// serves the weight-4 session back-to-back until its virtual finish time
/// catches up with the field. The favored tenant is spawned *first* so
/// the thread that clears the start barrier last (and briefly runs
/// unopposed) is always a weight-1 competitor.
/// Returns the weight-4 tenant's finish time under FIFO and under WFQ.
fn wfq_favoritism(rounds: usize) -> (u64, u64) {
    let favored = 1u32;
    let finish4 = |policy: SchedulerPolicy| -> u64 {
        let clock = simnet::SimClock::new();
        let server = CricketServer::new(ServerConfig::default(), Arc::clone(&clock));
        server.scheduler.set_policy(policy);
        let tenants: Vec<_> = (1..=FAVORITISM_SESSIONS)
            .map(|s| {
                server
                    .scheduler
                    .set_weight(s, if s == favored { 4 } else { 1 });
                Tenant::with_elems(Arc::clone(&server), s, 1 << 20)
            })
            .collect();
        let t0 = clock.now_ns();
        if std::env::var_os("QOS_DEBUG").is_some() {
            server.scheduler.set_trace(true);
        }
        let barrier = Arc::new(Barrier::new(tenants.len()));
        let joins: Vec<_> = tenants
            .into_iter()
            .map(|t| {
                let barrier = Arc::clone(&barrier);
                let clock = Arc::clone(&clock);
                std::thread::spawn(move || {
                    let session = t.api.session();
                    barrier.wait();
                    for _ in 0..rounds {
                        t.refill_all();
                    }
                    t.synchronize();
                    (session, clock.now_ns() - t0)
                })
            })
            .collect();
        let mut by_session: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        for j in joins {
            let (s, f) = j.join().expect("tenant thread panicked");
            by_session.insert(s, f);
        }
        if std::env::var_os("QOS_DEBUG").is_some() {
            let mut sorted: Vec<_> = by_session.iter().collect();
            sorted.sort_unstable();
            for (s, f) in sorted {
                eprintln!(
                    "    [debug] {policy:?} session {s} finished at {:.3} ms",
                    *f as f64 / 1e6
                );
            }
            let trace = server.scheduler.take_trace();
            let grants: String = trace.iter().map(|s| char::from(b'0' + *s as u8)).collect();
            eprintln!("    [debug] {policy:?} grant order: {grants}");
        }
        by_session[&favored]
    };
    (
        finish4(SchedulerPolicy::Fifo),
        finish4(SchedulerPolicy::Wfq),
    )
}

/// One session's share of device time in the 50-session WFQ sweep.
struct ShareRow {
    session: u32,
    weight: u32,
    /// Fraction of total served device time at the snapshot.
    share: f64,
    /// The weight-proportional fair share.
    want: f64,
    /// |share − want| / want, percent.
    err_pct: f64,
}

/// `sessions` concurrent sessions under WFQ, weights cycling 1..=4, each
/// offering work proportional to its weight (uniform 4 MiB refill ops).
/// The first tenant to drain its offered load snapshots the served-ns
/// ledger — at that instant every other session is still backlogged, so
/// weighted fairness predicts each session's share of served device time
/// equals its weight share. Returns per-session rows from that snapshot.
///
/// Op size matters for the same reason it does in `wfq_favoritism`: each
/// refill must cost enough real CPU that the OS preempts a thread
/// mid-workload. With tiny ops a single thread can drain its entire
/// offered load inside one scheduler timeslice before any competitor even
/// submits, and the snapshot then measures OS thread-scheduling luck
/// instead of WFQ arbitration.
///
/// Measurement starts only after a warmup phase: the thread that trips
/// the start barrier still owns the CPU and streaks uncontended grants
/// before the other threads wake, and the virtual-clock floor forgives
/// that head start rather than charging it against later grants. Each
/// thread runs `WARMUP` weight-scaled rounds first, and the first thread
/// out of warmup snapshots the base ledger — by then every session is
/// backlogged, so the measured window [base, finish] is pure WFQ
/// arbitration and the head-start streak is subtracted out.
fn wfq_weight_shares(sessions: usize, rounds: usize) -> Vec<ShareRow> {
    const WARMUP: usize = 4;
    let clock = simnet::SimClock::new();
    let server = CricketServer::new(ServerConfig::default(), Arc::clone(&clock));
    server.scheduler.set_policy(SchedulerPolicy::Wfq);
    let weights: Vec<u32> = (0..sessions).map(|i| 1 + (i as u32 % 4)).collect();
    let tenants: Vec<_> = (0..sessions)
        .map(|i| {
            let s = i as u32 + 1;
            server.scheduler.set_weight(s, weights[i]);
            Tenant::with_elems(Arc::clone(&server), s, 1 << 20)
        })
        .collect();
    let base_ns: Arc<Mutex<Option<std::collections::HashMap<u32, u64>>>> =
        Arc::new(Mutex::new(None));
    let snapshot: Arc<Mutex<Option<std::collections::HashMap<u32, u64>>>> =
        Arc::new(Mutex::new(None));
    let barrier = Arc::new(Barrier::new(sessions));
    let joins: Vec<_> = tenants
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let server = Arc::clone(&server);
            let base_ns = Arc::clone(&base_ns);
            let snapshot = Arc::clone(&snapshot);
            let barrier = Arc::clone(&barrier);
            let w = weights[i] as usize;
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..WARMUP * w {
                    t.refill_all();
                }
                {
                    let mut base = base_ns.lock().unwrap();
                    if base.is_none() {
                        *base = Some(server.scheduler.served_ns());
                    }
                }
                for _ in 0..rounds * w {
                    t.refill_all();
                }
                let mut snap = snapshot.lock().unwrap();
                if snap.is_none() {
                    *snap = Some(server.scheduler.served_ns());
                }
            })
        })
        .collect();
    for j in joins {
        j.join().expect("tenant thread panicked");
    }
    let base_ns = base_ns.lock().unwrap().take().unwrap();
    let snap = snapshot.lock().unwrap().take().unwrap();
    let served: Vec<u64> = (0..sessions)
        .map(|i| {
            let s = i as u32 + 1;
            snap[&s] - base_ns[&s]
        })
        .collect();
    let total: u64 = served.iter().sum();
    let total_w: u32 = weights.iter().sum();
    (0..sessions)
        .map(|i| {
            let share = served[i] as f64 / total as f64;
            let want = f64::from(weights[i]) / f64::from(total_w);
            ShareRow {
                session: i as u32 + 1,
                weight: weights[i],
                share,
                want,
                err_pct: (share - want).abs() / want * 100.0,
            }
        })
        .collect()
}

struct ShedRun {
    attempts: u32,
    shed: u32,
    victim_uncontended_ns: u64,
    victim_contended_ns: u64,
    overhead_pct: f64,
}

/// Per-tenant rate quota end to end: two well-behaved victim tenants run
/// a fixed workload; an over-quota aggressor hammers the server *through
/// the RPC admission gate* and has nearly every call shed with
/// `CRICKET_BUSY` (surfacing client-side as `ClientError::Busy`). The
/// victims' virtual completion time is compared against an uncontended
/// baseline run — shedding, not slowdown, is how the quota protects them.
fn quota_shed(rounds: usize, attempts: u32) -> ShedRun {
    use cricket_client::{ClientError, CricketClient, EnvConfig};
    use cricket_server::SimTransport;

    let run_victims = |server: &Arc<CricketServer>, clock: &Arc<simnet::SimClock>| -> u64 {
        let tenants: Vec<_> = (1..=2u32)
            .map(|s| Tenant::new(Arc::clone(server), s))
            .collect();
        let t0 = clock.now_ns();
        let barrier = Arc::new(Barrier::new(tenants.len()));
        let joins: Vec<_> = tenants
            .into_iter()
            .map(|t| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for _ in 0..rounds {
                        t.launch();
                        t.refill();
                    }
                    t.synchronize();
                })
            })
            .collect();
        for j in joins {
            j.join().expect("victim thread panicked");
        }
        clock.now_ns() - t0
    };

    // Uncontended baseline.
    let clock = simnet::SimClock::new();
    let server = CricketServer::new(ServerConfig::default(), Arc::clone(&clock));
    let victim_uncontended_ns = run_victims(&server, &clock);

    // Contended: same victims, plus an aggressor on session 7 whose calls
    // arrive through the QoS gate (make_session_rpc) under a near-zero
    // device-time budget.
    let clock = simnet::SimClock::new();
    let server = CricketServer::new(ServerConfig::default(), Arc::clone(&clock));
    let env = EnvConfig::RustyHermit;
    let rpc = Arc::new(cricket_server::make_session_rpc(Arc::clone(&server), 7));
    let transport = SimTransport::new(rpc, env.guest(), Arc::clone(&clock));
    let mut aggressor =
        CricketClient::new(Box::new(transport), env.flavor(), Some(Arc::clone(&clock)));
    aggressor.rpc().set_retry_policy(oncrpc::RetryPolicy {
        max_attempts: 1, // surface every CRICKET_BUSY instead of retrying
        base_delay: std::time::Duration::from_micros(1),
        max_delay: std::time::Duration::from_micros(1),
        retry_non_idempotent: false,
    });
    // Allocate a target first (admitted), then clamp the budget: 1 µs of
    // device time per second leaves room for roughly one more dispatch
    // quantum, ever.
    let target = aggressor.malloc(4096).expect("aggressor malloc");
    server.scheduler.set_qos(
        7,
        cricket_server::QosSpec {
            rate_ns_per_s: 1_000,
            burst_ns: 6_000,
            ..cricket_server::QosSpec::default()
        },
    );
    let shed_count = Arc::new(std::sync::atomic::AtomicU32::new(0));
    let aggr_join = {
        let shed_count = Arc::clone(&shed_count);
        std::thread::spawn(move || {
            for _ in 0..attempts {
                match aggressor.memset(target, 1, 16) {
                    Ok(()) => {}
                    Err(e @ ClientError::Busy { .. }) => {
                        assert!(e.is_busy());
                        shed_count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    Err(other) => panic!("aggressor saw a non-busy error: {other}"),
                }
            }
        })
    };
    let victim_contended_ns = run_victims(&server, &clock);
    aggr_join.join().expect("aggressor thread panicked");
    let shed = shed_count.load(std::sync::atomic::Ordering::Relaxed);

    let overhead_pct = (victim_contended_ns as f64 / victim_uncontended_ns as f64 - 1.0) * 100.0;
    ShedRun {
        attempts,
        shed,
        victim_uncontended_ns,
        victim_contended_ns,
        overhead_pct,
    }
}

fn main() {
    let args = parse_args();
    let launches = args.launches.unwrap_or(if args.smoke { 12 } else { 48 });
    println!("Multi-tenant async execution — 2 tenants × {launches} vectorAdd launches\n");

    let o = overlap(launches);
    let speedup = o.serial_ns as f64 / o.pipelined_ns as f64;
    let overlap_factor = o.device_time_ns as f64 / o.busy_span_ns.max(1) as f64;
    println!(
        "  serial    {:>10.3} ms\n  pipelined {:>10.3} ms   speedup {speedup:.2}x",
        o.serial_ns as f64 / 1e6,
        o.pipelined_ns as f64 / 1e6,
    );
    println!(
        "  device busy span {:.3} ms for {:.3} ms of queued work → overlap {overlap_factor:.2}x\n",
        o.busy_span_ns as f64 / 1e6,
        o.device_time_ns as f64 / 1e6,
    );

    let policies = [
        ("fifo", SchedulerPolicy::Fifo),
        ("round_robin", SchedulerPolicy::RoundRobin),
        ("priority", SchedulerPolicy::Priority),
        ("wfq", SchedulerPolicy::Wfq),
    ];
    let mut policy_json = Vec::new();
    let mut favored_finish: Vec<(String, u64)> = Vec::new();
    for (name, policy) in policies {
        let rows = fairness(policy, launches / 4);
        println!("  {name}: per-session (ops, device-ms, finish-ms) with 1:2:3:4 offered load");
        let mut row_json = Vec::new();
        for r in &rows {
            println!(
                "    session {}: {} ops, {:.3} ms served, finished at {:.3} ms",
                r.session,
                r.served_ops,
                r.served_ns as f64 / 1e6,
                r.finish_ns as f64 / 1e6,
            );
            row_json.push(format!(
                "{{\"session\": {}, \"served_ops\": {}, \"served_ns\": {}, \"finish_ns\": {}}}",
                r.session, r.served_ops, r.served_ns, r.finish_ns
            ));
        }
        // The scheduler must actually differentiate: the favored, lightest
        // tenant always completes first under Priority.
        if policy == SchedulerPolicy::Priority {
            let first = rows
                .iter()
                .min_by_key(|r| r.finish_ns)
                .map(|r| r.session)
                .unwrap();
            assert_eq!(
                first, 1,
                "priority must let its favored (lightest) tenant finish first"
            );
        }
        favored_finish.push((name.to_string(), rows[0].finish_ns));
        policy_json.push(format!("    \"{name}\": [{}]", row_json.join(", ")));
    }
    let fifo_t1 = favored_finish
        .iter()
        .find(|(n, _)| n == "fifo")
        .map(|&(_, f)| f)
        .unwrap();
    let prio_t1 = favored_finish
        .iter()
        .find(|(n, _)| n == "priority")
        .map(|&(_, f)| f)
        .unwrap();
    let favoritism = fifo_t1 as f64 / prio_t1.max(1) as f64;
    println!(
        "\n  favored tenant finish: fifo {:.3} ms vs priority {:.3} ms → {favoritism:.2}x sooner",
        fifo_t1 as f64 / 1e6,
        prio_t1 as f64 / 1e6,
    );

    // --qos: the QoS subsystem's self-asserting section — WFQ favoritism,
    // weight-share fairness at 50 sessions, and end-to-end quota shedding.
    let qos_json = if args.qos {
        let (rounds, share_rounds, shed_rounds, shed_attempts) = if args.smoke {
            (32, 24, 16, 12)
        } else {
            (48, 24, 32, 24)
        };

        let (fifo4_ns, wfq4_ns) = wfq_favoritism(rounds);
        let wfq_speedup = fifo4_ns as f64 / wfq4_ns.max(1) as f64;
        println!(
            "\n  qos/wfq favoritism: weight-4 tenant finish fifo {:.3} ms vs wfq {:.3} ms → {wfq_speedup:.2}x sooner",
            fifo4_ns as f64 / 1e6,
            wfq4_ns as f64 / 1e6,
        );
        assert!(
            wfq_speedup >= 2.0,
            "WFQ must finish the weight-4 tenant at least 2x sooner than FIFO (got {wfq_speedup:.2}x)"
        );

        let sessions = 50;
        let shares = wfq_weight_shares(sessions, share_rounds);
        let max_err = shares.iter().map(|r| r.err_pct).fold(0.0f64, f64::max);
        let mut class_share = [0.0f64; 4];
        let mut class_count = [0u32; 4];
        for r in &shares {
            class_share[(r.weight - 1) as usize] += r.share;
            class_count[(r.weight - 1) as usize] += 1;
        }
        println!(
            "  qos/wfq shares: {sessions} sessions, weights 1..4 — max deviation from weight share {max_err:.2}%"
        );
        for r in &shares {
            assert!(
                r.err_pct <= 10.0,
                "session {} (weight {}): served share {:.4} vs fair share {:.4} — {:.2}% off (> 10%)",
                r.session,
                r.weight,
                r.share,
                r.want,
                r.err_pct
            );
        }
        let class_json: Vec<String> = (0..4)
            .map(|w| {
                format!(
                    "{{\"weight\": {}, \"sessions\": {}, \"mean_share\": {:.5}}}",
                    w + 1,
                    class_count[w],
                    class_share[w] / f64::from(class_count[w].max(1))
                )
            })
            .collect();

        let shed = quota_shed(shed_rounds, shed_attempts);
        println!(
            "  qos/quota shed: {} of {} aggressor calls shed busy; victims {:.3} ms contended vs {:.3} ms alone ({:+.2}%)",
            shed.shed,
            shed.attempts,
            shed.victim_contended_ns as f64 / 1e6,
            shed.victim_uncontended_ns as f64 / 1e6,
            shed.overhead_pct,
        );
        assert!(
            shed.shed >= shed.attempts / 2,
            "the over-quota aggressor was barely shed: {}/{}",
            shed.shed,
            shed.attempts
        );
        assert!(
            shed.overhead_pct <= 10.0,
            "victim throughput degraded {:.2}% (> 10%) despite quota shedding",
            shed.overhead_pct
        );

        format!(
            ",\n  \"qos\": {{\n    \
             \"wfq_favoritism\": {{\"rounds\": {rounds}, \"weight4_finish_fifo_ns\": {fifo4_ns}, \
             \"weight4_finish_wfq_ns\": {wfq4_ns}, \"fifo_over_wfq\": {wfq_speedup:.4}}},\n    \
             \"wfq_weight_shares\": {{\"sessions\": {sessions}, \"rounds_per_weight\": {share_rounds}, \
             \"max_share_err_pct\": {max_err:.4}, \"bound_pct\": 10.0, \"classes\": [{}]}},\n    \
             \"quota_shed\": {{\"attempts\": {}, \"shed\": {}, \"victim_uncontended_ns\": {}, \
             \"victim_contended_ns\": {}, \"victim_overhead_pct\": {:.4}, \"bound_pct\": 10.0}}\n  }}",
            class_json.join(", "),
            shed.attempts,
            shed.shed,
            shed.victim_uncontended_ns,
            shed.victim_contended_ns,
            shed.overhead_pct,
        )
    } else {
        String::new()
    };

    let json = format!(
        "{{\n  \"launches_per_tenant\": {launches},\n  \"elements_per_vector\": {N},\n  \
         \"serial_ns\": {},\n  \"pipelined_ns\": {},\n  \"speedup\": {speedup:.4},\n  \
         \"busy_span_ns\": {},\n  \"device_time_ns\": {},\n  \
         \"overlap_factor\": {overlap_factor:.4},\n  \
         \"favored_tenant_finish_fifo_over_priority\": {favoritism:.4},\n  \
         \"fairness\": {{\n{}\n  }}{qos_json}\n}}\n",
        o.serial_ns,
        o.pipelined_ns,
        o.busy_span_ns,
        o.device_time_ns,
        policy_json.join(",\n"),
    );
    let path = "BENCH_multitenant.json";
    if args.smoke {
        // CI runs the smoke; don't clobber the committed full-scale numbers.
        println!("\n  (smoke run: {path} left untouched)");
    } else {
        match std::fs::write(path, &json) {
            Ok(()) => println!("\n  → wrote {path}"),
            Err(e) => eprintln!("\n  ! could not write {path}: {e}"),
        }
    }
}

struct Args {
    launches: Option<usize>,
    /// Run the QoS section (WFQ favoritism, 50-session weight shares,
    /// quota shedding) and emit its self-asserted `"qos"` JSON object.
    qos: bool,
    /// CI scale: smaller rounds everywhere, same assertions.
    smoke: bool,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        launches: None,
        qos: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--launches" => parsed.launches = args.next().and_then(|v| v.parse().ok()),
            "--qos" => parsed.qos = true,
            "--smoke" => parsed.smoke = true,
            other => eprintln!("ignoring unknown flag {other}"),
        }
    }
    parsed
}
