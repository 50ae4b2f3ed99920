//! The traced suite: every per-layer metric, measured from outside.
//!
//! A traced run makes one traced pass of *every* workload — the driver
//! wants every per-layer metric from every traced run, and each class of
//! call has one workload that exercises it — with the workload named on
//! the command line getting the long pass. Spans come from two places only,
//! both in the benchmark's own files: the observer around each call, and
//! the [`MeteredTransport`](crate::meter::MeteredTransport) under the
//! client. Then the recorded requests are replayed into single layers:
//!
//! ```text
//!   call span (observer)                              core + stubs + XDR + RPC client
//!   └─ transport calls (metered transport)            everything below the client
//!      └─ server half: handle_record_into (replay)    RPC server + service + device
//!         └─ device alone: vgpu::Device (direct)
//! ```
//!
//! A layer's self time is its span less the span below it. Each traced
//! pass has an untraced twin of the same length, which gives the tracing
//! overhead and proves tracing does not move virtual time or wire bytes.

use crate::catalogue::{self, APPS, WORKLOADS};
use crate::harness::{
    is_kernel_proc, run_trial, Checks, Class, ClassSpans, Size, Timed, Traced, Trial, Window,
    Workload,
};
use crate::probes::{self, time_ns, Samples};
use crate::report::{MetricValue, Report};
use crate::rng::Rng;
use crate::stats;
use crate::sys::{self, Pin};
use crate::workloads::apps::{AppRun, Apps};
use crate::workloads::bulk::{copy_len, BulkD2h, BulkH2d, MIB};
use crate::workloads::smallcall::Smallcall;
use crate::workloads::tcp::{Tcp, ROUNDS};
use cricket_client::sim::SimSetup;
use std::time::{Duration, Instant};

/// What one workload's traced pass and its untraced twin produced.
struct Pass {
    passes: u64,
    ops: u64,
    /// Wall time inside the traced window, over all passes.
    wall_ns: u64,
    by_class: [ClassSpans; Class::ALL],
    replies: [Option<Vec<u8>>; Class::ALL],
    /// Exchanges no observed op accounts for (a proxy app's calls).
    unobserved_xchg_wall_ns: u64,
    setup_requests: Vec<Vec<u8>>,
    requests: Vec<Vec<u8>>,
    boundaries: Vec<usize>,
    twin: Vec<Trial>,
}

/// When a traced pass keeps the bytes of its requests for the replays.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Capture {
    /// While the spans are taken: right for small requests.
    InSitu,
    /// In a pass of its own, after the measured ones, whose spans are
    /// thrown away: copying a 16 MiB request aside costs more than a tenth
    /// of sending it.
    Apart,
}

/// Traced passes of `W` for at least `budget`, then as many untraced ones.
fn trace<W: Workload, X>(
    seed: u64,
    size: Size,
    budget: Duration,
    capture: Capture,
    checks: &mut Checks,
    faults: &mut Vec<String>,
    extract: impl FnOnce(&W) -> X,
) -> (Pass, X) {
    let mut w = W::set_up(seed, size, true);
    let setup_requests = w.meter().take_requests();
    let mut obs = Traced::new(w.meter(), capture == Capture::InSitu);
    let mut win = Window::new(w.meter(), w.virt());
    let (mut passes, mut ops) = (0, 0);
    let t0 = Instant::now();
    while passes == 0 || t0.elapsed() < budget {
        ops += w.pass(&mut obs, &mut win, checks);
        passes += 1;
    }
    let unobserved = w.meter().take_exchanges();
    // The capture pass comes last: the copies it sets aside would
    // otherwise be fresh memory the measured passes fault in around.
    let (replies, requests) = if capture == Capture::Apart {
        let mut cap = Traced::new(w.meter(), true);
        w.pass(&mut cap, &mut Window::new(w.meter(), w.virt()), checks);
        (cap.replies, w.meter().take_requests())
    } else {
        (obs.replies, w.meter().take_requests())
    };
    w.verify(checks);
    drop(w);

    let mut twin_w = W::set_up(seed, size, false);
    let mut timed = Timed::with_capacity(twin_w.ops_hint());
    let twin: Vec<Trial> = (0..passes)
        .map(|_| run_trial(&mut twin_w, &mut timed, checks))
        .collect();
    twin_w.verify(checks);
    let extra = extract(&twin_w);
    drop(twin_w);

    if W::DETERMINISTIC {
        // Outside tracing must not perturb the model.
        let t = &twin[0];
        for (what, traced, untraced) in [
            ("ops", ops, t.ops * passes),
            ("virtual ns", win.virt_ns, t.virt_ns * passes),
            ("wire bytes", win.wire_bytes, t.wire_bytes * passes),
        ] {
            if traced != untraced {
                faults.push(format!(
                    "{}: traced pass has {what} {traced}, untraced twin {untraced}",
                    W::NAME
                ));
            }
        }
    }
    let pass = Pass {
        passes,
        ops,
        wall_ns: win.wall_ns,
        by_class: obs.by_class,
        replies,
        unobserved_xchg_wall_ns: unobserved.wall_ns,
        setup_requests,
        requests,
        boundaries: obs.boundaries,
        twin,
    };
    (pass, extra)
}

impl Pass {
    fn twin_wall_ns(&self) -> f64 {
        stats::median(
            &self
                .twin
                .iter()
                .map(|t| t.wall_ns as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// The untraced twin's wall time per op, as measured: the workload's
    /// wall-clock speed, which as an end-to-end metric is normalised.
    fn wall_ns_per_op(&self) -> f64 {
        self.twin_wall_ns() / (self.ops / self.passes) as f64
    }

    /// Tracing overhead: traced wall time over the twin's, less one, in %.
    fn overhead_pct(&self) -> f64 {
        (self.wall_ns as f64 / self.passes as f64 / self.twin_wall_ns() - 1.0) * 100.0
    }
}

/// The server half of every recorded request, replayed in order into a
/// fresh server: per class, and per part of the pass for device procedures.
#[derive(Default, Clone)]
struct Replay {
    wall_ns: [f64; Class::ALL],
    virt_ns: [f64; Class::ALL],
    calls: [u64; Class::ALL],
    /// Wall ns and count of device-executing procedures, per part.
    kernel_wall_ns: Vec<f64>,
    kernel_calls: Vec<u64>,
}

impl Replay {
    fn mean_wall(&self, c: Class) -> f64 {
        self.wall_ns[c as usize] / self.calls[c as usize].max(1) as f64
    }
    fn mean_virt(&self, c: Class) -> f64 {
        self.virt_ns[c as usize] / self.calls[c as usize].max(1) as f64
    }
}

/// Replay `pass` into `rounds` fresh servers; per-class means are medians
/// over rounds. Bulk requests are idempotent and repeated `bulk_repeats`
/// times each for more samples.
fn replay(pass: &Pass, rounds: usize, bulk_repeats: usize) -> Replay {
    let setup: Vec<Vec<u8>> = pass
        .setup_requests
        .iter()
        .map(|r| probes::strip_record_marks(r))
        .collect();
    let timed: Vec<(Class, u32, Vec<u8>)> = pass
        .requests
        .iter()
        .map(|r| {
            let (class, proc) = Class::of_request(r);
            (class, proc, probes::strip_record_marks(r))
        })
        .collect();
    // Keep a long pass's replay within about a second.
    let rounds = rounds.min(150_000 / timed.len().max(1)).max(1);
    let parts = pass.boundaries.len().max(1);
    let part_of = |i: usize| {
        pass.boundaries
            .iter()
            .position(|&end| i < end)
            .unwrap_or(parts - 1)
    };
    let all: Vec<Replay> = (0..rounds)
        .map(|_| {
            let sim = SimSetup::new();
            let mut enc = xdr::XdrEncoder::with_capacity(4096);
            let mut r = Replay {
                kernel_wall_ns: vec![0.0; parts],
                kernel_calls: vec![0; parts],
                ..Replay::default()
            };
            for record in &setup {
                sim.rpc
                    .handle_record_into(record, &mut enc)
                    .expect("replay set-up request");
            }
            for (i, (class, proc, record)) in timed.iter().enumerate() {
                let repeats = if matches!(class, Class::H2d | Class::D2h) {
                    bulk_repeats
                } else {
                    1
                };
                for _ in 0..repeats {
                    let v0 = sim.clock.now_ns();
                    let (res, ns) = time_ns(|| sim.rpc.handle_record_into(record, &mut enc));
                    res.expect("replay request");
                    r.wall_ns[*class as usize] += ns;
                    r.virt_ns[*class as usize] += (sim.clock.now_ns() - v0) as f64;
                    r.calls[*class as usize] += 1;
                    if is_kernel_proc(*proc) {
                        r.kernel_wall_ns[part_of(i)] += ns;
                        r.kernel_calls[part_of(i)] += 1;
                    }
                }
            }
            r
        })
        .collect();
    // Median over rounds, field by field; counts are the same every round.
    let mut out = all[0].clone();
    let med = |f: &dyn Fn(&Replay) -> f64| stats::median(&all.iter().map(f).collect::<Vec<_>>());
    for c in 0..Class::ALL {
        out.wall_ns[c] = med(&|r| r.wall_ns[c]);
        out.virt_ns[c] = med(&|r| r.virt_ns[c]);
    }
    for p in 0..parts {
        out.kernel_wall_ns[p] = med(&|r| r.kernel_wall_ns[p]);
    }
    out
}

/// The client half alone: `class`'s call over a canned reply, ns per call.
fn canned_call_ns(class: Class, reply: &[u8], payload: &[u8], iters: usize) -> f64 {
    let dims = || (1, 1, 1).into();
    probes::canned_ns(reply, iters, |c| match class {
        Class::Count => drop(std::hint::black_box(
            c.device_count().expect("canned count"),
        )),
        Class::Malloc => drop(std::hint::black_box(c.malloc(4096).expect("canned malloc"))),
        Class::Free => c.free(0x1000).expect("canned free"),
        Class::Launch => c
            .launch_kernel(1, dims(), dims(), 0, 0, &[])
            .expect("canned launch"),
        Class::H2d => c.memcpy_htod(0x1000, payload).expect("canned h2d"),
        Class::D2h => drop(std::hint::black_box(
            c.memcpy_dtoh(0x1000, payload.len() as u64)
                .expect("canned d2h"),
        )),
        Class::Other => unreachable!("no canned call for the unclassified"),
    })
}

/// Everything the per-class metrics of one class need.
struct ClassInputs<'a> {
    class: Class,
    pass: &'a Pass,
    replay: &'a Replay,
    /// Device-alone ns for one call of this class.
    device_ns: f64,
    null_server_ns: f64,
    payload: &'a [u8],
    canned_iters: usize,
}

/// Emit the six per-class metrics; returns the canned client-half ns.
fn class_metrics(out: &mut Samples, i: &ClassInputs<'_>) -> f64 {
    let c = i.class;
    let spans = &i.pass.by_class[c as usize];
    let calls = spans.calls.max(1) as f64;
    let name = c.name();
    let xchg_ns = spans.xchg.wall_ns as f64 / calls;
    let server_ns = i.replay.mean_wall(c);
    let stub_ns = match &i.pass.replies[c as usize] {
        Some(reply) => canned_call_ns(c, reply, i.payload, i.canned_iters),
        None => 0.0,
    };
    out.add(
        format!("core.client_self_ns.{name}"),
        (spans.call_wall_ns as f64 - spans.xchg.wall_ns as f64) / calls,
    );
    out.add(format!("cricket-proto.stub_ns.{name}"), stub_ns);
    out.add(format!("oncrpc.server.handle_record_ns.{name}"), server_ns);
    out.add(
        format!("cricket-server.service_self_ns.{name}"),
        server_ns - i.device_ns - i.null_server_ns,
    );
    out.add(
        format!("cricket-server.virt_service_ns.{name}"),
        i.replay.mean_virt(c),
    );
    out.add(
        format!("unikernel.guest_path_wall_ns.{name}"),
        xchg_ns - server_ns,
    );
    stub_ns
}

/// Share of the in-situ call spans that the per-layer figures account for:
/// the client half as measured alone over canned replies, plus the time
/// inside the transport's calls as measured in situ. It departs from 1 by
/// the error of taking isolated client-half costs for in-situ ones.
fn coverage(pass: &Pass, stub_ns: &[(Class, f64)]) -> f64 {
    let (mut layers, mut calls) = (0.0, 0.0);
    for (idx, spans) in pass.by_class.iter().enumerate() {
        let client_half = match stub_ns.iter().find(|(c, _)| *c as usize == idx) {
            Some((_, ns)) => ns * spans.calls as f64,
            // No isolated figure for this class: take its in-situ self time.
            None => spans.call_wall_ns.saturating_sub(spans.xchg.wall_ns) as f64,
        };
        layers += client_half + spans.xchg.wall_ns as f64;
        calls += spans.call_wall_ns as f64;
    }
    layers / calls.max(1.0)
}

fn percentile(latencies: &[u64], p: f64) -> f64 {
    let mut v = latencies.to_vec();
    v.sort_unstable();
    stats::percentile_sorted(&v, p) as f64
}

pub fn run(
    selected: &str,
    seed: u64,
    seconds: f64,
    size: Size,
    pin: &Pin,
) -> Result<Report, String> {
    let quick = size == Size::Quick;
    let fd_limit = sys::raise_fd_limit();
    let mut out = Samples::default();
    let mut checks = Checks::default();
    let mut faults = Vec::new();
    let mut notes = Vec::new();
    // The selected workload's passes are full-length ones, repeated for an
    // eighth of the run (and again untraced); the others make one short pass.
    let plan = |name: &str| {
        if name == selected && !quick {
            (Size::Full, Duration::from_secs_f64(seconds / 8.0))
        } else {
            (
                if quick { Size::Quick } else { Size::Short },
                Duration::ZERO,
            )
        }
    };
    let iters = if quick { 2_000 } else { 20_000 };
    let bulk_iters = if quick { 2 } else { 5 };
    let rounds = if quick { 1 } else { 3 };

    let copy_bytes = copy_len(seed);
    let copy_mib = copy_bytes as f64 / MIB;
    let mut dense = vec![0u8; copy_bytes];
    Rng::new(seed, 9).fill(&mut dense);

    // Layers alone.
    probes::byte_path(&mut out, &dense, bulk_iters);
    let [dev_malloc, dev_free, dev_launch, dev_h2d_mib, dev_d2h_mib] =
        probes::vgpu_direct(&mut out, seed, &dense);
    let (_, null_server_ns) = probes::null_call(&mut out, iters);

    // smallcall_sim: the four small classes.
    let (size_w, budget) = plan(Smallcall::NAME);
    let (small, ()) = trace::<Smallcall, _>(
        seed,
        size_w,
        budget,
        Capture::InSitu,
        &mut checks,
        &mut faults,
        |_| (),
    );
    let small_replay = replay(&small, rounds, 1);
    let mut small_stubs = Vec::new();
    for (class, device_ns) in [
        (Class::Count, 0.0),
        (Class::Malloc, dev_malloc),
        (Class::Free, dev_free),
        (Class::Launch, dev_launch),
    ] {
        let stub = class_metrics(
            &mut out,
            &ClassInputs {
                class,
                pass: &small,
                replay: &small_replay,
                device_ns,
                null_server_ns,
                payload: &[],
                canned_iters: iters,
            },
        );
        small_stubs.push((class, stub));
    }
    out.add(
        format!("trace.coverage.{}", Smallcall::NAME),
        coverage(&small, &small_stubs),
    );
    out.add(
        format!("trace.overhead_pct.{}", Smallcall::NAME),
        small.overhead_pct(),
    );
    out.add(
        format!("core.wall_ns_per_op.{}", Smallcall::NAME),
        small.wall_ns_per_op(),
    );
    for t in &small.twin {
        out.add("core.call_ns_p99.smallcall_sim", t.p99_ns);
    }

    // bulk_h2d_sim and bulk_d2h_sim: the two bulk classes.
    let (size_w, budget) = plan(BulkH2d::NAME);
    let (h2d, ()) = trace::<BulkH2d, _>(
        seed,
        size_w,
        budget,
        Capture::Apart,
        &mut checks,
        &mut faults,
        |_| (),
    );
    let (size_w, budget) = plan(BulkD2h::NAME);
    let (d2h, ()) = trace::<BulkD2h, _>(
        seed,
        size_w,
        budget,
        Capture::Apart,
        &mut checks,
        &mut faults,
        |_| (),
    );
    for (pass, class, name, dir, dev_mib) in [
        (&h2d, Class::H2d, BulkH2d::NAME, "h2d", dev_h2d_mib),
        (&d2h, Class::D2h, BulkD2h::NAME, "d2h", dev_d2h_mib),
    ] {
        let rep = replay(pass, rounds, bulk_iters);
        let stub = class_metrics(
            &mut out,
            &ClassInputs {
                class,
                pass,
                replay: &rep,
                device_ns: dev_mib * copy_mib,
                null_server_ns,
                payload: &dense,
                canned_iters: bulk_iters,
            },
        );
        let guest = out.0[&format!("unikernel.guest_path_wall_ns.{dir}")][0];
        out.add(
            format!("unikernel.guest_path_wall_ns_per_mib.{dir}"),
            guest / copy_mib,
        );
        out.add(
            format!("trace.coverage.{name}"),
            coverage(pass, &[(class, stub)]),
        );
        out.add(format!("trace.overhead_pct.{name}"), pass.overhead_pct());
        out.add(format!("core.wall_ns_per_op.{name}"), pass.wall_ns_per_op());
        for t in &pass.twin {
            let per_op = |total: u64| total as f64 / t.ops.max(1) as f64 / 1e9;
            out.add(
                format!("core.bulk.virt_{dir}_mib_per_s"),
                copy_mib / per_op(t.virt_ns),
            );
            out.add(
                format!("core.bulk.wall_{dir}_mib_per_s"),
                copy_mib / per_op(t.wall_ns),
            );
        }
    }

    // apps_sim: the proxy apps, and device time inside them.
    let (size_w, budget) = plan(Apps::NAME);
    let (apps, last): (Pass, [AppRun; 3]) = trace::<Apps, _>(
        seed,
        size_w,
        budget,
        Capture::InSitu,
        &mut checks,
        &mut faults,
        |w| w.last,
    );
    let apps_replay = replay(&apps, rounds, 1);
    for (slot, app) in APPS.iter().enumerate() {
        out.add(format!("proxy-apps.virt_s.{app}"), last[slot].virt_s);
        out.add(format!("proxy-apps.wall_s.{app}"), last[slot].wall_s);
        out.add(
            format!("proxy-apps.api_calls.{app}"),
            last[slot].api_calls as f64,
        );
    }
    // The boundaries repeat per pass; fold the parts onto the three apps.
    for (slot, kernel) in ["matrix_mul", "lu", "histogram"].iter().enumerate() {
        let parts = || (slot..apps_replay.kernel_wall_ns.len()).step_by(3);
        let wall: f64 = parts().map(|p| apps_replay.kernel_wall_ns[p]).sum();
        let calls: u64 = parts().map(|p| apps_replay.kernel_calls[p]).sum();
        let net = wall - calls as f64 * null_server_ns;
        out.add(
            format!("vgpu.kernel_wall_s.{kernel}"),
            net / apps.passes as f64 / 1e9,
        );
    }
    // The apps issue their own calls: no call spans, only the share of
    // their wall time spent below the transport boundary.
    out.add(
        format!("trace.coverage.{}", Apps::NAME),
        apps.unobserved_xchg_wall_ns as f64 / apps.wall_ns.max(1) as f64,
    );
    out.add(
        format!("trace.overhead_pct.{}", Apps::NAME),
        apps.overhead_pct(),
    );
    out.add(
        format!("core.wall_ns_per_op.{}", Apps::NAME),
        apps.wall_ns_per_op(),
    );

    // tcp_sessions: reactor, poller, sockets.
    let (size_w, budget) = plan(Tcp::NAME);
    let (tcp, session_setup_ns) = trace::<Tcp, _>(
        seed,
        size_w,
        budget,
        Capture::InSitu,
        &mut checks,
        &mut faults,
        |w| w.session_setup_ns,
    );
    let inline = &tcp.by_class[Class::Count as usize].latencies_ns;
    let parked: Vec<u64> = [Class::Malloc, Class::Free]
        .iter()
        .flat_map(|c| tcp.by_class[*c as usize].latencies_ns.iter().copied())
        .collect();
    for (which, lat) in [("inline", inline.as_slice()), ("parked", parked.as_slice())] {
        out.add(
            format!("oncrpc.reactor.{which}_ns_p50"),
            percentile(lat, 50.0),
        );
        out.add(
            format!("oncrpc.reactor.{which}_ns_p99"),
            percentile(lat, 99.0),
        );
    }
    out.add("cricket-server.session_setup_ns", session_setup_ns);
    let tcp_stubs: Vec<(Class, f64)> = small_stubs
        .iter()
        .filter(|(c, _)| *c != Class::Launch)
        .copied()
        .collect();
    out.add(
        format!("trace.coverage.{}", Tcp::NAME),
        coverage(&tcp, &tcp_stubs),
    );
    out.add(
        format!("trace.overhead_pct.{}", Tcp::NAME),
        tcp.overhead_pct(),
    );
    out.add(
        format!("core.wall_ns_per_op.{}", Tcp::NAME),
        tcp.wall_ns_per_op(),
    );
    for t in &tcp.twin {
        out.add(
            "polling.wall_ns_per_op.s64",
            t.wall_ns as f64 / t.ops.max(1) as f64,
        );
    }
    // The same loop with fewer and more sessions held open. Each session
    // costs four descriptors (client, server, poller probe, writer).
    let most = ((fd_limit as usize).saturating_sub(128) / 4).min(512);
    if most < 512 {
        notes.push(format!(
            "descriptor limit {fd_limit}: the 512-session passes use {most} sessions"
        ));
    }
    for (label, sessions, rounds_per_cycle) in [("s8", 8, ROUNDS), ("s512", most, 2)] {
        let mut w = Tcp::open(seed, sessions, rounds_per_cycle, 1, false);
        w.warm_up();
        let mut timed = Timed::with_capacity(w.ops_hint());
        let t = run_trial(&mut w, &mut timed, &mut checks);
        out.add(
            format!("polling.wall_ns_per_op.{label}"),
            t.wall_ns as f64 / t.ops.max(1) as f64,
        );
    }
    probes::polling(
        &mut out,
        &[("idle8", 8), ("idle64", 64), ("idle512", most)],
        if quick { 50 } else { 500 },
        if quick { 3 } else { 12 },
        Duration::from_millis(if quick { 100 } else { 500 }),
    );

    // simnet: the five configurations of the paper's Table 1. The modelled
    // network's share of an op is the exchange's virtual span less what the
    // server charges for service (taken from the replay above).
    let service_virt: f64 = small_replay.virt_ns.iter().sum::<f64>() / small.passes as f64;
    for (label, env) in crate::workloads::ENVS {
        let mut w = Smallcall::set_up_in(env, seed, Size::Quick, true);
        let mut obs = Traced::new(w.meter(), false);
        let mut win = Window::new(w.meter(), w.virt());
        let ops = w.pass(&mut obs, &mut win, &mut checks);
        let xchg_virt: u64 = obs.by_class.iter().map(|s| s.xchg.virt_ns).sum();
        // One quick pass is one cycle; the replayed pass had `reps` of them.
        let cycles = small.ops as f64 / small.passes as f64 / ops as f64;
        out.add(
            format!("simnet.virt_net_ns_per_op.{label}"),
            (xchg_virt as f64 - service_virt / cycles) / ops as f64,
        );
        let mut b = BulkH2d::set_up_in(env, seed, Size::Quick, false);
        let (up, down) = b.virt_bandwidths(&mut checks);
        out.add(format!("simnet.virt_h2d_mib_per_s.{label}"), up);
        out.add(format!("simnet.virt_d2h_mib_per_s.{label}"), down);
    }

    probes::side_passes(
        &mut out,
        seed,
        &dense,
        if quick { 256 } else { 4096 },
        quick,
    );

    // The layers should add up on the workloads they explain. A miss is
    // reported, not failed: it is a statement about this run's noise or
    // about cache-warm isolation, not about the program's outputs.
    for name in [Smallcall::NAME, BulkH2d::NAME, BulkD2h::NAME] {
        let cov = out.0[&format!("trace.coverage.{name}")][0];
        if !(0.9..=1.1).contains(&cov) {
            notes.push(format!(
                "trace.coverage.{name} = {cov:.3} is outside the expected 0.9–1.1"
            ));
        }
    }

    let metrics = catalogue::per_layer()
        .into_iter()
        .map(|def| match out.0.get(&def.name) {
            Some(v) => Ok(MetricValue {
                summary: stats::summarize(v),
                def,
            }),
            None => Err(format!("per-layer metric {} was not measured", def.name)),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let unknown: Vec<&String> = out
        .0
        .keys()
        .filter(|k| !metrics.iter().any(|m| &m.def.name == *k))
        .collect();
    if !unknown.is_empty() {
        return Err(format!("measured but not in the catalogue: {unknown:?}"));
    }
    notes.push(format!(
        "long pass: {selected}; passes traced: {}",
        [&small, &h2d, &d2h, &apps, &tcp]
            .iter()
            .zip(WORKLOADS)
            .map(|(p, (n, _))| format!("{n} {}×{} ops", p.passes, p.ops / p.passes))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    Ok(Report {
        workload: WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .find(|n| *n == selected)
            .ok_or_else(|| format!("unknown workload {selected}"))?,
        traced: true,
        seconds,
        provenance: sys::Provenance::collect(
            pin,
            seed,
            "loopback for tcp_sessions and the poller probes; none elsewhere (simulated network)",
        ),
        checks,
        metrics,
        faults,
        notes,
    })
}
