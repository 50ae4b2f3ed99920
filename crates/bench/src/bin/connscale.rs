//! Connection-scaling snapshot: concurrent sessions served per server
//! thread, completion-driven reactor vs. the serial thread-per-connection
//! reference at an equal thread budget — written to `BENCH_connscale.json`
//! (wall clock).
//!
//! ```text
//! cargo run --release -p cricket-bench --bin connscale
//! cargo run --release -p cricket-bench --bin connscale -- --sessions 80 --budget 8
//! cargo run --release -p cricket-bench --bin connscale -- --smoke
//! ```
//!
//! The baseline is [`ServeMode::Serial`]: one blocking thread per
//! connection (libtirpc-style), so `budget` sessions cost `budget + 1`
//! server threads. The reactor serves *every* session from `workers + 2`
//! threads (poller, accept, worker shards), chosen so its whole thread
//! budget fits inside the baseline's. Self-asserted (structural):
//! **≥ 5× more concurrent sessions**, every session makes progress, and
//! the `Done`/`Parked` classification is engaged. The aggregate-throughput
//! ratio is wall clock on a shared box and sits around 0.8× in a full run:
//! per call the reactor still pays a readiness wake of its one poller
//! thread, which runs every inline call of every session in turn, and a
//! parked call adds a hand-off to a worker's queue, where a blocking
//! `Serial` thread wakes straight into dispatch. It sat around 1.0× while
//! a `TcpTransport` wrote each record's mark apart from its body: that
//! cost both servers a second wake-up per request, and `Serial` also one
//! per reply, so one write per record sped `Serial` up more than the
//! reactor (EXPERIMENTS.md "One write per call"). One run's ratio swings
//! with the `Serial` baseline (EXPERIMENTS.md "Connection scaling"), so
//! `--smoke` alternates three short pairs and gates the ratio of their
//! medians at [`SMOKE_FLOOR`]: a tripwire for a reactor that lost half its
//! throughput, not a claim of parity (its four-thread budget reads lower
//! than a full run).
//!
//! Each run also reports its work per call, clock `count`: the context
//! switches of the whole process, clients included (summed over
//! `/proc/self/task/*/status` while every thread of the run is alive), and
//! the reactor's reads, `WouldBlock` reads, wake-ups, notifies and worker
//! wake-ups (`reactor.*` in the server's statistics).

use cricket_client::{CricketClient, Endpoint};
use cricket_proto::ServerStats;
use cricket_server::{CricketServer, ServeMode, ServerBuilder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Least `--smoke` ratio of medians, reactor over `Serial`, that passes.
const SMOKE_FLOOR: f64 = 0.5;

fn tcp_client(addr: std::net::SocketAddr) -> CricketClient {
    CricketClient::connect(&Endpoint::Addr(addr)).expect("connect")
}

struct RunResult {
    sessions: usize,
    server_threads: usize,
    total_ops: u64,
    elapsed: Duration,
    min_session_ops: u64,
    /// The server's statistics at the start and the end of the run
    /// (`reactor.*` all zero for `Serial`).
    before: ServerStats,
    stats: ServerStats,
    /// Context switches of the whole process, clients included, over the
    /// run.
    switches: u64,
}

impl RunResult {
    fn ops_per_sec(&self) -> f64 {
        self.total_ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// How much statistic `name` grew over the run.
    fn grew(&self, name: &str) -> u64 {
        let get = |s: &ServerStats| s.get(name).expect("a reported statistic");
        get(&self.stats) - get(&self.before)
    }

    /// `count` per call: every op is one RPC.
    fn per_call(&self, count: u64) -> f64 {
        count as f64 / self.total_ops.max(1) as f64
    }
}

/// Context switches, voluntary and involuntary, of every live thread of
/// this process: the sum over `/proc/self/task/*/status` (0 where that is
/// unreadable).
fn context_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let status = tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("status")).ok());
    let count = |line: &str| {
        let field = line.strip_prefix("voluntary_ctxt_switches:");
        let field = field.or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"));
        field.and_then(|v| v.trim().parse::<u64>().ok())
    };
    status
        .map(|s| s.lines().filter_map(count).sum::<u64>())
        .sum()
}

/// Serve in `mode`, open `sessions` concurrent connections, and drive them
/// round-robin from `drivers` client threads for `secs`. Every op is a
/// synchronous round trip; most are `Done`-class (`cudaGetDeviceCount`),
/// every 16th visit also runs a `Parked` malloc/free pair so the worker
/// path is exercised. Returns aggregate and per-session progress.
fn measure(
    mode: ServeMode,
    sessions: usize,
    drivers: usize,
    secs: f64,
    server_threads: usize,
) -> RunResult {
    let server = CricketServer::a100();
    let handle = ServerBuilder::new("127.0.0.1:0")
        .server(Arc::clone(&server))
        .mode(mode)
        .serve()
        .expect("serve");
    let addr = handle.addr();

    // All connections are opened (and stay open) before measurement: the
    // baseline gets exactly as many sessions as it has serving slots, so
    // every one of its connections is actively served.
    let mut pool: Vec<Vec<CricketClient>> = (0..drivers).map(|_| Vec::new()).collect();
    for i in 0..sessions {
        pool[i % drivers].push(tcp_client(addr));
    }

    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let total = Arc::new(AtomicU64::new(0));
    // Drivers wait twice at the end, so the closing sample of context
    // switches sees every thread of the run still alive.
    let gate = Arc::new(Barrier::new(drivers + 1));
    let (switches, before) = (context_switches(), server.stats());
    let started = Instant::now();
    let joins: Vec<_> = pool
        .into_iter()
        .map(|mut chunk| {
            let (total, gate) = (Arc::clone(&total), Arc::clone(&gate));
            std::thread::spawn(move || {
                let mut per: Vec<u64> = vec![0; chunk.len()];
                let mut round = 0u64;
                while Instant::now() < deadline {
                    for (i, c) in chunk.iter_mut().enumerate() {
                        assert_eq!(c.device_count().expect("device_count"), 4);
                        per[i] += 1;
                        if round % 16 == 15 {
                            let p = c.malloc(1024).expect("malloc");
                            c.free(p).expect("free");
                            per[i] += 2;
                        }
                    }
                    round += 1;
                }
                let sum: u64 = per.iter().sum();
                total.fetch_add(sum, Ordering::Relaxed);
                gate.wait();
                gate.wait();
                per.into_iter().min().unwrap_or(0)
            })
        })
        .collect();
    gate.wait();
    let elapsed = started.elapsed();
    let switches = context_switches() - switches;
    // Every op was a completed round trip, and the reactor counts a call
    // before its reply can leave: the run's own server has them all.
    let stats = server.stats();
    gate.wait();
    let min_session_ops = joins
        .into_iter()
        .map(|j| j.join().expect("driver panicked"))
        .min()
        .unwrap_or(0);
    handle.shutdown();
    RunResult {
        sessions,
        server_threads,
        total_ops: total.load(Ordering::Relaxed),
        elapsed,
        min_session_ops,
        before,
        stats,
        switches,
    }
}

struct Args {
    sessions: usize,
    budget: usize,
    secs: f64,
    drivers: usize,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut a = Args {
        sessions: 0,
        budget: 8,
        secs: 1.0,
        drivers: 4,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--sessions" => a.sessions = it.next().and_then(|v| v.parse().ok()).unwrap_or(0),
            "--budget" => a.budget = it.next().and_then(|v| v.parse().ok()).unwrap_or(8),
            "--secs" => a.secs = it.next().and_then(|v| v.parse().ok()).unwrap_or(1.0),
            "--drivers" => a.drivers = it.next().and_then(|v| v.parse().ok()).unwrap_or(4),
            "--smoke" => a.smoke = true,
            other => eprintln!("ignoring unknown flag {other}"),
        }
    }
    if a.smoke {
        a.budget = a.budget.min(4);
        a.secs = a.secs.min(0.3);
        a.drivers = a.drivers.min(2);
    }
    if a.sessions == 0 {
        a.sessions = a.budget * 5;
    }
    a
}

fn main() {
    let args = parse_args();
    // Reactor thread budget: poller + accept + worker shards must fit
    // inside the baseline's `budget` connection threads + accept.
    let workers = args.budget.saturating_sub(2).max(1);
    println!(
        "Connection scaling — thread budget {}, baseline {} sessions vs reactor {} sessions\n",
        args.budget, args.budget, args.sessions
    );

    let pairs = if args.smoke { 3 } else { 1 };
    let (mut bases, mut reacs) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        bases.push(measure(
            ServeMode::Serial,
            args.budget,
            args.drivers,
            args.secs,
            args.budget + 1,
        ));
        reacs.push(measure(
            ServeMode::Reactor { workers },
            args.sessions,
            args.drivers,
            args.secs,
            workers + 2,
        ));
    }
    let median = |mut runs: Vec<RunResult>| {
        runs.sort_by(|a, b| a.ops_per_sec().total_cmp(&b.ops_per_sec()));
        runs.swap_remove(runs.len() / 2)
    };
    let (base, reac) = (median(bases), median(reacs));
    let total = |name| reac.stats.get(name).expect("a reported statistic");
    let (inline, parked) = (
        total("reactor.inline_replies"),
        total("reactor.parked_calls"),
    );

    let session_ratio = reac.sessions as f64 / base.sessions as f64;
    let throughput_ratio = reac.ops_per_sec() / base.ops_per_sec().max(1e-9);
    println!(
        "  baseline (serial, thread per conn): {:>4} sessions, {:>9.0} ops/s ({} threads)",
        base.sessions,
        base.ops_per_sec(),
        base.server_threads,
    );
    println!(
        "  reactor  ({workers} worker shards): {:>4} sessions, {:>9.0} ops/s ({} threads, {} inline / {} parked)",
        reac.sessions,
        reac.ops_per_sec(),
        reac.server_threads,
        inline,
        parked,
    );
    // Per-call counts (clock `count`): what each call cost the process in
    // context switches and the reactor in reads, wake-ups and notifies.
    let counts = [
        "reads",
        "reads_would_block",
        "wakeups",
        "notifies",
        "worker_wakeups",
    ]
    .map(|name| (name, reac.grew(&format!("reactor.{name}"))));
    println!("\n  per call (count)        serial  reactor");
    println!(
        "    context switches    {:>8.2} {:>8.2}",
        base.per_call(base.switches),
        reac.per_call(reac.switches)
    );
    for (name, n) in counts {
        println!("    {name:<19} {:>8} {:>8.2}", "-", reac.per_call(n));
    }
    println!(
        "\n  → {session_ratio:.1}x the concurrent sessions at {:.2}x the aggregate throughput",
        throughput_ratio
    );

    // Every reactor session made progress — "concurrent" means served, not
    // merely accepted.
    assert!(
        reac.min_session_ops > 0,
        "a reactor session was starved (min ops 0 across {} sessions)",
        reac.sessions
    );
    assert!(base.min_session_ops > 0, "baseline session starved");
    assert!(
        inline > 0 && parked > 0,
        "classification did not split Done/Parked: {inline} inline, {parked} parked"
    );
    assert!(
        session_ratio >= 5.0,
        "acceptance: need ≥5x sessions, got {session_ratio:.2}x"
    );
    assert!(
        !args.smoke || throughput_ratio >= SMOKE_FLOOR,
        "reactor throughput fell to {throughput_ratio:.2}x of serial (floor {SMOKE_FLOOR})"
    );

    let reactor_counts: String = counts
        .iter()
        .map(|(name, n)| format!(", \"{name}\": {:.4}", reac.per_call(*n)))
        .collect();
    let json = format!(
        "{{\n  \"clock\": \"wall\",\n  \"thread_budget\": {},\n  \"drivers\": {},\n  \"secs\": {},\n  \
         \"baseline\": {{\"mode\": \"serial\", \"sessions\": {}, \"server_threads\": {}, \
         \"total_ops\": {}, \"ops_per_sec\": {:.0}, \"min_session_ops\": {}, \
         \"per_call\": {{\"clock\": \"count\", \"context_switches\": {:.4}}}}},\n  \
         \"reactor\": {{\"mode\": \"reactor\", \"workers\": {workers}, \"sessions\": {}, \
         \"server_threads\": {}, \"total_ops\": {}, \"ops_per_sec\": {:.0}, \
         \"min_session_ops\": {}, \"inline_replies\": {inline}, \"parked_calls\": {parked}, \
         \"per_call\": {{\"clock\": \"count\", \"context_switches\": {:.4}{reactor_counts}}}}},\n  \
         \"session_ratio\": {session_ratio:.4},\n  \"throughput_ratio\": {throughput_ratio:.4}\n}}\n",
        args.budget,
        args.drivers,
        args.secs,
        base.sessions,
        base.server_threads,
        base.total_ops,
        base.ops_per_sec(),
        base.min_session_ops,
        base.per_call(base.switches),
        reac.sessions,
        reac.server_threads,
        reac.total_ops,
        reac.ops_per_sec(),
        reac.min_session_ops,
        reac.per_call(reac.switches),
    );
    if args.smoke {
        println!("\n  (smoke run: BENCH_connscale.json left untouched)");
    } else {
        let path = "BENCH_connscale.json";
        match std::fs::write(path, &json) {
            Ok(()) => println!("\n  → wrote {path}"),
            Err(e) => eprintln!("\n  ! could not write {path}: {e}"),
        }
    }
}
