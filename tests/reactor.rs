//! Reactor-mode integration: the completion-driven server must be
//! observationally identical to the serial thread-per-connection reference
//! (`RpcServer::serve_connection`) — byte-identical reply streams on the
//! rows of `tests/harness` — and must survive heavy connection churn
//! without leaking sessions, replay-cache entries or reply buffers.

mod harness;

use cricket_repro::prelude::*;
use cricket_repro::proto::ServerStats;
use harness::{Driver, Scenario};
use std::time::{Duration, Instant};

const REACTOR: ServeMode = ServeMode::Reactor { workers: 2 };

/// A Cricket server on reactor TCP, a session per connection.
fn reactor() -> cricket_repro::server::ServeHandle {
    let builder = ServerBuilder::new("127.0.0.1:0").mode(REACTOR);
    builder.serve().unwrap()
}

/// Run `row` on the serial server and on the reactor under `seed`: the
/// same fault schedule must yield the same decisions and the same reply
/// bytes (same xids, framing, payloads and replayed retransmissions).
fn matches_serial(row: Scenario, seed: u64) {
    let on = |mode| {
        Scenario {
            driver: Driver::Tcp(mode),
            ..row
        }
        .run(seed)
    };
    let (serial, reactor) = (on(ServeMode::Serial), on(REACTOR));
    assert!(!serial.replies.is_empty(), "nothing recorded");
    harness::same_trace("the reactor's schedule", &reactor.plan, &serial.plan);
    harness::same_trace("its reply bytes", &reactor.replies, &serial.replies);
}

/// Acceptance criterion: across the full CI seed matrix, the reactor path
/// is byte-for-byte indistinguishable from the serial reference.
#[test]
fn reactor_reply_traces_match_serial_across_seed_matrix() {
    let row = "six mallocs, lossy, reactor vs serial TCP";
    harness::for_each_seed(row, |seed| matches_serial(harness::SIX_MALLOCS, seed));
}

/// The mid-batch fault rows of `tests/chaos.rs` over TCP: batches park on
/// worker shards, yet replay, reconnect and status-vector semantics and
/// the reply streams are the serial reference's.
#[test]
fn reactor_mid_batch_drop_and_reset_match_serial() {
    matches_serial(harness::BATCH_DROP, 0);
    matches_serial(harness::BATCH_RESET, 0);
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

    let handle = reactor();
    let (addr, server) = (handle.addr(), handle.server());

    // The probe is connection 1 (session 1); churned sessions are 2..=TOTAL+1.
    let mut probe = harness::tcp_client(addr);
    let baseline = probe.mem_get_info().unwrap().free;

    let mut joins = Vec::new();
    for t in 0..THREADS {
        joins.push(std::thread::spawn(move || {
            for c in 0..CONNS_PER_THREAD {
                let mut client = harness::tcp_client(addr);
                let token = 0x50_0000 + (t * CONNS_PER_THREAD + c) as u64;
                client.rpc().set_client_token(token);
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
    let leaked = || (2..=TOTAL as u32 + 1).filter(|&s| server.scheduler.knows(s));
    while leaked().next().is_some() {
        let late = Instant::now() > deadline;
        assert!(
            !late,
            "leaked scheduler sessions: {:?}",
            leaked().collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Every vanished session's memory came back.
    while probe.mem_get_info().unwrap().free != baseline {
        let late = Instant::now() > deadline;
        assert!(!late, "server never reclaimed churned sessions' memory");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Replay cache stays inside the per-client window even through the
    // reactor's out-of-order completion path: one client hammering 200
    // non-idempotent calls keeps at most DEFAULT_REPLAY_WINDOW entries.
    let mut burst = harness::tcp_client(addr);
    burst.rpc().set_client_token(0xB125_7000);
    let cache = || {
        let stats = handle.server().stats();
        ["replay.stores", "replay.evictions"].map(|n| stats.get(n).unwrap())
    };
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
    // H2D is staged once (the send buffer: server-side, its payload lands
    // in device memory), D2H once (the client's reply reassembly), plus
    // headers.
    let floor = |(h2d, d2h, rounds): (usize, usize, usize)| ((h2d + d2h) * rounds) as u64;
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
    let drive = |addr: std::net::SocketAddr, inline: u64, pairs: u64| {
        let mut c = harness::tcp_client(addr);
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
    let (one, two) = (reactor(), reactor());
    let fresh = one.server().stats();
    let mut counters = fresh
        .stats
        .iter()
        .filter(|s| s.name.starts_with("reactor."));
    assert!(
        counters.all(|s| s.value == 0),
        "fresh reads zero: {fresh:?}"
    );
    std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| drive(one.addr(), 40, 7));
            s.spawn(|| drive(two.addr(), 11, 23));
        }
    });
    for (handle, inline, pairs) in [(&one, 40, 7), (&two, 11, 23)] {
        let stats = handle.server().stats();
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

    let handle = reactor();
    let mut c = harness::tcp_client(handle.addr());
    traffic(&mut c);
    let before = handle.server().stats();
    let wire = c.server_stats().unwrap();
    let after = handle.server().stats();
    within(&before, &wire, &after);
    let inline = |s: &ServerStats| s.get("reactor.inline_replies").unwrap();
    assert!(inline(&before) < inline(&after), "the read was inline");
    assert!(wire.get("reactor.reads").unwrap() >= 4, "{wire:?}");
    drop(c);
    handle.shutdown();
}
