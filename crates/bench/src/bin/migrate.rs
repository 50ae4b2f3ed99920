//! Live-migration cost snapshot: streamed incremental checkpoint vs a
//! naive stop-and-copy, across dirty rates — written to
//! `BENCH_migrate.json`.
//!
//! ```text
//! cargo run --release -p cricket-bench --bin migrate
//! cargo run --release -p cricket-bench --bin migrate -- --blocks 32 --rounds 3
//! cargo run --release -p cricket-bench --bin migrate -- --smoke
//! ```
//!
//! Each cell stands up a two-shard fleet, loads one session with a fixed
//! working set, then live-migrates it while a synthetic workload rewrites
//! `dirty%` of device memory before the first pre-copy round and half as
//! much before each subsequent one (the textbook converging pre-copy).
//! The streamed migration ships the base snapshot while the source keeps
//! serving, then only dirty deltas; a naive migration would pause the
//! session and ship the full footprint again. The acceptance claim:
//! **at ≤ 25% dirty rate the incremental resync moves < 50% of the naive
//! full-copy bytes** — self-asserted below.

use cricket_client::{CricketClient, Endpoint};
use oncrpc::{OpaqueAuth, RetryPolicy};
use std::time::Duration;

const BLOCK: u64 = 64 * 1024;

struct Cell {
    dirty_pct: u64,
    rounds: u32,
    base_bytes: u64,
    delta_bytes: u64,
    final_bytes: u64,
    naive_bytes: u64,
    pause_ns: u64,
}

impl Cell {
    fn streamed(&self) -> u64 {
        self.base_bytes + self.delta_bytes + self.final_bytes
    }
    fn resync(&self) -> u64 {
        self.delta_bytes + self.final_bytes
    }
    fn resync_ratio(&self) -> f64 {
        self.resync() as f64 / (self.naive_bytes as f64).max(1.0)
    }
}

/// Rewrite `pct`% of every live block (a prefix memset with a fresh value)
/// so the next delta epoch sees exactly that fraction dirty.
fn dirty(client: &mut CricketClient, blocks: &[u64], pct: u64, val: i32) {
    let len = (BLOCK * pct / 100).min(BLOCK);
    if len == 0 {
        return;
    }
    for &b in blocks {
        client.memset(b, val, len).expect("memset");
    }
}

fn measure(blocks_n: usize, rounds: u32, dirty_pct: u64) -> Cell {
    let fleet = cricket_fleet::FleetBuilder::new(2)
        .heartbeat(Duration::from_secs(3600))
        .launch()
        .expect("launch fleet");
    let endpoint = Endpoint::directory(fleet.dir_addr()).expect("endpoint");
    let token = 0xBE7C_0000 | u64::from(rounds);
    let (t, addr) = endpoint
        .connect_transport_for(Some(token))
        .expect("resolve shard");
    let mut client = CricketClient::over(t, cricket_client::env::ClientFlavor::RustRpcLib, None);
    {
        let rpc = client.rpc();
        rpc.set_credential(OpaqueAuth::client_token(token));
        rpc.set_retry_policy(RetryPolicy {
            max_attempts: 40,
            base_delay: Duration::from_micros(50),
            max_delay: Duration::from_millis(1),
            retry_non_idempotent: true,
        });
        rpc.set_call_timeout(Some(Duration::from_millis(250)))
            .expect("timeout");
        let ep = endpoint;
        rpc.set_reconnect(move || {
            let (t, _addr) = ep
                .connect_transport_for(Some(token))
                .map_err(|e| oncrpc::RpcError::Io(std::io::Error::other(e.to_string())))?;
            Ok(Box::new(t))
        });
    }
    let from = fleet
        .shard_by_port(u32::from(addr.port()))
        .expect("landed on a fleet shard");
    let to = (from + 1) % fleet.len();

    // The working set: `blocks_n` × 64 KiB, fully written once.
    let fill = vec![0xA5u8; BLOCK as usize];
    let blocks: Vec<u64> = (0..blocks_n)
        .map(|_| {
            let p = client.malloc(BLOCK).expect("malloc");
            client.memcpy_htod(p, &fill).expect("htod");
            p
        })
        .collect();

    // Base snapshot streams while the source keeps serving.
    let mut mig = fleet
        .begin_migration(token, from, to)
        .expect("begin migration");

    // Converging pre-copy: the workload rewrites dirty_pct% before the
    // first round and half as much before each later one; the interval
    // before the cutover's fenced final delta halves once more.
    let mut pct = dirty_pct;
    for r in 0..rounds {
        dirty(&mut client, &blocks, pct, i32::from(r as u8) + 1);
        mig.round(&fleet).expect("pre-copy round");
        pct /= 2;
    }
    dirty(&mut client, &blocks, pct, 0x7E);
    // A sentinel the destination must reproduce exactly.
    let sentinel: Vec<u8> = (0..256u32).map(|i| (i % 249) as u8).collect();
    client
        .memcpy_htod(blocks[blocks_n - 1] + BLOCK - 256, &sentinel)
        .expect("sentinel htod");

    mig.cutover(&fleet).expect("cutover");
    let report = mig.finish();

    // First post-cutover call rides the reconnect hook to the new home;
    // the sentinel proves the final delta carried the last writes.
    let back = client
        .memcpy_dtoh(blocks[blocks_n - 1] + BLOCK - 256, 256)
        .expect("post-cutover dtoh");
    assert_eq!(back, sentinel, "migration corrupted the working set");
    for &b in &blocks {
        client.free(b).expect("free");
    }
    drop(client);
    fleet.shutdown();

    Cell {
        dirty_pct,
        rounds: report.rounds,
        base_bytes: report.base_bytes,
        delta_bytes: report.delta_bytes,
        final_bytes: report.final_bytes,
        naive_bytes: report.naive_bytes,
        pause_ns: report.pause_ns,
    }
}

struct Args {
    blocks: usize,
    rounds: u32,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut a = Args {
        blocks: 16,
        rounds: 2,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--blocks" => a.blocks = it.next().and_then(|v| v.parse().ok()).unwrap_or(16),
            "--rounds" => a.rounds = it.next().and_then(|v| v.parse().ok()).unwrap_or(2),
            "--smoke" => a.smoke = true,
            other => eprintln!("ignoring unknown flag {other}"),
        }
    }
    if a.smoke {
        a.blocks = a.blocks.min(8);
        a.rounds = a.rounds.min(2);
    }
    a
}

fn main() {
    let args = parse_args();
    let dirty_points: Vec<u64> = if args.smoke {
        vec![10, 25]
    } else {
        vec![5, 10, 25, 50, 100]
    };
    println!(
        "Live migration — {} × 64 KiB working set, {} pre-copy rounds, dirty rates {:?}%\n",
        args.blocks, args.rounds, dirty_points
    );

    let mut cells: Vec<Cell> = Vec::new();
    for &pct in &dirty_points {
        let cell = measure(args.blocks, args.rounds, pct);
        println!(
            "  dirty {:>3}%: base {:>8} B + resync {:>8} B vs naive {:>8} B → {:>5.1}% of a full re-copy, pause {:>7.3} ms",
            cell.dirty_pct,
            cell.base_bytes,
            cell.resync(),
            cell.naive_bytes,
            cell.resync_ratio() * 100.0,
            cell.pause_ns as f64 / 1e6,
        );
        cells.push(cell);
    }

    // Acceptance: at every dirty rate ≤ 25%, the streamed resync moves
    // less than half the bytes a naive stop-and-copy would.
    for c in cells.iter().filter(|c| c.dirty_pct <= 25) {
        assert!(
            c.resync_ratio() < 0.5,
            "acceptance: at {}% dirty the resync moved {:.1}% of the naive bytes (floor 50%)",
            c.dirty_pct,
            c.resync_ratio() * 100.0
        );
    }
    println!("\n  → every ≤25%-dirty cell resynced < 50% of the naive full-copy bytes");

    let mut rows = String::new();
    for (i, c) in cells.iter().enumerate() {
        rows.push_str(&format!(
            "    {{\"dirty_pct\": {}, \"rounds\": {}, \"base_bytes\": {}, \"delta_bytes\": {}, \
             \"final_bytes\": {}, \"streamed_bytes\": {}, \"naive_bytes\": {}, \
             \"resync_ratio\": {:.4}, \"pause_wall_ns\": {}}}{}\n",
            c.dirty_pct,
            c.rounds,
            c.base_bytes,
            c.delta_bytes,
            c.final_bytes,
            c.streamed(),
            c.naive_bytes,
            c.resync_ratio(),
            c.pause_ns,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    let json = format!(
        "{{\n  \"working_set_blocks\": {},\n  \"block_bytes\": {BLOCK},\n  \"rounds\": {},\n  \
         \"workload\": \"prefix memset of dirty% per block, halving each pre-copy round\",\n  \
         \"cells\": [\n{rows}  ],\n  \
         \"accept\": {{\"max_dirty_pct\": 25, \"max_resync_ratio\": 0.5}}\n}}\n",
        args.blocks, args.rounds,
    );
    if args.smoke {
        println!("  (smoke run: BENCH_migrate.json left untouched)");
    } else {
        let path = "BENCH_migrate.json";
        match std::fs::write(path, &json) {
            Ok(()) => println!("  → wrote {path}"),
            Err(e) => eprintln!("  ! could not write {path}: {e}"),
        }
    }
}
