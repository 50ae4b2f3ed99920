//! Wire efficiency round 2: multi-connection striping and sparse payload
//! encoding, end-to-end through the full client↔server stack and, as rows
//! of the scenario harness (`tests/harness`), under the seed matrix.

mod harness;

use cricket_repro::oncrpc::{AcceptStat, RpcError};
use cricket_repro::prelude::*;
use harness::{bytes_in_is, Driver, Feature, Run, Scenario};

/// A payload with no zero byte anywhere — the sparse codec must never win
/// on it, so it isolates the striping path.
fn dense(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i % 250) + 1) as u8).collect()
}

/// A payload with exactly one literal page in `period`, the rest zero.
fn sparse_payload(pages: usize, period: usize) -> Vec<u8> {
    let mut v = vec![0u8; pages * 4096];
    for (i, chunk) in v.chunks_mut(4096).enumerate() {
        if period != 0 && i % period == 0 {
            chunk.fill(0xC7);
        }
    }
    v
}

// Every assertion on traffic below reads instance-scoped state — the
// client's own `ClientStats`, or its stripe pool's lanes — which sibling
// tests running in parallel cannot move.

/// Request bytes `client`'s main connection has put on the wire.
fn wire_bytes(client: &mut CricketClient) -> u64 {
    client.rpc().stats().bytes_sent
}

/// Detach `client`'s stripe pool and count the calls its lanes completed.
/// Lanes carry nothing but stripes, so this is the number of stripes the
/// client sent — from state no other test can touch.
fn stripe_calls(client: &mut CricketClient) -> u64 {
    let mut pool = client.disable_striping().expect("client has a pool");
    let calls = pool.lanes_mut().iter().map(|lane| lane.rpc.stats().calls);
    calls.sum()
}

/// Write `data` to a fresh allocation and read it back; freed after.
fn round_trip(c: &mut CricketClient, data: &[u8]) -> Vec<u8> {
    let p = c.malloc(data.len() as u64).unwrap();
    c.memcpy_htod(p, data).unwrap();
    let back = c.memcpy_dtoh(p, data.len() as u64).unwrap();
    c.free(p).unwrap();
    back
}

/// A striped round trip is byte-identical to the unstriped transfer of the
/// same payload, and actually rode the stripe path.
#[test]
fn striped_transfer_matches_unstriped_byte_for_byte() {
    let data = dense(1 << 20);

    let setup = SimSetup::new();
    let mut striped = setup.striped_client(EnvConfig::RustyHermit, 4);
    let back_striped = round_trip(&mut striped, &data);
    // 1 MiB at the default 256 KiB stripe length, both directions.
    let stripes = stripe_calls(&mut striped);
    assert_eq!(stripes, 8, "copies did not ride the stripe path");

    let setup2 = SimSetup::new();
    let back_plain = round_trip(&mut setup2.client(EnvConfig::RustyHermit), &data);

    assert_eq!(back_striped, data);
    assert_eq!(back_plain, data);
    assert_eq!(back_striped, back_plain);
}

/// Copies below the stripe threshold keep the single-connection fast path
/// even with a pool attached.
#[test]
fn small_ops_bypass_the_stripe_pool() {
    let setup = SimSetup::new();
    let mut client = setup.striped_client(EnvConfig::RustyHermit, 4);
    let data = dense(32 * 1024);
    assert_eq!(round_trip(&mut client, &data), data);
    assert_eq!(stripe_calls(&mut client), 0, "sub-threshold op was striped");
}

/// Four lanes overlap their wire time in the virtual-time model: a large
/// wire-bound copy completes well over 1.5x faster than single-connection.
#[test]
fn striping_beats_single_connection_on_large_copies() {
    let bytes = 8 << 20;
    let data = dense(bytes);

    let time_one = |lanes: Option<usize>| -> u64 {
        let setup = SimSetup::new();
        let mut client = match lanes {
            Some(n) => setup.striped_client(EnvConfig::RustyHermit, n),
            None => setup.client(EnvConfig::RustyHermit),
        };
        let p = client.malloc(bytes as u64).unwrap();
        let t0 = setup.clock.now_ns();
        client.memcpy_htod(p, &data).unwrap();
        let dt = setup.clock.now_ns() - t0;
        client.free(p).unwrap();
        dt
    };

    let plain_ns = time_one(None);
    let striped_ns = time_one(Some(4));
    let speedup = plain_ns as f64 / striped_ns as f64;
    assert!(
        speedup >= 1.5,
        "4-lane striping speedup {speedup:.2}x (plain {plain_ns} ns, striped {striped_ns} ns)"
    );
}

/// Write `data` once and read it back: the write executes once (a
/// retried or duplicated call would double-count `server.bytes_in`), and
/// the readback is byte-identical.
fn copy_once(r: &mut Run, data: &[u8]) {
    let p = r.malloc(data.len() as u64);
    r.c.server_reset_stats().unwrap();
    r.c.memcpy_htod(p, data).unwrap();
    bytes_in_is(&mut r.c, data.len() as u64);
    let back = r.c.memcpy_dtoh(p, data.len() as u64).unwrap();
    harness::same_trace("the readback", &back[..], data);
    r.free(p);
}

/// Striped transfers whose four lanes each run a lossy schedule of their
/// own (drops, duplicates, resets, truncations), the control connection
/// clean. Dense, so the sparse codec never wins: the striping path alone.
#[test]
fn striped_transfers_survive_the_chaos_matrix_exactly_once() {
    Scenario {
        workload: |r| copy_once(r, &dense(1 << 20)),
        faults: harness::lossy,
        features: &[Feature::Striping(4)],
        driver: Driver::Sim(EnvConfig::RustyHermit),
    }
    .matrix("dense megabyte, lossy lanes, striped, in process");
}

/// Procedures 81 and 82 carried stripes before a stripe became a plain
/// copy call. A peer that still sends one is answered `PROC_UNAVAIL` by the
/// generated dispatcher, and its session carries on — on the simulated
/// guest path and on a reactor-served TCP connection.
#[test]
fn retired_stripe_procedures_are_refused_proc_unavail() {
    let setup = SimSetup::new();
    let server = ServerBuilder::new("127.0.0.1:0").serve().expect("bind");
    let tcp = CricketClient::connect(&Endpoint::addr(server.addr()).unwrap()).unwrap();
    for mut client in [setup.client(EnvConfig::RustyHermit), tcp] {
        let data = dense(64 * 1024);
        let p = client.malloc(data.len() as u64).unwrap();
        for proc in [81, 82] {
            // The retired argument shape: base pointer, offset, stripe seq.
            let refused = client.rpc().call_raw(proc, |enc| {
                enc.put_u64(p);
                enc.put_u64(0);
                enc.put_u32(0);
            });
            assert!(
                matches!(refused, Err(RpcError::Accepted(AcceptStat::ProcUnavail))),
                "proc {proc}: {:?}",
                refused.map(|_| ())
            );
        }
        client.memcpy_htod(p, &data).unwrap();
        assert_eq!(client.memcpy_dtoh(p, data.len() as u64).unwrap(), data);
        client.free(p).unwrap();
    }
    server.shutdown();
}

/// A 90%-zero payload travels sparse (≥5x fewer wire bytes), lands
/// byte-identical in device memory, and is accounted at its raw length.
#[test]
fn sparse_payloads_shrink_the_wire_and_land_byte_identical() {
    let setup = SimSetup::new();
    let mut client = setup.client(EnvConfig::RustyHermit);
    let data = sparse_payload(640, 10); // 2.5 MiB, one literal page in ten

    let p = client.malloc(data.len() as u64).unwrap();
    client.server_reset_stats().unwrap();
    let before = wire_bytes(&mut client);
    client.memcpy_htod(p, &data).unwrap();
    let wire = wire_bytes(&mut client) - before;
    // ≥5x means at least 512 of the 640 pages never travelled.
    assert!(
        wire * 5 <= data.len() as u64,
        "90%-zero payload must shrink ≥5x: {wire} wire bytes"
    );
    let stats = client.server_stats().unwrap();
    assert_eq!(
        stats.get("server.bytes_in").unwrap(),
        data.len() as u64,
        "accounting counts raw bytes"
    );
    assert_eq!(client.memcpy_dtoh(p, data.len() as u64).unwrap(), data);
    client.free(p).unwrap();
}

/// Fully dense payloads keep the plain path: every raw byte travels,
/// nothing elided, nothing added but the call header.
#[test]
fn dense_payloads_keep_the_plain_path() {
    let setup = SimSetup::new();
    let mut client = setup.client(EnvConfig::RustyHermit);
    let data = dense(256 * 1024);
    let p = client.malloc(data.len() as u64).unwrap();
    let before = wire_bytes(&mut client);
    client.memcpy_htod(p, &data).unwrap();
    let wire = wire_bytes(&mut client) - before;
    let raw = data.len() as u64;
    assert!((raw..raw + 128).contains(&wire), "{wire} wire bytes");
    assert_eq!(client.memcpy_dtoh(p, data.len() as u64).unwrap(), data);
    client.free(p).unwrap();
}

/// Sparse sub-ops ride command batches: with coalescing on, a mostly-zero
/// small copy is recorded (not sent eagerly), survives the flush, and
/// decodes byte-identical server-side.
#[test]
fn sparse_payloads_ride_command_batches() {
    let setup = SimSetup::new();
    let mut client = setup.client(EnvConfig::RustyHermit);
    client.enable_batching();
    let data = sparse_payload(3, 3); // 12 KiB, one literal page
    let p = client.malloc(data.len() as u64).unwrap();
    client.memcpy_htod(p, &data).unwrap();
    client.device_synchronize().unwrap(); // flush
    let stats = client.batch_stats().unwrap();
    assert_eq!(stats.ops_batched, 1, "sparse copy was not recorded");
    assert_eq!(client.memcpy_dtoh(p, data.len() as u64).unwrap(), data);
    client.free(p).unwrap();
}

/// A 96 KiB payload, three quarters zero, written eagerly as a sparse
/// call: non-idempotent, so only the replay cache makes a retry
/// exactly-once.
#[test]
fn sparse_transfers_survive_the_chaos_matrix() {
    Scenario {
        workload: |r| copy_once(r, &sparse_payload(24, 4)),
        faults: harness::lossy,
        features: &[Feature::Sparse],
        driver: Driver::Sim(EnvConfig::RustyHermit),
    }
    .matrix("sparse copy, lossy, in process");
}

/// Striping and sparse compose with the rest of the stack: a striped
/// client with batching enabled runs a mixed workload and every readback
/// is correct.
#[test]
fn striping_sparse_and_batching_compose() {
    let setup = SimSetup::new();
    let mut client = setup.striped_client(EnvConfig::RustyHermit, 2);
    client.enable_batching();

    let big_dense = dense(1 << 20); // striped
    let big_sparse = sparse_payload(128, 8); // sparse (512 KiB, 1/8 literal)
    let small = dense(2 * 1024); // batch-inlined

    let p1 = client.malloc(big_dense.len() as u64).unwrap();
    let p2 = client.malloc(big_sparse.len() as u64).unwrap();
    let p3 = client.malloc(small.len() as u64).unwrap();
    client.memcpy_htod(p1, &big_dense).unwrap();
    client.memcpy_htod(p2, &big_sparse).unwrap();
    client.memcpy_htod(p3, &small).unwrap();
    client.device_synchronize().unwrap();
    assert_eq!(
        client.memcpy_dtoh(p1, big_dense.len() as u64).unwrap(),
        big_dense
    );
    assert_eq!(
        client.memcpy_dtoh(p2, big_sparse.len() as u64).unwrap(),
        big_sparse
    );
    assert_eq!(client.memcpy_dtoh(p3, small.len() as u64).unwrap(), small);
    for p in [p1, p2, p3] {
        client.free(p).unwrap();
    }
}
