//! Wire efficiency round 2: multi-connection striping and sparse payload
//! encoding, end-to-end through the full client↔server stack and under
//! the chaos seed matrix (same fixed seeds as `tests/chaos.rs`).

use cricket_repro::client::sim::SimSetup;
use cricket_repro::oncrpc::{
    AcceptStat, FaultConfig, FaultPlan, FaultyTransport, OpaqueAuth, ReplayCache, RetryPolicy,
    RpcError, SharedFaultPlan,
};
use cricket_repro::prelude::*;
use cricket_repro::server::SimTransport;
use std::sync::Arc;
use std::time::Duration;

/// The fixed fault matrix exercised by `ci.sh wire2`.
const CI_SEEDS: [u64; 6] = [1, 7, 42, 0xC41C_4E71, 0xDEAD_BEEF, 20_230_915];

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
    pool.lanes_mut()
        .iter()
        .map(|lane| lane.rpc.stats().calls)
        .sum()
}

/// Harden one RPC lane the same way `tests/chaos.rs` hardens a client:
/// retries with capped backoff (non-idempotent included — the replay cache
/// makes them safe), a short deadline, and a reconnector that continues
/// the same per-lane fault schedule.
fn harden_lane(
    lane: &mut cricket_repro::oncrpc::RpcClient,
    setup: &SimSetup,
    env: EnvConfig,
    plan: &SharedFaultPlan,
) {
    lane.set_retry_policy(RetryPolicy {
        max_attempts: 20,
        base_delay: Duration::from_micros(50),
        max_delay: Duration::from_millis(1),
        retry_non_idempotent: true,
    });
    lane.set_call_timeout(Some(Duration::from_millis(40)))
        .unwrap();
    let rpc_srv = Arc::clone(&setup.rpc);
    let clock = Arc::clone(&setup.clock);
    let plan = Arc::clone(plan);
    lane.set_reconnect(move || {
        let fresh = SimTransport::new(Arc::clone(&rpc_srv), env.guest(), Arc::clone(&clock));
        Ok(Box::new(FaultyTransport::new(
            Box::new(fresh),
            Arc::clone(&plan),
        )))
    });
}

// ---------------------------------------------------------------------
// Striping
// ---------------------------------------------------------------------

/// A striped round trip is byte-identical to the unstriped transfer of the
/// same payload, and actually rode the stripe path.
#[test]
fn striped_transfer_matches_unstriped_byte_for_byte() {
    let data = dense(1 << 20);

    let setup = SimSetup::new();
    let mut striped = setup.striped_client(EnvConfig::RustyHermit, 4);
    let p = striped.malloc(data.len() as u64).unwrap();
    striped.memcpy_htod(p, &data).unwrap();
    let back_striped = striped.memcpy_dtoh(p, data.len() as u64).unwrap();
    striped.free(p).unwrap();
    // 1 MiB at the default 256 KiB stripe length, both directions.
    assert_eq!(
        stripe_calls(&mut striped),
        8,
        "copies did not ride the stripe path"
    );

    let setup2 = SimSetup::new();
    let mut plain = setup2.client(EnvConfig::RustyHermit);
    let p = plain.malloc(data.len() as u64).unwrap();
    plain.memcpy_htod(p, &data).unwrap();
    let back_plain = plain.memcpy_dtoh(p, data.len() as u64).unwrap();
    plain.free(p).unwrap();

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
    let p = client.malloc(data.len() as u64).unwrap();
    client.memcpy_htod(p, &data).unwrap();
    assert_eq!(client.memcpy_dtoh(p, data.len() as u64).unwrap(), data);
    client.free(p).unwrap();
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

/// The chaos matrix: striped transfers with per-lane fault schedules
/// (drops, duplicates, resets, truncations) must reassemble byte-identically
/// and apply every write stripe exactly once — asserted against the
/// server's `bytes_in`, which a duplicated stripe would double-count.
#[test]
fn striped_transfers_survive_the_chaos_matrix_exactly_once() {
    for seed in CI_SEEDS {
        let setup = SimSetup::new();
        let replay = Arc::new(ReplayCache::default());
        setup.rpc.set_replay_cache(Arc::clone(&replay));
        let env = EnvConfig::RustyHermit;

        let plans: Vec<SharedFaultPlan> = (0..4)
            .map(|lane| {
                let lane_seed = seed ^ (lane as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                FaultPlan::from_seed_with(lane_seed, FaultConfig::lossy()).into_shared()
            })
            .collect();
        let mut pool = setup.stripe_pool_with(env, 4, |t, i| {
            Box::new(FaultyTransport::new(t, Arc::clone(&plans[i])))
        });
        pool.set_credential(OpaqueAuth::client_token(0xC11E_0002));
        for (i, lane) in pool.lanes_mut().iter_mut().enumerate() {
            harden_lane(&mut lane.rpc, &setup, env, &plans[i]);
        }

        // The control-plane client stays clean; only the stripes face chaos.
        let mut client = setup.client(env);
        client.enable_striping(pool);

        // Dense, so the sparse codec never wins: the striping path alone.
        let data = dense(1 << 20);
        let p = client.malloc(data.len() as u64).unwrap();
        client.server_reset_stats().unwrap();
        client.memcpy_htod(p, &data).unwrap();
        let stats = client.server_stats().unwrap();
        assert_eq!(
            stats.get("server.bytes_in").unwrap(),
            data.len() as u64,
            "seed {seed}: write stripes were not exactly-once"
        );
        let back = client.memcpy_dtoh(p, data.len() as u64).unwrap();
        assert_eq!(back, data, "seed {seed}: striped reassembly corrupted");
        client.free(p).unwrap();
    }
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

// ---------------------------------------------------------------------
// Sparse encoding
// ---------------------------------------------------------------------

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

/// Sparse transfers under the chaos matrix: the eager sparse call is
/// non-idempotent, so the replay cache must make retries exactly-once, and
/// the decoded payload must stay byte-identical.
#[test]
fn sparse_transfers_survive_the_chaos_matrix() {
    for seed in CI_SEEDS {
        let setup = SimSetup::new();
        let replay = Arc::new(ReplayCache::default());
        setup.rpc.set_replay_cache(Arc::clone(&replay));
        let env = EnvConfig::RustyHermit;
        let plan = FaultPlan::from_seed_with(seed, FaultConfig::lossy()).into_shared();
        let mut client = setup.chaos_client(env, &plan);
        client
            .rpc()
            .set_credential(OpaqueAuth::client_token(0xC11E_0003));
        harden_lane(client.rpc(), &setup, env, &plan);

        let data = sparse_payload(24, 4); // 96 KiB, 3/4 zero
        let p = client.malloc(data.len() as u64).unwrap();
        client.server_reset_stats().unwrap();
        client.memcpy_htod(p, &data).unwrap();
        let stats = client.server_stats().unwrap();
        assert_eq!(
            stats.get("server.bytes_in").unwrap(),
            data.len() as u64,
            "seed {seed}: sparse write not exactly-once"
        );
        assert_eq!(
            client.memcpy_dtoh(p, data.len() as u64).unwrap(),
            data,
            "seed {seed}: sparse payload corrupted"
        );
        client.free(p).unwrap();
    }
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
