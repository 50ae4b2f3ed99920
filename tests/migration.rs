//! Live session migration chaos suite.
//!
//! The contract under test: migrating a session between fleet shards via
//! the streaming checkpoint (base snapshot → dirty deltas → fenced final
//! delta → cutover through the directory home + reconnect) is *invisible*
//! to the client. The matrix rows (scenarios of `tests/harness`) phrase
//! that as a byte-identity claim: the full trace of client-visible replies
//! (pointers, checksums, timings, memory counters) from a run migrated
//! mid-workload must equal the trace of an unmigrated run, for every seed
//! in the CI matrix — each seed picks a different migration point
//! (mid-copy, mid-kernel-pipeline, mid-batch, mid-FFT, ...) and a
//! different pre-copy round count — and the source must be left with
//! nothing of the session.
//!
//! Also covered: a source shard crash mid-migration aborts cleanly (typed
//! `SourceLost`, staged destination state discarded, client fails over via
//! the ranked candidate list with no duplicated side effects), and a
//! 100-migration soak ping-ponging one hot session between two shards
//! leaks no scheduler sessions, device memory, or replay entries.

mod harness;

use cricket_repro::fleet::MigrateError;
use cricket_repro::prelude::*;
use harness::{fleet_client, two_shards, Driver, Feature, Run, Scenario};
use std::time::Duration;

const CUFFT_C2C: i32 = 0x29;
const CUFFT_FORWARD: i32 = -1;
const CUFFT_INVERSE: i32 = 1;

/// FNV-1a of `len` bytes read back from `p`.
fn readback(r: &mut Run, p: u64, len: u64) -> u64 {
    let bytes = r.c.memcpy_dtoh(p, len).unwrap();
    let step = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, step)
}

/// The scripted GPU workload. Every client-visible reply lands in the
/// run's trace; `r.at(phase)` between steps is where a migration row
/// migrates. Also doubles as teardown: by the end the session has freed
/// everything it created.
fn workload(r: &mut Run) {
    let mi = r.c.mem_get_info().unwrap();
    r.trace.push(format!("mem-start {} {}", mi.free, mi.total));

    // Two data buffers; `a` is uploaded now and read back much later, so
    // its bytes must survive whatever happens in between.
    let a = r.malloc(64 * 1024);
    let b = r.malloc(64 * 1024);
    r.trace.push(format!("malloc {a:#x} {b:#x}"));
    let pat_a: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    r.c.memcpy_htod(a, &pat_a).unwrap();
    r.at(0); // mid-copy: upload shipped, readback pending

    let image = CubinBuilder::new()
        .kernel("saxpy", &[8, 8, 4, 4])
        .code(b"saxpy")
        .build(true);
    let module = r.c.module_load(&image).unwrap();
    let func = r.c.module_get_function(module, "saxpy").unwrap();
    r.trace.push(format!("module {module:#x} {func:#x}"));
    let x = r.malloc(512 * 4);
    let y = r.malloc(512 * 4);
    let xs: Vec<u8> = (0..512).flat_map(|_| 3.0f32.to_le_bytes()).collect();
    let ys: Vec<u8> = (0..512).flat_map(|_| 1.0f32.to_le_bytes()).collect();
    r.c.memcpy_htod(x, &xs).unwrap();
    r.c.memcpy_htod(y, &ys).unwrap();
    r.at(1); // module + operands staged

    let stream = r.c.stream_create().unwrap();
    let e1 = r.c.event_create().unwrap();
    let e2 = r.c.event_create().unwrap();
    r.c.event_record(e1, stream).unwrap();
    let params = ParamBuilder::new().ptr(y).ptr(x).f32(2.0).u32(512).build();
    let (grid, block) = ((2, 1, 1).into(), (256, 1, 1).into());
    r.c.launch_kernel(func, grid, block, 0, stream, &params)
        .unwrap();
    r.at(2); // mid-pipeline: kernel launched, one event recorded

    r.c.event_record(e2, stream).unwrap();
    r.c.stream_synchronize(stream).unwrap();
    let ms = r.c.event_elapsed_ms(e1, e2).unwrap();
    r.trace.push(format!("elapsed {:08x}", ms.to_bits()));
    let saxpy = readback(r, y, 512 * 4);
    r.trace.push(format!("saxpy {saxpy:016x}"));
    r.at(3); // timing read across the boundary

    // Coalesced batch: sub-ops recorded client-side must survive a
    // migration happening underneath and execute on the new shard.
    r.c.enable_batching();
    for i in 0..8u64 {
        r.c.memset(a + i * 256, i as i32 + 1, 256).unwrap();
    }
    let pat_b: Vec<u8> = (0..128u32).map(|i| (i as u8) ^ 0x5A).collect();
    r.c.memcpy_htod(b, &pat_b).unwrap();
    r.at(4); // mid-batch: nothing flushed yet

    let batch = readback(r, a, 4096);
    r.trace.push(format!("batch {batch:016x}"));
    r.c.disable_batching().unwrap();

    // FFT: forward transform before the phase point, inverse after — the
    // plan handle and intermediate spectrum must both move.
    let plan = r.c.fft_plan_1d(256, CUFFT_C2C, 2).unwrap();
    let fin = r.malloc(2 * 256 * 8);
    let fout = r.malloc(2 * 256 * 8);
    let signal: Vec<u8> = (0..2 * 256u32)
        .flat_map(|i| {
            let re = ((i % 64) as f32) - 32.0;
            let im = 0.25 * i as f32;
            let mut bytes = re.to_le_bytes().to_vec();
            bytes.extend_from_slice(&im.to_le_bytes());
            bytes
        })
        .collect();
    r.c.memcpy_htod(fin, &signal).unwrap();
    r.c.fft_exec_c2c(plan, fin, fout, CUFFT_FORWARD).unwrap();
    r.at(5); // mid-FFT

    r.c.fft_exec_c2c(plan, fout, fin, CUFFT_INVERSE).unwrap();
    r.c.device_synchronize().unwrap();
    let fft = readback(r, fin, 2 * 256 * 8);
    r.trace.push(format!("fft {fft:016x}"));
    r.c.fft_destroy(plan).unwrap();
    r.at(6);

    let (fa, fb) = (readback(r, a, 4096), readback(r, b, 128));
    r.trace.push(format!("final {fa:016x} {fb:016x}"));
    r.c.event_destroy(e1).unwrap();
    r.c.event_destroy(e2).unwrap();
    r.c.stream_destroy(stream).unwrap();
    r.c.module_unload(module).unwrap();
    for p in [a, b, x, y, fin, fout] {
        r.free(p);
    }
    r.at(7); // empty session: migration of nothing must also be invisible

    let mi = r.c.mem_get_info().unwrap();
    r.trace.push(format!("mem-end {} {}", mi.free, mi.total));
}

/// The workload on a two-shard fleet, migrated at the seed's phase.
const MIGRATED: Scenario = Scenario {
    workload,
    faults: harness::clean,
    features: &[Feature::Migration],
    driver: Driver::Fleet,
};

/// For every CI seed, a run migrated at the seed's phase produces a
/// byte-identical client-visible trace to the unmigrated baseline, and the
/// source shard keeps nothing of the session.
#[test]
fn migration_matrix_traces_are_byte_identical() {
    let baseline = Scenario {
        features: &[],
        ..MIGRATED
    }
    .run(0)
    .client;
    assert!(baseline.len() >= 8, "workload produced a trivial trace");
    harness::for_each_seed("the workload migrated at the seed's phase", |seed| {
        harness::same_trace("the client trace", &MIGRATED.run(seed).client, &baseline);
    });
}

/// Eight striped rounds over one megabyte: a write, the seed's phase, then a
/// read of it back. The cutover follows a striped write, so the lanes and the
/// control connection must act in one session for the source to be left
/// with nothing and the readback to hold.
fn striped_rounds(r: &mut Run) {
    let len = 1 << 20;
    let p = r.malloc(len);
    for phase in 0..8u64 {
        let data: Vec<u8> = (0..len).map(|i| (i * 31 + phase * 7) as u8).collect();
        r.c.memcpy_htod(p, &data).unwrap();
        r.at(phase);
        let back = r.c.memcpy_dtoh(p, len).unwrap();
        harness::same_trace("the striped readback", &back[..], &data[..]);
    }
    r.free(p);
}

/// Striped H2D and D2H across a cutover, two TCP lanes beside the control
/// connection, for every CI seed: the readback holds and the source keeps
/// nothing of the session.
#[test]
fn striped_transfers_cross_a_cutover() {
    Scenario {
        workload: striped_rounds,
        faults: harness::clean,
        features: &[Feature::Striping(2), Feature::Migration],
        driver: Driver::Fleet,
    }
    .matrix("striped H2D + D2H across a cutover");
}

/// Every shard of `fleet` has all its device memory free.
fn no_memory_left(fleet: &Fleet, what: &str) {
    for idx in 0..fleet.len() {
        let lr = fleet.shard(idx).unwrap().server().load_report();
        assert_eq!(lr.free_mem, lr.total_mem, "shard {idx} {what}");
    }
}

/// Crash chaos: the source shard dies between pre-copy rounds. The driver
/// reports a typed `SourceLost`, the abort discards the destination's
/// staged state, and the client fails over through the ranked candidate
/// list to the surviving shard as a fresh session — with no duplicated
/// side effects.
#[test]
fn killed_source_mid_migration_aborts_cleanly_and_client_fails_over() {
    harness::for_each_seed("crash-abort", |seed| {
        let mut fleet = two_shards();
        let endpoint = Endpoint::directory(fleet.dir_addr()).unwrap();
        let token = 0xFA11_0000 ^ seed;
        let (mut client, addr) = fleet_client(&endpoint, token);
        let from = fleet.shard_by_port(u32::from(addr.port())).unwrap();
        let to = (from + 1) % fleet.len();

        let p = client.malloc(8192).unwrap();
        client.memcpy_htod(p, &[0xAB; 512]).unwrap();

        let mut mig = fleet.begin_migration(token, from, to).unwrap();
        mig.round(&fleet).unwrap();
        assert!(fleet.kill_shard(from));
        let err = match mig.round(&fleet) {
            Err(e) => e,
            Ok(_) => panic!("delta round succeeded on a dead source"),
        };
        assert!(
            matches!(err, MigrateError::SourceLost(_)),
            "wrong error: {err}"
        );
        mig.abort(&fleet);

        // The abort freed everything the base + first delta staged.
        let dst = fleet.shard(to).unwrap();
        let lr = dst.server().load_report();
        assert_eq!(lr.free_mem, lr.total_mem, "the abort leaked staged memory");

        // The crash severed the client's connection, so it re-resolves
        // through the directory: the crashed shard's stale entry is still
        // listed (no deregistration) but its listener is dead, so the
        // ranked-candidate walk skips the corpse and lands on the
        // survivor as a fresh session. The crashed shard's state is gone,
        // so this is loss, not duplication — the survivor must see
        // exactly the retried calls, once each.
        drop(client);
        let (mut client, addr2) = fleet_client(&endpoint, token);
        let landed = fleet.shard_by_port(u32::from(addr2.port()));
        assert_eq!(
            landed,
            Some(to),
            "failover landed elsewhere than the survivor"
        );
        let p2 = client.malloc(8192).unwrap();
        client.memcpy_htod(p2, &[0xCD; 256]).unwrap();
        assert_eq!(client.memcpy_dtoh(p2, 256).unwrap(), vec![0xCD; 256]);
        assert_eq!(dst.server().load_report().sessions, 1);
        client.free(p2).unwrap();
        let lr = dst.server().load_report();
        assert_eq!(lr.free_mem, lr.total_mem, "a retried call executed twice");
        drop(client);
        fleet.shutdown();
    });
}

/// Soak: 100 sequential migrations ping-ponging one hot session between
/// two shards. After every hop the old home must be quiescent; the
/// session's data must survive all 100 hops intact.
#[test]
fn soak_hundred_migrations_leak_nothing() {
    let fleet = two_shards();
    let endpoint = Endpoint::directory(fleet.dir_addr()).unwrap();
    let token = harness::TOKEN;
    let (mut client, addr) = fleet_client(&endpoint, token);
    let mut cur = fleet.shard_by_port(u32::from(addr.port())).unwrap();

    let p = client.malloc(32 * 1024).unwrap();
    let pat: Vec<u8> = (0..1024u32).map(|i| (i * 7 % 256) as u8).collect();
    client.memcpy_htod(p, &pat).unwrap();

    for i in 0..100u32 {
        let next = (cur + 1) % fleet.len();
        let report = fleet
            .migrate_session(token, cur, next, 1)
            .unwrap_or_else(|e| panic!("migration {i} ({cur}→{next}) failed: {e}"));
        assert!(report.streamed_bytes() > 0, "migration {i}");
        let src = fleet.shard(cur).unwrap();
        harness::quiescent(src.server(), None, Some(src.replay()));

        // Keep the session hot: dirty part of the block (so the next
        // migration ships a real delta) and verify the rest survived.
        client.memset(p, (i & 0x7f) as i32, 512).unwrap();
        let back = client.memcpy_dtoh(p, 1024).unwrap();
        assert_eq!(&back[512..], &pat[512..1024], "migration {i}: data lost");
        cur = next;
    }

    client.free(p).unwrap();
    no_memory_left(&fleet, "holds memory after the soak");
    drop(client);
    fleet.shutdown();
}

/// Liveness under true concurrency: the client hammers the fleet from its
/// own thread while the driver ping-pongs its session between shards. The
/// eviction drain (in-flight calls complete before the final snapshot)
/// plus retry/reconnect hardening must keep every call correct — each
/// iteration verifies its own writes — and nothing may leak at the end.
#[test]
fn migration_under_concurrent_client_load_loses_nothing() {
    let fleet = two_shards();
    let endpoint = Endpoint::directory(fleet.dir_addr()).unwrap();
    let token = 0xC0C0_0007;
    let (mut client, addr) = fleet_client(&endpoint, token);
    let start = fleet.shard_by_port(u32::from(addr.port())).unwrap();

    std::thread::scope(|s| {
        let fleet = &fleet;
        s.spawn(move || {
            for i in 0..150u32 {
                let p = client.malloc(4096).unwrap();
                let fill = vec![(i % 251) as u8; 512];
                client.memcpy_htod(p, &fill).unwrap();
                let back = client.memcpy_dtoh(p, 512).unwrap();
                assert_eq!(back, fill, "iteration {i}: write lost across a migration");
                client.free(p).unwrap();
            }
            drop(client);
        });

        let mut cur = start;
        for m in 0..6 {
            // The session only exists on `cur` once the client's next call
            // has re-bound there; retry until the planner sees it.
            loop {
                match fleet.migrate_session(token, cur, (cur + 1) % fleet.len(), 1) {
                    Ok(_) => break,
                    Err(MigrateError::Plan(_)) => std::thread::sleep(Duration::from_micros(200)),
                    Err(e) => panic!("concurrent migration {m} failed: {e}"),
                }
            }
            cur = (cur + 1) % fleet.len();
        }
    });
    no_memory_left(&fleet, "leaked under concurrent migration");
    fleet.shutdown();
}
