//! Property-based integration tests over the full stack: arbitrary
//! payloads and allocation patterns must round-trip through XDR → record
//! marking → guest TCP/virtio → server → device memory, in every
//! environment, at every fragment size — and, under proptest-generated
//! fault schedules, every call must return the correct result or a typed
//! error, never a wrong result, a panic, or a leaked server allocation.

mod harness;

use cricket_repro::oncrpc::{FaultConfig, FaultPlan};
use cricket_repro::prelude::*;
use harness::sim_client;
use proptest::prelude::*;

fn env_strategy() -> impl Strategy<Value = EnvConfig> {
    prop_oneof![
        Just(EnvConfig::RustNative),
        Just(EnvConfig::CNative),
        Just(EnvConfig::LinuxVm),
        Just(EnvConfig::Unikraft),
        Just(EnvConfig::RustyHermit),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn memcpy_roundtrip_any_payload(
        env in env_strategy(),
        data in proptest::collection::vec(any::<u8>(), 1..200_000),
    ) {
        let (ctx, _s) = simulated(env);
        let buf = ctx.upload(&data).unwrap();
        prop_assert_eq!(buf.copy_to_vec().unwrap(), data);
    }

    #[test]
    fn memcpy_roundtrip_any_fragment_size(
        frag in 16usize..100_000,
        data in proptest::collection::vec(any::<u8>(), 1..100_000),
    ) {
        let setup = SimSetup::new();
        let mut client = setup.client(EnvConfig::RustyHermit);
        client.set_max_fragment(frag);
        let ptr = client.malloc(data.len() as u64).unwrap();
        client.memcpy_htod(ptr, &data).unwrap();
        prop_assert_eq!(client.memcpy_dtoh(ptr, data.len() as u64).unwrap(), data);
        client.free(ptr).unwrap();
    }

    #[test]
    fn alloc_free_sequences_never_corrupt(
        sizes in proptest::collection::vec(1u64..1_000_000, 1..24),
    ) {
        let (ctx, _s) = simulated(EnvConfig::Unikraft);
        // Allocate all, write a signature into each, verify all, drop all.
        let bufs: Vec<_> = sizes
            .iter()
            .map(|&s| ctx.alloc::<u8>(s as usize).unwrap())
            .collect();
        for (i, b) in bufs.iter().enumerate() {
            let sig = vec![(i % 251) as u8; b.len().min(64)];
            ctx.with_raw(|r| r.memcpy_htod(b.ptr(), &sig)).unwrap();
        }
        for (i, b) in bufs.iter().enumerate() {
            let sig = ctx
                .with_raw(|r| r.memcpy_dtoh(b.ptr(), b.len().min(64) as u64))
                .unwrap();
            prop_assert!(sig.iter().all(|&v| v == (i % 251) as u8));
        }
    }

    #[test]
    fn f64_values_cross_the_wire_bit_exact(
        values in proptest::collection::vec(any::<f64>(), 1..500),
    ) {
        let (ctx, _s) = simulated(EnvConfig::RustyHermit);
        let buf = ctx.upload(&values).unwrap();
        let back = buf.copy_to_vec().unwrap();
        prop_assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            values.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn interior_offsets_read_back(
        base_len in 64usize..4096,
        offset in 0usize..63,
    ) {
        let (ctx, _s) = simulated(EnvConfig::RustNative);
        let data: Vec<u8> = (0..base_len).map(|i| (i % 241) as u8).collect();
        let buf = ctx.upload(&data).unwrap();
        let tail = ctx
            .with_raw(|r| r.memcpy_dtoh(buf.ptr() + offset as u64, (base_len - offset) as u64))
            .unwrap();
        prop_assert_eq!(&tail[..], &data[offset..]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Under any seeded *lossy* schedule (resets, drops, delays,
    /// duplicates, truncations — every fault the stack can detect or
    /// mask), a hardened client completes every call with the correct
    /// result and the server leaks nothing.
    #[test]
    fn lossy_fault_schedules_never_corrupt_results_or_leak(
        seed in any::<u64>(),
        env in env_strategy(),
        sizes in proptest::collection::vec(64u64..65_536, 1..5),
    ) {
        let setup = SimSetup::new();
        let plan = FaultPlan::from_seed_with(seed, FaultConfig::lossy()).into_shared();
        let mut client = sim_client(&setup, env, &plan);

        let baseline = client.mem_get_info().unwrap().free;
        for (i, &size) in sizes.iter().enumerate() {
            let ptr = client.malloc(size).unwrap();
            let pat = vec![(i as u8).wrapping_mul(31).wrapping_add(7); 48];
            client.memcpy_htod(ptr, &pat).unwrap();
            prop_assert_eq!(
                client.memcpy_dtoh(ptr, 48).unwrap(), pat,
                "seed {} corrupted a readback", seed
            );
            client.free(ptr).unwrap();
        }
        prop_assert_eq!(
            client.mem_get_info().unwrap().free, baseline,
            "seed {} leaked a server allocation", seed
        );
    }

    /// Under the *full* fault mix — including payload corruption, which
    /// RPC/XDR cannot detect — every call still returns a typed `Result`:
    /// no panic, no hang (per-call deadlines and the retry cap bound every
    /// outcome).
    #[test]
    fn any_fault_schedule_yields_typed_outcomes_never_panics(
        seed in any::<u64>(),
        env in env_strategy(),
    ) {
        let setup = SimSetup::new();
        let plan = FaultPlan::from_seed(seed).into_shared();
        let mut client = sim_client(&setup, env, &plan);

        let mut live = Vec::new();
        for _ in 0..6 {
            if let Ok(ptr) = client.malloc(4096) {
                live.push(ptr);
            }
        }
        let _ = client.device_count();
        for ptr in live {
            let _ = client.free(ptr);
        }
        // Reaching here is the property: every outcome above was a typed
        // `Result`, bounded in time by deadlines and the retry cap.
    }
}

/// One step in a migration dirty-tracking interleaving.
#[derive(Debug, Clone, Copy)]
enum MemOp {
    /// Allocate `(n + 1) * 64` bytes.
    Alloc(u16),
    /// Free a live block chosen by index.
    Free(u8),
    /// Write a short byte run at an offset inside a live block.
    Write(u8, u16, u8),
    /// Memset a short span inside a live block.
    Memset(u8, u16, u8),
    /// A migration pre-copy round: export the delta since the last epoch,
    /// mark a new epoch on the source, apply the delta on the replica.
    Sync,
}

fn mem_op_strategy() -> impl Strategy<Value = MemOp> {
    prop_oneof![
        (0u16..512).prop_map(MemOp::Alloc),
        any::<u8>().prop_map(MemOp::Free),
        (any::<u8>(), any::<u16>(), any::<u8>()).prop_map(|(b, o, v)| MemOp::Write(b, o, v)),
        (any::<u8>(), any::<u16>(), any::<u8>()).prop_map(|(b, o, v)| MemOp::Memset(b, o, v)),
        Just(MemOp::Sync),
    ]
}

/// One streaming round through the two routines `mig_export` and
/// `apply_blob` drive per device: delta against the driver's known-block
/// set, epoch the source, update the known set, replay on the replica
/// (`placed` = what the stream has placed there, as an adoption tracks it).
fn mem_sync(
    src: &mut cricket_repro::vgpu::memory::MemoryManager,
    dst: &mut cricket_repro::vgpu::memory::MemoryManager,
    known: &mut std::collections::BTreeSet<u64>,
    placed: &mut std::collections::BTreeMap<u64, u64>,
) -> cricket_repro::vgpu::VgpuResult<()> {
    let delta = src.delta_since(known, |_| true);
    src.mark_epoch();
    for b in &delta.freed {
        known.remove(b);
    }
    for (b, _) in &delta.new_blocks {
        known.insert(*b);
    }
    dst.apply_delta(&delta, |_| true, placed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole's memory-correctness property: for ANY interleaving of
    /// allocs, frees, writes, memsets, and epoch boundaries, a replica
    /// built from the base snapshot plus every dirty delta is byte-
    /// identical to the source — live blocks, their contents, and the
    /// free-space accounting all match.
    #[test]
    fn streaming_deltas_reproduce_source_memory(
        ops in prop::collection::vec(mem_op_strategy(), 1..48),
    ) {
        use cricket_repro::vgpu::memory::MemoryManager;
        let mut src = MemoryManager::new(1 << 22);
        let mut dst = MemoryManager::new(1 << 22);
        let mut known = std::collections::BTreeSet::new();
        let mut placed = std::collections::BTreeMap::new();
        let mut live: Vec<(u64, u64)> = Vec::new();

        for op in ops {
            match op {
                MemOp::Alloc(n) => {
                    let size = (u64::from(n) + 1) * 64;
                    if let Ok(p) = src.alloc(size) {
                        live.push((p, size));
                    }
                }
                MemOp::Free(sel) => {
                    if !live.is_empty() {
                        let (p, _) = live.remove(usize::from(sel) % live.len());
                        src.free(p).unwrap();
                    }
                }
                MemOp::Write(sel, seed, val) => {
                    if !live.is_empty() {
                        let (p, size) = live[usize::from(sel) % live.len()];
                        let off = u64::from(seed) % size;
                        let len = (size - off).min(97);
                        let bytes: Vec<u8> =
                            (0..len).map(|i| val.wrapping_add(i as u8)).collect();
                        src.write(p + off, &bytes).unwrap();
                    }
                }
                MemOp::Memset(sel, seed, val) => {
                    if !live.is_empty() {
                        let (p, size) = live[usize::from(sel) % live.len()];
                        let off = u64::from(seed) % size;
                        src.memset(p + off, val, (size - off).min(129)).unwrap();
                    }
                }
                MemOp::Sync => prop_assert!(mem_sync(&mut src, &mut dst, &mut known, &mut placed).is_ok()),
            }
        }
        // The cutover's final fenced delta.
        prop_assert!(mem_sync(&mut src, &mut dst, &mut known, &mut placed).is_ok());

        let s: Vec<(u64, u64)> = src.live_allocations().collect();
        let d: Vec<(u64, u64)> = dst.live_allocations().collect();
        prop_assert_eq!(&s, &d, "replica's live-block map diverged");
        prop_assert!(s.iter().map(|&(b, _)| b).eq(known.iter().copied())
            && placed.len() == known.len() && placed.keys().all(|b| known.contains(b)),
            "the stream's record of what it placed diverged");
        for (base, _) in s {
            prop_assert_eq!(
                src.block_bytes(base).unwrap(),
                dst.block_bytes(base).unwrap(),
                "replica's bytes diverged in block {:#x}", base
            );
        }
        prop_assert_eq!(src.free_bytes(), dst.free_bytes(),
            "replica's free-space accounting diverged");
    }
}

/// One client-visible async op for the coalescing-order property.
#[derive(Debug, Clone, Copy)]
enum AsyncOp {
    Memset,
    SmallHtod,
    Dtod,
}

/// Replay `ops` (flushing after an op where `flush` says so), then return
/// the device's retired-command log and the final buffer contents.
fn run_async_ops(
    ops: &[(AsyncOp, bool)],
    policy: Option<cricket_repro::client::BatchPolicy>,
) -> (Vec<(u64, String)>, Vec<u8>) {
    let setup = SimSetup::new();
    let mut client = setup.client(EnvConfig::RustyHermit);
    if let Some(p) = policy {
        client.enable_batching_with(p);
    }
    let ptr = client.malloc(4096).unwrap();
    for (i, (op, flush)) in ops.iter().enumerate() {
        let off = (i as u64 % 16) * 64;
        match op {
            AsyncOp::Memset => client.memset(ptr + off, i as i32 + 1, 64).unwrap(),
            AsyncOp::SmallHtod => {
                let pattern: Vec<u8> = (0..64u32)
                    .map(|b| (b as u8).wrapping_add(i as u8))
                    .collect();
                client.memcpy_htod(ptr + off, &pattern).unwrap();
            }
            AsyncOp::Dtod => client.memcpy_dtod(ptr + 2048 + off, ptr + off, 64).unwrap(),
        }
        if *flush {
            client.flush_batch().unwrap();
        }
    }
    client.device_synchronize().unwrap();
    let retired = setup
        .server
        .drain_retired(0)
        .into_iter()
        .map(|r| (r.stream, format!("{:?}", r.kind)))
        .collect();
    let mem = client.memcpy_dtoh(ptr, 4096).unwrap();
    client.free(ptr).unwrap();
    (retired, mem)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Coalescing is transparent: for ANY interleaving of recorded ops and
    /// explicit flushes, under ANY watermark, the device retires the same
    /// commands in the same order as eager (unbatched) submission, and the
    /// final device memory is byte-identical.
    #[test]
    fn record_flush_interleavings_retire_in_program_order(
        ops in prop::collection::vec(
            (prop_oneof![
                Just(AsyncOp::Memset),
                Just(AsyncOp::SmallHtod),
                Just(AsyncOp::Dtod),
            ], any::<bool>()),
            1..32,
        ),
        max_ops in 1usize..9,
        max_bytes in 256usize..8192,
    ) {
        let (retired_eager, mem_eager) = run_async_ops(&ops, None);
        let policy = cricket_repro::client::BatchPolicy::new(max_ops, max_bytes);
        let (retired_batched, mem_batched) = run_async_ops(&ops, Some(policy));
        prop_assert_eq!(retired_eager, retired_batched,
            "coalescing reordered the retired-command log");
        prop_assert_eq!(mem_eager, mem_batched,
            "coalescing changed device memory");
    }
}
