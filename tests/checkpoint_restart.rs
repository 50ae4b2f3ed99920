//! Integration: checkpoint/restart through the RPC interface — Cricket's
//! migration story. State captured on one simulated GPU node restores onto
//! another; client handles stay valid; corrupted snapshots are rejected;
//! a connection reset mid-checkpoint still converges to the fault-free
//! snapshot once the client reconnects and retries.

mod harness;

use cricket_repro::oncrpc::{Fault, FaultPlan};
use cricket_repro::prelude::*;

fn populated() -> (Context, SimSetup, u64, u64) {
    let setup = SimSetup::new();
    let ctx = setup.context(EnvConfig::RustyHermit);
    let image = CubinBuilder::new()
        .kernel("saxpy", &[8, 8, 4, 4])
        .code(b"saxpy")
        .build(true);
    let module = ctx.load_module(&image).unwrap();
    let f = module.function("saxpy").unwrap();
    let x = ctx.upload(&vec![3.0f32; 512]).unwrap();
    let y = ctx.upload(&vec![1.0f32; 512]).unwrap();
    let (xp, yp, fh) = (x.ptr(), y.ptr(), f.handle());
    // Leak the wrappers so drops don't free the state we checkpoint.
    std::mem::forget((module, x, y));
    let params = ParamBuilder::new()
        .ptr(yp)
        .ptr(xp)
        .f32(2.0)
        .u32(512)
        .build();
    ctx.with_raw(|r| r.launch_kernel(fh, (2, 1, 1).into(), (256, 1, 1).into(), 0, 0, &params))
        .unwrap();
    ctx.with_raw(|r| r.device_synchronize()).unwrap();
    (ctx, setup, yp, fh)
}

#[test]
fn state_survives_migration_between_servers() {
    let (ctx_a, _setup_a, yp, fh) = populated();
    let snapshot = ctx_a.with_raw(|r| r.checkpoint()).unwrap();
    assert!(!snapshot.is_empty());

    // Fresh node B.
    let setup_b = SimSetup::new();
    let ctx_b = setup_b.context(EnvConfig::Unikraft);
    ctx_b.with_raw(|r| r.restore(&snapshot)).unwrap();

    // y was 1 + 2*3 = 7 on node A; read it on node B.
    let y = ctx_b.with_raw(|r| r.memcpy_dtoh(yp, 512 * 4)).unwrap();
    assert!(y
        .chunks_exact(4)
        .all(|c| f32::from_le_bytes(c.try_into().unwrap()) == 7.0));

    // The function handle still launches on node B.
    let params = ParamBuilder::new()
        .ptr(yp)
        .ptr(yp)
        .f32(1.0)
        .u32(512)
        .build();
    ctx_b
        .with_raw(|r| r.launch_kernel(fh, (2, 1, 1).into(), (256, 1, 1).into(), 0, 0, &params))
        .unwrap();
    ctx_b.with_raw(|r| r.device_synchronize()).unwrap();
    let y = ctx_b.with_raw(|r| r.memcpy_dtoh(yp, 4)).unwrap();
    assert_eq!(f32::from_le_bytes(y.try_into().unwrap()), 14.0);
}

#[test]
fn checkpoint_roundtrip_is_stable() {
    // capture → restore → capture must produce an equivalent snapshot.
    let (ctx, _setup, _yp, _fh) = populated();
    let snap1 = ctx.with_raw(|r| r.checkpoint()).unwrap();
    let setup_b = SimSetup::new();
    let ctx_b = setup_b.context(EnvConfig::RustNative);
    ctx_b.with_raw(|r| r.restore(&snap1)).unwrap();
    let snap2 = ctx_b.with_raw(|r| r.checkpoint()).unwrap();
    assert_eq!(snap1, snap2, "checkpoint must be a fixed point of restore");
}

#[test]
fn corrupted_snapshots_rejected() {
    let (ctx, _setup, ..) = populated();
    let snapshot = ctx.with_raw(|r| r.checkpoint()).unwrap();

    let setup_b = SimSetup::new();
    let ctx_b = setup_b.context(EnvConfig::RustNative);

    // Truncations and bit flips must not produce a half-restored device.
    let mut truncated = snapshot.clone();
    truncated.truncate(snapshot.len() / 2);
    assert!(ctx_b.with_raw(|r| r.restore(&truncated)).is_err());

    let mut flipped = snapshot.clone();
    flipped[0] ^= 0xff; // magic
    assert!(ctx_b.with_raw(|r| r.restore(&flipped)).is_err());

    assert!(ctx_b.with_raw(|r| r.restore(b"garbage")).is_err());

    // The target still works after rejected restores.
    let buf = ctx_b.upload(&[1.0f32, 2.0]).unwrap();
    assert_eq!(buf.copy_to_vec().unwrap(), vec![1.0, 2.0]);
}

/// Failure model meets migration: the connection resets while the
/// checkpoint is being captured, and the reply of the retried capture is
/// then dropped. The hardened client reconnects and retransmits
/// (CKPT_CAPTURE is declared `idempotent`, so auto-retry is safe), the
/// snapshot it finally receives is byte-identical to a fault-free capture,
/// and restoring it onto a fresh node reproduces the exact device state.
#[test]
fn connection_reset_mid_checkpoint_converges_to_fault_free_state() {
    let (ctx_a, setup_a, yp, _fh) = populated();
    let reference = ctx_a.with_raw(|r| r.checkpoint()).unwrap();

    // op 0: the capture request dies mid-send → reconnect + retransmit;
    // op 2: the retried capture's reply is dropped → same-xid retransmit.
    let plan =
        FaultPlan::scripted(vec![(0, Fault::ResetOnSend), (2, Fault::DropReply)]).into_shared();
    let mut client = harness::sim_client(&setup_a, EnvConfig::RustyHermit, &plan);

    let snapshot = client.checkpoint().unwrap();
    assert_eq!(
        snapshot, reference,
        "capture under faults diverged from the fault-free snapshot"
    );
    let stats = client.rpc().stats();
    assert_eq!(stats.reconnects, 1, "stats: {stats:?}");
    assert!(stats.retries >= 2, "stats: {stats:?}");

    // The snapshot restores onto a fresh node: y is still 1 + 2*3 = 7.
    let setup_b = SimSetup::new();
    let ctx_b = setup_b.context(EnvConfig::Unikraft);
    ctx_b.with_raw(|r| r.restore(&snapshot)).unwrap();
    let y = ctx_b.with_raw(|r| r.memcpy_dtoh(yp, 512 * 4)).unwrap();
    assert!(y
        .chunks_exact(4)
        .all(|c| f32::from_le_bytes(c.try_into().unwrap()) == 7.0));
}

#[test]
fn new_allocations_after_restore_do_not_collide() {
    let (ctx_a, _sa, yp, _fh) = populated();
    let snapshot = ctx_a.with_raw(|r| r.checkpoint()).unwrap();
    let setup_b = SimSetup::new();
    let ctx_b = setup_b.context(EnvConfig::RustNative);
    ctx_b.with_raw(|r| r.restore(&snapshot)).unwrap();
    let fresh = ctx_b.upload(&vec![9u8; 4096]).unwrap();
    assert_ne!(fresh.ptr(), yp);
    // Restored memory is untouched by the new allocation.
    let y = ctx_b.with_raw(|r| r.memcpy_dtoh(yp, 4)).unwrap();
    assert_eq!(f32::from_le_bytes(y.try_into().unwrap()), 7.0);
}
