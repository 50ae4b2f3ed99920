//! Checkpoint / restart: Cricket's runtime-reorganization capability
//! (paper §1, §5 — "runtime reorganization of tasks through
//! checkpoint/restart").
//!
//! A client populates GPU state (memory + loaded module), captures a
//! checkpoint over RPC, the "GPU node" is torn down, and the state is
//! restored into a *fresh* server. The client's handles keep working.
//!
//! ```text
//! cargo run --release --example checkpoint_restart
//! ```

use cricket_repro::prelude::*;

fn main() -> ClientResult<()> {
    // ---- phase 1: populate state on GPU node A ----
    let setup_a = SimSetup::new();
    let ctx = setup_a.context(EnvConfig::RustyHermit);

    let image = CubinBuilder::new()
        .kernel("saxpy", &[8, 8, 4, 4])
        .code(b"saxpy SASS")
        .build(true);
    let module = ctx.load_module(&image)?;
    let saxpy = module.function("saxpy")?;

    const N: usize = 4096;
    let x = ctx.upload(&vec![2.0f32; N])?;
    let y = ctx.upload(&vec![1.0f32; N])?;
    let params = ParamBuilder::new()
        .ptr(y.ptr())
        .ptr(x.ptr())
        .f32(10.0)
        .u32(N as u32)
        .build();
    ctx.launch(
        &saxpy,
        (16, 1, 1).into(),
        (256, 1, 1).into(),
        0,
        None,
        &params,
    )?;
    ctx.synchronize()?;
    println!("node A: y = 10*x + y computed (y[0] = 21)");

    // ---- checkpoint over RPC ----
    let snapshot = ctx.with_raw(|r| r.checkpoint())?;
    println!(
        "checkpoint captured: {} KiB (one XDR blob per session: memory, modules, streams, handles)",
        snapshot.len() / 1024
    );

    // ---- phase 2: "migrate" to a fresh GPU node B ----
    let setup_b = SimSetup::new();
    let ctx_b = setup_b.context(EnvConfig::RustyHermit);
    ctx_b.with_raw(|r| r.restore(&snapshot))?;
    println!("node B: snapshot restored into a fresh server");

    // The old handles — device pointers AND the function handle — are valid
    // on node B because restore places them at their original values.
    let params = ParamBuilder::new()
        .ptr(y.ptr())
        .ptr(x.ptr())
        .f32(1.0)
        .u32(N as u32)
        .build();
    ctx_b.with_raw(|r| {
        r.launch_kernel(
            saxpy.handle(),
            (16, 1, 1).into(),
            (256, 1, 1).into(),
            0,
            0,
            &params,
        )
    })?;
    ctx_b.with_raw(|r| r.device_synchronize())?;
    let y_after = ctx_b.with_raw(|r| r.memcpy_dtoh(y.ptr(), (N * 4) as u64))?;
    let first = f32::from_le_bytes(y_after[0..4].try_into().unwrap());
    assert_eq!(first, 23.0, "restored state must continue: 21 + 2 = 23");
    println!("node B: continued computation on restored state: y[0] = {first} ✓");

    // Keep the buffers alive until here so node A frees are clean.
    drop(params);
    Ok(())
}
