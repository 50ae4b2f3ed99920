//! Integration: the memory-safety claims of the paper's §3.4 — "we can
//! guarantee the absence of use-after-free and double-free errors for the
//! CUDA allocation API" — and the server's defensive behavior when a
//! (hypothetical C) client misbehaves anyway.

use cricket_repro::prelude::*;
use cricket_repro::vgpu::CudaCode;

#[test]
fn manual_double_free_is_rejected_by_the_server() {
    // A raw client *can* attempt a double free (as a C client could); the
    // server detects and rejects it. The safe API makes this unrepresentable.
    let (ctx, _s) = simulated(EnvConfig::RustNative);
    let ptr = ctx.with_raw(|r| r.malloc(4096)).unwrap();
    ctx.with_raw(|r| r.free(ptr)).unwrap();
    let err = ctx.with_raw(|r| r.free(ptr)).unwrap_err();
    assert_eq!(err.cuda_code(), Some(CudaCode::InvalidValue as i32));
}

#[test]
fn use_after_free_is_rejected_by_the_server() {
    let (ctx, _s) = simulated(EnvConfig::RustNative);
    let ptr = ctx.with_raw(|r| r.malloc(4096)).unwrap();
    ctx.with_raw(|r| r.free(ptr)).unwrap();
    let err = ctx
        .with_raw(|r| r.memcpy_htod(ptr, &[1, 2, 3]))
        .unwrap_err();
    assert_eq!(err.cuda_code(), Some(CudaCode::InvalidValue as i32));
}

#[test]
fn freeing_an_interior_pointer_is_rejected() {
    let (ctx, _s) = simulated(EnvConfig::RustNative);
    let ptr = ctx.with_raw(|r| r.malloc(4096)).unwrap();
    let err = ctx.with_raw(|r| r.free(ptr + 256)).unwrap_err();
    assert_eq!(err.cuda_code(), Some(CudaCode::InvalidValue as i32));
    ctx.with_raw(|r| r.free(ptr)).unwrap();
}

#[test]
fn out_of_bounds_copies_rejected() {
    let (ctx, _s) = simulated(EnvConfig::RustyHermit);
    let buf = ctx.alloc::<u8>(100).unwrap();
    // 100 rounds up to 256 on the device; past that must fail.
    let err = ctx.with_raw(|r| r.memcpy_dtoh(buf.ptr(), 257)).unwrap_err();
    assert_eq!(err.cuda_code(), Some(CudaCode::InvalidValue as i32));
}

#[test]
fn oom_then_recovery() {
    // Simulated device memory is backed by host memory, so use a small
    // device to exercise the OOM path without exhausting the host.
    let mut props = cricket_repro::vgpu::DeviceProperties::a100();
    props.total_global_mem = 1 << 30; // a 1 GiB "A100"
    let setup =
        cricket_repro::client::sim::SimSetup::with_config(cricket_repro::server::ServerConfig {
            props,
            ..Default::default()
        });
    let ctx = setup.context(EnvConfig::RustNative);
    // Grab a huge chunk, fail on the next huge one, recover after drop.
    let big = ctx.alloc::<u8>(700 << 20).unwrap();
    let err = ctx.alloc::<u8>(500 << 20).unwrap_err();
    assert_eq!(err.cuda_code(), Some(CudaCode::MemoryAllocation as i32));
    drop(big);
    let again = ctx.alloc::<u8>(500 << 20).unwrap();
    drop(again);
}

#[test]
fn drop_frees_exactly_once_even_on_error_paths() {
    let (ctx, _s) = simulated(EnvConfig::RustNative);
    {
        let _buf = ctx.alloc::<f32>(1000).unwrap();
        // An unrelated failing call must not disturb the buffer's free.
        // (Device 9 does not exist; the node has 4 GPUs.)
        let _ = ctx.with_raw(|r| r.set_device(9)).unwrap_err();
    }
    let stats = ctx.stats();
    assert_eq!(stats.per_api["cudaMalloc"], 1);
    assert_eq!(stats.per_api["cudaFree"], 1);
}

#[test]
fn stale_module_and_stream_handles_rejected() {
    let (ctx, _s) = simulated(EnvConfig::Unikraft);
    let image = CubinBuilder::new().kernel("empty", &[]).build(false);
    let (module_handle, func_handle) = {
        let module = ctx.load_module(&image).unwrap();
        let f = module.function("empty").unwrap();
        (module.handle(), f.handle())
        // module drops → cuModuleUnload
    };
    let err = ctx
        .with_raw(|r| r.module_get_function(module_handle, "empty"))
        .unwrap_err();
    assert_eq!(err.cuda_code(), Some(CudaCode::InvalidHandle as i32));
    let err = ctx
        .with_raw(|r| r.launch_kernel(func_handle, (1, 1, 1).into(), (1, 1, 1).into(), 0, 0, &[]))
        .unwrap_err();
    assert_eq!(err.cuda_code(), Some(CudaCode::InvalidHandle as i32));
}

#[test]
fn kernel_geometry_validation() {
    let (ctx, _s) = simulated(EnvConfig::RustNative);
    let image = CubinBuilder::new().kernel("empty", &[]).build(false);
    let module = ctx.load_module(&image).unwrap();
    let f = module.function("empty").unwrap();
    // 2048 threads per block exceeds the A100 limit of 1024.
    let err = ctx
        .launch(&f, (1, 1, 1).into(), (2048, 1, 1).into(), 0, None, &[])
        .unwrap_err();
    assert_eq!(err.cuda_code(), Some(CudaCode::InvalidValue as i32));
    // Wrong parameter count.
    let err = ctx
        .launch(&f, (1, 1, 1).into(), (32, 1, 1).into(), 0, None, &[0u8; 8])
        .unwrap_err();
    assert_eq!(err.cuda_code(), Some(CudaCode::InvalidValue as i32));
}

/// A launch's grid and sizes come off the wire. A grid whose partial
/// histograms would need 3 TiB, and matrix dimensions whose byte sizes pass
/// 64 bits, are answered with a CUDA error: the server neither aborts on
/// the allocation nor panics on the overflow, and the same session then
/// launches and copies normally.
#[test]
fn hostile_launch_geometry_is_refused_and_the_session_carries_on() {
    use cricket_repro::proto::{CricketV1Client, RpcDim3};
    use cricket_repro::server::{make_rpc_server, CricketServer, ServerConfig, SimTransport};
    use cricket_repro::simnet::SimClock;
    use cricket_repro::unikernel::{Guest, GuestKind};
    use cricket_repro::vgpu::kernels::ParamBuilder;
    use std::sync::Arc;

    let clock = SimClock::new();
    let rpc = make_rpc_server(CricketServer::new(
        ServerConfig::default(),
        Arc::clone(&clock),
    ));
    let transport = SimTransport::new(rpc, Guest::new(GuestKind::RustyHermit), clock);
    let mut c = CricketV1Client::new(Box::new(transport));
    let image = CubinBuilder::new()
        .kernel("histogram64Kernel", &[8, 8, 4])
        .kernel("matrixMulCUDA", &[8, 8, 8, 4, 4])
        .kernel("vectorAdd", &[8, 8, 8, 4])
        .build(false);
    let module = c
        .cu_module_load_data(&image)
        .unwrap()
        .into_result()
        .unwrap();
    let mut func = |name: &str| {
        c.cu_module_get_function(&module, name)
            .unwrap()
            .into_result()
            .unwrap()
    };
    let (hist, mm, add) = (
        func("histogram64Kernel"),
        func("matrixMulCUDA"),
        func("vectorAdd"),
    );
    let p = c.cuda_malloc(&1024).unwrap().into_result().unwrap();
    let q = c.cuda_malloc(&1024).unwrap().into_result().unwrap();
    let invalid = CudaCode::InvalidValue as i32;

    let max = RpcDim3 {
        x: u32::MAX,
        y: u32::MAX,
        z: u32::MAX,
    };
    let threads = RpcDim3 { x: 64, y: 1, z: 1 };
    let params = ParamBuilder::new().ptr(p).ptr(q).u32(1024).build();
    let code = c.cuda_launch_kernel(&hist, &max, &threads, &0, &0, &params);
    assert_eq!(code.unwrap(), invalid);
    let rows = RpcDim3 {
        x: 1,
        y: 1 << 31,
        z: 1,
    };
    let one = RpcDim3 { x: 1, y: 1, z: 1 };
    let params = ParamBuilder::new()
        .ptr(p)
        .ptr(q)
        .ptr(p)
        .u32(1 << 31)
        .u32(1 << 31)
        .build();
    let code = c.cuda_launch_kernel(&mm, &rows, &one, &0, &0, &params);
    assert_eq!(code.unwrap(), invalid);

    let x: Vec<u8> = (0..256).flat_map(|i| (i as f32).to_le_bytes()).collect();
    assert_eq!(c.cuda_memcpy_htod(&q, &x).unwrap(), 0);
    let threads = RpcDim3 { x: 256, y: 1, z: 1 };
    let params = ParamBuilder::new().ptr(p).ptr(q).ptr(q).u32(256).build();
    let code = c.cuda_launch_kernel(&add, &one, &threads, &0, &0, &params);
    assert_eq!(code.unwrap(), 0);
    let y = c
        .cuda_memcpy_dtoh(&p, &1024)
        .unwrap()
        .into_result()
        .unwrap();
    let want: Vec<u8> = (0..256)
        .flat_map(|i| (2.0 * i as f32).to_le_bytes())
        .collect();
    assert_eq!(y, want);
}

/// DESIGN §16, module images: a session retains at most
/// `MAX_MODULE_BYTES` of module image. A peer loading past the bound over
/// `SimTransport` gets the typed out-of-memory refusal, which retains
/// nothing, and so does a checkpoint restore that would bring it past the
/// bound; once it unloads a module it loads and restores again, and it
/// still allocates. Its retained bytes are 0 once the session is released.
#[test]
fn module_images_are_bounded_per_session_and_the_session_carries_on() {
    use cricket_repro::proto::{CricketV1Client, DataResult};
    use cricket_repro::server::{make_session_rpc, CricketServer, SimTransport, MAX_MODULE_BYTES};
    use cricket_repro::unikernel::{Guest, GuestKind};
    use std::sync::Arc;

    const SESSION: u32 = 7;
    let client = |server: &Arc<CricketServer>| {
        let rpc = Arc::new(make_session_rpc(Arc::clone(server), SESSION));
        let guest = Guest::new(GuestKind::RustyHermit);
        CricketV1Client::new(Box::new(SimTransport::new(
            rpc,
            guest,
            Arc::clone(server.clock()),
        )))
    };
    // A quarter of the bound plus a header: three fit, a fourth does not.
    let image = CubinBuilder::new()
        .kernel("vectorAdd", &[8, 8, 8, 4])
        .code(&vec![0x5a; (MAX_MODULE_BYTES / 4) as usize])
        .build(false);
    let size = image.len() as u64;
    let load = |c: &mut CricketV1Client<_>| c.cu_module_load_data(&image).unwrap().into_result();
    let refused = Err(CudaCode::MemoryAllocation as i32);

    // A checkpoint holding one such module, loaded on device 1 so its
    // handle is not one the session below holds on device 0.
    let source = CricketServer::a100();
    let mut src = client(&source);
    assert_eq!(src.cuda_set_device(&1).unwrap(), 0);
    load(&mut src).expect("a load within the bound");
    let DataResult::Data(ckpt) = src.ckpt_capture().unwrap() else {
        panic!("no checkpoint");
    };
    drop(src);

    let server = CricketServer::a100();
    let mut c = client(&server);
    let mut modules: Vec<u64> = (0..MAX_MODULE_BYTES / size)
        .map(|_| load(&mut c).expect("a load within the bound"))
        .collect();
    let held = modules.len() as u64 * size;
    assert_eq!(server.module_bytes(SESSION), held);
    for _ in 0..2 {
        assert_eq!(load(&mut c), refused, "a load past the bound is refused");
    }
    assert_eq!(
        c.ckpt_restore(&ckpt).unwrap(),
        CudaCode::MemoryAllocation as i32,
        "a restore past the bound is refused"
    );
    assert_eq!(
        server.module_bytes(SESSION),
        held,
        "a refusal retains nothing"
    );

    let unloaded = modules.pop().unwrap();
    assert_eq!(c.cu_module_unload(&unloaded).unwrap(), 0);
    modules.push(load(&mut c).expect("room again after an unload"));
    let unloaded = modules.pop().unwrap();
    assert_eq!(c.cu_module_unload(&unloaded).unwrap(), 0);
    assert_eq!(
        c.ckpt_restore(&ckpt).unwrap(),
        0,
        "room again after an unload"
    );
    assert_eq!(server.module_bytes(SESSION), held);
    let p = c.cuda_malloc(&1024).unwrap().into_result().unwrap();
    assert_ne!(p, 0);

    drop(c);
    let cleanup = server.release_session(SESSION);
    assert_eq!(cleanup.modules, modules.len() + 1);
    assert_eq!(server.module_bytes(SESSION), 0);
}
