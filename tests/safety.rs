//! Integration: the memory-safety claims of the paper's §3.4 — "we can
//! guarantee the absence of use-after-free and double-free errors for the
//! CUDA allocation API" — and the server's defensive behavior when a
//! (hypothetical C) client misbehaves anyway.

mod harness;

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

/// A GEMM, LU or LU solve past the host work one library call may cost
/// (`MAX_HOST_WORK`: a square one past n = 1024) is refused with
/// `cudaErrorInvalidValue` before any operand is read, though its operands
/// are the session's and large enough, so it runs no host loop; the session
/// carries on with calls under the bound.
#[test]
fn library_calls_past_the_host_work_bound_are_refused_and_the_session_carries_on() {
    use cricket_repro::proto::U64Result;
    use cricket_repro::server::CricketServer;
    use cricket_repro::vgpu::MAX_HOST_WORK;
    let server = CricketServer::a100();
    let mut c = sim_session(&server, 7);
    let (n, k) = (1025i32, 1024i32);
    assert!((n as u64).pow(2) * k as u64 > MAX_HOST_WORK && 900u64.pow(3) <= MAX_HOST_WORK);
    let u = |r: U64Result| r.into_result().unwrap();
    let square = n as u64 * n as u64 * 8;
    let [a, b, out, lu] = [(); 4].map(|_| u(c.cuda_malloc(&square).unwrap()));
    let ipiv = u(c.cuda_malloc(&(n as u64 * 4)).unwrap());
    let blas = u(c.cublas_create().unwrap());
    let solver = u(c.cusolver_dn_create().unwrap());
    let refused = CudaCode::InvalidValue as i32;
    let dgemm = c.cublas_dgemm(
        &blas, &0, &0, &n, &n, &n, &1.0, &a, &n, &b, &n, &0.0, &out, &n,
    );
    assert_eq!(dgemm.unwrap(), refused, "a 1025³ DGEMM");
    let sgemm = c.cublas_sgemm(
        &blas, &0, &0, &n, &n, &k, &1.0, &a, &n, &b, &k, &0.0, &out, &n,
    );
    assert_eq!(sgemm.unwrap(), refused, "a 1025²·1024 SGEMM");
    let getrf = c.cusolver_dn_dgetrf(&solver, &n, &n, &lu, &n, &lu, &ipiv, &ipiv);
    assert_eq!(getrf.unwrap(), refused, "a 1025² LU");
    let getrs = c.cusolver_dn_dgetrs(&solver, &0, &n, &n, &lu, &n, &ipiv, &b, &n, &ipiv);
    assert_eq!(
        getrs.unwrap(),
        refused,
        "a 1025² LU solve, 1025 right-hand sides"
    );

    // Under the bound the same session's calls run.
    assert_eq!(c.cuda_memcpy_htod(&a, &2.0f64.to_le_bytes()).unwrap(), 0);
    let dgemm = c.cublas_dgemm(
        &blas, &0, &0, &1, &1, &1, &1.0, &a, &1, &a, &1, &0.0, &out, &1,
    );
    assert_eq!(dgemm.unwrap(), 0);
    let squared = c.cuda_memcpy_dtoh(&out, &8).unwrap().into_result().unwrap();
    assert_eq!(f64::from_le_bytes(squared.try_into().unwrap()), 4.0);
    let getrf = c.cusolver_dn_dgetrf(&solver, &1, &1, &a, &1, &lu, &ipiv, &ipiv);
    assert_eq!(getrf.unwrap(), 0);
    assert_eq!(c.cuda_device_synchronize().unwrap(), 0);
}

/// A raw client of one session, with no retries.
type Raw = cricket_repro::proto::CricketV1Client;

/// A raw client of session `session` of `server`, over `SimTransport`.
fn sim_session(server: &std::sync::Arc<cricket_repro::server::CricketServer>, session: u32) -> Raw {
    use cricket_repro::server::{make_session_rpc, SimTransport};
    use cricket_repro::unikernel::{Guest, GuestKind};
    use std::sync::Arc;
    let rpc = Arc::new(make_session_rpc(Arc::clone(server), session));
    let guest = Guest::new(GuestKind::RustyHermit);
    Raw::new(Box::new(SimTransport::new(
        rpc,
        guest,
        Arc::clone(server.clock()),
    )))
}

/// A raw client of its own connection to the server at `addr`.
fn tcp_session(addr: std::net::SocketAddr) -> Raw {
    Raw::new(Box::new(
        cricket_repro::oncrpc::TcpTransport::connect(addr).unwrap(),
    ))
}

/// Every session owns what it made and nothing else. Session 2 is refused,
/// with the code an unknown pointer (`cudaErrorInvalidValue`) or handle
/// (`cudaErrorInvalidResourceHandle`) gets, on every use of session 1's
/// buffer — at its base or inside it — and of its stream, event, module,
/// function and cuBLAS, cuSolver and cuFFT handles; none of it changes
/// anything of session 1's. Session 2's allocations never land on session
/// 1's live memory, and releasing session 1 (`release`, handed its
/// client) leaves session 2's buffers and handles working.
fn sessions_touch_only_what_they_own(mut one: Raw, mut two: Raw, release: impl FnOnce(Raw)) {
    use cricket_repro::proto::{DataResult, FloatResult, IntResult, RpcDim3, U64Result};
    use cricket_repro::vgpu::fft::{CUFFT_C2C, CUFFT_FORWARD};
    let (value, handle) = (
        CudaCode::InvalidValue as i32,
        CudaCode::InvalidHandle as i32,
    );
    let u = |r: U64Result| r.into_result().unwrap();
    let image = CubinBuilder::new()
        .kernel("saxpy", &[8, 8, 4, 4])
        .build(false);
    let (grid, block) = (RpcDim3 { x: 1, y: 1, z: 1 }, RpcDim3 { x: 64, y: 1, z: 1 });
    let saxpy = |y: u64, x: u64| ParamBuilder::new().ptr(y).ptr(x).f32(2.0).u32(64).build();

    let buf = u(one.cuda_malloc(&4096).unwrap());
    let pattern: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    assert_eq!(one.cuda_memcpy_htod(&buf, &pattern).unwrap(), 0);
    let stream = u(one.cuda_stream_create().unwrap());
    let event = u(one.cuda_event_create().unwrap());
    assert_eq!(one.cuda_event_record(&event, &stream).unwrap(), 0);
    let module = u(one.cu_module_load_data(&image).unwrap());
    let func = u(one.cu_module_get_function(&module, "saxpy").unwrap());
    let blas = u(one.cublas_create().unwrap());
    let solver = u(one.cusolver_dn_create().unwrap());
    let fft = u(one.cufft_plan_1d(&8, &CUFFT_C2C, &1).unwrap());

    let mine = u(two.cuda_malloc(&4096).unwrap());
    let own = u(two.cu_module_load_data(&image).unwrap());
    let own_func = u(two.cu_module_get_function(&own, "saxpy").unwrap());
    let own_event = u(two.cuda_event_create().unwrap());
    let inside = buf + 256;
    let memory = [
        two.cuda_memcpy_htod(&buf, &[9; 64]).unwrap(),
        two.cuda_memcpy_htod(&inside, &[9; 64]).unwrap(),
        two.cuda_memset(&inside, &7, &64).unwrap(),
        two.cuda_memcpy_dtod(&mine, &buf, &64).unwrap(),
        two.cuda_memcpy_dtod(&inside, &mine, &64).unwrap(),
        two.cuda_free(&buf).unwrap(),
        two.cuda_free(&inside).unwrap(),
        (two.cuda_launch_kernel(&own_func, &grid, &block, &0, &0, &saxpy(buf, mine))).unwrap(),
        (two.cuda_launch_kernel(&own_func, &grid, &block, &0, &0, &saxpy(mine, inside))).unwrap(),
    ];
    assert_eq!(memory, [value; 9], "session 1's buffer");
    let read = two.cuda_memcpy_dtoh(&inside, &64).unwrap();
    assert_eq!(read, DataResult::Default(value), "session 1's buffer read");

    let handles = [
        two.cuda_stream_synchronize(&stream).unwrap(),
        (two.cuda_launch_kernel(&own_func, &grid, &block, &0, &stream, &saxpy(mine, mine)))
            .unwrap(),
        two.cuda_event_record(&own_event, &stream).unwrap(),
        two.cuda_event_record(&event, &0).unwrap(),
        two.cuda_event_synchronize(&event).unwrap(),
        (two.cuda_launch_kernel(&func, &grid, &block, &0, &0, &saxpy(mine, mine))).unwrap(),
        (two.cublas_sgemm(
            &blas, &0, &0, &1, &1, &1, &1.0, &mine, &1, &mine, &1, &0.0, &mine, &1,
        ))
        .unwrap(),
        (two.cusolver_dn_dgetrf(&solver, &1, &1, &mine, &1, &mine, &mine, &mine)).unwrap(),
        two.cufft_exec_c2c(&fft, &mine, &mine, &CUFFT_FORWARD)
            .unwrap(),
        two.cu_module_unload(&module).unwrap(),
        two.cuda_event_destroy(&event).unwrap(),
        two.cuda_stream_destroy(&stream).unwrap(),
        two.cublas_destroy(&blas).unwrap(),
        two.cusolver_dn_destroy(&solver).unwrap(),
        two.cufft_destroy(&fft).unwrap(),
    ];
    assert_eq!(handles, [handle; 15], "session 1's handles");
    let get = two.cu_module_get_function(&module, "saxpy").unwrap();
    assert_eq!(get, U64Result::Default(handle), "session 1's module");
    for (start, stop) in [(event, own_event), (own_event, event)] {
        let elapsed = two.cuda_event_elapsed_time(&start, &stop).unwrap();
        assert_eq!(elapsed, FloatResult::Default(handle), "session 1's event");
    }
    let size = two.cusolver_dn_dgetrf_buffer_size(&solver, &4, &4, &mine, &4);
    assert_eq!(
        size.unwrap(),
        IntResult::Default(handle),
        "session 1's cuSolver"
    );

    // Nothing of session 1's changed, and all of it is still live.
    let back = one.cuda_memcpy_dtoh(&buf, &4096).unwrap().into_result();
    assert_eq!(back.unwrap(), pattern);
    let mut theirs: Vec<u64> = (0..8).map(|_| u(two.cuda_malloc(&4096).unwrap())).collect();
    let live = buf..buf + 4096;
    assert!(
        theirs.iter().all(|p| !live.contains(p)),
        "{theirs:x?} in {live:x?}"
    );
    assert_eq!(one.cuda_stream_synchronize(&stream).unwrap(), 0);
    assert_eq!(one.cuda_event_synchronize(&event).unwrap(), 0);
    assert!(one
        .cu_module_get_function(&module, "saxpy")
        .unwrap()
        .into_result()
        .is_ok());
    let launch = one.cuda_launch_kernel(&func, &grid, &block, &0, &stream, &saxpy(buf, buf));
    assert_eq!(launch.unwrap(), 0);
    let sgemm = one.cublas_sgemm(
        &blas, &0, &0, &1, &1, &1, &1.0, &buf, &1, &buf, &1, &0.0, &buf, &1,
    );
    assert_eq!(sgemm.unwrap(), 0);
    assert_eq!(
        one.cufft_exec_c2c(&fft, &buf, &buf, &CUFFT_FORWARD)
            .unwrap(),
        0
    );
    let size = one
        .cusolver_dn_dgetrf_buffer_size(&solver, &4, &4, &buf, &4)
        .unwrap();
    assert!(size.into_result().is_ok());

    // Session 2's own state survives session 1's release.
    release(one);
    theirs.push(mine);
    for p in theirs {
        assert_eq!(two.cuda_memcpy_htod(&p, &[3; 4096]).unwrap(), 0);
        let launch = two.cuda_launch_kernel(&own_func, &grid, &block, &0, &0, &saxpy(p, p));
        assert_eq!(launch.unwrap(), 0);
        let back = two.cuda_memcpy_dtoh(&p, &4).unwrap().into_result();
        assert_ne!(back.unwrap(), [3; 4], "the launch wrote it");
        assert_eq!(two.cuda_free(&p).unwrap(), 0);
    }
    assert_eq!(two.cuda_event_record(&own_event, &0).unwrap(), 0);
    assert_eq!(two.cuda_event_synchronize(&own_event).unwrap(), 0);
    assert_eq!(two.cu_module_unload(&own).unwrap(), 0);
}

/// [`sessions_touch_only_what_they_own`] over two `make_session_rpc`
/// sessions on `SimTransport`, session 1 released in process.
#[test]
fn sessions_touch_only_what_they_own_in_process() {
    use cricket_repro::server::CricketServer;
    let server = CricketServer::a100();
    let (one, two) = (sim_session(&server, 1), sim_session(&server, 2));
    sessions_touch_only_what_they_own(one, two, |_| {
        assert!(server.release_session(1).total() > 0);
    });
    server.release_session(2);
    let report = server.load_report();
    assert_eq!((report.sessions, report.free_mem), (0, report.total_mem));
}

/// [`sessions_touch_only_what_they_own`] over two connections to one
/// `ServerBuilder` server, a session each; session 1 goes with its
/// connection.
#[test]
fn sessions_touch_only_what_they_own_over_tcp() {
    let handle = ServerBuilder::new("127.0.0.1:0").serve().unwrap();
    let (one, two) = (tcp_session(handle.addr()), tcp_session(handle.addr()));
    let server = std::sync::Arc::clone(handle.server());
    sessions_touch_only_what_they_own(one, two, |one| {
        drop(one);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while server.load_report().sessions > 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(server.load_report().sessions, 1, "session 1 released");
    });
    handle.shutdown();
}

/// Two connections carrying one client token act in one session, whichever
/// of them made it: a buffer allocated on one is written, read and freed on
/// the other, the token's session never changes, and the session outlives
/// the first connection to close and goes with the last. A connection
/// bound to the token is closed by a call carrying another. Each connection
/// numbers its calls apart, as a stripe lane does, so that the replay cache
/// keyed by token and xid does not take one's call for the other's.
#[test]
fn connections_with_one_token_share_its_session_until_the_last_closes() {
    use harness::TOKEN;
    use std::time::{Duration, Instant};
    let handle = ServerBuilder::new("127.0.0.1:0").serve().unwrap();
    let server = std::sync::Arc::clone(handle.server());
    let connect = |lane: u32| {
        let mut c = tcp_session(handle.addr());
        c.rpc.set_client_token(TOKEN);
        c.rpc.set_xid_base((lane << 24) | 1);
        c
    };
    let (mut a, mut b) = (connect(0), connect(1));
    let p = a.cuda_malloc(&4096).unwrap().into_result().unwrap();
    let session = server.session_of_token(TOKEN);
    assert!(session.is_some());
    assert_eq!(b.cuda_memcpy_htod(&p, &[5; 4096]).unwrap(), 0);
    let back = a.cuda_memcpy_dtoh(&p, &4096).unwrap().into_result();
    assert_eq!(back.unwrap(), vec![5; 4096]);
    let q = b.cuda_malloc(&256).unwrap().into_result().unwrap();
    assert_eq!(a.cuda_free(&q).unwrap(), 0, "freed on the other connection");
    assert_eq!(server.session_of_token(TOKEN), session);
    assert_eq!(server.load_report().sessions, 1);

    let mut c = connect(2);
    assert_eq!(c.cuda_get_device_count().unwrap().into_result(), Ok(4));
    c.rpc.set_client_token(TOKEN + 1);
    assert!(
        c.cuda_get_device_count().is_err(),
        "another token on a bound connection"
    );
    drop((a, c));
    // Long enough for both closes to be seen; the session must not go.
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(server.session_of_token(TOKEN), session);
    let back = b.cuda_memcpy_dtoh(&p, &4096).unwrap().into_result();
    assert_eq!(
        back.unwrap(),
        vec![5; 4096],
        "the session outlives a connection"
    );
    assert_eq!(b.cuda_free(&p).unwrap(), 0);
    drop(b);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.load_report().sessions > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    harness::quiescent(&server, session, None);
    handle.shutdown();
}

/// `CRICKET_QOS_SET` configures the caller's own session only: a quota
/// one tenant sets on another session, live or not yet opened, is refused,
/// and that session still allocates.
#[test]
fn a_session_sets_only_its_own_qos() {
    use cricket_repro::proto::QosParams;
    use cricket_repro::server::CricketServer;
    let server = CricketServer::a100();
    let (mut one, mut two) = (sim_session(&server, 1), sim_session(&server, 2));
    let starve = |session| QosParams {
        session,
        weight: 1,
        priority: 100,
        rate_ns_per_s: 1,
        burst_ns: 1,
        max_resident_bytes: 1,
    };
    let invalid = CudaCode::InvalidValue as i32;
    assert_eq!(one.cricket_qos_set(&starve(2)).unwrap(), invalid);
    assert_eq!(one.cricket_qos_set(&starve(3)).unwrap(), invalid);
    assert!(two.cuda_malloc(&4096).unwrap().into_result().is_ok());
    assert!(sim_session(&server, 3)
        .cuda_malloc(&4096)
        .unwrap()
        .into_result()
        .is_ok());
}

/// DESIGN §16, device memory per session: with `max_resident_bytes` set, a
/// `cudaMalloc` past the quota is shed `CRICKET_BUSY`, a `cudaFree` makes
/// room again, another session's bytes never count, and the session's
/// module images count.
#[test]
fn the_resident_bytes_quota_counts_what_the_session_holds() {
    use cricket_repro::oncrpc::{RpcError, RpcResult};
    use cricket_repro::proto::{QosParams, U64Result};
    use cricket_repro::server::CricketServer;
    const QUOTA: u64 = 1 << 20;
    let server = CricketServer::a100();
    let (mut one, mut two) = (sim_session(&server, 1), sim_session(&server, 2));
    let qos = QosParams {
        session: 1,
        weight: 1,
        priority: 100,
        rate_ns_per_s: 0,
        burst_ns: 0,
        max_resident_bytes: QUOTA,
    };
    assert_eq!(one.cricket_qos_set(&qos).unwrap(), 0);
    let shed = |r: RpcResult<U64Result>| matches!(r, Err(RpcError::Busy { .. }));
    let malloc = |c: &mut Raw, size: u64| c.cuda_malloc(&size).unwrap().into_result().unwrap();

    let half = malloc(&mut one, QUOTA / 2);
    let quarter = malloc(&mut one, QUOTA / 4);
    malloc(&mut one, QUOTA / 4);
    assert!(shed(one.cuda_malloc(&256)), "a malloc past the quota");
    malloc(&mut two, 4 * QUOTA);
    assert!(shed(one.cuda_malloc(&256)), "still past it");
    assert_eq!(one.cuda_free(&half).unwrap(), 0);
    malloc(&mut one, QUOTA / 2);
    assert!(shed(one.cuda_malloc(&256)), "full again");
    assert_eq!(one.cuda_free(&quarter).unwrap(), 0);

    // A quarter is free; a module image of that size takes it.
    let image = CubinBuilder::new()
        .kernel("saxpy", &[8, 8, 4, 4])
        .code(&vec![0x5a; (QUOTA / 4) as usize - 512])
        .build(false);
    let module = one
        .cu_module_load_data(&image)
        .unwrap()
        .into_result()
        .unwrap();
    assert!(shed(one.cuda_malloc(&(QUOTA / 4))), "the image counts");
    malloc(&mut one, 256);
    assert_eq!(one.cu_module_unload(&module).unwrap(), 0);
    malloc(&mut one, QUOTA / 4 - 256);
    assert!(shed(one.cuda_malloc(&256)));
}
