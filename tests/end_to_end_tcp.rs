//! Integration: the full stack over *real* TCP loopback — generated stubs,
//! record marking, reactor server, simulated GPU — with concurrent
//! clients, exactly how an external deployment would use `cricket-server`
//! (the binary is `ServerBuilder::new(listen).config(..).serve()`).

use cricket_repro::prelude::*;
use cricket_repro::server::ServeHandle;
use std::time::{Duration, Instant};

fn spawn_server() -> ServeHandle {
    ServerBuilder::new("127.0.0.1:0").serve().expect("bind")
}

#[test]
fn matrix_mul_over_tcp() {
    let handle = spawn_server();
    let ctx = Context::connect(&Endpoint::addr(handle.addr()).unwrap()).unwrap();
    let cfg = matrix_mul::MatrixMulConfig {
        ha: 64,
        wa: 64,
        wb: 64,
        iterations: 25,
        warmups: 7,
    };
    let report = matrix_mul::run(&ctx, &cfg).unwrap();
    assert!(report.valid);
    assert_eq!(report.stats.api_calls, cfg.expected_api_calls());
    drop(ctx);
    handle.shutdown();
}

#[test]
fn linear_solver_over_tcp() {
    let handle = spawn_server();
    let ctx = Context::connect(&Endpoint::addr(handle.addr()).unwrap()).unwrap();
    let cfg = linear_solver::LinearSolverConfig {
        n: 64,
        iterations: 3,
        warmups: 2,
    };
    let report = linear_solver::run(&ctx, &cfg).unwrap();
    assert!(report.valid);
    drop(ctx);
    handle.shutdown();
}

#[test]
fn concurrent_tcp_clients_share_the_gpu() {
    let handle = spawn_server();
    let addr = handle.addr().to_string();
    let mut joins = Vec::new();
    for t in 0..6u32 {
        let addr = addr.clone();
        joins.push(std::thread::spawn(move || {
            let ctx = Context::connect(&Endpoint::addr(addr.as_str()).unwrap()).unwrap();
            let data: Vec<f32> = (0..2048).map(|i| (i * (t + 1)) as f32).collect();
            let buf = ctx.upload(&data).unwrap();
            for _ in 0..20 {
                assert_eq!(
                    buf.copy_to_vec().unwrap(),
                    data,
                    "client {t} data corrupted"
                );
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    handle.shutdown();
}

#[test]
fn large_transfer_over_tcp_exercises_fragmentation() {
    let handle = spawn_server();
    let ctx = Context::connect(&Endpoint::addr(handle.addr()).unwrap()).unwrap();
    // 8 MiB: several 1 MiB record fragments each way.
    let data: Vec<u8> = (0..8 << 20).map(|i| (i % 249) as u8).collect();
    let buf = ctx.upload(&data).unwrap();
    assert_eq!(buf.copy_to_vec().unwrap(), data);
    drop(buf);
    drop(ctx);
    handle.shutdown();
}

#[test]
fn cuda_error_codes_cross_the_wire() {
    let handle = spawn_server();
    let ctx = Context::connect(&Endpoint::addr(handle.addr()).unwrap()).unwrap();
    // OOM surfaces as the CUDA allocation error, not a transport failure.
    let err = ctx.alloc::<u8>(1 << 50).unwrap_err();
    assert_eq!(
        err.cuda_code(),
        Some(cricket_repro::vgpu::CudaCode::MemoryAllocation as i32)
    );
    // Unknown kernels in a module are BadModule → NotFound on the wire.
    let image = CubinBuilder::new()
        .kernel("noSuchKernel", &[8])
        .build(false);
    let err = ctx.load_module(&image).unwrap_err();
    assert_eq!(
        err.cuda_code(),
        Some(cricket_repro::vgpu::CudaCode::NotFound as i32)
    );
    drop(ctx);
    handle.shutdown();
}

/// A default-built server gives every connection its own session and
/// releases it on disconnect: a client that vanishes with memory still
/// allocated leaks neither the memory nor its scheduler ledger, and the
/// next client is not handed the dead client's session.
#[test]
fn sequential_clients_get_distinct_sessions_and_leak_nothing() {
    let handle = spawn_server();
    let endpoint = Endpoint::addr(handle.addr()).unwrap();
    let scheduler = &handle.server().scheduler;

    let mut first = CricketClient::connect(&endpoint).unwrap();
    let baseline = first.mem_get_info().unwrap().free;
    first.malloc(1 << 20).unwrap();
    assert!(first.mem_get_info().unwrap().free < baseline);
    let first_sessions: Vec<u32> = scheduler.served_ops().into_keys().collect();
    assert_eq!(first_sessions.len(), 1, "one client, one session");
    // The client vanishes without freeing anything.
    drop(first);

    let mut second = CricketClient::connect(&endpoint).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while second.mem_get_info().unwrap().free != baseline {
        assert!(
            Instant::now() < deadline,
            "server never reclaimed the first client's memory"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let ptr = second.malloc(4096).unwrap();
    let second_sessions: Vec<u32> = scheduler.served_ops().into_keys().collect();
    assert_eq!(
        second_sessions.len(),
        1,
        "the first session's scheduler ledger was not released"
    );
    assert_ne!(
        first_sessions, second_sessions,
        "second connection was handed the first connection's session"
    );
    second.free(ptr).unwrap();
    drop(second);
    handle.shutdown();
}
