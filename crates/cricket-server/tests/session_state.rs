//! Session state has one serializer: `CKPT_CAPTURE` is one `Base` blob per
//! session, `CKPT_RESTORE` applies them through the migration applier and
//! hands the result to the caller. These tests pin what that buys over the
//! retired whole-device snapshot:
//!
//! * library handles, stream frontiers, event timestamps, default-stream
//!   bindings and devices ≥ 1 survive a checkpoint;
//! * restored state is *owned* — a disconnect reclaims all of it;
//! * a restore never touches state that was live before it — a block or a
//!   handle somebody holds is a typed error, never an alias — and a failed
//!   one leaves nothing behind;
//! * a checkpoint does not disturb a migration streaming from the same
//!   device.

use cricket_proto::{
    CricketV1Service, DataResult, DataResultReplied, DataResultReply, MemInfoResult, RpcDim3,
};
use cricket_server::service::Sessioned;
use cricket_server::{CricketServer, MigKind};
use oncrpc::AcceptStat;
use std::collections::BTreeSet;
use std::sync::Arc;
use vgpu::kernels::ParamBuilder;
use vgpu::module::CubinBuilder;

fn session(srv: &Arc<CricketServer>, id: u32) -> Sessioned {
    Sessioned::new(Arc::clone(srv), id)
}

fn malloc(s: &Sessioned, size: u64) -> u64 {
    s.cuda_malloc(size).unwrap().into_result().unwrap()
}

/// The payload a sink-taking procedure replied with.
fn replied(
    call: impl FnOnce(DataResultReply<'_>) -> Result<DataResultReplied, AcceptStat>,
) -> Vec<u8> {
    let mut enc = xdr::XdrEncoder::new();
    call(DataResultReply(&mut enc)).unwrap();
    let reply: DataResult = xdr::decode(enc.as_slice()).unwrap();
    reply.into_result().unwrap()
}

fn read(s: &Sessioned, ptr: u64, len: u64) -> Vec<u8> {
    replied(|out| s.cuda_memcpy_dtoh(ptr, len, out))
}

fn capture(s: &Sessioned) -> Vec<u8> {
    replied(|out| s.ckpt_capture(out))
}

/// Free bytes on device `ordinal`, read through a throwaway session.
fn free_on(srv: &Arc<CricketServer>, ordinal: i32) -> (u64, u64) {
    let probe = session(srv, 900);
    assert_eq!(probe.cuda_set_device(ordinal).unwrap(), 0);
    let MemInfoResult::Info(info) = probe.cuda_mem_get_info().unwrap() else {
        panic!("mem_get_info failed");
    };
    srv.release_session(900);
    (info.free, info.total)
}

const DIM1: RpcDim3 = RpcDim3 { x: 1, y: 1, z: 1 };
const BLOCK: RpcDim3 = RpcDim3 { x: 64, y: 1, z: 1 };

/// One of everything a session can hold, on two devices.
struct Rich {
    blas: u64,
    solver: u64,
    fft: u64,
    stream: u64,
    ev0: u64,
    ev1: u64,
    func: u64,
    /// 64 f32 on device 0 (saxpy operand and result).
    p0: u64,
    /// 256 bytes on device 1.
    p1: u64,
}

fn saxpy_params(p: u64) -> Vec<u8> {
    ParamBuilder::new().ptr(p).ptr(p).f32(1.0).u32(64).build()
}

fn populate(s: &Sessioned) -> Rich {
    let u = |r: cricket_proto::U64Result| r.into_result().unwrap();
    let blas = u(s.cublas_create().unwrap());
    let solver = u(s.cusolver_dn_create().unwrap());
    let fft = u(s.cufft_plan_1d(4, vgpu::fft::CUFFT_C2C, 1).unwrap());
    let stream = u(s.cuda_stream_create().unwrap());
    let ev0 = u(s.cuda_event_create().unwrap());
    let ev1 = u(s.cuda_event_create().unwrap());
    let image = CubinBuilder::new()
        .kernel("saxpy", &[8, 8, 4, 4])
        .code(b"saxpy SASS")
        .build(true);
    let module = u(s.cu_module_load_data(&image).unwrap());
    let func = u(s.cu_module_get_function(module, "saxpy").unwrap());

    let p0 = malloc(s, 256);
    let ones = 1.0f32.to_le_bytes().repeat(64);
    assert_eq!(s.cuda_memcpy_htod(p0, &ones).unwrap(), 0);
    // ev0 → y = 1*y + y on the explicit stream → ev1.
    assert_eq!(s.cuda_event_record(ev0, stream).unwrap(), 0);
    let launch = s.cuda_launch_kernel(func, DIM1, BLOCK, 0, stream, &saxpy_params(p0));
    assert_eq!(launch.unwrap(), 0);
    assert_eq!(s.cuda_event_record(ev1, stream).unwrap(), 0);

    assert_eq!(s.cuda_set_device(1).unwrap(), 0);
    let p1 = malloc(s, 256);
    assert_eq!(s.cuda_memcpy_htod(p1, &[0xA5; 256]).unwrap(), 0);
    Rich {
        blas,
        solver,
        fft,
        stream,
        ev0,
        ev1,
        func,
        p0,
        p1,
    }
}

/// What a client can observe of [`Rich`]: it must read the same on the
/// node that restored the checkpoint as on the node that took it.
fn observe(s: &Sessioned, r: &Rich) -> (f32, Vec<u8>, Vec<u8>, i32) {
    let elapsed = s.cuda_event_elapsed_time(r.ev0, r.ev1).unwrap();
    let device = s.cuda_get_device().unwrap().into_result().unwrap();
    (
        elapsed.into_result().unwrap(),
        read(s, r.p0, 256),
        read(s, r.p1, 256),
        device,
    )
}

/// (a) Everything the retired format dropped survives: cuBLAS / cuSolver /
/// cuFFT handles, the explicit stream, both event timestamps, the current
/// device and the allocation on device 1.
#[test]
fn every_handle_and_every_device_survives_a_checkpoint() {
    let node_a = CricketServer::a100();
    let a = session(&node_a, 1);
    let rich = populate(&a);
    let on_a = observe(&a, &rich);
    assert!(on_a.0 > 0.0, "the kernel between the events took time");
    assert_eq!(on_a.3, 1);
    let ckpt = capture(&a);

    let node_b = CricketServer::a100();
    let b = session(&node_b, 5);
    assert_eq!(b.ckpt_restore(&ckpt).unwrap(), 0);
    assert_eq!(observe(&b, &rich), on_a);

    // Every handle works, not merely exists.
    let (m, out) = (malloc(&b, 8), malloc(&b, 8));
    b.cuda_memcpy_htod(m, &3.0f64.to_le_bytes()).unwrap();
    let gemm = b.cublas_dgemm(rich.blas, 0, 0, 1, 1, 1, 1.0, m, 1, m, 1, 0.0, out, 1);
    assert_eq!(gemm.unwrap(), 0);
    assert_eq!(read(&b, out, 8), 9.0f64.to_le_bytes());
    let lwork = b.cusolver_dn_dgetrf_buffer_size(rich.solver, 4, 4, m, 4);
    assert!(lwork.unwrap().into_result().is_ok());
    let signal = malloc(&b, 32);
    assert_eq!(
        b.cufft_exec_c2c(rich.fft, signal, signal, vgpu::fft::CUFFT_FORWARD)
            .unwrap(),
        0
    );
    let again = b.cuda_launch_kernel(
        rich.func,
        DIM1,
        BLOCK,
        0,
        rich.stream,
        &saxpy_params(rich.p0),
    );
    assert_eq!(again.unwrap(), 0);
    assert_eq!(b.cuda_stream_synchronize(rich.stream).unwrap(), 0);
    assert_eq!(read(&b, rich.p0, 4), 4.0f32.to_le_bytes());
    // A fresh handle does not collide with a restored one.
    let fresh = b.cublas_create().unwrap().into_result().unwrap();
    assert!(![rich.blas, rich.solver, rich.fft].contains(&fresh));
}

/// (b) Restored state belongs to the restoring session: when its
/// connection drops, `release_session` reclaims all of it.
#[test]
fn a_disconnect_reclaims_everything_a_restore_placed() {
    let node_a = CricketServer::a100();
    let a = session(&node_a, 1);
    populate(&a);
    let ckpt = capture(&a);

    let node_b = CricketServer::a100();
    let b = session(&node_b, 5);
    assert_eq!(b.ckpt_restore(&ckpt).unwrap(), 0);
    let (free0, total0) = free_on(&node_b, 0);
    assert!(free0 < total0);

    let cleanup = node_b.release_session(5);
    assert_eq!(cleanup.allocations, 2);
    // The explicit stream plus the default streams on devices 0 and 1.
    assert_eq!(cleanup.streams, 3);
    assert_eq!(cleanup.events, 2);
    assert_eq!(cleanup.modules, 1);
    assert_eq!(cleanup.lib_handles, 3);
    for ordinal in [0, 1] {
        let (free, total) = free_on(&node_b, ordinal);
        assert_eq!(free, total, "device {ordinal} leaked");
    }
    // Nothing is left to capture.
    assert_eq!(
        capture(&session(&node_b, 6)),
        capture(&session(&CricketServer::a100(), 6))
    );
}

/// (c) A restore never replaces live state — blocks here, handles in (c′)
/// below. The checkpoint's device-0 block lands, its device-1 block
/// collides with another session's: typed error, that session's bytes
/// untouched, the block that did land is reclaimed, and the server keeps
/// serving.
#[test]
fn a_colliding_restore_is_a_typed_error_and_leaves_no_trace() {
    let node_a = CricketServer::a100();
    let a = session(&node_a, 1);
    populate(&a);
    let ckpt = capture(&a);

    let node_b = CricketServer::a100();
    let resident = session(&node_b, 2);
    assert_eq!(resident.cuda_set_device(1).unwrap(), 0);
    let theirs = malloc(&resident, 4096);
    assert_eq!(resident.cuda_memcpy_htod(theirs, &[0x77; 4096]).unwrap(), 0);
    let before = (free_on(&node_b, 0), free_on(&node_b, 1));

    let b = session(&node_b, 5);
    assert_eq!(
        b.ckpt_restore(&ckpt).unwrap(),
        vgpu::CudaCode::InvalidValue as i32
    );
    assert_eq!(read(&resident, theirs, 4096), vec![0x77; 4096]);
    assert_eq!((free_on(&node_b, 0), free_on(&node_b, 1)), before);
    assert_eq!(node_b.release_session(5).total(), 0);
    let p = malloc(&b, 64);
    assert_eq!(b.cuda_free(p).unwrap(), 0);
}

/// (c′) Handles collide as blocks do. Fresh nodes hand out the same
/// numbers, so a resident of node B holds the very values node A's
/// checkpoint carries — no hostile input needed. Whatever kind of object
/// sits on a value the checkpoint wants, the restore is a typed error, the
/// resident's object keeps working after the restorer is gone, and nothing
/// the failed restore placed stays behind.
#[test]
fn a_restore_onto_live_handles_is_a_typed_error_and_aliases_nothing() {
    let node_a = CricketServer::a100();
    let a = session(&node_a, 1);
    let rich = populate(&a);
    let on_a = observe(&a, &rich);
    let ckpt = capture(&a);

    let u = |r: cricket_proto::U64Result| r.into_result().unwrap();
    // Advance a fresh node's counters past `n` values without keeping them.
    let burn_dev = |s: &Sessioned, n: usize| {
        for _ in 0..n {
            let h = u(s.cuda_stream_create().unwrap());
            assert_eq!(s.cuda_stream_destroy(h).unwrap(), 0);
        }
    };
    let burn_lib = |s: &Sessioned, n: usize| {
        for _ in 0..n {
            let h = u(s.cublas_create().unwrap());
            assert_eq!(s.cublas_destroy(h).unwrap(), 0);
        }
    };
    let image = CubinBuilder::new()
        .kernel("saxpy", &[8, 8, 4, 4])
        .code(b"resident SASS")
        .build(true);

    // On node A the device-0 counter issued stream, ev0, ev1, module, func
    // in that order and the library counter blas, solver, fft. Each case
    // parks one resident object on one of those values and returns the
    // checks that it still works afterwards.
    type Works = Box<dyn Fn(&Sessioned)>;
    type Park<'a> = Box<dyn Fn(&Sessioned) -> Works + 'a>;
    let cases: Vec<(&str, Park)> = vec![
        (
            "stream + event + cuBLAS handle, as on any shared node",
            Box::new(|r| {
                let stream = u(r.cuda_stream_create().unwrap());
                let event = u(r.cuda_event_create().unwrap());
                let blas = u(r.cublas_create().unwrap());
                assert_eq!((stream, event, blas), (rich.stream, rich.ev0, rich.blas));
                Box::new(move |r| {
                    assert_eq!(r.cuda_event_record(event, stream).unwrap(), 0);
                    assert_eq!(r.cuda_stream_synchronize(stream).unwrap(), 0);
                    assert_eq!(r.cublas_destroy(blas).unwrap(), 0);
                })
            }),
        ),
        (
            "an event where the checkpoint has an event",
            Box::new(|r| {
                burn_dev(r, 2);
                let event = u(r.cuda_event_create().unwrap());
                assert_eq!(event, rich.ev1);
                Box::new(move |r| assert_eq!(r.cuda_event_record(event, 0).unwrap(), 0))
            }),
        ),
        (
            "a module where the checkpoint has a module",
            Box::new(|r| {
                burn_dev(r, 3);
                let module = u(r.cu_module_load_data(&image).unwrap());
                assert_eq!(module + 1, rich.func);
                Box::new(move |r| {
                    assert!(r
                        .cu_module_get_function(module, "saxpy")
                        .unwrap()
                        .into_result()
                        .is_ok());
                    assert_eq!(r.cu_module_unload(module).unwrap(), 0);
                })
            }),
        ),
        (
            "a stream where the checkpoint has a function",
            Box::new(|r| {
                burn_dev(r, 4);
                let stream = u(r.cuda_stream_create().unwrap());
                assert_eq!(stream, rich.func);
                Box::new(move |r| assert_eq!(r.cuda_stream_synchronize(stream).unwrap(), 0))
            }),
        ),
        (
            "a cuBLAS handle where the checkpoint has a cuSolver context",
            Box::new(|r| {
                burn_lib(r, 1);
                let blas = u(r.cublas_create().unwrap());
                assert_eq!(blas, rich.solver);
                Box::new(move |r| assert_eq!(r.cublas_destroy(blas).unwrap(), 0))
            }),
        ),
        (
            "an FFT plan where the checkpoint has an FFT plan",
            Box::new(|r| {
                burn_lib(r, 2);
                let fft = u(r.cufft_plan_1d(8, vgpu::fft::CUFFT_C2C, 1).unwrap());
                assert_eq!(fft, rich.fft);
                Box::new(move |r| assert_eq!(r.cufft_destroy(fft).unwrap(), 0))
            }),
        ),
    ];

    for (what, park) in cases {
        let node_b = CricketServer::a100();
        let resident = session(&node_b, 2);
        let still_works = park(&resident);
        let before = (free_on(&node_b, 0), free_on(&node_b, 1));

        let b = session(&node_b, 5);
        assert_eq!(
            b.ckpt_restore(&ckpt).unwrap(),
            vgpu::CudaCode::InvalidValue as i32,
            "{what}"
        );
        assert_eq!((free_on(&node_b, 0), free_on(&node_b, 1)), before, "{what}");
        // The restorer owns nothing — in particular not the resident's
        // objects, which outlive its disconnect.
        assert_eq!(node_b.release_session(5).total(), 0, "{what}");
        still_works(&resident);

        // No trace: once the resident is gone the same checkpoint restores,
        // which it could not if the failed attempt had left anything.
        node_b.release_session(2);
        let b = session(&node_b, 6);
        assert_eq!(b.ckpt_restore(&ckpt).unwrap(), 0, "{what}");
        assert_eq!(observe(&b, &rich), on_a, "{what}");
    }
}

/// (d) A checkpoint opens no delta stream, so it must not close the dirty
/// window of a migration streaming from the same device: the migration's
/// next delta is byte-identical with and without a checkpoint in between.
#[test]
fn a_checkpoint_between_base_and_delta_leaves_the_delta_unchanged() {
    const TOKEN: u64 = 0xC0FFEE;
    let run = |checkpoint_between: bool, align_clock_to: Option<u64>| {
        let node = CricketServer::a100();
        let s = session(&node, 1);
        assert!(node.observe_token(TOKEN, 1));
        let p = malloc(&s, 4096);
        s.cuda_memcpy_htod(p, &[1; 4096]).unwrap();
        let mut known = BTreeSet::new();
        node.mig_export(TOKEN, &mut known, MigKind::Base).unwrap();
        // The window the next delta must carry.
        s.cuda_memcpy_htod(p + 512, &[2; 128]).unwrap();
        if checkpoint_between {
            assert!(!capture(&s).is_empty());
        }
        // The checkpoint costs virtual time and deltas are stamped with
        // the clock; give the twin run the same reading.
        if let Some(t) = align_clock_to {
            node.clock().advance_to(t);
        }
        let now = node.clock().now_ns();
        let delta = node.mig_export(TOKEN, &mut known, MigKind::Delta).unwrap();
        (delta, now)
    };
    let (with, t) = run(true, None);
    let (without, _) = run(false, Some(t));
    assert_eq!(with, without);
    let delta = cricket_server::migrate::decode(&with).unwrap();
    let span = cricket_proto::MemSpan {
        base: delta.mem.dirty[0].base,
        offset: 512,
        bytes: vec![2; 128],
    };
    assert_eq!(delta.mem.dirty.to_vec(), vec![span]);
}

/// (e) Two sessions captured, one restorer: it can read both sessions'
/// state and owns all of it — merged with what it already held, and
/// without losing the device it had selected itself.
#[test]
fn one_restorer_absorbs_every_captured_session() {
    let node_a = CricketServer::a100();
    let (one, two) = (session(&node_a, 1), session(&node_a, 2));
    let p1 = malloc(&one, 1024);
    one.cuda_memcpy_htod(p1, &[0x11; 1024]).unwrap();
    let p2 = malloc(&two, 2048);
    two.cuda_memcpy_htod(p2, &[0x22; 2048]).unwrap();
    // A session that owns nothing contributes no blob.
    let idle = session(&node_a, 3);
    idle.cuda_get_device_count().unwrap();
    let ckpt = capture(&one);

    let node_b = CricketServer::a100();
    let b = session(&node_b, 7);
    assert_eq!(b.cuda_set_device(2).unwrap(), 0);
    let own = malloc(&b, 512);
    assert_eq!(b.ckpt_restore(&ckpt).unwrap(), 0);
    assert_eq!(read(&b, p1, 1024), vec![0x11; 1024]);
    assert_eq!(read(&b, p2, 2048), vec![0x22; 2048]);
    assert_eq!(b.cuda_get_device().unwrap().into_result(), Ok(2));

    let cleanup = node_b.release_session(7);
    assert_eq!(cleanup.allocations, 3, "own {own:#x} + both restored");
    for ordinal in [0, 2] {
        let (free, total) = free_on(&node_b, ordinal);
        assert_eq!(free, total, "device {ordinal} leaked");
    }
}
