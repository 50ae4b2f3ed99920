//! Steady-state heap allocations of one call over the simulated guest data
//! path, per guest kind: the generated client stub, [`SimTransport`] with
//! the functional `unikernel` TCP/virtio stack under it, the RPC server,
//! the Cricket service and the device model — everything a figure harness
//! pays per call.
//!
//! The kinds are chosen so that every branch of the functional path is
//! held to the same numbers, not only the one the benchmark runs:
//! `NativeLinux` / `LinuxVm` (what `EnvConfig::{CNative, LinuxVm}` map to)
//! split TSO super-segments on the host, `Unikraft` and
//! `RustyHermitLegacy` checksum in software and receive into a fixed
//! posted buffer, `RustyHermit` offloads checksums and merges receive
//! buffers, `RustyHermitTso` does all three.
//!
//! Installs [`oncrpc::telemetry::CountingAllocator`] process-wide, so this
//! file must stay a dedicated integration-test binary with one `#[test]`.

use cricket_proto::{CricketV1Client, RpcDim3};
use cricket_server::{make_rpc_server, CricketServer, ServerConfig, SimTransport};
use oncrpc::telemetry::{allocation_count, CountingAllocator};
use simnet::SimClock;
use std::sync::Arc;
use unikernel::{Guest, GuestKind};
use vgpu::kernels::ParamBuilder;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Calls per round; a round's total is compared against `CALLS * bound`, so
/// an allocation amortised over fewer than `CALLS` calls still shows.
const CALLS: u64 = 8;
/// Rounds per operation; the best one counts, which rides out allocations
/// made by the test harness's own threads.
const ROUNDS: usize = 5;

/// Fewest allocations `CALLS` consecutive runs of `call` made.
fn per_round(mut call: impl FnMut()) -> u64 {
    (0..ROUNDS)
        .map(|_| {
            let before = allocation_count();
            (0..CALLS).for_each(|_| call());
            allocation_count() - before
        })
        .min()
        .expect("ROUNDS > 0")
}

fn check(kind: GuestKind) {
    let clock = SimClock::new();
    let rpc = make_rpc_server(CricketServer::new(
        ServerConfig::default(),
        Arc::clone(&clock),
    ));
    let transport = SimTransport::new(rpc, Guest::new(kind), clock);
    let mut c = CricketV1Client::new(Box::new(transport));

    let image = vgpu::module::CubinBuilder::new()
        .kernel("empty", &[])
        .kernel("vectorAdd", &[8, 8, 8, 4])
        .code(b"empty kernel")
        .build(false);
    let module = c
        .cu_module_load_data(&image)
        .unwrap()
        .into_result()
        .unwrap();
    let func = c
        .cu_module_get_function(&module, "empty")
        .unwrap()
        .into_result()
        .unwrap();
    let add = c
        .cu_module_get_function(&module, "vectorAdd")
        .unwrap()
        .into_result()
        .unwrap();
    let one = RpcDim3 { x: 1, y: 1, z: 1 };
    let buf = c.cuda_malloc(&(1 << 20)).unwrap().into_result().unwrap();
    let h2d = vec![0x5au8; 64 << 10];
    // vectorAdd(y, x, x, 256) over two 1 KiB buffers: after its first run
    // every launch is a memo hit.
    let x = c.cuda_malloc(&1024).unwrap().into_result().unwrap();
    let y = c.cuda_malloc(&1024).unwrap().into_result().unwrap();
    let add_params = ParamBuilder::new().ptr(y).ptr(x).ptr(x).u32(256).build();
    let threads = RpcDim3 { x: 256, y: 1, z: 1 };

    let launch = |c: &mut CricketV1Client| {
        assert_eq!(
            c.cuda_launch_kernel(&func, &one, &one, &0, &0, &[])
                .unwrap(),
            0
        );
    };
    let launch_add = |c: &mut CricketV1Client| {
        assert_eq!(
            c.cuda_launch_kernel(&add, &one, &threads, &0, &0, &add_params)
                .unwrap(),
            0
        );
    };
    let d2h = |c: &mut CricketV1Client| {
        let data = c.cuda_memcpy_dtoh(&buf, &(1 << 20)).unwrap();
        assert_eq!(data.into_result().map(|d| d.len()), Ok(1 << 20));
    };

    // Warm-up: every pooled buffer reaches its steady size (the largest
    // request and reply first), and the device's retired-command log
    // reaches its cap.
    assert_eq!(c.cuda_memcpy_htod(&buf, &h2d).unwrap(), 0);
    d2h(&mut c);
    for _ in 0..5_000 {
        launch(&mut c);
    }
    launch_add(&mut c);
    assert_eq!(c.cuda_device_synchronize().unwrap(), 0);

    let zero =
        |what: &str, n: u64| assert_eq!(n, 0, "{kind:?}: {what} allocated {n}/{CALLS} calls");
    zero(
        "cudaGetDeviceCount",
        per_round(|| assert_eq!(c.cuda_get_device_count().unwrap().into_result(), Ok(4))),
    );
    zero("empty launch", per_round(|| launch(&mut c)));
    zero(
        "launch with arguments (memo hit)",
        per_round(|| launch_add(&mut c)),
    );
    zero(
        "cudaDeviceSynchronize",
        per_round(|| assert_eq!(c.cuda_device_synchronize().unwrap(), 0)),
    );
    zero(
        "64 KiB H2D",
        per_round(|| assert_eq!(c.cuda_memcpy_htod(&buf, &h2d).unwrap(), 0)),
    );
    // The reply's data is read off the transport into the caller's buffer.
    let mut dst = vec![0u8; 1 << 20];
    zero(
        "1 MiB D2H into a caller buffer",
        per_round(|| {
            assert_eq!(
                c.cuda_memcpy_dtoh_into(&buf, &(1 << 20), &mut dst).unwrap(),
                0
            )
        }),
    );
    assert!(dst[..64 << 10] == h2d[..], "{kind:?}: D2H bytes differ");

    // cudaMalloc and cudaFree alternate, so each side is counted by hand.
    let (mut malloc, mut free) = (u64::MAX, u64::MAX);
    for _ in 0..ROUNDS {
        let (mut m, mut f) = (0, 0);
        for _ in 0..CALLS {
            let t0 = allocation_count();
            let p = c.cuda_malloc(&4096).unwrap().into_result().unwrap();
            let t1 = allocation_count();
            assert_eq!(c.cuda_free(&p).unwrap(), 0);
            m += t1 - t0;
            f += allocation_count() - t1;
        }
        (malloc, free) = (malloc.min(m), free.min(f));
    }
    zero("cudaFree", free);
    // A block nobody touches never gets a host backing.
    zero("cudaMalloc", malloc);
    // The server lends device memory to the reply encoder and the reply is
    // carried down one MSS at a time: what is left is the `Vec` the owned
    // stub returns.
    let n = per_round(|| d2h(&mut c));
    assert!(
        n <= CALLS,
        "{kind:?}: 1 MiB D2H allocated {n}/{CALLS} calls"
    );
}

#[test]
fn steady_state_calls_allocate_nothing_on_any_guest_path() {
    for kind in [
        GuestKind::NativeLinux,
        GuestKind::LinuxVm,
        GuestKind::Unikraft,
        GuestKind::RustyHermit,
        GuestKind::RustyHermitLegacy,
        GuestKind::RustyHermitTso,
    ] {
        check(kind);
    }
}
