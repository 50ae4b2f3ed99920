//! The hostile peer (`tests/harness/adversary.rs`) against every way a
//! Cricket server takes bytes: a `SimTransport` into a real
//! `CricketServer`, the connection engine `Conn` driven directly, and the
//! reactor behind `ServerBuilder` over real TCP. One tenant must not be able
//! to break the node for the others, so the oracles are:
//! * every whole call gets a reply or a typed refusal, never a panic (and
//!   over TCP, within [`DEADLINE`]);
//! * no single allocation request passes [`BUDGET`] (watched by this
//!   binary's allocator; an over-budget request is reported with its row,
//!   seed and call index as it is made);
//! * afterwards the session still answers `RPC_NULL` and a `cudaMalloc`
//!   (over TCP: eight fresh connections each complete a short workload);
//! * after close, *nothing leaks* ([`harness::quiescent`]).
//!
//! A failure names the row, the seed and the call index: the row at that
//! seed sends calls 0 to that index again, exactly (DESIGN §7). The
//! server has one device of 1 MiB, so no boundary size commits host memory
//! and no GEMM, LU or FFT over that memory runs long.

mod harness;

use cricket_repro::oncrpc::portmap::{PmapVersDispatch, Portmap, PMAP_PROG, PMAP_VERS};
use cricket_repro::oncrpc::record::{read_record, MAX_RECORD};
use cricket_repro::oncrpc::{Calls, Conn, ProcClass, ReactorConfig, RpcResult, RpcServer};
use cricket_repro::oncrpc::{RpcError, TcpTransport};
use cricket_repro::proto::{CricketV1Client, QosParams, U64Result};
use cricket_repro::server::{cricket_classifier, make_session_rpc, CricketServer};
use cricket_repro::server::{ServerBuilder, ServerConfig, SimTransport};
use cricket_repro::unikernel::{Guest, GuestKind};
use cricket_repro::vgpu::{CudaCode, DeviceProperties};
use cricket_repro::xdr::XdrEncoder;
use harness::adversary::{at, handle, Call, Peer, AT};
use harness::chaos::ChaosRng;
use harness::CI_SEEDS;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Calls per seed on the in-process drivers.
const CALLS: u64 = 1000;

/// The most one allocation request may ask for. The device holds 1 MiB,
/// so the largest honest request (a whole-device copy, its reply record,
/// a checkpoint of the device, the peer's largest call record) is about
/// 1.3 MiB.
const BUDGET: usize = 4 << 20;

/// How long a reply over TCP may take.
const DEADLINE: Duration = Duration::from_secs(10);

/// The rows, by the index [`at`] records.
const ROWS: [&str; 4] = [
    "sim transport",
    "conn directly",
    "reactor over TCP",
    "reproducer",
];

/// The largest allocation request since the last check.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, watched: every request's size is recorded, and
/// the first over [`BUDGET`] since the last check is reported at once,
/// where the peer stands, since an allocation the system refuses aborts.
struct Watch;

fn watch(size: usize) {
    if LARGEST.fetch_max(size, Relaxed) <= BUDGET && size > BUDGET {
        let mut line = [0u8; 200];
        let mut w = std::io::Cursor::new(&mut line[..]);
        let [row, seed, call] = [0, 1, 2].map(|i| AT[i].load(Relaxed));
        let row = ROWS[row as usize];
        let _ = writeln!(
            w,
            "adversary: {row} at seed {seed}, call {call}: one allocation of {size} bytes"
        );
        let n = w.position() as usize;
        let _ = std::io::stderr().write_all(&line[..n]);
    }
}

unsafe impl GlobalAlloc for Watch {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        watch(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        watch(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        watch(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static WATCH: Watch = Watch;

/// One row at a time: the watch is per process.
static ONE_ROW: Mutex<()> = Mutex::new(());

fn one_row() -> std::sync::MutexGuard<'static, ()> {
    ONE_ROW.lock().unwrap_or_else(|e| e.into_inner())
}

/// The *bounded allocation* oracle for what ran since the last check.
fn within_budget() -> Result<(), String> {
    match LARGEST.swap(0, Relaxed) {
        n if n > BUDGET => Err(format!(
            "one allocation of {n} bytes, over the {BUDGET}-byte budget"
        )),
        _ => Ok(()),
    }
}

/// What a whole call came to on the wire.
enum Outcome {
    Reply(Vec<u8>),
    /// The connection ended, and was redialed: the server refused the call
    /// with a typed error, or the peer hung up after a partial record.
    Closed,
    /// Neither a reply nor a refusal: the oracle fails.
    Silent(String),
}

/// Where a row's bytes go.
trait Wire {
    fn exchange(&mut self, call: &Call) -> Outcome;
}

/// One device of 1 MiB.
fn small() -> ServerConfig {
    let mut props = DeviceProperties::a100();
    props.total_global_mem = 1 << 20;
    ServerConfig {
        props,
        device_count: 1,
        ..Default::default()
    }
}

/// Session 0 of a small server, and the portmapper, on one RPC server.
fn node() -> (Arc<CricketServer>, Arc<RpcServer>) {
    let server = CricketServer::new(small(), cricket_repro::simnet::SimClock::new());
    let mut rpc = make_session_rpc(Arc::clone(&server), 0);
    let portmap = Arc::new(PmapVersDispatch(Portmap::new()));
    rpc.register(PMAP_PROG, PMAP_VERS, portmap);
    (server, Arc::new(rpc))
}

fn dial_sim(server: &CricketServer, rpc: &Arc<RpcServer>) -> SimTransport {
    let guest = Guest::new(GuestKind::RustyHermit);
    SimTransport::new(Arc::clone(rpc), guest, Arc::clone(server.clock()))
}

/// A `SimTransport` into a real `CricketServer`, redialed once refused.
struct Sim(Arc<CricketServer>, Arc<RpcServer>, SimTransport);

impl Wire for Sim {
    fn exchange(&mut self, call: &Call) -> Outcome {
        let t = &mut self.2;
        let sent = t.write_all(&call.wire).and_then(|()| t.flush());
        if sent.is_ok() && call.whole {
            match read_record(t, MAX_RECORD) {
                Ok(Some(reply)) => return Outcome::Reply(reply),
                Ok(None) => return Outcome::Silent("end of stream, no reply".into()),
                Err(_) => {}
            }
        }
        self.2 = dial_sim(&self.0, &self.1);
        Outcome::Closed
    }
}

/// Answers each call as its engine hands it on.
struct Answer(Arc<RpcServer>, Vec<Vec<u8>>);

impl Calls for Answer {
    fn in_flight(&self) -> usize {
        0
    }
    fn call(&mut self, _: ProcClass, record: &mut Vec<u8>, _: usize) -> RpcResult<()> {
        let mut enc = XdrEncoder::new();
        self.0.handle_record_into(record, &mut enc)?;
        self.1.push(enc.into_inner());
        Ok(())
    }
}

/// The connection engine driven directly: the wire pushed in pieces of a
/// drawn size, each whole call answered as it is handed on.
struct Direct(Conn, Answer, ChaosRng);

fn engine() -> Conn {
    Conn::new(&ReactorConfig {
        classify: Some(cricket_classifier()),
        ..ReactorConfig::default()
    })
}

impl Wire for Direct {
    fn exchange(&mut self, call: &Call) -> Outcome {
        let piece = [1, 7, 4096, usize::MAX][(self.2.next_u64() % 4) as usize];
        let mut pieces = call.wire.chunks(piece);
        let refused = pieces.any(|p| self.0.push(p, &mut self.1).is_err());
        if !refused && call.whole {
            return match self.1 .1.pop() {
                Some(reply) => Outcome::Reply(reply),
                None => Outcome::Silent("the engine handed on no call".into()),
            };
        }
        self.0 = engine();
        self.1 .1.clear();
        Outcome::Closed
    }
}

/// Real TCP into the reactor `ServerBuilder` serves: a connection of its
/// own, redialed once the server closes it or the peer hangs up.
struct Tcp(SocketAddr, TcpStream);

fn dial_tcp(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(DEADLINE))?;
    Ok(s)
}

impl Wire for Tcp {
    fn exchange(&mut self, call: &Call) -> Outcome {
        if self.1.write_all(&call.wire).is_ok() && call.whole {
            match read_record(&mut self.1, MAX_RECORD) {
                Ok(Some(reply)) => return Outcome::Reply(reply),
                Err(RpcError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return Outcome::Silent(format!("no reply within {DEADLINE:?}"))
                }
                Ok(None) | Err(_) => {}
            }
        }
        match dial_tcp(self.0) {
            Ok(s) => self.1 = s,
            Err(e) => return Outcome::Silent(format!("the server takes no connection: {e}")),
        }
        Outcome::Closed
    }
}

/// Run `calls` calls of the peer of `seed` through `wire`, checking the
/// per-call oracles.
fn run(row: u64, seed: u64, calls: u64, wire: &mut dyn Wire) {
    let mut peer = Peer::new(seed);
    let name = ROWS[row as usize];
    within_budget().unwrap();
    for i in 0..calls {
        at(row, seed, i);
        let call = peer.call();
        let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| wire.exchange(&call)));
        let fail = |why: String| -> ! {
            panic!("{name} failed at seed {seed}, call {i} (replay: the row at seed {seed} sends calls 0..={i} again, exactly): {why}")
        };
        match got {
            Err(cause) => fail(format!("a panic: {}", harness::panic_message(&*cause))),
            Ok(Outcome::Silent(why)) => fail(format!("neither a reply nor a refusal: {why}")),
            Ok(Outcome::Reply(reply)) => {
                let kind = reply
                    .get(4..8)
                    .map(|w| u32::from_be_bytes(w.try_into().unwrap()));
                if kind != Some(1) {
                    fail(format!("a reply that is no RPC reply: {reply:02x?}"));
                }
                match handle(&reply) {
                    Some(h) if call.returns_handle => peer.learn(h),
                    _ => {}
                }
            }
            Ok(Outcome::Closed) => {}
        }
        within_budget().unwrap_or_else(|why| fail(why));
    }
}

/// A typed client of session 0 of `server`, over `SimTransport`.
fn sim_client(server: &CricketServer, rpc: &Arc<RpcServer>) -> CricketV1Client {
    CricketV1Client::new(Box::new(dial_sim(server, rpc)))
}

/// Whatever the peer did to it (a quota, a full device, another device
/// current), session 0 still answers `RPC_NULL` and, once its quota is
/// lifted and its share of the device reset, a `cudaMalloc`; then, once
/// released, the server holds nothing.
fn carries_on(server: &CricketServer, rpc: &Arc<RpcServer>) {
    let mut c = sim_client(server, rpc);
    c.rpc_null().unwrap();
    let unlimited = QosParams {
        session: 0,
        weight: 1,
        priority: 100,
        rate_ns_per_s: 0,
        burst_ns: 0,
        max_resident_bytes: 0,
    };
    assert_eq!(c.cricket_qos_set(&unlimited).unwrap(), 0);
    assert_eq!(c.cuda_set_device(&0).unwrap(), 0);
    assert_eq!(c.cuda_device_reset().unwrap(), 0);
    let p = c.cuda_malloc(&256).unwrap().into_result();
    assert!(p.is_ok(), "the session no longer allocates: {p:?}");
    drop(c);
    server.release_session(0);
    harness::quiescent(server, Some(0), None);
}

#[test]
fn the_peer_cannot_break_a_server_behind_sim_transport() {
    let _one = one_row();
    for seed in CI_SEEDS {
        let (server, rpc) = node();
        let t = dial_sim(&server, &rpc);
        run(
            0,
            seed,
            CALLS,
            &mut Sim(Arc::clone(&server), Arc::clone(&rpc), t),
        );
        carries_on(&server, &rpc);
    }
}

#[test]
fn the_peer_cannot_break_a_connection_engine() {
    let _one = one_row();
    for seed in CI_SEEDS {
        let (server, rpc) = node();
        let answer = Answer(Arc::clone(&rpc), Vec::new());
        let rng = ChaosRng::new(seed ^ 0x5EED);
        run(1, seed, CALLS, &mut Direct(engine(), answer, rng));
        carries_on(&server, &rpc);
    }
}

/// A worker shard that dies takes every connection pinned to it: eight
/// fresh connections, on both shards, each complete `cudaMalloc`,
/// `cudaMemset`, `cudaDeviceSynchronize` and a D2H copy after the peer's
/// calls, and at shutdown nothing leaks.
#[test]
fn the_peer_cannot_break_a_reactor_over_tcp() {
    let _one = one_row();
    for seed in &CI_SEEDS[..2] {
        let handle = ServerBuilder::new("127.0.0.1:0")
            .config(small())
            .serve()
            .unwrap();
        let (addr, server) = (handle.addr(), Arc::clone(handle.server()));
        run(2, *seed, CALLS / 4, &mut Tcp(addr, dial_tcp(addr).unwrap()));
        let deadline = Instant::now() + DEADLINE;
        while server.load_report().sessions > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        for i in 0..8 {
            let mut c = CricketV1Client::new(Box::new(TcpTransport::connect(addr).unwrap()));
            c.rpc.set_call_timeout(Some(DEADLINE)).unwrap();
            let p = c.cuda_malloc(&4096).unwrap().into_result().unwrap();
            assert_eq!(c.cuda_memset(&p, &(i + 1), &4096).unwrap(), 0);
            assert_eq!(c.cuda_device_synchronize().unwrap(), 0);
            let back = c
                .cuda_memcpy_dtoh(&p, &4096)
                .unwrap()
                .into_result()
                .unwrap();
            assert_eq!(back, vec![i as u8 + 1; 4096], "connection {i}");
        }
        handle.shutdown();
        harness::quiescent(&server, None, None);
    }
}

/// Reproducers of peer-sized spans, over the wire: the call is refused
/// with `code`, nothing over the budget is asked of the allocator, and the
/// same session then allocates, writes and reads normally.
fn refused_and_carries_on(code: CudaCode, call: impl FnOnce(&mut CricketV1Client, u64) -> i32) {
    let _one = one_row();
    at(3, 0, 0);
    let (server, rpc) = node();
    let mut c = sim_client(&server, &rpc);
    let p = c.cuda_malloc(&4096).unwrap().into_result().unwrap();
    within_budget().unwrap();
    assert_eq!(call(&mut c, p), code as i32);
    within_budget().unwrap();
    assert_eq!(c.cuda_memset(&p, &7, &4096).unwrap(), 0);
    let back = c
        .cuda_memcpy_dtoh(&p, &4096)
        .unwrap()
        .into_result()
        .unwrap();
    assert_eq!(back, vec![7; 4096]);
    drop(c);
    server.release_session(0);
    harness::quiescent(&server, Some(0), None);
}

/// A size within 255 bytes of 2^64 does not round up to the allocation
/// granularity: the typed out-of-memory refusal, not an overflow.
#[test]
fn a_malloc_that_cannot_be_rounded_up_is_refused() {
    refused_and_carries_on(CudaCode::MemoryAllocation, |c, _| {
        match c.cuda_malloc(&u64::MAX).unwrap() {
            U64Result::Default(code) => code,
            U64Result::Data(p) => panic!("{p:#x} allocated"),
        }
    });
}

/// `(2^30, Z2Z, 2^30)` needs 2^64 bytes: refused at `cufftPlan1d`, where
/// it used to wrap to an empty buffer that `cufftExecZ2Z` indexed past.
#[test]
fn an_fft_plan_whose_buffer_overflows_is_refused() {
    refused_and_carries_on(CudaCode::InvalidValue, |c, _| {
        let z2z = cricket_repro::vgpu::fft::CUFFT_Z2Z;
        match c.cufft_plan_1d(&(1 << 30), &z2z, &(1 << 30)).unwrap() {
            U64Result::Default(code) => code,
            U64Result::Data(plan) => panic!("plan {plan:#x} made"),
        }
    });
}

#[test]
fn a_gemm_whose_operand_span_overflows_is_refused() {
    refused_and_carries_on(CudaCode::InvalidValue, |c, p| {
        let blas = c.cublas_create().unwrap().into_result().unwrap();
        let max = i32::MAX;
        let gemm = c.cublas_dgemm(
            &blas, &0, &0, &1, &1, &max, &1.0, &p, &max, &p, &max, &0.0, &p, &1,
        );
        gemm.unwrap()
    });
}

#[test]
fn an_lu_factorisation_whose_span_overflows_is_refused() {
    refused_and_carries_on(CudaCode::InvalidValue, |c, p| {
        let h = c.cusolver_dn_create().unwrap().into_result().unwrap();
        let max = i32::MAX;
        c.cusolver_dn_dgetrf(&h, &1, &max, &p, &max, &p, &p, &p)
            .unwrap()
    });
}

#[test]
fn an_lu_solve_whose_span_overflows_is_refused() {
    refused_and_carries_on(CudaCode::InvalidValue, |c, p| {
        let h = c.cusolver_dn_create().unwrap().into_result().unwrap();
        let max = i32::MAX;
        c.cusolver_dn_dgetrs(&h, &0, &max, &1, &p, &max, &p, &p, &max, &p)
            .unwrap()
    });
}

/// A sparse blob declaring `MAX_RECORD` of zero pages, sent to a 4 KiB
/// buffer: 32 788 bytes that used to expand to 1 GiB before the device
/// write refused them. The call is routed at its declared length, so the
/// ownership check refuses it first, alone and inside a batch.
#[test]
fn a_sparse_copy_is_bounded_before_it_expands() {
    let mut blob = XdrEncoder::new();
    blob.put_u32(4096);
    blob.put_u64(MAX_RECORD as u64);
    blob.put_opaque(&vec![0; MAX_RECORD / 4096 / 8]);
    blob.put_opaque(&[]);
    let blob = blob.into_inner();
    assert_eq!(blob.len(), 32_788);
    refused_and_carries_on(CudaCode::InvalidValue, |c, p| {
        c.cuda_memcpy_htod_sparse(&p, &blob).unwrap()
    });
    refused_and_carries_on(CudaCode::InvalidValue, |c, p| {
        let mut body = XdrEncoder::new();
        body.put_u32(1);
        body.put_u32(cricket_repro::proto::cricket_v1::CUDA_MEMCPY_HTOD_SPARSE);
        body.put_u64(p);
        body.put_opaque(&blob);
        let receipt = c.cricket_batch_exec(&body.into_inner()).unwrap();
        let receipt = receipt.into_result().unwrap();
        assert_eq!(receipt.executed, 0);
        receipt.statuses[0]
    });
}

/// A launch's grid and sizes come off the wire. A grid whose partial
/// histograms would need 3 TiB, and matrix dimensions whose byte sizes pass
/// 64 bits, are answered with a CUDA error: the server neither asks the
/// allocator for them nor panics on the overflow, and the same session then
/// launches and copies normally.
#[test]
fn hostile_launch_geometry_is_refused_and_the_session_carries_on() {
    use cricket_repro::client::CubinBuilder;
    use cricket_repro::proto::RpcDim3;
    use cricket_repro::vgpu::kernels::ParamBuilder;
    let _one = one_row();
    at(3, 0, 0);
    let (server, rpc) = node();
    let mut c = sim_client(&server, &rpc);
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
        let f = c.cu_module_get_function(&module, name).unwrap();
        f.into_result().unwrap()
    };
    let (hist, mm, add) = (
        func("histogram64Kernel"),
        func("matrixMulCUDA"),
        func("vectorAdd"),
    );
    let p = c.cuda_malloc(&1024).unwrap().into_result().unwrap();
    let q = c.cuda_malloc(&1024).unwrap().into_result().unwrap();
    let invalid = CudaCode::InvalidValue as i32;
    within_budget().unwrap();

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
    let params = (ParamBuilder::new().ptr(p).ptr(q).ptr(p))
        .u32(1 << 31)
        .u32(1 << 31)
        .build();
    let code = c.cuda_launch_kernel(&mm, &rows, &one, &0, &0, &params);
    assert_eq!(code.unwrap(), invalid);
    within_budget().unwrap();

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
    drop(c);
    server.release_session(0);
    harness::quiescent(&server, Some(0), None);
}
