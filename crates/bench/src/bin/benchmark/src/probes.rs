//! Isolation probes: each drives one layer through its public functions
//! with nothing else in the way, so that the layer's cost has a number of
//! its own. They feed the per-layer metrics only.

use crate::catalogue::SWEEP;
use crate::meter::{CannedTransport, Meter, MeteredTransport};
use crate::rng::Rng;
use crate::workloads::bulk::MIB;
use crate::workloads::{sim_client, ENV};
use cricket_client::sim::SimSetup;
use cricket_client::CricketClient;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Samples per metric name; the report shows each metric's median.
#[derive(Default)]
pub struct Samples(pub BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        self.0.entry(name.into()).or_default().push(value);
    }
}

/// Wall ns of `f`.
pub fn time_ns<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_nanos() as f64)
}

/// Median wall ns of `f` over `reps` runs.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps).map(|_| time_ns(&mut f).1).collect();
    crate::stats::median(&v)
}

/// A client whose transport answers every request with `reply`, metered
/// like the real one so that the time inside the transport can be taken
/// off here too.
pub fn canned_client(reply: &[u8]) -> (CricketClient, Arc<Meter>) {
    let meter = Meter::new(true);
    meter.set_capturing(false);
    let transport = MeteredTransport::new(
        Box::new(CannedTransport::new(reply.to_vec())),
        Arc::clone(&meter),
        None,
    );
    (
        CricketClient::new(Box::new(transport), ENV.flavor(), None),
        meter,
    )
}

/// Client-half ns per call of `call` over a canned reply: call spans less
/// the time inside the (canned) transport, as for the in-situ figure.
pub fn canned_ns(reply: &[u8], iters: usize, mut call: impl FnMut(&mut CricketClient)) -> f64 {
    let (mut client, meter) = canned_client(reply);
    let (_, ns) = time_ns(|| {
        for _ in 0..iters {
            call(&mut client);
        }
    });
    (ns - meter.take_exchanges().wall_ns as f64) / iters as f64
}

/// XDR opaques, record marking and the guest's TCP segmentation, on one
/// dense payload of `len` bytes: ns per MiB through each.
pub fn byte_path(out: &mut Samples, payload: &[u8], reps: usize) {
    let mib = payload.len() as f64 / MIB;
    let per_mib = |ns: f64| ns / mib;

    let mut enc = xdr::XdrEncoder::with_capacity(payload.len() + 8);
    let ns = median_ns(reps, || {
        enc.clear();
        enc.put_opaque(std::hint::black_box(payload));
        std::hint::black_box(enc.len());
    });
    out.add("xdr.opaque_encode_ns_per_mib", per_mib(ns));
    let ns = median_ns(reps, || {
        let mut dec = xdr::XdrDecoder::new(std::hint::black_box(enc.as_slice()));
        let got = dec.get_opaque().expect("decode what was encoded").to_vec();
        assert_eq!(got.len(), payload.len());
        std::hint::black_box(got);
    });
    out.add("xdr.opaque_decode_ns_per_mib", per_mib(ns));

    let mut wire = Vec::with_capacity(payload.len() + 1024);
    let ns = median_ns(reps, || {
        wire.clear();
        oncrpc::RecordWriter::new(&mut wire)
            .write_record(std::hint::black_box(payload))
            .expect("write to memory");
    });
    out.add("oncrpc.record.write_ns_per_mib", per_mib(ns));
    let ns = median_ns(reps, || {
        let got = oncrpc::RecordReader::new(std::io::Cursor::new(&wire))
            .read_record()
            .expect("read what was written")
            .expect("one record");
        assert_eq!(got.len(), payload.len());
        std::hint::black_box(got);
    });
    out.add("oncrpc.record.read_ns_per_mib", per_mib(ns));

    let mtu = ENV.guest().costs.mtu;
    for (label, csum) in [("csum", true), ("nocsum", false)] {
        let mut tx = unikernel::tcp::TcpEndpoint::new(mtu, csum, csum);
        let mut rx = unikernel::tcp::TcpEndpoint::new(mtu, csum, csum);
        unikernel::tcp::handshake(&mut tx, &mut rx);
        let ns = median_ns(reps, || {
            std::hint::black_box(tx.send(std::hint::black_box(payload)));
        });
        out.add(
            format!("unikernel.tcp.send_ns_per_mib.{label}"),
            per_mib(ns),
        );
    }
}

/// `vgpu::Device` called directly: what the device model itself costs per
/// allocation pair, empty launch and MiB copied. Returns the
/// (malloc, free, launch, h2d per MiB, d2h per MiB) ns the service
/// self-times subtract.
pub fn vgpu_direct(out: &mut Samples, seed: u64, payload: &[u8]) -> [f64; 5] {
    use crate::workloads::smallcall::{build_cycle, Op};
    let mut dev = vgpu::Device::a100();
    // The sizes `smallcall_sim` allocates: the allocator's cost grows with
    // size, so the subtraction needs the same mix.
    let sizes: Vec<u64> = build_cycle(seed)
        .iter()
        .filter_map(|op| match op {
            Op::Malloc(size) => Some(*size),
            _ => None,
        })
        .collect();
    let iters = sizes.len();
    let (mut malloc_ns, mut free_ns) = (0.0, 0.0);
    for &size in &sizes {
        let (r, ns) = time_ns(|| dev.malloc(size));
        let (ptr, _) = r.expect("device malloc");
        malloc_ns += ns;
        free_ns += time_ns(|| dev.free(ptr)).1;
    }
    let (malloc_ns, free_ns) = (malloc_ns / iters as f64, free_ns / iters as f64);
    out.add("vgpu.malloc_free_ns", malloc_ns + free_ns);

    let image = cricket_client::CubinBuilder::new()
        .kernel("empty", &[])
        .code(b"empty kernel")
        .build(false);
    let (module, _) = dev.module_load(&image).expect("load module");
    let (func, _) = dev
        .module_get_function(module, "empty")
        .expect("empty kernel");
    let (_, ns) = time_ns(|| {
        for i in 1..=iters {
            dev.launch_kernel(func, vgpu::Dim3::one(), vgpu::Dim3::one(), 0, 0, &[])
                .expect("launch");
            if i % 64 == 0 {
                dev.device_synchronize();
            }
        }
    });
    let launch_ns = ns / iters as f64;
    out.add("vgpu.launch_empty_ns", launch_ns);

    let mib = payload.len() as f64 / MIB;
    let (ptr, _) = dev.malloc(payload.len() as u64).expect("copy buffer");
    let h2d = median_ns(7, || {
        dev.memcpy_htod(ptr, std::hint::black_box(payload))
            .expect("h2d");
    }) / mib;
    let d2h = median_ns(7, || {
        let (back, _) = dev.memcpy_dtoh(ptr, payload.len() as u64).expect("d2h");
        assert_eq!(back.len(), payload.len());
        std::hint::black_box(back);
    }) / mib;
    out.add("vgpu.memcpy_h2d_ns_per_mib", h2d);
    out.add("vgpu.memcpy_d2h_ns_per_mib", d2h);
    [malloc_ns, free_ns, launch_ns, h2d, d2h]
}

/// The null procedure through the client half alone and the server half
/// alone. Returns (client ns, server ns).
pub fn null_call(out: &mut Samples, iters: usize) -> (f64, f64) {
    let sim = SimSetup::new();
    let meter = Meter::new(true);
    let mut client = sim_client(&sim, ENV, &meter);
    client.ping().expect("null call");
    let request = meter.take_requests().pop().expect("recorded null request");
    let reply = meter.last_reply();

    let client_ns = canned_ns(&reply, iters, |c| c.ping().expect("canned null call"));
    out.add("oncrpc.client.null_rtt_ns", client_ns);

    let record = strip_record_marks(&request);
    let mut enc = xdr::XdrEncoder::with_capacity(256);
    let (_, ns) = time_ns(|| {
        for _ in 0..iters {
            sim.rpc
                .handle_record_into(std::hint::black_box(&record), &mut enc)
                .expect("null dispatch");
        }
    });
    let server_ns = ns / iters as f64;
    out.add("oncrpc.server.null_ns", server_ns);
    (client_ns, server_ns)
}

/// A request as written to the transport, with its record marks removed.
pub fn strip_record_marks(wire: &[u8]) -> Vec<u8> {
    oncrpc::RecordReader::new(std::io::Cursor::new(wire))
        .read_record()
        .expect("recorded request is well-formed")
        .expect("recorded request is not empty")
}

/// The same layers used differently, on the simulated Hermit path:
/// coalesced launches, four striped lanes, a 90 %-zero payload, and copies
/// from 4 KiB to 64 MiB. A transfer-planner or encoder change has to hold
/// these while it moves the bulk workloads.
pub fn side_passes(out: &mut Samples, seed: u64, dense: &[u8], launches: usize, quick: bool) {
    let mib_s = |bytes: usize, ns: f64| bytes as f64 / MIB / (ns / 1e9);

    // Coalescing: launches with a sync every 64th, recorded into batches.
    {
        let sim = SimSetup::new();
        let mut client = sim.client(ENV);
        let func = crate::workloads::load_empty_kernel(&mut client);
        client.enable_batching();
        let v0 = sim.clock.now_ns();
        for i in 1..=launches {
            client
                .launch_kernel(func, (1, 1, 1).into(), (1, 1, 1).into(), 0, 0, &[])
                .expect("batched launch");
            if i % 64 == 0 {
                client.device_synchronize().expect("sync");
            }
        }
        client.flush_batch().expect("flush");
        out.add("oncrpc.batch.rpcs_per_op", client.rpcs_per_op());
        out.add(
            "oncrpc.batch.virt_ns_per_launch",
            (sim.clock.now_ns() - v0) as f64 / launches as f64,
        );
    }

    // Four lanes.
    {
        let sim = SimSetup::new();
        let mut client = sim.striped_client(ENV, 4);
        let ptr = client.malloc(dense.len() as u64).expect("buffer");
        client.memcpy_htod(ptr, dense).expect("warm-up copy");
        let v0 = sim.clock.now_ns();
        let (r, wall) = time_ns(|| client.memcpy_htod(ptr, dense));
        r.expect("striped h2d");
        let v1 = sim.clock.now_ns();
        let back = client
            .memcpy_dtoh(ptr, dense.len() as u64)
            .expect("striped d2h");
        let v2 = sim.clock.now_ns();
        assert!(back == dense, "striped copy changed the bytes");
        out.add(
            "oncrpc.stripe.virt_h2d_mib_per_s.l4",
            mib_s(dense.len(), (v1 - v0) as f64),
        );
        out.add(
            "oncrpc.stripe.virt_d2h_mib_per_s.l4",
            mib_s(dense.len(), (v2 - v1) as f64),
        );
        out.add(
            "oncrpc.stripe.wall_h2d_mib_per_s.l4",
            mib_s(dense.len(), wall),
        );
    }

    // Nine pages in ten all zero.
    {
        let mut sparse = dense.to_vec();
        let mut rng = Rng::new(seed, 8);
        for page in sparse.chunks_mut(4096) {
            if rng.below(10) != 0 {
                page.fill(0);
            }
        }
        let sim = SimSetup::new();
        let meter = Meter::new(false);
        let mut client = sim_client(&sim, ENV, &meter);
        let ptr = client.malloc(sparse.len() as u64).expect("buffer");
        client.memcpy_htod(ptr, &sparse).expect("warm-up copy");
        let w0 = meter.bytes_written();
        let (r, wall) = time_ns(|| client.memcpy_htod(ptr, &sparse));
        r.expect("sparse h2d");
        let sent = meter.bytes_written() - w0;
        let back = client.memcpy_dtoh(ptr, sparse.len() as u64).expect("d2h");
        assert!(back == sparse, "sparse copy changed the bytes");
        out.add(
            "oncrpc.sparse.wire_bytes_per_raw_byte.z90",
            sent as f64 / sparse.len() as f64,
        );
        out.add(
            "oncrpc.sparse.wall_mib_per_s.z90",
            mib_s(sparse.len(), wall),
        );
    }

    // Size sweep. 64 MiB is four of the dense payload end to end.
    let sim = SimSetup::new();
    let mut client = sim.client(ENV);
    let largest = SWEEP.iter().map(|(_, n)| *n).max().expect("sweep sizes");
    let ptr = client.malloc(largest as u64).expect("sweep buffer");
    for (label, len) in SWEEP {
        let mut data = Vec::with_capacity(len);
        while data.len() < len {
            data.extend_from_slice(&dense[..dense.len().min(len - data.len())]);
        }
        // Small copies are repeated until 4 MiB have moved.
        let reps = ((4 << 20) / len).clamp(1, 256);
        // `--quick` checks that the numbers exist, not what they are: it
        // skips the warm-up copy, which at 64 MiB costs as much again.
        if !quick {
            client.memcpy_htod(ptr, &data).expect("warm-up copy");
        }
        let v0 = sim.clock.now_ns();
        let (_, wall) = time_ns(|| {
            for _ in 0..reps {
                client.memcpy_htod(ptr, &data).expect("sweep copy");
            }
        });
        let virt = (sim.clock.now_ns() - v0) as f64;
        out.add(
            format!("core.size_sweep.virt_h2d_mib_per_s.{label}"),
            mib_s(len * reps, virt),
        );
        out.add(
            format!("core.size_sweep.wall_h2d_mib_per_s.{label}"),
            mib_s(len * reps, wall),
        );
    }
}

/// A connected loopback pair: (the end a peer writes to, the end a poller
/// watches).
fn socket_pair(listener: &TcpListener) -> (TcpStream, TcpStream) {
    let addr = listener.local_addr().expect("listener address");
    let peer = TcpStream::connect(addr).expect("connect loopback");
    peer.set_nodelay(true).expect("nodelay");
    let (watched, _) = listener.accept().expect("accept loopback");
    (peer, watched)
}

/// A poller watching `n` idle loopback sockets (keys 1..) and one live one
/// (key 0). Returns the idle pairs (kept open), the live socket's peer end
/// and its watched end.
#[allow(clippy::type_complexity)]
fn watched_sockets(
    poller: &polling::Poller,
    listener: &TcpListener,
    n: usize,
) -> (Vec<(TcpStream, TcpStream)>, TcpStream, TcpStream) {
    let idle: Vec<_> = (0..n).map(|_| socket_pair(listener)).collect();
    for (key, (_, watched)) in idle.iter().enumerate() {
        poller.register(watched, key + 1).expect("register");
    }
    let (peer, watched) = socket_pair(listener);
    poller.register(&watched, 0).expect("register");
    (idle, peer, watched)
}

/// `polling::Poller` alone. `wait_ns.<label>`: a peer writes one byte to one
/// of N+1 registered sockets, the rest idle — time from that write to
/// `wait` returning, on the writer's own thread, so this is the readiness
/// scan and no wake-up. `idle_wake_ns_max`: the poller thread has been
/// blocked in `wait` for 100 ms when the peer writes — time until it
/// returns, worst of `wakes` (p99 would need a thousand such waits).
/// `cpu_ns_per_idle_s`: process CPU spent per second of blocking in `wait`
/// with nothing arriving.
pub fn polling(
    out: &mut Samples,
    counts: &[(&str, usize)],
    iters: usize,
    wakes: usize,
    idle: Duration,
) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let mut events = Vec::new();
    for &(label, n) in counts {
        let poller = polling::Poller::new();
        let (_idle, mut peer, mut watched) = watched_sockets(&poller, &listener, n);
        let mut byte = [0u8; 1];
        let mut v = Vec::with_capacity(iters);
        for _ in 0..iters {
            let t0 = Instant::now();
            peer.write_all(&[1]).expect("peer write");
            loop {
                poller
                    .wait(&mut events, Duration::from_secs(1))
                    .expect("wait");
                if events.iter().any(|e| e.key == 0) {
                    break;
                }
            }
            v.push(t0.elapsed().as_nanos() as f64);
            // Registered sockets are nonblocking; the byte is there.
            while watched.read(&mut byte).is_err() {}
        }
        out.add(format!("polling.wait_ns.{label}"), crate::stats::median(&v));
    }

    // Blocking behaviour, with 64 idle sockets.
    let poller = Arc::new(polling::Poller::new());
    let (_idle, mut peer, mut watched) = watched_sockets(&poller, &listener, 64);
    let stop = Arc::new(AtomicBool::new(false));
    let woke_at = Arc::new(AtomicU64::new(0));
    let waiter = std::thread::spawn({
        let (poller, stop, woke_at) =
            (Arc::clone(&poller), Arc::clone(&stop), Arc::clone(&woke_at));
        move || {
            let mut events = Vec::new();
            let mut byte = [0u8; 1];
            while !stop.load(Ordering::SeqCst) {
                poller
                    .wait(&mut events, Duration::from_secs(1))
                    .expect("wait");
                if events.iter().any(|e| e.key == 0) {
                    // Publishes only the timestamp itself.
                    woke_at.store(crate::sys::now_ns(), Ordering::SeqCst);
                    while watched.read(&mut byte).is_err() {}
                }
            }
        }
    });
    let mut worst = 0u64;
    for _ in 0..wakes {
        std::thread::sleep(Duration::from_millis(100));
        woke_at.store(0, Ordering::SeqCst);
        let t0 = crate::sys::now_ns();
        peer.write_all(&[1]).expect("peer write");
        let woke = loop {
            match woke_at.load(Ordering::SeqCst) {
                0 => std::thread::yield_now(),
                t => break t,
            }
        };
        worst = worst.max(woke.saturating_sub(t0));
    }
    out.add("polling.idle_wake_ns_max.idle64", worst as f64);

    let (c0, t0) = (crate::sys::process_cpu_ns(), Instant::now());
    std::thread::sleep(idle);
    let cpu = (crate::sys::process_cpu_ns() - c0) as f64;
    out.add(
        "polling.cpu_ns_per_idle_s.idle64",
        cpu / t0.elapsed().as_secs_f64(),
    );

    stop.store(true, Ordering::SeqCst);
    poller.notify();
    waiter.join().expect("poller thread");
}
