//! Simulated client↔server transport.
//!
//! [`SimTransport`] implements [`oncrpc::Transport`] for the figure
//! harnesses: the client's RPC bytes are (1) really carried through the
//! functional guest TCP/virtio data path — segmentation, checksum,
//! host-side TSO splitting, reassembly — and (2) timed with the
//! environment's cost model against the shared virtual clock. The Cricket
//! service runs in-process and charges its own execution time, so one call
//! through this transport advances the clock by exactly the modeled
//! client→wire→server→wire→client round trip. Both legs stream through
//! send buffers of one MSS. The server half is the reactor's connection
//! engine ([`oncrpc::Conn`], [`oncrpc::Replies`]) on the virtual clock,
//! under an in-flight budget of one: each landed segment's payload is
//! pushed into it (a plain H2D's payload on into the device block), every
//! call is answered from the engine's record buffer as its last segment
//! lands, a call behind a queued reply waits as unparsed bytes, and a
//! reply is carried down one MSS each time the client reads with nothing
//! left to read (DESIGN.md §6).

use oncrpc::record::{RecordMarks, MAX_RECORD};
use oncrpc::Transport;
use oncrpc::{Calls, Conn, ProcClass, ReactorConfig, Replies, Window};
use oncrpc::{RpcError, RpcResult, RpcServer};
use simnet::{NetPath, SimClock};
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::Duration;
use unikernel::features::VirtioFeatures;
use unikernel::tcp::{handshake, Segment, TcpEndpoint};
use unikernel::virtio_net::{deliver_fixed, deliver_mrg, guest_tx, host_segment, GSO_MAX};
use unikernel::Guest;
use xdr::XdrEncoder;

/// Transport-level telemetry.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TransportStats {
    /// RPC round trips completed.
    pub round_trips: u64,
    /// Wire segments carried, both directions.
    pub wire_segments: u64,
    /// Request payload bytes.
    pub bytes_sent: u64,
    /// Reply payload bytes.
    pub bytes_received: u64,
}

/// A receiving endpoint dropped a segment.
fn rejected() -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        "segment rejected (checksum or sequencing)",
    )
}

fn rpc_to_io(e: RpcError) -> io::Error {
    io::Error::other(format!("in-process server error: {e}"))
}

/// Carry one send buffer's `bytes` from `from` through the virtio machinery,
/// handing each wire segment to the receiver (`land`) as its driver delivers
/// it. Returns the number of wire segments, or why one was refused.
fn carry(
    from: &mut TcpEndpoint,
    from_features: VirtioFeatures,
    mut to_posted: Option<&mut Vec<u8>>,
    wire_mss: usize,
    bytes: &[u8],
    mut land: impl FnMut(&Segment) -> io::Result<()>,
) -> io::Result<u64> {
    let mut wire_count = 0u64;
    for segment in from.segments(bytes) {
        for seg in host_segment(guest_tx(from_features, segment, wire_mss)) {
            wire_count += 1;
            // RX buffer handling (copies are charged by the cost model;
            // here we exercise the functional path).
            let payload = match to_posted.as_deref_mut() {
                None => deliver_mrg(seg.payload, 4096).0,
                Some(posted) => deliver_fixed(seg.payload, posted).0,
            };
            land(&Segment { payload, ..seg })?;
        }
    }
    Ok(wire_count)
}

/// The server half's calls: the in-process server, the clock they are
/// charged to, and the queue their replies wait in.
struct Server {
    rpc: Arc<RpcServer>,
    path: NetPath,
    clock: Arc<SimClock>,
    /// Pooled reply encoder, and the buffer it holds while its own waits in
    /// `replies`.
    enc: XdrEncoder,
    spare: Vec<u8>,
    replies: Replies,
    /// Payload bytes copied into the guest socket's send buffer and the
    /// engine's record buffer ([`Transport::bytes_copied`]).
    copied: u64,
    stats: TransportStats,
}

impl Calls for Server {
    /// A call is in flight until its reply is carried down whole, so the
    /// next one runs only after that: into the encoder's own buffer again,
    /// and no send buffer carries parts of two replies.
    fn in_flight(&self) -> usize {
        usize::from(!self.replies.is_empty())
    }

    fn call(&mut self, _: ProcClass, record: &mut Vec<u8>, wire_up: usize) -> RpcResult<()> {
        self.answer(record, None, wire_up)
    }

    fn server(&self) -> Option<&Arc<RpcServer>> {
        Some(&self.rpc)
    }

    fn landed(&mut self, _: ProcClass, r: &mut Vec<u8>, w: Window, up: usize) -> RpcResult<()> {
        self.answer(r, Some(w), up)
    }
}

impl Server {
    /// Execute a call as it lands, straight out of the engine's buffer
    /// (service methods charge the clock themselves), move its reply into
    /// the queue by buffer swap, and charge the network legs with this
    /// call's own lengths.
    fn answer(&mut self, record: &[u8], w: Option<Window>, wire_up: usize) -> RpcResult<()> {
        self.copied += record.len() as u64;
        self.rpc.serve_into(record, w, &mut self.enc)?;
        let spare = XdrEncoder::from_sink(std::mem::take(&mut self.spare));
        let reply = std::mem::replace(&mut self.enc, spare).into_inner();
        let now = Duration::from_nanos(self.clock.now_ns());
        let reply_wire = self.replies.push(reply, now);
        let timing = self.path.rpc_round(wire_up, reply_wire, 0);
        self.clock.advance(timing.total_ns());
        self.stats.round_trips += 1;
        self.stats.bytes_sent += wire_up as u64;
        self.stats.bytes_received += reply_wire as u64;
        Ok(())
    }
}

/// The server's connection engine: one call in flight, no classifier.
fn engine() -> Conn {
    Conn::new(&ReactorConfig {
        max_session_queue: 1,
        ..ReactorConfig::default()
    })
}

/// The simulated path from a guest to an in-process Cricket server.
pub struct SimTransport {
    /// The server's connection engine and what its calls run against.
    conn: Conn,
    server: Server,
    guest: Guest,
    client_ep: TcpEndpoint,
    server_ep: TcpEndpoint,
    /// The guest socket's send buffer: at most one MSS (`send_up`).
    client_tx: Vec<u8>,
    /// Where the guest's writes stand in the record-marked request stream.
    client_marks: RecordMarks,
    /// The server socket's send buffer: one MSS of the replies.
    server_tx: Vec<u8>,
    /// How much of `client_ep.readable()` the client has read already: the
    /// reply is served from where it was reassembled, never restaged.
    read_off: usize,
    /// The one posted receive buffer a guest without `MRG_RXBUF` stages
    /// every packet in (reused; see [`deliver_fixed`]).
    rx_posted: Vec<u8>,
    /// Set by a rejected segment or a failed call: every later call fails
    /// so.
    poisoned: Option<String>,
}

impl SimTransport {
    /// Connect a guest environment to an RPC server over the modeled path.
    /// `clock` must be the same clock the server's service charges.
    pub fn new(server: Arc<RpcServer>, guest: Guest, clock: Arc<SimClock>) -> Self {
        let path = NetPath::to_gpu_node(guest.costs.clone());
        // The guest TCP layer sees super-segment MSS when TSO is on (the
        // host splits); otherwise it segments at the link MTU itself.
        let client_mtu = if guest.costs.offloads.tso {
            GSO_MAX + 40
        } else {
            guest.costs.mtu
        };
        let mut client_ep = TcpEndpoint::new(
            client_mtu,
            !guest.costs.offloads.tx_csum,
            !guest.costs.offloads.rx_csum,
        );
        // The GPU node is native Linux: full offloads.
        let mut server_ep = TcpEndpoint::new(GSO_MAX + 40, false, false);
        handshake(&mut client_ep, &mut server_ep);
        Self {
            conn: engine(),
            server: Server {
                rpc: server,
                path,
                clock,
                enc: XdrEncoder::with_capacity(4096),
                spare: Vec::new(),
                replies: Replies::default(),
                copied: 0,
                stats: TransportStats::default(),
            },
            guest,
            client_tx: Vec::with_capacity(client_ep.mss),
            server_tx: vec![0; server_ep.mss],
            client_ep,
            server_ep,
            client_marks: RecordMarks::new(MAX_RECORD),
            read_off: 0,
            rx_posted: Vec::new(),
            poisoned: None,
        }
    }

    /// Fail closed after a rejected segment or a failed call: the sender's
    /// sequence space has moved past bytes the receiver never accepted, or
    /// the server closed the connection, so no later reply could be
    /// delivered. Discard all buffered state; refuse from now on with the
    /// same error.
    fn poison(&mut self, why: impl std::fmt::Display) -> io::Error {
        let what = format!("{why}; transport poisoned");
        self.poisoned = Some(what.clone());
        self.client_tx.clear();
        self.conn = engine();
        self.server.replies = Replies::default();
        self.read_off = 0;
        self.client_ep.consume(usize::MAX);
        io::Error::new(io::ErrorKind::InvalidData, what)
    }

    fn check(&self) -> io::Result<()> {
        match &self.poisoned {
            None => Ok(()),
            Some(what) => Err(io::Error::new(io::ErrorKind::InvalidData, what.clone())),
        }
    }

    /// Stage request bytes in the guest socket's send buffer of one MSS and
    /// carry it up each time it fills and at the record's `end`, so segments
    /// fall at `chunks(mss)` from the start of every record. Each segment's
    /// payload is pushed into the engine as it lands (the GPU node
    /// negotiates `MRG_RXBUF`: no posted buffer).
    fn send_up(&mut self, mut bytes: &[u8], end: bool) -> io::Result<()> {
        let (tx, mss, features) = (&mut self.client_tx, self.client_ep.mss, self.guest.features);
        let wire_mss = self.guest.costs.mtu.saturating_sub(40).max(1);
        let (client, server_ep) = (&mut self.client_ep, &mut self.server_ep);
        let (conn, server) = (&mut self.conn, &mut self.server);
        loop {
            let n = bytes.len().min(mss - tx.len());
            tx.extend_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
            if tx.len() == mss || (end && bytes.is_empty() && !tx.is_empty()) {
                let land =
                    |seg: &Segment| match server_ep.receive_with(seg, |p| conn.push(p, server)) {
                        None => Err(rejected()),
                        Some(pushed) => pushed.map_err(rpc_to_io),
                    };
                let carried = carry(client, features, None, wire_mss, tx, land);
                tx.clear();
                server.stats.wire_segments += carried?;
            }
            if bytes.is_empty() {
                return Ok(());
            }
        }
    }

    /// Carry the next MSS of the replies queued down: their wire bytes into
    /// the server socket's send buffer, and from there into the client
    /// endpoint behind whatever the client has not read yet. A written
    /// reply's buffer goes back into the encoder. Returns false when no
    /// reply is queued.
    fn carry_down(&mut self) -> io::Result<bool> {
        let server = &mut self.server;
        if server.replies.is_empty() {
            return Ok(false);
        }
        let now = Duration::from_nanos(server.clock.now_ns());
        let (enc, spare) = (&mut server.enc, &mut server.spare);
        let mut window = &mut self.server_tx[..];
        server.replies.flush(&mut window, now, |reply| {
            *spare = std::mem::replace(enc, XdrEncoder::from_sink(reply)).into_inner();
        })?;
        let filled = self.server_ep.mss - window.len();
        let features = VirtioFeatures::linux_driver();
        let wire_mss = self.guest.costs.mtu.saturating_sub(40).max(1);
        let client = &mut self.client_ep;
        let posted = (!self.guest.costs.virtq.mrg_rxbuf).then_some(&mut self.rx_posted);
        let land = |seg: &Segment| {
            if client.receive(seg) {
                Ok(())
            } else {
                Err(rejected())
            }
        };
        match carry(
            &mut self.server_ep,
            features,
            posted,
            wire_mss,
            &self.server_tx[..filled],
            land,
        ) {
            Ok(segments) => self.server.stats.wire_segments += segments,
            Err(why) => return Err(self.poison(why)),
        }
        Ok(true)
    }
}

impl Write for SimTransport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.check()?;
        // The one send-side copy: into the guest socket's send buffer, the
        // analogue of a real socket's copy into the kernel.
        self.server.copied += buf.len() as u64;
        let mut rest = buf;
        while !rest.is_empty() {
            let (len, end) = self.client_marks.next(rest).map_err(|e| self.poison(e))?;
            let bytes;
            (bytes, rest) = rest.split_at(len);
            self.send_up(bytes, end.is_some())
                .map_err(|why| self.poison(why))?;
        }
        Ok(buf.len())
    }

    /// Every call was answered as it landed; a reply waits for `read`.
    fn flush(&mut self) -> io::Result<()> {
        self.check()
    }
}

impl Read for SimTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.read_off >= self.client_ep.available() {
            self.client_ep.consume(usize::MAX);
            self.read_off = 0;
            // The client waits for a reply: once the last one is carried
            // down whole, run what arrived behind it, then carry the next
            // MSS down.
            if self.server.replies.is_empty() {
                self.check()?;
                let resumed = self.conn.resume(&mut self.server);
                resumed.map_err(|e| self.poison(rpc_to_io(e)))?;
            }
            if !self.carry_down()? {
                return Ok(0); // clean EOF: nothing outstanding
            }
        }
        let avail = &self.client_ep.readable()[self.read_off..];
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.read_off += n;
        Ok(n)
    }
}

impl Transport for SimTransport {
    fn describe(&self) -> String {
        format!("sim:{}", self.guest.costs.name)
    }

    fn bytes_copied(&self) -> u64 {
        self.server.copied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{make_rpc_server, CricketServer, ServerConfig};
    use cricket_proto::CricketV1Client;
    use unikernel::GuestKind;

    /// The top bit of a record mark, for building a hostile mark by hand.
    const LAST_FRAGMENT: u32 = 1 << 31;

    fn sim_server() -> (Arc<RpcServer>, Arc<SimClock>) {
        let clock = SimClock::new();
        let server = CricketServer::new(ServerConfig::default(), Arc::clone(&clock));
        (make_rpc_server(server), clock)
    }

    fn client_for(kind: GuestKind) -> (CricketV1Client, Arc<SimClock>) {
        let (rpc, clock) = sim_server();
        let t = SimTransport::new(rpc, Guest::new(kind), Arc::clone(&clock));
        (CricketV1Client::new(Box::new(t)), clock)
    }

    /// A handle on the transport that the test keeps after the client has
    /// boxed its twin, to read `stats` and reach the endpoints.
    #[derive(Clone)]
    struct Shared(Arc<parking_lot::Mutex<SimTransport>>);

    impl Read for Shared {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.0.lock().read(buf)
        }
    }

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.0.lock().flush()
        }
    }

    impl Transport for Shared {}

    fn shared_client(
        rpc: &Arc<RpcServer>,
        kind: GuestKind,
        clock: &Arc<SimClock>,
    ) -> (CricketV1Client, Shared) {
        let t = SimTransport::new(Arc::clone(rpc), Guest::new(kind), Arc::clone(clock));
        let shared = Shared(Arc::new(parking_lot::Mutex::new(t)));
        (CricketV1Client::new(Box::new(shared.clone())), shared)
    }

    /// Passes each write on in pieces of 1, 2, … `max` bytes in turn (whole
    /// when `max` is 0), so record marks split across writes, and keeps a
    /// copy of every byte read.
    struct Split {
        inner: Shared,
        max: usize,
        writes: usize,
        seen: Arc<parking_lot::Mutex<Vec<u8>>>,
    }

    impl Read for Split {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.seen.lock().extend_from_slice(&buf[..n]);
            Ok(n)
        }
    }

    impl Write for Split {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = match self.max {
                0 => buf.len(),
                max => buf.len().min(1 + self.writes % max),
            };
            self.writes += 1;
            self.inner.write(&buf[..n])
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    impl Transport for Split {}

    /// Mixed small calls with odd-length copies, one 3 MiB copy and one
    /// odd-length copy each way, from a fixed seed. Returns the final
    /// virtual time and the transport's counters.
    fn seeded_script(kind: GuestKind) -> (u64, TransportStats) {
        let (now, stats, _) = scripted(kind, 0);
        (now, stats)
    }

    /// [`seeded_script`] through [`Split`] writes of at most `max_write`
    /// bytes; also returns every reply byte the client read.
    fn scripted(kind: GuestKind, max_write: usize) -> (u64, TransportStats, Vec<u8>) {
        let (rpc, clock) = sim_server();
        let t = SimTransport::new(Arc::clone(&rpc), Guest::new(kind), Arc::clone(&clock));
        let shared = Shared(Arc::new(parking_lot::Mutex::new(t)));
        let seen = Arc::default();
        let mut c = CricketV1Client::new(Box::new(Split {
            inner: shared.clone(),
            max: max_write,
            writes: 0,
            seen: Arc::clone(&seen),
        }));
        let mut rng = 0x5eed_u64;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        let image = vgpu::module::CubinBuilder::new()
            .kernel("empty", &[])
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
        let one = cricket_proto::RpcDim3 { x: 1, y: 1, z: 1 };
        let buf = c.cuda_malloc(&(4 << 20)).unwrap().into_result().unwrap();
        let roundtrip = |c: &mut CricketV1Client, data: &[u8]| {
            assert_eq!(c.cuda_memcpy_htod(&buf, data).unwrap(), 0);
            let back = c.cuda_memcpy_dtoh(&buf, &(data.len() as u64)).unwrap();
            assert_eq!(back.into_result().unwrap(), data);
        };
        for _ in 0..96 {
            match next() % 6 {
                0 => assert_eq!(c.cuda_get_device_count().unwrap().into_result(), Ok(4)),
                1 => c.rpc_null().unwrap(),
                2 => {
                    let p = c.cuda_malloc(&(1 + next() % 70_000)).unwrap();
                    assert_eq!(c.cuda_free(&p.into_result().unwrap()).unwrap(), 0);
                }
                3 => assert_eq!(
                    c.cuda_launch_kernel(&func, &one, &one, &0, &0, &[])
                        .unwrap(),
                    0
                ),
                4 => assert_eq!(c.cuda_device_synchronize().unwrap(), 0),
                _ => {
                    let data: Vec<u8> = (0..1 + next() % 30_000).map(|i| i as u8).collect();
                    roundtrip(&mut c, &data);
                }
            }
        }
        let big: Vec<u8> = (0..3u32 << 20).map(|i| (i % 251) as u8).collect();
        roundtrip(&mut c, &big);
        roundtrip(&mut c, &big[..777_777]);
        assert_eq!(c.cuda_device_synchronize().unwrap(), 0);
        let stats = shared.0.lock().server.stats;
        let replies = std::mem::take(&mut *seen.lock());
        (clock.now_ns(), stats, replies)
    }

    /// Writes of 1–7 bytes split record marks across writes; the guest
    /// socket still finds each record's end, so the same segments are
    /// carried at the same moments: clock, counters and every reply byte
    /// equal the unsplit run.
    #[test]
    fn split_writes_carry_the_same_segments() {
        for kind in [GuestKind::RustyHermit, GuestKind::RustyHermitTso] {
            let (now, stats, replies) = scripted(kind, 7);
            let whole = scripted(kind, 0);
            assert_eq!((now, stats), (whole.0, whole.1), "{kind:?}");
            assert!(replies == whole.2, "{kind:?}: reply bytes differ");
        }
    }

    /// No stage holds a whole record: a 16 MiB request is copied once into
    /// the guest send buffer, its head (call header, `dst` and the length
    /// word) into the engine's buffer while its payload lands in the device
    /// block, and never into the server endpoint's own; a 16 MiB reply
    /// reaches the client endpoint one server MSS at a time; after a 16 MiB
    /// copy each way both send buffers are still one MSS.
    #[test]
    fn staging_is_bounded_by_one_mss_each_way() {
        use cricket_proto::{cricket_v1, CRICKET_CUDA, CRICKET_V1};
        let request = |xid: u32, proc: u32, put: &dyn Fn(&mut xdr::XdrEncoder)| {
            let mut enc = xdr::XdrEncoder::new();
            let call = oncrpc::CallBody::new(CRICKET_CUDA, CRICKET_V1, proc);
            enc.put(&oncrpc::RpcMessage::call(xid, call));
            put(&mut enc);
            let mut wire = Vec::new();
            oncrpc::record::write_record(&mut wire, enc.as_slice(), oncrpc::DEFAULT_MAX_FRAGMENT)
                .unwrap();
            (enc.as_slice().to_vec(), wire)
        };
        for kind in [GuestKind::RustyHermit, GuestKind::RustyHermitTso] {
            let (rpc, clock) = sim_server();
            let (mut c, shared) = shared_client(&rpc, kind, &clock);
            let ptr = c.cuda_malloc(&(16 << 20)).unwrap().into_result().unwrap();
            let data: Vec<u8> = (0..16u32 << 20).map(|i| (i % 251) as u8).collect();

            let (payload, wire) = request(9, cricket_v1::CUDA_MEMCPY_HTOD, &|enc| {
                enc.put_u64(ptr);
                enc.put_opaque(&data);
            });
            let mut t = shared.0.lock();
            let copied = t.bytes_copied();
            t.write_all(&wire).unwrap();
            assert_eq!(t.server_ep.available(), 0, "{kind:?}");
            let staged = (wire.len() + payload.len() - data.len()) as u64;
            assert_eq!(t.bytes_copied() - copied, staged, "{kind:?}");
            let mut reply = [0u8; 64];
            while t.read(&mut reply).unwrap() != 0 {}

            // The reply leg: read in 64 KiB pieces, the client endpoint never
            // holds more than one server MSS of a 16 MiB D2H reply.
            let (_, wire) = request(10, cricket_v1::CUDA_MEMCPY_DTOH, &|enc| {
                enc.put_u64(ptr);
                enc.put_u64(16 << 20);
            });
            t.write_all(&wire).unwrap();
            let (mut back, mut chunk, mut held) = (Vec::new(), vec![0u8; 64 << 10], 0);
            loop {
                match t.read(&mut chunk).unwrap() {
                    0 => break,
                    n => back.extend_from_slice(&chunk[..n]),
                }
                held = held.max(t.client_ep.available());
            }
            assert!(
                held <= t.server_ep.mss,
                "{kind:?}: the client held {held} B"
            );
            let back = oncrpc::record::read_record(&mut &back[..], MAX_RECORD).unwrap();
            assert!(back.unwrap()[32..] == data, "{kind:?}: reply bytes differ");
            drop(t);

            let back = c.cuda_memcpy_dtoh(&ptr, &(16 << 20)).unwrap();
            assert!(back.into_result().unwrap() == data, "{kind:?}");
            let t = shared.0.lock();
            assert!(t.client_tx.capacity() <= t.client_ep.mss, "{kind:?}");
            assert!(t.server_tx.capacity() <= t.server_ep.mss, "{kind:?}");
        }
    }

    /// A record mark announcing more than `MAX_RECORD` is refused as it
    /// arrives: the write fails, the transport is poisoned, and nothing
    /// reached the server: no round trip, no virtual time.
    #[test]
    fn an_oversized_record_mark_poisons_the_transport() {
        let (rpc, clock) = sim_server();
        let (mut c, shared) = shared_client(&rpc, GuestKind::RustyHermit, &clock);
        c.rpc_null().unwrap();
        let mut t = shared.0.lock();
        let before = (t.server.stats.round_trips, clock.now_ns());
        let mark = (LAST_FRAGMENT | (MAX_RECORD as u32 + 1)).to_be_bytes();
        t.write_all(&mark[..2]).unwrap();
        let err = t.write(&mark[2..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds maximum"), "{err}");
        assert_eq!(t.flush().unwrap_err().to_string(), err.to_string());
        assert_eq!(t.write(&[0; 8]).unwrap_err().to_string(), err.to_string());
        assert_eq!((t.server.stats.round_trips, clock.now_ns()), before);
        assert!(t.client_tx.capacity() <= t.client_ep.mss);
    }

    /// A well-framed record the server refuses (a REPLY where a call
    /// belongs) fails the write that completes it, since the call runs as
    /// it lands; `flush`, `read` and any later write fail the same way, and
    /// no round trip or virtual time is charged.
    #[test]
    fn a_call_the_server_refuses_poisons_the_transport_where_it_lands() {
        let (rpc, clock) = sim_server();
        let (mut c, shared) = shared_client(&rpc, GuestKind::RustyHermit, &clock);
        c.rpc_null().unwrap();
        let mut t = shared.0.lock();
        let before = (t.server.stats.round_trips, clock.now_ns());
        let mut enc = xdr::XdrEncoder::new();
        enc.put(&oncrpc::RpcMessage::reply(5, oncrpc::ReplyBody::success()));
        let mut wire = Vec::new();
        oncrpc::record::write_record(&mut wire, enc.as_slice(), 1 << 20).unwrap();
        let (head, last) = wire.split_at(wire.len() - 1);
        t.write_all(head).unwrap();
        let err = t.write(last).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("in-process server error"), "{err}");
        assert_eq!(t.flush().unwrap_err().to_string(), err.to_string());
        assert_eq!(
            t.read(&mut [0; 8]).unwrap_err().to_string(),
            err.to_string()
        );
        assert_eq!(t.write(&[0; 8]).unwrap_err().to_string(), err.to_string());
        assert_eq!((t.server.stats.round_trips, clock.now_ns()), before);
    }

    /// The functional path may change how bytes move, never what the cost
    /// model or the wire sees: final virtual time and transport counters
    /// per guest kind, captured at the commit before the borrowed-segment
    /// data path.
    #[test]
    fn seeded_script_matches_constants_of_the_owning_pipeline() {
        let expected = [
            (GuestKind::NativeLinux, 4_915_682, 1294),
            (GuestKind::LinuxVm, 10_084_496, 1294),
            (GuestKind::Unikraft, 20_384_975, 1253),
            (GuestKind::RustyHermit, 16_388_295, 1253),
            (GuestKind::RustyHermitLegacy, 20_215_380, 1253),
            (GuestKind::RustyHermitTso, 12_464_295, 1294),
        ];
        for (kind, now_ns, wire_segments) in expected {
            let (now, stats) = seeded_script(kind);
            assert_eq!(now, now_ns, "{kind:?}: final virtual time");
            let want = TransportStats {
                round_trips: 139,
                wire_segments,
                bytes_sent: 4_254_084,
                bytes_received: 4_250_800,
            };
            assert_eq!(stats, want, "{kind:?}");
        }
    }

    #[test]
    fn a_rejected_segment_poisons_the_transport() {
        let (rpc, clock) = sim_server();
        let (mut c, shared) = shared_client(&rpc, GuestKind::RustyHermit, &clock);
        let (mut observer, _) = shared_client(&rpc, GuestKind::NativeLinux, &clock);
        let mut total_calls = || {
            observer
                .srv_get_stats()
                .unwrap()
                .get("server.calls")
                .unwrap()
        };
        c.rpc_null().unwrap();

        // The reply direction loses sync; the request direction still works.
        shared.0.lock().client_ep.rcv_nxt ^= 1;
        let before = total_calls();
        let first = c.cuda_malloc(&4096).unwrap_err().to_string();
        assert!(first.contains("segment rejected"), "{first}");
        let after_first = total_calls();
        assert_eq!(
            after_first,
            before + 1,
            "the call ran; only its reply was lost"
        );

        // From here on nothing is carried up, so nothing executes.
        let second = c.cuda_malloc(&4096).unwrap_err().to_string();
        assert_eq!(second, first);
        assert_eq!(c.rpc_null().unwrap_err().to_string(), first);
        assert_eq!(
            total_calls(),
            after_first,
            "refused before the server saw them"
        );
        let t = shared.0.lock();
        assert_eq!(t.client_ep.available() + t.server_ep.available(), 0);
        assert!(t.client_tx.is_empty() && t.read_off == 0);
    }

    /// One `flush` may carry several records. Each round trip is charged
    /// with its own reply's length although the replies now share the
    /// client endpoint's buffer until read, and partial reads walk that
    /// buffer in order: bytes, clock and counters equal one call at a time.
    /// An inline-class call between two parked ones runs inline when sent
    /// alone and behind the reply before it when pipelined, to the same
    /// effect.
    #[test]
    fn records_sharing_a_flush_cost_and_read_as_one_at_a_time() {
        use cricket_proto::{cricket_v1, CRICKET_CUDA, CRICKET_V1};
        let request = |xid: u32, proc: u32, args: &[u64]| {
            let mut enc = xdr::XdrEncoder::new();
            let call = oncrpc::CallBody::new(CRICKET_CUDA, CRICKET_V1, proc);
            enc.put(&oncrpc::RpcMessage::call(xid, call));
            args.iter().for_each(|&a| enc.put_u64(a));
            let mut wire = Vec::new();
            oncrpc::record::write_record(&mut wire, enc.as_slice(), 1 << 20).unwrap();
            wire
        };
        assert!(cricket_v1::is_inline(cricket_v1::CUDA_GET_DEVICE_COUNT));
        assert!(!cricket_v1::is_inline(cricket_v1::CUDA_MEMCPY_DTOH));
        let run = |pipelined: bool| {
            let (rpc, clock) = sim_server();
            let (mut c, shared) = shared_client(&rpc, GuestKind::RustyHermit, &clock);
            let buf = c.cuda_malloc(&70_000).unwrap().into_result().unwrap();
            let data: Vec<u8> = (0..50_001u32).map(|i| (i % 253) as u8).collect();
            assert_eq!(c.cuda_memcpy_htod(&buf, &data).unwrap(), 0);
            let calls = [
                request(7, cricket_v1::CUDA_MEMCPY_DTOH, &[buf, 50_001]),
                request(8, cricket_v1::CUDA_GET_DEVICE_COUNT, &[]),
                request(9, cricket_v1::CUDA_MEMCPY_DTOH, &[buf, 3]),
            ];

            let mut t = shared.0.lock();
            let mut replies = Vec::new();
            let mut drain = |t: &mut SimTransport| {
                let mut chunk = [0u8; 4099];
                loop {
                    match t.read(&mut chunk).unwrap() {
                        0 => break,
                        n => replies.extend_from_slice(&chunk[..n]),
                    }
                }
            };
            for call in &calls {
                t.write_all(call).unwrap();
                if !pipelined {
                    drain(&mut t);
                }
            }
            drain(&mut t);
            assert_eq!(t.client_ep.available() + t.read_off, 0, "drained");

            let mut wire = &replies[..];
            let mut next = || {
                oncrpc::record::read_record(&mut wire, 1 << 20)
                    .unwrap()
                    .unwrap()
            };
            let (first, second, third) = (next(), next(), next());
            assert!(wire.is_empty());
            assert_eq!(first[..4], 7u32.to_be_bytes(), "replies keep call order");
            assert_eq!(second[..4], 8u32.to_be_bytes());
            assert_eq!(third[..4], 9u32.to_be_bytes());
            assert!(first.len() > 50_001 && first.ends_with(&[data[50_000], 0, 0, 0]));
            assert!(third.ends_with(&[data[0], data[1], data[2], 0]));
            (replies, clock.now_ns(), t.server.stats)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn calls_work_and_advance_virtual_time() {
        let (mut c, clock) = client_for(GuestKind::RustyHermit);
        assert_eq!(clock.now_ns(), 0);
        let count = c.cuda_get_device_count().unwrap().into_result().unwrap();
        assert_eq!(count, 4);
        let t1 = clock.now_ns();
        assert!(t1 > 20_000, "one hermit call should cost > 20 µs, got {t1}");
        c.rpc_null().unwrap();
        assert!(clock.now_ns() > t1);
    }

    #[test]
    fn native_calls_are_faster_than_hermit() {
        let (mut native, cn) = client_for(GuestKind::NativeLinux);
        let (mut hermit, ch) = client_for(GuestKind::RustyHermit);
        for _ in 0..10 {
            native.cuda_get_device_count().unwrap();
            hermit.cuda_get_device_count().unwrap();
        }
        assert!(
            ch.now_ns() > 2 * cn.now_ns(),
            "hermit {} vs native {}",
            ch.now_ns(),
            cn.now_ns()
        );
    }

    #[test]
    fn memory_roundtrip_through_full_stack() {
        let (mut c, _clock) = client_for(GuestKind::Unikraft);
        let ptr = c.cuda_malloc(&(1 << 20)).unwrap().into_result().unwrap();
        let data: Vec<u8> = (0..1 << 20).map(|i| (i * 131 % 251) as u8).collect();
        assert_eq!(c.cuda_memcpy_htod(&ptr, &data).unwrap(), 0);
        let back = c
            .cuda_memcpy_dtoh(&ptr, &(data.len() as u64))
            .unwrap()
            .into_result()
            .unwrap();
        assert_eq!(back, data);
        assert_eq!(c.cuda_free(&ptr).unwrap(), 0);
    }

    #[test]
    fn bulk_transfer_uses_many_wire_segments() {
        let clock = SimClock::new();
        let server = CricketServer::new(ServerConfig::default(), Arc::clone(&clock));
        let rpc = make_rpc_server(server);
        let t = SimTransport::new(rpc, Guest::new(GuestKind::RustyHermit), Arc::clone(&clock));
        let mut c = CricketV1Client::new(Box::new(t));
        let ptr = c.cuda_malloc(&(4 << 20)).unwrap().into_result().unwrap();
        let data = vec![9u8; 4 << 20];
        c.cuda_memcpy_htod(&ptr, &data).unwrap();
        // 4 MiB over ~8960-byte wire segments ≈ 470 segments minimum.
        // (Transport stats live inside the boxed transport; assert via time:
        // a 4 MiB hermit H2D at ~1 GiB/s must cost at least 3 ms.)
        assert!(clock.now_ns() > 3_000_000, "clock={}", clock.now_ns());
    }

    #[test]
    fn timing_scales_with_payload_size() {
        let (mut c, clock) = client_for(GuestKind::LinuxVm);
        let ptr = c.cuda_malloc(&(8 << 20)).unwrap().into_result().unwrap();
        let t0 = clock.now_ns();
        c.cuda_memcpy_htod(&ptr, &vec![1u8; 1 << 20]).unwrap();
        let small = clock.now_ns() - t0;
        let t1 = clock.now_ns();
        c.cuda_memcpy_htod(&ptr, &vec![1u8; 8 << 20]).unwrap();
        let big = clock.now_ns() - t1;
        assert!(big > 4 * small, "big={big} small={small}");
    }
}
