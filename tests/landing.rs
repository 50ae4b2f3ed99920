//! Integration: a `CUDA_MEMCPY_HTOD` payload lands in device memory as it
//! arrives (DESIGN §6) and keeps the order the whole-record path keeps
//! (DESIGN §7). Four rows over the reactor, each run under every seed of
//! `CI_SEEDS` (a failure names its seed): (a) the replay lookup precedes the
//! window, (b) the window waits for the calls ahead of it, (c) a connection
//! lost mid-payload runs nothing and releases its admission, (d) a refused
//! window takes no byte and answers as the serial server does. And every
//! landed piece re-checks ownership under the device lock.

mod harness;

use cricket_repro::oncrpc::record::{read_record, write_record, MAX_RECORD};
use cricket_repro::oncrpc::{CallBody, OpaqueAuth, RpcMessage, TcpTransport};
use cricket_repro::oncrpc::{Transport, DEFAULT_MAX_FRAGMENT};
use cricket_repro::prelude::*;
use cricket_repro::proto::{cricket_v1, CricketV1Client, CRICKET_CUDA, CRICKET_V1};
use cricket_repro::server::{QosServerConfig, ServeHandle, ServerConfig};
use cricket_repro::vgpu::CudaCode;
use cricket_repro::xdr::{Xdr, XdrEncoder};
use harness::{for_each_seed, quiescent, TOKEN};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The client token of another tenant.
const OTHER: u64 = 0x0DD_0002;

/// A call record of `proc` from `token` (`AUTH_NONE` without one), its
/// arguments put by `args`. Its xid is `xid` past those a client of the
/// same token uses, which the replay cache would answer.
fn record(xid: u32, token: Option<u64>, proc: u32, args: impl FnOnce(&mut XdrEncoder)) -> Vec<u8> {
    let (xid, mut call) = (xid | 1 << 31, CallBody::new(CRICKET_CUDA, CRICKET_V1, proc));
    if let Some(token) = token {
        call.cred = OpaqueAuth::client_token(token);
    }
    let mut enc = XdrEncoder::new();
    RpcMessage::call(xid, call).encode(&mut enc);
    args(&mut enc);
    let mut wire = Vec::new();
    write_record(&mut wire, enc.as_slice(), DEFAULT_MAX_FRAGMENT).unwrap();
    wire
}

/// A `CUDA_MEMCPY_HTOD` of `data` to `dst`.
fn htod(xid: u32, token: Option<u64>, dst: u64, data: &[u8]) -> Vec<u8> {
    record(xid, token, cricket_v1::CUDA_MEMCPY_HTOD, |enc| {
        enc.put_u64(dst);
        enc.put_opaque(data);
    })
}

/// The next reply on `s`, and the status word it ends in.
fn reply(s: &mut TcpStream) -> (Vec<u8>, i32) {
    let reply = read_record(s, MAX_RECORD).unwrap().expect("a reply");
    let status = i32::from_be_bytes(reply[reply.len() - 4..].try_into().unwrap());
    (reply, status)
}

/// `len` bytes drawn from `seed`.
fn pattern(seed: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u64 ^ seed).wrapping_mul(0x9E37) as u8)
        .collect()
}

/// A reactor (or serial) server on a loopback port.
fn serve(mode: ServeMode, qos: QosServerConfig) -> ServeHandle {
    let config = ServerConfig {
        qos,
        ..ServerConfig::default()
    };
    let builder = ServerBuilder::new("127.0.0.1:0").config(config).mode(mode);
    builder.serve().unwrap()
}

fn reactor() -> ServeHandle {
    serve(
        ServeMode::Reactor { workers: 2 },
        QosServerConfig::default(),
    )
}

/// A client of `handle` acting for `token`.
fn client(handle: &ServeHandle, token: u64) -> CricketV1Client {
    let t: Box<dyn Transport> = Box::new(TcpTransport::connect(handle.addr()).unwrap());
    let mut c = CricketV1Client::new(t);
    c.rpc.set_client_token(token);
    c
}

fn malloc(c: &mut CricketV1Client, len: usize) -> u64 {
    c.cuda_malloc(&(len as u64)).unwrap().into_result().unwrap()
}

fn read(c: &mut CricketV1Client, ptr: u64, len: usize) -> Vec<u8> {
    let back = c.cuda_memcpy_dtoh(&ptr, &(len as u64)).unwrap();
    back.into_result().unwrap()
}

/// Wait for `done`, which the server makes true: a window is open once its
/// first bytes show on the device.
fn until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "{what}: not within 10 s");
        std::thread::yield_now();
    }
}

/// Shut `handle` down once its clients are gone, and check *nothing
/// leaks*: every session released, its memory with it.
fn settle(handle: ServeHandle) {
    let server = std::sync::Arc::clone(handle.server());
    handle.shutdown();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.load_report().sessions > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    quiescent(&server, None, None);
}

/// (a) A duplicate of an H2D that ran, arriving after device work changed
/// its buffer, gets the cached reply, and not one byte of it lands: the
/// replay lookup comes before the window.
#[test]
fn a_stale_duplicate_is_replayed_before_anything_lands() {
    for_each_seed(
        "a_stale_duplicate_is_replayed_before_anything_lands",
        |seed| {
            let handle = reactor();
            let (mut c, len) = (client(&handle, TOKEN), 4096 * (1 + seed as usize % 64));
            let ptr = malloc(&mut c, len);
            let call = htod(seed as u32, Some(TOKEN), ptr, &pattern(seed, len));
            let mut a = TcpStream::connect(handle.addr()).unwrap();
            a.write_all(&call).unwrap();
            let (first, status) = reply(&mut a);
            assert_eq!(status, 0);
            let value = (seed % 251) as i32;
            assert_eq!(c.cuda_memset(&ptr, &value, &(len as u64)).unwrap(), 0);
            a.write_all(&call).unwrap();
            assert_eq!(reply(&mut a).0, first, "the duplicate was not replayed");
            let back = read(&mut c, ptr, len);
            assert!(
                back == vec![value as u8; len],
                "a replayed duplicate landed"
            );
            drop((a, c));
            settle(handle);
        },
    );
}

/// (b) A device copy parked ahead of an H2D on the same connection reads
/// the bytes from before it: the window opens only once the copy is
/// answered, and the engine holds the H2D's bytes meanwhile.
#[test]
fn a_window_waits_for_the_calls_ahead_of_it() {
    for_each_seed("a_window_waits_for_the_calls_ahead_of_it", |seed| {
        let handle = reactor();
        let (mut c, len) = (
            client(&handle, TOKEN),
            (1 << 20) + 4096 * (seed as usize % 64),
        );
        let (x, y) = (malloc(&mut c, len), malloc(&mut c, len));
        let (old, new) = (pattern(seed, len), pattern(!seed, len));
        assert_eq!(c.cuda_memcpy_htod(&x, &old).unwrap(), 0);
        let copy = record(1, Some(TOKEN), cricket_v1::CUDA_MEMCPY_DTOD, |enc| {
            (y, x, len as u64).encode(enc);
        });
        let mut a = TcpStream::connect(handle.addr()).unwrap();
        a.write_all(&[copy, htod(2, Some(TOKEN), x, &new)].concat())
            .unwrap();
        assert_eq!((reply(&mut a).1, reply(&mut a).1), (0, 0));
        assert!(
            read(&mut c, y, len) == old,
            "the copy ahead saw the H2D's bytes"
        );
        assert!(read(&mut c, x, len) == new, "the H2D did not land");
        drop((a, c));
        settle(handle);
    });
}

/// (c) A connection lost mid-payload executes nothing: no charge and no
/// replay entry, and its token-gate admission is released at once, not
/// after `evict_token`'s 5 s drain. Its retry lands whole.
#[test]
fn a_connection_lost_mid_payload_runs_nothing() {
    for_each_seed("a_connection_lost_mid_payload_runs_nothing", |seed| {
        let handle = reactor();
        let server = std::sync::Arc::clone(handle.server());
        let (mut c, len) = (
            client(&handle, TOKEN),
            (1 << 20) + 4096 * (seed as usize % 64),
        );
        let ptr = malloc(&mut c, len);
        let (data, xid) = (pattern(seed, len), seed as u32);
        let call = htod(xid, Some(TOKEN), ptr, &data);
        let mut a = TcpStream::connect(handle.addr()).unwrap();
        a.write_all(&call[..call.len() / 2]).unwrap();
        until("the window opened", || read(&mut c, ptr, 64) == data[..64]);
        let (now, started) = (server.clock().now_ns(), Instant::now());
        drop(a);
        server.evict_token(TOKEN);
        let drained = started.elapsed();
        server.readmit_token(TOKEN);
        assert!(
            drained < Duration::from_secs(2),
            "admission held {drained:?}"
        );
        assert_eq!(server.clock().now_ns(), now, "the lost call was charged");
        let replayed = handle.replay().export_client(TOKEN);
        let cached = replayed.iter().any(|&(x, _)| x == xid | 1 << 31);
        assert!(!cached, "the lost call was cached");
        let mut b = TcpStream::connect(handle.addr()).unwrap();
        b.write_all(&call).unwrap();
        assert_eq!(reply(&mut b).1, 0);
        assert!(
            read(&mut c, ptr, len) == data,
            "the retry did not land whole"
        );
        drop((b, c));
        settle(handle);
    });
}

/// (d) A window refused because the memory is another session's, because
/// the opaque runs past the block, or because admission shed the call,
/// takes no byte, and its reply is the one `ServeMode::Serial` gives.
#[test]
fn a_refused_window_takes_nothing_and_answers_as_serial_does() {
    for_each_seed(
        "a_refused_window_takes_nothing_and_answers_as_serial_does",
        |seed| {
            let qos = QosServerConfig {
                max_sessions: 1,
                ..QosServerConfig::default()
            };
            let run = |mode| {
                let handle = serve(mode, qos);
                let len = (1 << 20) + 4096 * (seed as usize % 16);
                let mut c = client(&handle, TOKEN);
                let (ptr, data) = (malloc(&mut c, len), pattern(seed, len));
                assert_eq!(c.cuda_memcpy_htod(&ptr, &data).unwrap(), 0);
                // Half a block and more from the offset on: many pieces.
                let off = (seed as usize % (len / 2)) & !7;
                let calls = [
                    htod(1, Some(OTHER), ptr + off as u64, &pattern(!seed, len - off)),
                    htod(
                        2,
                        Some(TOKEN),
                        ptr + off as u64,
                        &pattern(!seed, len - off + 8),
                    ),
                    htod(3, None, ptr, &pattern(!seed, len)),
                ];
                let replies = calls.map(|call| {
                    let mut a = TcpStream::connect(handle.addr()).unwrap();
                    a.write_all(&call).unwrap();
                    reply(&mut a)
                });
                assert!(
                    read(&mut c, ptr, len) == data,
                    "{mode:?}: a refused window wrote"
                );
                drop(c);
                settle(handle);
                replies
            };
            let landed = run(ServeMode::Reactor { workers: 2 });
            let code = CudaCode::InvalidValue as i32;
            assert_eq!((landed[0].1, landed[1].1), (code, code));
            assert_eq!(
                landed,
                run(ServeMode::Serial),
                "a reply differs from the serial one"
            );
        },
    );
}

/// A landed piece re-checks ownership under the device lock: token
/// `TOKEN`'s connection sends half of a 1 MiB H2D and pauses, its other
/// connection frees the block, another tenant's `cudaMalloc` gets the same
/// address, and the rest of the payload then takes none of the new owner's
/// bytes. The H2D gets a typed error.
#[test]
fn a_block_freed_mid_payload_takes_no_more_bytes() {
    let handle = reactor();
    let (mut b, mut other, len) = (client(&handle, TOKEN), client(&handle, OTHER), 1 << 20);
    let ptr = malloc(&mut b, len);
    let call = htod(7, Some(TOKEN), ptr, &vec![0xAA; len]);
    let mut a = TcpStream::connect(handle.addr()).unwrap();
    a.write_all(&call[..call.len() / 2]).unwrap();
    until("the window opened", || read(&mut b, ptr, 4) == [0xAA; 4]);
    assert_eq!(b.cuda_free(&ptr).unwrap(), 0);
    assert_eq!(
        malloc(&mut other, len),
        ptr,
        "the allocator moved the block"
    );
    assert_eq!(other.cuda_memcpy_htod(&ptr, &vec![0x55; len]).unwrap(), 0);
    a.write_all(&call[call.len() / 2..]).unwrap();
    assert_eq!(reply(&mut a).1, CudaCode::InvalidValue as i32);
    assert!(
        read(&mut other, ptr, len) == vec![0x55; len],
        "a freed window wrote"
    );
    drop((a, b, other));
    settle(handle);
}
