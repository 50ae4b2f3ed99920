//! ONC RPC over UDP (RFC 5531 §11, datagram mode).
//!
//! Over UDP every RPC message is exactly one datagram — no record marking,
//! and therefore **no fragmentation**: calls and replies are limited to one
//! datagram (~64 KiB). This is precisely why Cricket runs over TCP — GPU
//! memory transfers do not fit — but a complete ONC RPC implementation
//! supports both, and the latency-only Cricket procedures work fine over
//! UDP. The client implements the classic timeout/retransmission loop with
//! xid matching (stale replies from earlier retransmissions are discarded).

use crate::error::{RpcError, RpcResult};
use crate::server::RpcServer;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdr::{Xdr, XdrDecoder, XdrEncoder};

/// Practical maximum UDP payload (IPv4 reassembly limit minus headers).
pub const MAX_DATAGRAM: usize = 65_507;

/// A synchronous UDP RPC client.
pub struct UdpClient {
    socket: UdpSocket,
    prog: u32,
    vers: u32,
    next_xid: u32,
    /// Reply timeout per attempt.
    pub timeout: Duration,
    /// Total attempts (1 initial + retransmissions).
    pub attempts: u32,
    /// Retransmissions performed (telemetry, exercised by loss tests).
    pub retransmissions: u64,
}

impl UdpClient {
    /// Create a client bound to an ephemeral port, "connected" to `server`.
    pub fn connect<A: ToSocketAddrs>(server: A, prog: u32, vers: u32) -> RpcResult<Self> {
        let socket = UdpSocket::bind("0.0.0.0:0")?;
        socket.connect(server)?;
        Ok(Self {
            socket,
            prog,
            vers,
            next_xid: 0x7f00_0001,
            timeout: Duration::from_millis(200),
            attempts: 5,
            retransmissions: 0,
        })
    }

    /// Issue procedure `proc` with `args`, decoding the reply as `R`.
    pub fn call<A: Xdr, R: Xdr>(&mut self, proc: u32, args: &A) -> RpcResult<R> {
        use crate::msg::{CallBody, RpcMessage};

        let xid = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1);

        let mut enc = XdrEncoder::with_capacity(256);
        RpcMessage::call(xid, CallBody::new(self.prog, self.vers, proc)).encode(&mut enc);
        args.encode(&mut enc);
        if enc.len() > MAX_DATAGRAM {
            return Err(RpcError::RecordTooLarge {
                size: enc.len(),
                max: MAX_DATAGRAM,
            });
        }

        let mut buf = vec![0u8; MAX_DATAGRAM];
        for attempt in 0..self.attempts {
            if attempt > 0 {
                self.retransmissions += 1;
            }
            self.socket.send(enc.as_slice())?;
            // Drain datagrams until our xid answers or the attempt deadline
            // fires. The deadline is absolute (`Instant`), not per `recv`:
            // a stream of stale replies from earlier attempts or calls must
            // not keep extending the wait, or a reissued call could block
            // for as long as a chatty peer keeps talking.
            let deadline = Instant::now() + self.timeout;
            loop {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break; // retransmit
                }
                self.socket.set_read_timeout(Some(remaining))?;
                let n = match self.socket.recv(&mut buf) {
                    Ok(n) => n,
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        break; // retransmit
                    }
                    Err(e) => return Err(e.into()),
                };
                let mut dec = XdrDecoder::new(&buf[..n]);
                if dec.get_u32().ok() != Some(xid) {
                    continue; // runt datagram, or a stale reply from an earlier attempt
                }
                match crate::client::reply_status(&mut dec) {
                    Ok(()) => {}
                    Err(RpcError::Xdr(_)) => continue, // malformed datagram: ignore
                    Err(e) => return Err(e),
                }
                let result = R::decode(&mut dec)?;
                dec.finish()?;
                return Ok(result);
            }
        }
        Err(RpcError::TimedOut)
    }
}

/// Handle to a running UDP server; dropping it requests shutdown.
pub struct UdpServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl UdpServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request shutdown and wait for the loop to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for UdpServerHandle {
    fn drop(&mut self) {
        if self.join.is_some() {
            self.stop_and_join();
        }
    }
}

/// Fault schedule for [`serve_udp_with`] — the datagram-mode analogue of
/// the chaos transport's scripted events.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplySchedule {
    /// Silently drop every n-th request (exercises retransmission).
    pub loss_every: Option<u64>,
    /// Withhold the reply to the n-th request (1-based) for the given
    /// duration, then send it *twice*: the classic delayed-duplicate that a
    /// correct client must tolerate across reissued calls.
    pub delay_duplicate: Option<(u64, Duration)>,
}

/// Serve `server` on a UDP socket (one datagram in, one datagram out).
/// `loss_every` is a test hook: when `Some(n)`, every n-th request is
/// silently dropped, exercising client retransmission.
pub fn serve_udp<A: ToSocketAddrs>(
    server: Arc<RpcServer>,
    addr: A,
    loss_every: Option<u64>,
) -> RpcResult<UdpServerHandle> {
    serve_udp_with(
        server,
        addr,
        ReplySchedule {
            loss_every,
            delay_duplicate: None,
        },
    )
}

/// [`serve_udp`] with a full [`ReplySchedule`].
pub fn serve_udp_with<A: ToSocketAddrs>(
    server: Arc<RpcServer>,
    addr: A,
    schedule: ReplySchedule,
) -> RpcResult<UdpServerHandle> {
    let socket = UdpSocket::bind(addr)?;
    let local = socket.local_addr()?;
    socket.set_read_timeout(Some(Duration::from_millis(50)))?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name("oncrpc-udp".into())
        .spawn(move || {
            let mut buf = vec![0u8; MAX_DATAGRAM];
            let mut received = 0u64;
            while !stop2.load(Ordering::SeqCst) {
                let (n, peer) = match socket.recv_from(&mut buf) {
                    Ok(r) => r,
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        continue;
                    }
                    Err(_) => break,
                };
                received += 1;
                if let Some(every) = schedule.loss_every {
                    if received.is_multiple_of(every) {
                        continue; // simulated datagram loss
                    }
                }
                if let Ok(reply) = server.handle_record(&buf[..n]) {
                    if reply.len() <= MAX_DATAGRAM {
                        if let Some((nth, delay)) = schedule.delay_duplicate {
                            if received == nth {
                                std::thread::sleep(delay);
                                let _ = socket.send_to(&reply, peer);
                            }
                        }
                        let _ = socket.send_to(&reply, peer);
                    }
                }
            }
        })
        .expect("spawn udp thread");
    Ok(UdpServerHandle {
        addr: local,
        stop,
        join: Some(join),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::AcceptStat;
    use crate::server::DispatchResult;

    fn adder() -> Arc<RpcServer> {
        let s = Arc::new(RpcServer::new());
        s.register(
            700,
            1,
            Arc::new(
                |proc: u32, args: &mut XdrDecoder<'_>, reply: &mut XdrEncoder| -> DispatchResult {
                    match proc {
                        0 => Ok(()),
                        1 => {
                            let a = args.get_u32().map_err(|_| AcceptStat::GarbageArgs)?;
                            let b = args.get_u32().map_err(|_| AcceptStat::GarbageArgs)?;
                            reply.put_u32(a + b);
                            Ok(())
                        }
                        2 => {
                            let data = args.get_opaque().map_err(|_| AcceptStat::GarbageArgs)?;
                            reply.put_opaque(data);
                            Ok(())
                        }
                        _ => Err(AcceptStat::ProcUnavail),
                    }
                },
            ),
        );
        s
    }

    #[test]
    fn udp_call_roundtrip() {
        let handle = serve_udp(adder(), "127.0.0.1:0", None).unwrap();
        let mut client = UdpClient::connect(handle.addr(), 700, 1).unwrap();
        client.call::<(), ()>(0, &()).unwrap();
        let sum: u32 = client.call(1, &(19u32, 23u32)).unwrap();
        assert_eq!(sum, 42);
        assert_eq!(client.retransmissions, 0);
        handle.shutdown();
    }

    #[test]
    fn retransmission_survives_datagram_loss() {
        // Drop every 2nd request: each call may need a retry.
        let handle = serve_udp(adder(), "127.0.0.1:0", Some(2)).unwrap();
        let mut client = UdpClient::connect(handle.addr(), 700, 1).unwrap();
        client.timeout = Duration::from_millis(80);
        for i in 0..6u32 {
            let sum: u32 = client.call(1, &(i, 1u32)).unwrap();
            assert_eq!(sum, i + 1);
        }
        assert!(
            client.retransmissions >= 2,
            "loss must have forced retransmissions: {}",
            client.retransmissions
        );
        handle.shutdown();
    }

    #[test]
    fn oversized_call_rejected_client_side() {
        let handle = serve_udp(adder(), "127.0.0.1:0", None).unwrap();
        let mut client = UdpClient::connect(handle.addr(), 700, 1).unwrap();
        let big = vec![0u8; 80_000];
        let err = client.call::<Vec<u8>, Vec<u8>>(2, &big).unwrap_err();
        assert!(matches!(err, RpcError::RecordTooLarge { .. }));
        handle.shutdown();
    }

    #[test]
    fn unreachable_server_times_out() {
        // Nothing listens on this ephemeral-but-closed port.
        let dead = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = dead.local_addr().unwrap();
        drop(dead);
        let mut client = UdpClient::connect(addr, 700, 1).unwrap();
        client.timeout = Duration::from_millis(30);
        client.attempts = 2;
        let err = client.call::<(), ()>(0, &()).unwrap_err();
        // ICMP port-unreachable may surface as an IO error, or we time out.
        assert!(matches!(
            err,
            RpcError::TimedOut | RpcError::Io(_) | RpcError::ConnectionClosed
        ));
    }

    #[test]
    fn delayed_duplicate_reply_not_taken_by_reissued_call() {
        // The reply to the first request is withheld past the client's
        // attempt timeout, then delivered twice. The retransmissions produce
        // further duplicates. The first call must still return the right
        // answer, and the *next* call (fresh xid) must skip every stale
        // duplicate instead of accepting one as its own reply.
        let handle = serve_udp_with(
            adder(),
            "127.0.0.1:0",
            ReplySchedule {
                loss_every: None,
                delay_duplicate: Some((1, Duration::from_millis(150))),
            },
        )
        .unwrap();
        let mut client = UdpClient::connect(handle.addr(), 700, 1).unwrap();
        client.timeout = Duration::from_millis(60);
        let sum: u32 = client.call(1, &(20u32, 22u32)).unwrap();
        assert_eq!(sum, 42);
        assert!(client.retransmissions >= 1);
        // Reissued call: stale xid-A duplicates are still queued.
        let sum: u32 = client.call(1, &(100u32, 1u32)).unwrap();
        assert_eq!(sum, 101);
        handle.shutdown();
    }

    #[test]
    fn stale_reply_stream_cannot_extend_the_deadline() {
        // A peer that answers every request with a firehose of wrong-xid
        // datagrams must not keep resetting the attempt timeout: the
        // deadline is absolute, so the call fails in bounded time.
        use crate::msg::{ReplyBody, RpcMessage};
        let noisy = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = noisy.local_addr().unwrap();
        std::thread::spawn(move || {
            let mut buf = [0u8; 2048];
            let Ok((_, peer)) = noisy.recv_from(&mut buf) else {
                return;
            };
            let mut enc = XdrEncoder::new();
            RpcMessage::reply(1, ReplyBody::success()).encode(&mut enc);
            let started = std::time::Instant::now();
            while started.elapsed() < Duration::from_secs(2) {
                let _ = noisy.send_to(enc.as_slice(), peer);
                std::thread::sleep(Duration::from_millis(15));
            }
        });
        let mut client = UdpClient::connect(addr, 700, 1).unwrap();
        client.timeout = Duration::from_millis(60);
        client.attempts = 2;
        let started = std::time::Instant::now();
        let err = client.call::<(), ()>(0, &()).unwrap_err();
        assert!(matches!(err, RpcError::TimedOut));
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "stale datagrams extended the deadline: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn wrong_program_rejected_over_udp() {
        let handle = serve_udp(adder(), "127.0.0.1:0", None).unwrap();
        let mut client = UdpClient::connect(handle.addr(), 999, 1).unwrap();
        let err = client.call::<(), ()>(0, &()).unwrap_err();
        assert!(matches!(err, RpcError::Accepted(AcceptStat::ProgUnavail)));
        handle.shutdown();
    }
}
