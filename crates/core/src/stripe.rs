//! Multi-connection striping for large transfers.
//!
//! One RPC connection carries one record at a time, so a large H2D/D2H copy
//! is wire-bound on that connection's bandwidth. A [`StripePool`] holds N
//! lanes — independent connections, each a generated [`CricketV1Client`] —
//! and shards one logical copy into fixed-size stripes issued round-robin
//! across them. A stripe is an ordinary `CUDA_MEMCPY_HTOD(dst + offset,
//! chunk)` or `CUDA_MEMCPY_DTOH(src + offset, len)` call, so reassembly is
//! positional, lanes need no mutual ordering, and neither the wire nor the
//! server knows striping exists.
//!
//! Exactly-once: every stripe is its own call under its lane's retry
//! machinery. The lanes share one client token and each owns a disjoint
//! xid space (lane `i` starts at `((i + 1) << 24) | 1`, clear of the
//! control connection's, which starts at 1), so the server's at-most-once
//! replay cache (keyed by client token + xid) dedupes a retransmitted
//! write stripe without collisions between the lanes or with the client.
//!
//! Which copies stripe is decided by the caller (`TransferPlan::choose` in
//! `crate::raw`): only copies of at least its stripe threshold fan out.

use crate::error::{ClientError, ClientResult};
use crate::raw::{read_dtoh, HTOD_API};
use cricket_proto::CricketV1Client;
use simnet::SimClock;
use std::sync::Arc;

/// Stripe granularity. Large enough to amortize per-call overhead, small
/// enough that 4 lanes all stay busy on a multi-MiB copy.
const STRIPE_LEN: usize = 256 * 1024;

/// A pool of Cricket connections striping one logical transfer.
pub struct StripePool {
    lanes: Vec<CricketV1Client>,
    /// For simulated lanes: the shared clock, and the private clock each
    /// lane charges its wire time to. Left on the shared clock, N lanes
    /// would serialize; instead a transfer starts every lane at the shared
    /// "now" and ends the shared clock at the slowest lane, so it costs the
    /// maximum lane time, not the sum, like N independent connections.
    /// `None` for lanes that overlap physically (TCP).
    clocks: Option<(Arc<SimClock>, Vec<Arc<SimClock>>)>,
    stripes_sent: u64,
}

impl StripePool {
    /// Build a pool over pre-connected `lanes` (and, when they are
    /// simulated, their clocks). Each lane is rebased onto a disjoint xid
    /// space so replay-cache entries never collide.
    pub fn new(
        mut lanes: Vec<CricketV1Client>,
        clocks: Option<(Arc<SimClock>, Vec<Arc<SimClock>>)>,
    ) -> Self {
        assert!(!lanes.is_empty(), "stripe pool needs at least one lane");
        assert!(
            lanes.len() <= 128,
            "stripe pool xid partitioning supports at most 128 lanes"
        );
        for (i, lane) in lanes.iter_mut().enumerate() {
            lane.rpc.set_xid_base(((i as u32 + 1) << 24) | 1);
        }
        Self {
            lanes,
            clocks,
            stripes_sent: 0,
        }
    }

    /// Stripe calls this pool has completed, both directions.
    pub fn stripes_sent(&self) -> u64 {
        self.stripes_sent
    }

    /// Apply one credential to every lane (all lanes share the client token
    /// so the server's replay cache sees one logical client).
    pub fn set_credential(&mut self, cred: oncrpc::OpaqueAuth) {
        for lane in &mut self.lanes {
            lane.rpc.set_credential(cred.clone());
        }
    }

    /// Mutable access to the lanes, for installing retry policies,
    /// timeouts, or reconnectors on each lane's `rpc`.
    pub fn lanes_mut(&mut self) -> &mut [CricketV1Client] {
        &mut self.lanes
    }

    /// Write `data` at device address `dst` as one `CUDA_MEMCPY_HTOD` per
    /// stripe, round-robin across the lanes. The first stripe that fails
    /// stops the rest.
    pub(crate) fn scatter(&mut self, dst: u64, data: &[u8]) -> ClientResult<()> {
        self.begin();
        let lanes = self.lanes.len();
        for (seq, chunk) in data.chunks(STRIPE_LEN).enumerate() {
            let at = dst.wrapping_add((seq * STRIPE_LEN) as u64);
            match self.lanes[seq % lanes].cuda_memcpy_htod(&at, chunk)? {
                0 => self.stripes_sent += 1,
                code => return Err(ClientError::cuda(HTOD_API, code)),
            }
        }
        self.commit();
        Ok(())
    }

    /// Fill `out` from device address `src` with one `CUDA_MEMCPY_DTOH` per
    /// stripe, round-robin across the lanes, each read exactly as the plain
    /// route's ([`read_dtoh`]): straight into its place in `out`.
    pub(crate) fn gather(&mut self, src: u64, out: &mut [u8]) -> ClientResult<()> {
        self.begin();
        let lanes = self.lanes.len();
        for (seq, chunk) in out.chunks_mut(STRIPE_LEN).enumerate() {
            let at = src.wrapping_add((seq * STRIPE_LEN) as u64);
            read_dtoh(&mut self.lanes[seq % lanes], at, chunk)?;
            self.stripes_sent += 1;
        }
        self.commit();
        Ok(())
    }

    /// Start every simulated lane at the shared clock's "now".
    fn begin(&self) {
        if let Some((shared, lanes)) = &self.clocks {
            for lane in lanes {
                lane.advance_to(shared.now_ns());
            }
        }
    }

    /// End the shared clock at the slowest simulated lane.
    fn commit(&self) {
        if let Some((shared, lanes)) = &self.clocks {
            shared.advance_to(lanes.iter().map(|lane| lane.now_ns()).max().unwrap_or(0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cricket_proto::{cricket_v1, CRICKET_CUDA, CRICKET_V1};
    use oncrpc::AcceptStat;
    use std::sync::Mutex;

    /// One call a lane's server saw: lane, procedure, device address, and
    /// the bytes written (H2D) or read back (D2H).
    type Call = (usize, u32, u64, Vec<u8>);

    /// The fake device's memory: the byte at address `a`.
    fn device_byte(a: u64) -> u8 {
        (a % 241) as u8
    }

    /// Run `body` on a pool of `lanes` lanes, and return every call they
    /// carried, in issue order. Each lane is served over a `duplex_pair` by a server that
    /// acknowledges every write and answers every read from `device_byte`.
    fn with_pool(lanes: usize, body: impl FnOnce(&mut StripePool)) -> Vec<Call> {
        let log = Arc::new(Mutex::new(Vec::<Call>::new()));
        std::thread::scope(|scope| {
            let clients = (0..lanes)
                .map(|lane| {
                    let (client_end, mut server_end) = oncrpc::duplex_pair();
                    let mut server = oncrpc::RpcServer::new();
                    let log = Arc::clone(&log);
                    let serve = move |proc: u32,
                                      args: &mut xdr::XdrDecoder<'_>,
                                      reply: &mut xdr::XdrEncoder| {
                        let garbage = |_| AcceptStat::GarbageArgs;
                        let addr = args.get_u64().map_err(garbage)?;
                        reply.put_i32(0);
                        let bytes = if proc == cricket_v1::CUDA_MEMCPY_HTOD {
                            args.get_opaque_ref().map_err(garbage)?.to_vec()
                        } else {
                            assert_eq!(proc, cricket_v1::CUDA_MEMCPY_DTOH);
                            let len = args.get_u64().map_err(garbage)?;
                            let bytes: Vec<u8> = (addr..addr + len).map(device_byte).collect();
                            reply.put_opaque(&bytes);
                            bytes
                        };
                        log.lock().unwrap().push((lane, proc, addr, bytes));
                        Ok(())
                    };
                    server.register(CRICKET_CUDA, CRICKET_V1, Arc::new(serve));
                    scope.spawn(move || server.serve_connection(&mut server_end));
                    CricketV1Client::new(Box::new(client_end))
                })
                .collect();
            body(&mut StripePool::new(clients, None));
        });
        let calls = std::mem::take(&mut *log.lock().unwrap());
        calls
    }

    const S: usize = STRIPE_LEN;

    #[test]
    fn scatter_covers_every_byte_once() {
        let data: Vec<u8> = (0..10 * S + S / 2).map(|i| (i % 251) as u8).collect();
        let calls = with_pool(4, |pool| pool.scatter(0x5000, &data).unwrap());
        // 10 full stripes + 1 short tail.
        assert_eq!(calls.len(), 11);
        let mut seen = vec![false; data.len()];
        for (_, proc, addr, bytes) in &calls {
            assert_eq!(*proc, cricket_v1::CUDA_MEMCPY_HTOD);
            let off = (addr - 0x5000) as usize;
            assert_eq!(&data[off..off + bytes.len()], bytes);
            for s in &mut seen[off..off + bytes.len()] {
                assert!(!*s, "byte covered twice");
                *s = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gather_reassembles_by_offset() {
        let mut out = vec![0u8; 6 * S + 3];
        let calls = with_pool(3, |pool| pool.gather(0x7000, &mut out).unwrap());
        assert_eq!(calls.len(), 7);
        assert!(calls.iter().all(|c| c.1 == cricket_v1::CUDA_MEMCPY_DTOH));
        let want: Vec<u8> = (0x7000..0x7000 + out.len() as u64)
            .map(device_byte)
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn lanes_rotate_round_robin() {
        let calls = with_pool(2, |pool| pool.scatter(0, &vec![0u8; 8 * S]).unwrap());
        let lanes: Vec<usize> = calls.iter().map(|c| c.0).collect();
        assert_eq!(lanes, (0..8).map(|i| i % 2).collect::<Vec<_>>());
        assert!(calls.iter().all(|c| c.3.len() == S));
    }

    #[test]
    fn stripes_are_counted_by_the_pool_that_sent_them() {
        with_pool(2, |pool| {
            pool.scatter(0, &vec![0u8; 4 * S]).unwrap();
            pool.gather(0, &mut vec![0u8; 2 * S + 1]).unwrap();
            assert_eq!(pool.stripes_sent(), 4 + 3);
            with_pool(2, |other| {
                assert_eq!(other.stripes_sent(), 0, "another pool saw none of it")
            });
        });
    }

    #[test]
    fn empty_transfer_is_a_no_op() {
        let calls = with_pool(2, |pool| {
            pool.scatter(0, &[]).unwrap();
            pool.gather(0, &mut []).unwrap();
            assert_eq!(pool.stripes_sent(), 0);
        });
        assert!(calls.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_pool_panics() {
        let _ = StripePool::new(Vec::new(), None);
    }
}
