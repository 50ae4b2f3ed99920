//! Multi-connection striping for large transfers.
//!
//! A single RPC connection serializes one record at a time, so a large
//! H2D/D2H copy is wire-bound on that connection's bandwidth. A
//! [`StripePool`] holds N independent [`RpcClient`] lanes and shards one
//! logical copy into fixed-size stripes issued round-robin across the lanes
//! as *independent* RPC calls carrying `(offset, seq, bytes)`. The far end
//! writes each stripe at `base + offset`, so reassembly is positional — no
//! ordering requirement between lanes — and the result is byte-identical to
//! the unstriped transfer.
//!
//! Exactly-once: every stripe is its own call under the lane's retry
//! machinery, and each lane owns a disjoint xid space
//! (`lane_i` starts at `(i << 24) | 1`), so the server's at-most-once replay
//! cache (keyed by client token + xid) dedupes retransmitted stripes without
//! cross-lane collisions. A duplicated or replayed stripe re-delivers the
//! recorded reply instead of re-executing the write.
//!
//! Size threshold policy lives with the caller (the `core` client raw path):
//! small ops keep the single-connection fast path, only copies at or above
//! the stripe threshold fan out here.

use crate::client::RpcClient;

/// Stripe granularity. Large enough to amortize per-call overhead, small
/// enough that 4 lanes all stay busy on a multi-MiB copy.
const DEFAULT_STRIPE_LEN: usize = 256 * 1024;

/// Hook for accounting wall-clock (or virtual-time) overlap of the lanes.
///
/// Real transports overlap naturally — each lane is its own connection and
/// the OS transmits them concurrently. The simulated transports used by the
/// benches charge wire time to a clock, so without help N lanes would be
/// charged serially. A timer implementation aligns the per-lane clocks with
/// a shared clock before a striped transfer ([`begin`](StripeTimer::begin))
/// and folds the slowest lane back into the shared clock after
/// ([`commit`](StripeTimer::commit)). The default [`NullTimer`] does
/// nothing, which is correct for real transports.
pub trait StripeTimer: Send {
    /// Called before the first stripe of a transfer is issued.
    fn begin(&mut self) {}
    /// Called after every stripe of the transfer completed.
    fn commit(&mut self) {}
}

/// No-op timer for transports that overlap physically.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTimer;

impl StripeTimer for NullTimer {}

/// A pool of RPC connections striping one logical transfer.
pub struct StripePool {
    lanes: Vec<RpcClient>,
    stripe_len: usize,
    timer: Box<dyn StripeTimer>,
    stripes_sent: u64,
}

impl StripePool {
    /// Build a pool over `lanes` pre-connected clients. Each lane is rebased
    /// onto a disjoint xid space so replay-cache entries never collide.
    pub fn new(mut lanes: Vec<RpcClient>) -> Self {
        assert!(!lanes.is_empty(), "stripe pool needs at least one lane");
        assert!(
            lanes.len() <= 128,
            "stripe pool xid partitioning supports at most 128 lanes"
        );
        for (i, lane) in lanes.iter_mut().enumerate() {
            lane.set_xid_base(((i as u32) << 24) | 1);
        }
        Self {
            lanes,
            stripe_len: DEFAULT_STRIPE_LEN,
            timer: Box::new(NullTimer),
            stripes_sent: 0,
        }
    }

    /// Stripe calls this pool has completed, both directions.
    pub fn stripes_sent(&self) -> u64 {
        self.stripes_sent
    }

    /// Install a lane-overlap timer (see [`StripeTimer`]).
    pub fn set_timer(&mut self, timer: impl StripeTimer + 'static) {
        self.timer = Box::new(timer);
    }

    /// Apply one credential to every lane (all lanes share the client token
    /// so the server's replay cache sees one logical client).
    pub fn set_credential(&mut self, cred: crate::auth::OpaqueAuth) {
        for lane in &mut self.lanes {
            lane.set_credential(cred.clone());
        }
    }

    /// Mutable access to the lane clients, for installing retry policies,
    /// timeouts, or reconnectors per lane.
    pub fn lanes_mut(&mut self) -> &mut [RpcClient] {
        &mut self.lanes
    }

    /// Shard `data` into stripes and issue each via `call` on a round-robin
    /// lane. `call` receives the lane client, the byte offset of the stripe
    /// within `data`, the stripe sequence number, and the stripe bytes. All
    /// stripes must succeed; the first error — the caller's own type, so a
    /// refusal carried inside a reply needs no stand-in — aborts the transfer.
    pub fn scatter<E>(
        &mut self,
        data: &[u8],
        mut call: impl FnMut(&mut RpcClient, u64, u32, &[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        self.timer.begin();
        let lanes = self.lanes.len();
        for (seq, chunk) in data.chunks(self.stripe_len).enumerate() {
            let offset = (seq * self.stripe_len) as u64;
            let lane = &mut self.lanes[seq % lanes];
            call(lane, offset, seq as u32, chunk)?;
            self.stripes_sent += 1;
        }
        self.timer.commit();
        Ok(())
    }

    /// Fill `out` by fetching stripes via `call` on round-robin lanes.
    /// `call` receives the lane client, the byte offset within `out`, the
    /// stripe sequence number, and the destination sub-slice to fill.
    pub fn gather<E>(
        &mut self,
        out: &mut [u8],
        mut call: impl FnMut(&mut RpcClient, u64, u32, &mut [u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        self.timer.begin();
        let lanes = self.lanes.len();
        let stripe_len = self.stripe_len;
        for (seq, chunk) in out.chunks_mut(stripe_len).enumerate() {
            let offset = (seq * stripe_len) as u64;
            let lane = &mut self.lanes[seq % lanes];
            call(lane, offset, seq as u32, chunk)?;
            self.stripes_sent += 1;
        }
        self.timer.commit();
        Ok(())
    }
}

impl std::fmt::Debug for StripePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StripePool")
            .field("lanes", &self.lanes.len())
            .field("stripe_len", &self.stripe_len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::duplex_pair;

    /// The stripe calls of these tests never fail, and so name no error type.
    const OK: Result<(), std::convert::Infallible> = Ok(());

    fn pool(lanes: usize) -> StripePool {
        let clients = (0..lanes)
            .map(|_| {
                let (a, _b) = duplex_pair();
                // The peer end is dropped: these tests never touch the wire,
                // they only exercise the chunking arithmetic.
                RpcClient::new(Box::new(a), 99, 1)
            })
            .collect();
        StripePool::new(clients)
    }

    #[test]
    fn scatter_covers_every_byte_once() {
        let mut p = pool(4);
        p.stripe_len = 1000;
        let data: Vec<u8> = (0..10_240u32).map(|i| (i % 251) as u8).collect();
        let mut seen = vec![false; data.len()];
        let mut seqs = Vec::new();
        p.scatter(&data, |_lane, offset, seq, chunk| {
            let off = offset as usize;
            assert_eq!(&data[off..off + chunk.len()], chunk);
            for s in &mut seen[off..off + chunk.len()] {
                assert!(!*s, "byte covered twice");
                *s = true;
            }
            seqs.push(seq);
            OK
        })
        .unwrap();
        assert!(seen.iter().all(|&s| s));
        // 10240 / 1000 -> 10 full stripes + 1 short tail.
        assert_eq!(seqs, (0..11).collect::<Vec<u32>>());
    }

    #[test]
    fn gather_reassembles_by_offset() {
        let mut p = pool(3);
        p.stripe_len = 4096;
        let src: Vec<u8> = (0..100_003u32).map(|i| (i % 241) as u8).collect();
        let mut out = vec![0u8; src.len()];
        p.gather(&mut out, |_lane, offset, _seq, chunk| {
            let off = offset as usize;
            chunk.copy_from_slice(&src[off..off + chunk.len()]);
            OK
        })
        .unwrap();
        assert_eq!(out, src);
    }

    #[test]
    fn lanes_rotate_round_robin() {
        let mut p = pool(2);
        p.stripe_len = 8;
        let lane_ptrs: Vec<*const RpcClient> = p
            .lanes_mut()
            .iter()
            .map(|l| l as *const RpcClient)
            .collect();
        let data = [0u8; 64];
        let mut visits = Vec::new();
        p.scatter(&data, |lane, _offset, _seq, chunk| {
            assert_eq!(chunk.len(), 8);
            visits.push(lane as *const RpcClient);
            OK
        })
        .unwrap();
        let expect: Vec<*const RpcClient> = (0..8).map(|i| lane_ptrs[i % 2]).collect();
        assert_eq!(visits, expect);
    }

    #[test]
    fn stripes_are_counted_by_the_pool_that_sent_them() {
        let mut p = pool(2);
        p.stripe_len = 16;
        p.scatter(&[0u8; 64], |_l, _o, _s, _c| OK).unwrap();
        p.gather(&mut [0u8; 40], |_l, _o, _s, _c| OK).unwrap();
        assert_eq!(p.stripes_sent(), 4 + 3);
        assert_eq!(pool(2).stripes_sent(), 0, "another pool saw none of it");
    }

    #[test]
    fn empty_transfer_is_a_no_op() {
        let mut p = pool(2);
        let mut calls = 0;
        p.scatter(&[], |_l, _o, _s, _c| {
            calls += 1;
            OK
        })
        .unwrap();
        p.gather(&mut [], |_l, _o, _s, _c| {
            calls += 1;
            OK
        })
        .unwrap();
        assert_eq!(calls, 0);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_pool_panics() {
        let _ = StripePool::new(Vec::new());
    }
}
