//! Per-stream command queues: the asynchronous execution engine.
//!
//! A [`CommandQueue`] is a FIFO of device commands on one stream. Enqueuing
//! is cheap for the host (a few hundred ns of submission cost); each command
//! carries its *device-time* cost and completes on the stream's virtual
//! timeline: a command starts at `max(stream frontier, now)` and completes
//! `duration` later. Commands **retire strictly in issue order within a
//! stream**; across streams the timelines are independent, so overlapping
//! work on two streams costs the device `max`, not the sum, of the two
//! timelines — exactly CUDA's concurrency contract.
//!
//! Everything is driven by the shared [`simnet::SimClock`], so a given
//! sequence of enqueues and waits produces bit-identical timelines on every
//! run: determinism is part of the API contract (chaos replays and the
//! EXPERIMENTS.md figures depend on it).

use std::collections::VecDeque;

/// What a queued command is, for telemetry and retire-order assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    /// cuLaunchKernel of function `func`.
    Kernel { func: u64 },
    /// Host→device transfer.
    MemcpyH2D { bytes: u64 },
    /// Device→host transfer.
    MemcpyD2H { bytes: u64 },
    /// Device→device copy.
    MemcpyD2D { bytes: u64 },
    /// cudaMemset.
    Memset { bytes: u64 },
    /// Library routine executed on-device (cuBLAS / cuSOLVER / cuFFT).
    Library { what: &'static str },
}

/// A command in flight on a stream's virtual timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Command {
    /// Device-global issue sequence number (monotonic across all streams).
    pub seq: u64,
    /// What the command is.
    pub kind: CommandKind,
    /// Virtual time the host enqueued it.
    pub enqueued_at_ns: u64,
    /// Virtual time it starts on the device: `max(frontier, enqueued_at)`.
    pub starts_at_ns: u64,
    /// Virtual time it completes: `starts_at + duration`.
    pub completes_at_ns: u64,
}

/// Receipt for an asynchronous submission: what the host paid now
/// (`submit_ns`) versus what the device will spend later (`queued_ns`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submit {
    /// Stream the command went to.
    pub stream: u64,
    /// Issue sequence number of the command.
    pub seq: u64,
    /// Host-side submission cost in ns (charged to the caller's clock).
    pub submit_ns: u64,
    /// Device-time cost enqueued (charged to the session's time ledger).
    pub queued_ns: u64,
    /// Virtual time at which the command will complete.
    pub completes_at_ns: u64,
}

/// Aggregate over many [`Submit`] receipts: the per-batch receipt a server
/// returns when a whole slice of commands is issued under one turn.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SubmitAggregate {
    /// Receipts absorbed.
    pub ops: u32,
    /// Total host-side submission cost.
    pub submit_ns: u64,
    /// Total device time enqueued (ledger charge).
    pub queued_ns: u64,
    /// Latest completion frontier across the absorbed commands.
    pub last_completes_at_ns: u64,
}

impl SubmitAggregate {
    /// Fold one receipt into the aggregate.
    pub fn absorb(&mut self, sub: &Submit) {
        self.ops += 1;
        self.submit_ns += sub.submit_ns;
        self.queued_ns += sub.queued_ns;
        self.last_completes_at_ns = self.last_completes_at_ns.max(sub.completes_at_ns);
    }
}

/// A command that has completed and left its queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// Stream it ran on.
    pub stream: u64,
    /// Issue sequence number.
    pub seq: u64,
    /// What it was.
    pub kind: CommandKind,
    /// When it started on the device.
    pub starts_at_ns: u64,
    /// When it completed.
    pub completes_at_ns: u64,
}

/// One stream's FIFO of pending commands plus its completion frontier.
#[derive(Debug, Default)]
pub(crate) struct CommandQueue {
    pending: VecDeque<Command>,
    /// Completion frontier: virtual time at which all enqueued work is done.
    frontier_ns: u64,
    /// Commands ever enqueued (telemetry).
    pub ops_enqueued: u64,
    /// Commands retired so far (telemetry).
    pub ops_retired: u64,
}

impl CommandQueue {
    /// Enqueue `duration_ns` of device work at virtual time `now_ns`.
    /// The command starts when all prior work on this stream is done.
    pub(crate) fn enqueue(
        &mut self,
        now_ns: u64,
        seq: u64,
        kind: CommandKind,
        duration_ns: u64,
    ) -> Command {
        let starts_at_ns = self.frontier_ns.max(now_ns);
        let cmd = Command {
            seq,
            kind,
            enqueued_at_ns: now_ns,
            starts_at_ns,
            completes_at_ns: starts_at_ns + duration_ns,
        };
        self.frontier_ns = cmd.completes_at_ns;
        self.ops_enqueued += 1;
        self.pending.push_back(cmd);
        cmd
    }

    /// Completion frontier (ns): when everything enqueued so far is done.
    pub(crate) fn frontier_ns(&self) -> u64 {
        self.frontier_ns
    }

    /// Place an *idle* queue at an exact completion frontier.
    ///
    /// Used when reconstructing a stream on a migration destination: the
    /// source fences the stream (retires all pending work), ships its
    /// frontier, and the destination recreates the queue at that frontier so
    /// subsequent enqueues produce the same absolute virtual timestamps the
    /// source would have produced. Restoring a non-empty queue would reorder
    /// in-flight commands, so that is rejected.
    pub(crate) fn restore_frontier(&mut self, ns: u64) -> bool {
        if !self.pending.is_empty() {
            return false;
        }
        self.frontier_ns = ns;
        true
    }

    /// Nanoseconds a host thread at `now_ns` must wait for this stream to
    /// drain.
    pub(crate) fn wait_ns(&self, now_ns: u64) -> u64 {
        self.frontier_ns.saturating_sub(now_ns)
    }

    /// Iterate pending commands front (oldest) to back.
    pub(crate) fn iter_pending(&self) -> impl Iterator<Item = &Command> {
        self.pending.iter()
    }

    /// Pop every command whose completion time has passed, appending it to
    /// `sink` tagged with `stream`. Front-to-back pop is what enforces the
    /// issue-order retire invariant: a command can never leave the queue
    /// before one issued ahead of it on the same stream.
    pub(crate) fn retire_until(&mut self, now_ns: u64, stream: u64, sink: &mut Vec<Retired>) {
        while let Some(front) = self.pending.front() {
            if front.completes_at_ns > now_ns {
                break;
            }
            let c = self.pending.pop_front().expect("front checked");
            self.ops_retired += 1;
            sink.push(Retired {
                stream,
                seq: c.seq,
                kind: c.kind,
                starts_at_ns: c.starts_at_ns,
                completes_at_ns: c.completes_at_ns,
            });
        }
    }
}

/// A merged union of half-open busy intervals `[start, end)`.
///
/// The device feeds every retired command's `[starts_at, completes_at)` in
/// here; the union's total length is the device's *busy span* — the wall of
/// virtual time during which at least one stream had work running. Comparing
/// the busy span to the sum of per-command durations measures cross-stream
/// overlap: `sum / span > 1` means streams genuinely ran concurrently.
#[derive(Debug, Default, Clone)]
pub(crate) struct IntervalUnion {
    /// Disjoint, sorted, non-adjacent intervals.
    spans: Vec<(u64, u64)>,
}

impl IntervalUnion {
    /// Insert `[start, end)`, merging with any overlapping/adjacent spans.
    pub fn add(&mut self, start: u64, end: u64) {
        if end <= start {
            return;
        }
        // Find insertion window: all spans that overlap or touch [start,end).
        let lo = self.spans.partition_point(|&(_, e)| e < start);
        let hi = self.spans.partition_point(|&(s, _)| s <= end);
        if lo == hi {
            self.spans.insert(lo, (start, end));
            return;
        }
        let merged = (self.spans[lo].0.min(start), self.spans[hi - 1].1.max(end));
        self.spans.splice(lo..hi, std::iter::once(merged));
    }

    /// Total length of the union.
    pub fn total_ns(&self) -> u64 {
        self.spans.iter().map(|&(s, e)| e - s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CommandQueue {
        /// Commands still pending (not yet retired at the last observation).
        pub(crate) fn pending_len(&self) -> usize {
            self.pending.len()
        }
    }

    impl IntervalUnion {
        /// Number of disjoint spans.
        fn span_count(&self) -> usize {
            self.spans.len()
        }
    }

    fn k(func: u64) -> CommandKind {
        CommandKind::Kernel { func }
    }

    #[test]
    fn queue_serializes_work_in_issue_order() {
        let mut q = CommandQueue::default();
        let a = q.enqueue(100, 1, k(7), 50);
        assert_eq!((a.starts_at_ns, a.completes_at_ns), (100, 150));
        // Second op enqueued while the first still runs: starts at 150.
        let b = q.enqueue(120, 2, k(7), 30);
        assert_eq!((b.starts_at_ns, b.completes_at_ns), (150, 180));
        // After an idle gap, work starts at now.
        let c = q.enqueue(500, 3, k(7), 10);
        assert_eq!((c.starts_at_ns, c.completes_at_ns), (500, 510));
        assert_eq!(q.ops_enqueued, 3);
        assert_eq!(q.frontier_ns(), 510);
    }

    #[test]
    fn wait_time_counts_down_to_zero() {
        let mut q = CommandQueue::default();
        q.enqueue(0, 1, k(1), 1000);
        assert_eq!(q.wait_ns(200), 800);
        assert_eq!(q.wait_ns(1000), 0);
        assert_eq!(q.wait_ns(2000), 0);
    }

    #[test]
    fn retire_is_strictly_in_issue_order_and_time_gated() {
        let mut q = CommandQueue::default();
        q.enqueue(0, 10, k(1), 100);
        q.enqueue(0, 11, k(2), 100);
        q.enqueue(0, 12, k(3), 100);
        let mut out = Vec::new();
        q.retire_until(99, 5, &mut out);
        assert!(out.is_empty(), "nothing complete before t=100");
        q.retire_until(250, 5, &mut out);
        let seqs: Vec<u64> = out.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![10, 11], "first two complete at 100 and 200");
        assert_eq!(out[0].stream, 5);
        assert_eq!(q.pending_len(), 1);
        q.retire_until(300, 5, &mut out);
        assert_eq!(out.last().unwrap().seq, 12);
        assert_eq!(q.ops_retired, 3);
    }

    #[test]
    fn two_queues_overlap_instead_of_summing() {
        // 1000 ns of work on each of two streams, enqueued at t=0:
        // both complete at t=1000; the device is busy 1000 ns, not 2000.
        let mut q0 = CommandQueue::default();
        let mut q1 = CommandQueue::default();
        q0.enqueue(0, 1, k(1), 1000);
        q1.enqueue(0, 2, k(2), 1000);
        let device_done = q0.frontier_ns().max(q1.frontier_ns());
        assert_eq!(device_done, 1000);
        let serial_sum = 2000;
        assert!(device_done < serial_sum);
    }

    #[test]
    fn interval_union_merges_overlaps() {
        let mut u = IntervalUnion::default();
        u.add(0, 100);
        u.add(50, 150); // overlaps → [0,150)
        u.add(200, 300); // disjoint
        u.add(150, 200); // bridges the gap → [0,300)
        assert_eq!(u.total_ns(), 300);
        assert_eq!(u.span_count(), 1);
        u.add(400, 400); // empty interval ignored
        assert_eq!(u.span_count(), 1);
        u.add(500, 600);
        assert_eq!(u.total_ns(), 400);
        assert_eq!(u.span_count(), 2);
    }

    #[test]
    fn interval_union_out_of_order_inserts() {
        let mut u = IntervalUnion::default();
        u.add(300, 400);
        u.add(0, 50);
        u.add(100, 200);
        assert_eq!(u.total_ns(), 250);
        assert_eq!(u.span_count(), 3);
        // A span swallowing everything.
        u.add(0, 500);
        assert_eq!(u.total_ns(), 500);
        assert_eq!(u.span_count(), 1);
    }

    #[test]
    fn overlap_factor_from_union() {
        // Two streams, staggered: s0 busy [0,1000), s1 busy [500,1500).
        let mut u = IntervalUnion::default();
        u.add(0, 1000);
        u.add(500, 1500);
        let span = u.total_ns(); // 1500
        let sum = 1000 + 1000; // 2000
        assert_eq!(span, 1500);
        assert!(sum as f64 / span as f64 > 1.3);
    }
}
