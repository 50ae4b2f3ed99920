//! Client-side command coalescing: record async ops into a batch, flush
//! them as one RPC.
//!
//! Generated `*_record` stubs append `(proc, args)` pairs to a
//! [`BatchBuilder`]; a flush sends the accumulated body as the single
//! `mem_data` argument of a protocol-level batch procedure (Cricket's
//! `CRICKET_BATCH_EXEC`). The builder keeps the body in final wire form —
//! `u32` op count, then per op a `u32` proc number followed by that
//! procedure's ordinary XDR argument stream — so a flush defers the whole
//! body as one scatter-gather segment with no re-encode and no copy.
//!
//! [`BatchPolicy`] decides *when* to flush: queue depth, byte budget, and
//! an adaptive watermark that shrinks under low offered load so a workload
//! that syncs after every op degenerates to eager (unbatched-equivalent)
//! sends instead of paying a deferral it cannot amortize.
//! [`BatchStats`] feeds the `rpcs_per_op` and batch-size-histogram
//! telemetry reported by benches and examples.

use xdr::XdrEncoder;

/// Status sentinel for sub-ops never issued because an earlier op of the
/// same stream slice failed (mirrors the server's `batch_receipt` contract).
pub const BATCH_SKIPPED: i32 = -1;

/// Accumulates recorded ops in wire form until the next flush.
#[derive(Debug, Default)]
pub struct BatchBuilder {
    enc: XdrEncoder,
    procs: Vec<u32>,
    all_idempotent: bool,
}

impl BatchBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        let mut b = Self {
            enc: XdrEncoder::new(),
            procs: Vec::new(),
            all_idempotent: true,
        };
        b.enc.put_u32(0); // op-count placeholder, patched at finish()
        b
    }

    /// Append one op: proc number, then `encode_args` writes the same XDR
    /// argument stream the immediate stub would send. `idempotent` is the
    /// per-proc tag; the batch as a whole is idempotent only if every
    /// recorded op is.
    pub fn record(
        &mut self,
        proc: u32,
        idempotent: bool,
        encode_args: impl FnOnce(&mut XdrEncoder),
    ) {
        self.procs.push(proc);
        self.all_idempotent &= idempotent;
        self.enc.put_u32(proc);
        encode_args(&mut self.enc);
    }

    /// Number of ops recorded since the last flush.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// Current body size in bytes (including the count prefix).
    pub fn body_bytes(&self) -> usize {
        self.enc.len()
    }

    /// True if every recorded op was declared `idempotent` — the flush RPC
    /// may then be tagged retryable under the at-most-once machinery.
    pub fn all_idempotent(&self) -> bool {
        self.all_idempotent
    }

    /// Proc number of the i-th recorded op (for mapping a failed status
    /// index back to the originating call).
    pub fn proc_at(&self, index: usize) -> Option<u32> {
        self.procs.get(index).copied()
    }

    /// Finalize: patch the op count into the body prefix and hand the body
    /// out for the flush RPC. The builder is left empty but keeps no
    /// allocation — pass the body back via [`BatchBuilder::recycle`] after
    /// the flush to reuse it.
    pub fn finish(&mut self) -> Vec<u8> {
        let count = self.procs.len() as u32;
        let mut body = std::mem::take(&mut self.enc).into_inner();
        body[0..4].copy_from_slice(&count.to_be_bytes());
        self.procs.clear();
        self.all_idempotent = true;
        body
    }

    /// Return a flushed body buffer for reuse by the next batch.
    pub fn recycle(&mut self, mut body: Vec<u8>) {
        body.clear();
        self.enc = XdrEncoder::from_sink(body);
        self.enc.put_u32(0);
    }
}

/// Why a batch was flushed (telemetry + adaptive-watermark feedback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// A synchronization or non-batchable call forced the flush.
    Sync,
    /// The adaptive depth watermark was reached.
    Depth,
    /// The byte budget was reached.
    Bytes,
}

/// Flush policy: hard caps plus an adaptive depth watermark.
///
/// The watermark grows (doubles, up to `max_ops`) each time a batch fills
/// to it — sustained offered load earns deeper coalescing — and shrinks
/// (halves, down to 1) each time a sync point flushes a nearly-empty
/// batch. At watermark 1 every record flushes immediately, so a
/// latency-sensitive single-op workload pays at most one watermark-miss
/// before the engine stops deferring, keeping its latency within noise of
/// the unbatched path.
#[derive(Debug, Clone)]
pub struct BatchPolicy {
    /// Hard cap on ops per batch (and ceiling for the watermark).
    pub max_ops: usize,
    /// Byte budget per batch body.
    pub max_bytes: usize,
    /// Current adaptive depth watermark, in `[1, max_ops]`.
    watermark: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self::new(64, 48 * 1024)
    }
}

impl BatchPolicy {
    /// Policy with the given caps; the watermark starts at `max_ops`
    /// (optimistic: the first sync point will shrink it if load is low).
    pub fn new(max_ops: usize, max_bytes: usize) -> Self {
        Self {
            max_ops: max_ops.max(1),
            max_bytes,
            watermark: max_ops.max(1),
        }
    }

    /// Should the builder be flushed after the op just recorded?
    pub fn should_flush(&self, pending_ops: usize, pending_bytes: usize) -> Option<FlushReason> {
        if pending_ops >= self.watermark || pending_ops >= self.max_ops {
            Some(FlushReason::Depth)
        } else if pending_bytes >= self.max_bytes {
            Some(FlushReason::Bytes)
        } else {
            None
        }
    }

    /// Feed back a flush: depth-triggered flushes deepen the watermark,
    /// sync-triggered flushes of short batches shrink it.
    pub fn on_flush(&mut self, reason: FlushReason, ops: usize) {
        match reason {
            FlushReason::Depth | FlushReason::Bytes => {
                self.watermark = (self.watermark * 2).min(self.max_ops);
            }
            FlushReason::Sync if ops < 2 => {
                self.watermark = (self.watermark / 2).max(1);
            }
            FlushReason::Sync => {}
        }
    }
}

/// Per-connection coalescing telemetry.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BatchStats {
    /// Batch flush RPCs sent.
    pub batches: u64,
    /// Ops that traveled inside a batch.
    pub ops_batched: u64,
    /// Flushes forced by a sync point or non-batchable call.
    pub flush_sync: u64,
    /// Flushes triggered by the depth watermark.
    pub flush_depth: u64,
    /// Flushes triggered by the byte budget.
    pub flush_bytes: u64,
    /// Batch-size histogram: buckets of ops-per-batch
    /// `1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, 65+`.
    pub size_histogram: [u64; 8],
}

impl BatchStats {
    /// Record one flushed batch of `ops` ops.
    pub fn record_flush(&mut self, reason: FlushReason, ops: usize) {
        self.batches += 1;
        self.ops_batched += ops as u64;
        match reason {
            FlushReason::Sync => self.flush_sync += 1,
            FlushReason::Depth => self.flush_depth += 1,
            FlushReason::Bytes => self.flush_bytes += 1,
        }
        let bucket = match ops {
            0 | 1 => 0,
            2 => 1,
            3..=4 => 2,
            5..=8 => 3,
            9..=16 => 4,
            17..=32 => 5,
            33..=64 => 6,
            _ => 7,
        };
        self.size_histogram[bucket] += 1;
    }

    /// RPC round trips per batched op: 1.0 means no coalescing at all.
    pub fn rpcs_per_op(&self) -> f64 {
        if self.ops_batched == 0 {
            return 1.0;
        }
        self.batches as f64 / self.ops_batched as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BatchPolicy {
        /// Current adaptive depth watermark.
        fn watermark(&self) -> usize {
            self.watermark
        }
    }

    #[test]
    fn body_carries_count_then_ops() {
        let mut b = BatchBuilder::new();
        assert!(b.is_empty());
        b.record(23, false, |enc| enc.put_u64(0xabcd));
        b.record(12, true, |enc| {
            enc.put_u64(0x1000);
            enc.put_i32(0);
        });
        assert_eq!(b.len(), 2);
        assert!(!b.all_idempotent());
        assert_eq!(b.proc_at(0), Some(23));
        assert_eq!(b.proc_at(1), Some(12));
        let body = b.finish();
        let mut dec = xdr::XdrDecoder::new(&body);
        assert_eq!(dec.get_u32().unwrap(), 2); // count
        assert_eq!(dec.get_u32().unwrap(), 23); // op 0: proc
        assert_eq!(dec.get_u64().unwrap(), 0xabcd);
        assert_eq!(dec.get_u32().unwrap(), 12); // op 1: proc
        assert_eq!(dec.get_u64().unwrap(), 0x1000);
        assert_eq!(dec.get_i32().unwrap(), 0);
        assert!(dec.finish().is_ok());
        // Builder is reset and the recycled buffer is reusable.
        assert!(b.is_empty());
        b.recycle(body);
        b.record(34, true, |enc| enc.put_u64(7));
        assert!(b.all_idempotent());
        let body = b.finish();
        assert_eq!(&body[0..4], &1u32.to_be_bytes());
    }

    #[test]
    fn watermark_adapts_to_offered_load() {
        let mut p = BatchPolicy::new(64, 1 << 20);
        assert_eq!(p.watermark(), 64);
        // Low load: sync points with short batches shrink the watermark to 1.
        for _ in 0..10 {
            p.on_flush(FlushReason::Sync, 1);
        }
        assert_eq!(p.watermark(), 1);
        assert_eq!(p.should_flush(1, 64), Some(FlushReason::Depth));
        // High load: depth flushes double it back up to the cap.
        for _ in 0..10 {
            p.on_flush(FlushReason::Depth, p.watermark());
        }
        assert_eq!(p.watermark(), 64);
        // Byte budget fires independently of depth.
        assert_eq!(p.should_flush(2, 1 << 21), Some(FlushReason::Bytes));
        assert_eq!(p.should_flush(2, 64), None);
        // Long sync flushes do not shrink a hot watermark.
        p.on_flush(FlushReason::Sync, 32);
        assert_eq!(p.watermark(), 64);
    }

    #[test]
    fn stats_histogram_and_rpcs_per_op() {
        let mut s = BatchStats::default();
        s.record_flush(FlushReason::Depth, 16);
        s.record_flush(FlushReason::Depth, 16);
        s.record_flush(FlushReason::Sync, 1);
        assert_eq!(s.batches, 3);
        assert_eq!(s.ops_batched, 33);
        assert_eq!(s.size_histogram[4], 2); // 9–16 bucket
        assert_eq!(s.size_histogram[0], 1);
        // 3 RPCs for 33 ops.
        assert!((s.rpcs_per_op() - 3.0 / 33.0).abs() < 1e-12);
        let empty = BatchStats::default();
        assert_eq!(empty.rpcs_per_op(), 1.0);
    }
}
