//! The raw virtualized CUDA API: typed methods over the generated stub,
//! with accounting and client-flavor behavior.
//!
//! Every method that only forwards a call is generated from the `api`
//! attributes of `cricket.x` (`cricket_v1_api!`, expanded once below) and
//! goes through one of three hooks: `call`, `manage` or `issue`. What is
//! written here decides something: which route a copy takes
//! (`TransferPlan::choose`, counted at `CricketClient::account`), whether a
//! `batchable` call is recorded or sent (`CricketClient::issue`), what a
//! module load counts and how a C-flavor launch marshals its parameters.

use crate::ccompat::{launch_compat_marshal, LAUNCH_COMPAT_NS, TIRPC_CALL_NS};
use crate::env::ClientFlavor;
use crate::error::{ClientError, ClientResult};
use crate::stats::ApiStats;
use crate::stripe::StripePool;
use cricket_proto::{
    cricket_v1, BatchResult, CricketV1BatchOp as BatchOp, CricketV1Client, RpcDim3, U64Result,
};
use oncrpc::{BatchBuilder, BatchPolicy, BatchStats, FlushReason, BATCH_SKIPPED};
use simnet::SimClock;
use std::sync::Arc;

/// H2D copies whose wire form (the payload, or its sparse blob) is at most
/// this long may ride inside a command batch; larger ones flush the batch
/// and go eagerly, so a bulk transfer never sits behind a deferral
/// watermark.
const BATCH_INLINE_HTOD_MAX: usize = 16 * 1024;

/// H2D payloads from this size up to `MAX_RECORD` (the most a sparse blob
/// may decode to) are scanned for all-zero pages; one page is the smallest
/// payload the codec can win on.
const SPARSE_MIN: usize = oncrpc::sparse::SPARSE_PAGE;

/// Minimum copy size that fans out across a stripe pool, when one is
/// attached. Well above [`BATCH_INLINE_HTOD_MAX`], so striping never
/// competes with batching and small ops keep the single-connection path.
const STRIPE_MIN: usize = 1024 * 1024;

/// The route one copy takes between the application buffer and the wire,
/// named by what goes on the wire (DESIGN.md §15 holds the route table).
/// Every route lands the same bytes. D2H copies have no codec and cannot be
/// deferred: they are `Plain` or `Striped`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TransferPlan {
    /// `CUDA_MEMCPY_HTOD` / `CUDA_MEMCPY_DTOH`.
    Plain,
    /// A sub-op of the pending `CRICKET_BATCH_EXEC`.
    BatchInline,
    /// `CUDA_MEMCPY_HTOD_SPARSE`: all-zero pages stay off the wire.
    Sparse,
    /// The sparse blob as a sub-op of the pending batch.
    SparseInBatch,
    /// One `CUDA_MEMCPY_HTOD` / `CUDA_MEMCPY_DTOH` per stripe, across the
    /// pool's lanes.
    Striped,
}

impl TransferPlan {
    /// Whether an H2D payload of `len` bytes is scanned for zero pages.
    fn scans_for_zeros(len: usize) -> bool {
        (SPARSE_MIN..=oncrpc::record::MAX_RECORD).contains(&len)
    }

    /// Pick the route for a copy of `len` bytes. `sparse_won` is the length
    /// of the sparse blob when the codec beat the raw payload (H2D only),
    /// `batching` whether the copy may be deferred (H2D only).
    fn choose(len: usize, sparse_won: Option<usize>, has_pool: bool, batching: bool) -> Self {
        match sparse_won {
            Some(blob) if batching && blob <= BATCH_INLINE_HTOD_MAX => Self::SparseInBatch,
            Some(_) => Self::Sparse,
            None if has_pool && len >= STRIPE_MIN => Self::Striped,
            None if batching && len <= BATCH_INLINE_HTOD_MAX => Self::BatchInline,
            None => Self::Plain,
        }
    }

    /// Routes that record into the pending batch instead of sending.
    fn deferred(self) -> bool {
        matches!(self, Self::BatchInline | Self::SparseInBatch)
    }
}

/// Which way a counted copy went; for H2D, what the route shipped.
enum Copied {
    ToDevice { wire: usize, pages_elided: usize },
    ToHost,
}

/// Client-side coalescing state: the pending batch plus the flush policy
/// and telemetry, and the api name of every recorded op so a failed
/// status index maps back to the originating call.
struct BatchState {
    builder: BatchBuilder,
    policy: BatchPolicy,
    stats: BatchStats,
    apis: Vec<&'static str>,
}

/// The API names copies are counted and refused under.
pub(crate) const HTOD_API: &str = "cudaMemcpy(H2D)";
const DTOH_API: &str = "cudaMemcpy(D2H)";

/// One D2H read, the whole copy on the plain route or one stripe: exactly
/// `dst.len()` bytes at `src`, read off the wire into `dst`. A device
/// refusal is the CUDA error. A reply of any other length is an error too,
/// not a short result, and leaves `dst` untouched: it would hand the caller
/// a short copy, or one that belongs elsewhere.
pub(crate) fn read_dtoh(stub: &mut CricketV1Client, src: u64, dst: &mut [u8]) -> ClientResult<()> {
    match stub.cuda_memcpy_dtoh_into(&src, &(dst.len() as u64), dst)? {
        0 => Ok(()),
        err => Err(ClientError::cuda(DTOH_API, err)),
    }
}

/// The Cricket client: one connection to a Cricket server.
pub struct CricketClient {
    stub: CricketV1Client,
    flavor: ClientFlavor,
    /// Present in simulated mode: client-side host work (launch-compat
    /// marshalling, libtirpc overhead, PRNG init) is charged here.
    clock: Option<Arc<SimClock>>,
    /// Accounting.
    pub stats: ApiStats,
    /// Command coalescing, when enabled (`None` = every call is eager).
    batch: Option<BatchState>,
    /// Multi-connection striping pool, when attached.
    stripes: Option<StripePool>,
    /// Scratch buffer for sparse payload encoding and for the bytes
    /// `copy_to_vec` decodes, reused across calls.
    pub(crate) scratch: Vec<u8>,
}

impl CricketClient {
    /// Wrap a transport with the given client flavor.
    pub fn new(
        transport: Box<dyn oncrpc::Transport>,
        flavor: ClientFlavor,
        clock: Option<Arc<SimClock>>,
    ) -> Self {
        Self {
            stub: CricketV1Client::new(transport),
            flavor,
            clock,
            stats: ApiStats::default(),
            batch: None,
            stripes: None,
            scratch: Vec::new(),
        }
    }

    /// [`Self::new`] without the box at the call site.
    pub fn over(
        transport: impl oncrpc::Transport + 'static,
        flavor: ClientFlavor,
        clock: Option<Arc<SimClock>>,
    ) -> Self {
        Self::new(Box::new(transport), flavor, clock)
    }

    /// Connect to a Cricket deployment — a single server or a fleet
    /// directory — with the native-Linux client flavor (wall-clock time).
    /// The single client entry point; see [`crate::Endpoint`].
    pub fn connect(endpoint: &crate::Endpoint) -> ClientResult<Self> {
        let (t, _addr) = endpoint.connect_transport()?;
        Ok(Self::over(t, ClientFlavor::RustRpcLib, None))
    }

    // ---- command coalescing -------------------------------------------

    /// Enable adaptive command coalescing with the default policy: async,
    /// non-result-bearing calls are recorded into a batch and flushed as
    /// one `CRICKET_BATCH_EXEC` round trip at the next sync point, depth
    /// watermark, or byte budget.
    pub fn enable_batching(&mut self) {
        self.enable_batching_with(BatchPolicy::default());
    }

    /// Enable coalescing with an explicit flush policy.
    pub fn enable_batching_with(&mut self, policy: BatchPolicy) {
        self.batch = Some(BatchState {
            builder: BatchBuilder::new(),
            policy,
            stats: BatchStats::default(),
            apis: Vec::new(),
        });
    }

    /// Flush any pending batch and turn coalescing off.
    pub fn disable_batching(&mut self) -> ClientResult<()> {
        self.flush_batch()?;
        self.batch = None;
        Ok(())
    }

    /// Coalescing telemetry, when batching is enabled.
    pub fn batch_stats(&self) -> Option<&BatchStats> {
        self.batch.as_ref().map(|b| &b.stats)
    }

    /// RPC round trips per batchable op: 1.0 when coalescing is off or
    /// has seen no ops, below 1.0 once ops share round trips.
    pub fn rpcs_per_op(&self) -> f64 {
        self.batch_stats().map_or(1.0, |s| s.rpcs_per_op())
    }

    /// Flush the pending batch, if any, as one `CRICKET_BATCH_EXEC` RPC.
    /// Called implicitly by every sync point and non-batchable call; call
    /// it explicitly to bound deferral without a sync.
    pub fn flush_batch(&mut self) -> ClientResult<()> {
        self.flush_batch_as(FlushReason::Sync)
    }

    fn flush_batch_as(&mut self, reason: FlushReason) -> ClientResult<()> {
        let Some(state) = self.batch.as_mut().filter(|s| !s.builder.is_empty()) else {
            return Ok(());
        };
        let ops = state.builder.len();
        // The flush RPC is retryable under at-most-once only if every
        // recorded sub-op was declared idempotent.
        let idem = state.builder.all_idempotent();
        let body = state.builder.finish();
        state.policy.on_flush(reason, ops);
        state.stats.record_flush(reason, ops);
        let sent = Self::send_batch(&mut self.stub, idem, &body, &state.apis);
        state.builder.recycle(body);
        state.apis.clear();
        sent
    }

    /// One flush round trip: the whole batch body travels as a single
    /// deferred scatter-gather segment, so recorded payloads are copied
    /// once (at record time) and never again on the client.
    fn send_batch(
        stub: &mut CricketV1Client,
        idem: bool,
        body: &[u8],
        apis: &[&'static str],
    ) -> ClientResult<()> {
        let reply = stub
            .rpc
            .call_raw_sg_tagged(cricket_v1::CRICKET_BATCH_EXEC, idem, |enc| {
                enc.put_opaque_deferred(body);
            })?;
        let statuses = (xdr::decode::<BatchResult>(&reply).map_err(oncrpc::RpcError::from)?)
            .into_result()
            .map_err(|code| ClientError::cuda("cricketBatchExec", code))?
            .statuses;
        let failed = |&code: &i32| code != 0 && code != BATCH_SKIPPED;
        match statuses.iter().position(failed) {
            None => Ok(()),
            Some(index) => Err(ClientError::Batch {
                code: statuses[index],
                api: apis.get(index).copied().unwrap_or("cricketBatchExec"),
                index,
            }),
        }
    }

    /// Per-call bookkeeping shared by recorded and sent calls.
    fn pre_record(&mut self, api: &'static str) {
        self.stats.count(api);
        if self.flavor == ClientFlavor::CTirpc {
            self.charge(TIRPC_CALL_NS);
        }
    }

    /// The one place a `batchable` call is either recorded or sent. With a
    /// batch open and `defer` set, `op` is appended to it (and the policy may
    /// flush: depth watermark or byte budget); otherwise it goes out now,
    /// behind any pending batch.
    fn issue(&mut self, api: &'static str, defer: bool, op: BatchOp<'_>) -> ClientResult<()> {
        let Some(state) = self.batch.as_mut().filter(|_| defer) else {
            return self.call(api, |stub| op.send(stub).map(cricket_v1::status));
        };
        op.record(&mut state.builder);
        state.apis.push(api);
        let due = state
            .policy
            .should_flush(state.builder.len(), state.builder.body_bytes());
        self.pre_record(api);
        due.map_or(Ok(()), |reason| self.flush_batch_as(reason))
    }

    /// The one place transferred bytes are counted, for both directions and
    /// every route. Rule: a copy counts when its call returns `Ok` — the
    /// server acknowledged it, or it was recorded into the batch — and a
    /// copy whose call returns an error (refused by the device, an RPC
    /// failure, a pending batch that failed to flush ahead of it) leaves
    /// every transfer counter where it was. `raw` is the application's
    /// byte count whatever the route put on the wire.
    fn account(&mut self, raw: usize, copied: Copied) {
        match copied {
            Copied::ToDevice { wire, pages_elided } => {
                self.stats.bytes_h2d += raw as u64;
                self.stats.wire_bytes_h2d += wire as u64;
                self.stats.sparse_pages_elided += pages_elided as u64;
            }
            Copied::ToHost => self.stats.bytes_d2h += raw as u64,
        }
    }

    // ---- wire efficiency: striping and sparse encoding ----------------

    /// Attach a stripe pool: copies of at least `STRIPE_MIN` (1 MiB) shard
    /// across the pool's lanes as plain copy calls, one per stripe at
    /// `base + offset`. Smaller ops keep the single-connection fast path
    /// untouched.
    pub fn enable_striping(&mut self, pool: StripePool) {
        self.stripes = Some(pool);
    }

    /// Detach the stripe pool, returning it so the lanes can be reused.
    pub fn disable_striping(&mut self) -> Option<StripePool> {
        self.stripes.take()
    }

    /// The simulated clock, if any (examples print virtual times from it).
    pub fn clock(&self) -> Option<&Arc<SimClock>> {
        self.clock.as_ref()
    }

    /// The client flavor.
    pub fn flavor(&self) -> ClientFlavor {
        self.flavor
    }

    /// Override the ONC RPC maximum fragment size (fragmentation ablation).
    pub fn set_max_fragment(&mut self, max_fragment: usize) {
        self.stub.rpc.set_max_fragment(max_fragment);
    }

    /// The underlying RPC client, for resilience configuration: retry
    /// policy, per-call deadline, reconnect hook, client credential.
    pub fn rpc(&mut self) -> &mut oncrpc::RpcClient {
        &mut self.stub.rpc
    }

    /// Charge client-side host nanoseconds (simulated mode only).
    pub(crate) fn charge(&self, ns: u64) {
        if let Some(c) = &self.clock {
            c.advance(ns);
        }
    }

    fn pre_call(&mut self, api: &'static str) -> ClientResult<()> {
        // Any eager RPC is an ordering barrier: recorded ops must reach
        // the server before it, so a pending batch flushes first. A
        // deferred sub-op's failure therefore surfaces here, as a
        // [`ClientError::Batch`] naming the originating call.
        self.flush_batch_as(FlushReason::Sync)?;
        self.pre_record(api);
        Ok(())
    }

    /// Send one CUDA call now, behind any pending batch. `send` turns the
    /// reply into the payload or the CUDA error code it carried.
    fn call<T>(
        &mut self,
        api: &'static str,
        send: impl FnOnce(&mut CricketV1Client) -> oncrpc::RpcResult<Result<T, i32>>,
    ) -> ClientResult<T> {
        self.pre_call(api)?;
        send(&mut self.stub)?.map_err(|code| ClientError::cuda(api, code))
    }

    /// [`Self::call`] for server management: behind any pending batch too (a
    /// checkpoint must see recorded work, statistics must not race deferred
    /// ops), but not counted as a CUDA API call.
    fn manage<T>(
        &mut self,
        api: &'static str,
        send: impl FnOnce(&mut CricketV1Client) -> oncrpc::RpcResult<Result<T, i32>>,
    ) -> ClientResult<T> {
        self.flush_batch()?;
        send(&mut self.stub)?.map_err(|code| ClientError::cuda(api, code))
    }

    // `device_count` ... `ping`: one method per `api` procedure of cricket.x.
    cricket_proto::cricket_v1_api!(ClientResult);

    /// cudaMemcpy host→device. The payload travels borrowed end to end:
    /// the stub defers it into a scatter-gather record, so the only copies
    /// left are inside the transport and the server's device write.
    ///
    /// The route is picked once, by `TransferPlan::choose`: zero-heavy
    /// payloads travel sparse, large ones fan out across an attached stripe
    /// pool, small ones ride a pending command batch (staged into its body,
    /// so the caller's buffer is free immediately). Whatever the route, the
    /// device write is byte-identical to the plain path.
    pub fn memcpy_htod(&mut self, dst: u64, data: &[u8]) -> ClientResult<()> {
        let mut blob = std::mem::take(&mut self.scratch);
        let won = TransferPlan::scans_for_zeros(data.len())
            .then(|| oncrpc::sparse::encode_adaptive(data, oncrpc::sparse::SPARSE_PAGE, &mut blob))
            .flatten();
        let plan = TransferPlan::choose(
            data.len(),
            won.map(|(wire, _)| wire),
            self.stripes.is_some(),
            self.batch.is_some(),
        );
        let sent = match plan {
            TransferPlan::Plain | TransferPlan::BatchInline => self.issue(
                HTOD_API,
                plan.deferred(),
                BatchOp::CudaMemcpyHtod(dst, data),
            ),
            TransferPlan::Sparse | TransferPlan::SparseInBatch => self.issue(
                HTOD_API,
                plan.deferred(),
                BatchOp::CudaMemcpyHtodSparse(dst, &blob),
            ),
            TransferPlan::Striped => self
                .pre_call(HTOD_API)
                .and_then(|()| self.stripe_pool().scatter(dst, data)),
        };
        blob.clear();
        self.scratch = blob;
        sent?;
        let (wire, pages_elided) = won.unwrap_or((data.len(), 0));
        self.account(data.len(), Copied::ToDevice { wire, pages_elided });
        Ok(())
    }

    /// The pool behind a `Striped` plan.
    fn stripe_pool(&mut self) -> &mut StripePool {
        self.stripes
            .as_mut()
            .expect("TransferPlan::choose picks Striped only with a pool attached")
    }

    /// Every D2H copy: one read of exactly `dst.len()` bytes into `dst`,
    /// planned once and counted once. The plain route reads the reply's
    /// data straight into `dst`, a striped one each stripe into its
    /// sub-slice. A reply of any other length is an error, not a short
    /// result.
    pub(crate) fn dtoh(&mut self, src: u64, dst: &mut [u8]) -> ClientResult<()> {
        let plan = TransferPlan::choose(dst.len(), None, self.stripes.is_some(), false);
        self.pre_call(DTOH_API)?;
        match plan {
            TransferPlan::Striped => self.stripe_pool().gather(src, dst)?,
            _ => read_dtoh(&mut self.stub, src, dst)?,
        }
        self.account(dst.len(), Copied::ToHost);
        Ok(())
    }

    /// cudaMemcpy device→host into a fresh `Vec`: the one allocation of the
    /// call, which the reply's data is read straight into.
    pub fn memcpy_dtoh(&mut self, src: u64, len: u64) -> ClientResult<Vec<u8>> {
        let mut out = vec![0; len as usize];
        self.dtoh(src, &mut out)?;
        Ok(out)
    }

    // ---- modules and launches -----------------------------------------

    /// cuModuleLoadData: ship a cubin image read on the client side to the
    /// server (the paper's §3.3 loading path).
    pub fn module_load(&mut self, image: &[u8]) -> ClientResult<u64> {
        let module = self.call("cuModuleLoadData", |stub| {
            (stub.cu_module_load_data(image)).map(U64Result::into_result)
        })?;
        let (wire, pages_elided) = (image.len(), 0);
        self.account(image.len(), Copied::ToDevice { wire, pages_elided });
        Ok(module)
    }

    /// cuLaunchKernel. The C flavor pays for the `<<<...>>>`-compatibility
    /// marshalling the Rust implementation omits (paper §4.2).
    pub fn launch_kernel(
        &mut self,
        func: u64,
        grid: RpcDim3,
        block: RpcDim3,
        shared_mem: u32,
        stream: u64,
        params: &[u8],
    ) -> ClientResult<()> {
        self.stats.launches += 1;
        let staged;
        let params = if self.flavor == ClientFlavor::CTirpc {
            staged = launch_compat_marshal(params);
            self.charge(LAUNCH_COMPAT_NS);
            &staged[..]
        } else {
            params
        };
        let op = BatchOp::CudaLaunchKernel(func, grid, block, shared_mem, stream, params);
        self.issue("cuLaunchKernel", true, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvConfig;
    use crate::sim::SimSetup;

    impl CricketClient {
        /// [`CricketClient::memcpy_dtoh`] of `dst.len()` bytes into the
        /// caller's buffer.
        fn memcpy_dtoh_into(&mut self, src: u64, dst: &mut [u8]) -> ClientResult<()> {
            self.dtoh(src, dst)
        }
    }

    fn batched_and_eager_clients() -> (SimSetup, CricketClient, SimSetup, CricketClient) {
        let sim_b = SimSetup::new();
        let mut batched = sim_b.client(EnvConfig::RustyHermit);
        batched.enable_batching();
        let sim_e = SimSetup::new();
        let eager = sim_e.client(EnvConfig::RustyHermit);
        (sim_b, batched, sim_e, eager)
    }

    /// Same op sequence, same device state — but the batched client needs
    /// far fewer RPC round trips than the eager one.
    #[test]
    fn batched_ops_match_eager_state_with_fewer_rpcs() {
        let (_sb, mut batched, _se, mut eager) = batched_and_eager_clients();
        let run = |c: &mut CricketClient| -> ClientResult<Vec<u8>> {
            let ptr = c.malloc(256)?;
            for i in 0..16u64 {
                c.memset(ptr + i * 16, i as i32, 16)?;
            }
            c.memcpy_htod(ptr, &[0xAB; 8])?;
            let out = c.memcpy_dtoh(ptr, 256)?;
            c.free(ptr)?;
            Ok(out)
        };
        let out_b = run(&mut batched).unwrap();
        let out_e = run(&mut eager).unwrap();
        assert_eq!(out_b, out_e);
        assert_eq!(&out_b[0..8], &[0xAB; 8]);
        assert_eq!(out_b[16], 1);
        let calls_b = batched.rpc().stats().calls;
        let calls_e = eager.rpc().stats().calls;
        // 17 async ops coalesced into one flush: malloc + flush + dtoh +
        // free = 4 round trips vs. 20 eager.
        assert!(
            calls_b * 4 <= calls_e,
            "batched {calls_b} vs eager {calls_e}"
        );
        let stats = batched.batch_stats().unwrap().clone();
        assert_eq!(stats.ops_batched, 17);
        assert_eq!(stats.batches, 1);
        assert!(batched.rpcs_per_op() < 0.25, "{}", batched.rpcs_per_op());
    }

    /// A failed sub-op surfaces at the flush point as a typed error naming
    /// the originating call and its batch index; later ops of the slice
    /// are skipped, and the builder is reusable afterwards.
    #[test]
    fn batch_failure_names_the_originating_call() {
        let sim = SimSetup::new();
        let mut c = sim.client(EnvConfig::RustyHermit);
        c.enable_batching();
        let ptr = c.malloc(64).unwrap();
        c.memset(ptr, 1, 64).unwrap();
        c.memset(0xdead_beef_0000, 2, 8).unwrap(); // recorded, fails at flush
        c.memset(ptr, 3, 64).unwrap(); // same slice: skipped
        let err = c.device_synchronize().unwrap_err();
        match err {
            ClientError::Batch { api, index, code } => {
                assert_eq!(api, "cudaMemset");
                assert_eq!(index, 1);
                assert_ne!(code, 0);
            }
            other => panic!("expected batch error, got {other}"),
        }
        // The failed flush did not poison the connection or the builder.
        c.memset(ptr, 4, 64).unwrap();
        c.device_synchronize().unwrap();
        assert_eq!(c.memcpy_dtoh(ptr, 1).unwrap(), vec![4]);
        c.free(ptr).unwrap();
    }

    /// Sync-after-every-op load shrinks the adaptive watermark to 1 so
    /// single ops stop being deferred (latency guard).
    #[test]
    fn low_offered_load_degenerates_to_eager_flushes() {
        let sim = SimSetup::new();
        let mut c = sim.client(EnvConfig::RustyHermit);
        c.enable_batching_with(BatchPolicy::new(64, 48 * 1024));
        let ptr = c.malloc(64).unwrap();
        for _ in 0..8 {
            c.memset(ptr, 0, 64).unwrap();
            c.device_synchronize().unwrap();
        }
        let stats = c.batch_stats().unwrap();
        // After the watermark collapses, records flush immediately (depth
        // reason at watermark 1) instead of waiting for the sync.
        assert!(
            stats.flush_depth >= 1,
            "watermark never collapsed: {stats:?}"
        );
        c.free(ptr).unwrap();
    }

    /// Large H2D copies bypass the batch (and flush what was pending) so
    /// bulk transfers never wait behind a deferral watermark.
    #[test]
    fn large_htod_bypasses_the_batch() {
        let sim = SimSetup::new();
        let mut c = sim.client(EnvConfig::RustyHermit);
        c.enable_batching();
        let big = vec![7u8; BATCH_INLINE_HTOD_MAX + 1];
        let ptr = c.malloc(big.len() as u64).unwrap();
        c.memset(ptr, 0, 64).unwrap(); // pending
        c.memcpy_htod(ptr, &big).unwrap(); // flushes, then goes eagerly
        let stats = c.batch_stats().unwrap();
        assert_eq!(stats.ops_batched, 1, "only the memset was deferred");
        assert_eq!(c.memcpy_dtoh(ptr, 4).unwrap(), vec![7; 4]);
        c.free(ptr).unwrap();
    }

    /// The whole route table of [`TransferPlan`], at every boundary.
    #[test]
    fn transfer_plan_at_every_boundary() {
        use TransferPlan::*;
        const MAX: usize = oncrpc::record::MAX_RECORD;
        const INLINE: usize = BATCH_INLINE_HTOD_MAX;
        for (len, scanned) in [
            (SPARSE_MIN - 1, false),
            (SPARSE_MIN, true),
            (MAX, true),
            (MAX + 1, false),
        ] {
            assert_eq!(TransferPlan::scans_for_zeros(len), scanned, "{len}");
        }
        // (len, sparse blob if the codec won, pool, batching) → route
        let table = [
            (0, None, false, false, Plain),
            (0, None, true, true, BatchInline),
            (INLINE, None, false, false, Plain),
            (INLINE, None, true, false, Plain),
            (INLINE, None, false, true, BatchInline),
            (INLINE + 1, None, false, true, Plain),
            (INLINE + 1, None, true, true, Plain),
            (STRIPE_MIN - 1, None, true, false, Plain),
            (STRIPE_MIN - 1, None, true, true, Plain),
            (STRIPE_MIN, None, false, false, Plain),
            (STRIPE_MIN, None, false, true, Plain),
            (STRIPE_MIN, None, true, false, Striped),
            (STRIPE_MIN, None, true, true, Striped),
            (MAX + 1, None, true, true, Striped),
            // The codec won: sparse outranks striping, and it is the blob,
            // not the payload, that has to fit the inline budget.
            (SPARSE_MIN, Some(SPARSE_MIN - 1), false, false, Sparse),
            (SPARSE_MIN, Some(SPARSE_MIN - 1), false, true, SparseInBatch),
            (STRIPE_MIN, Some(INLINE), true, true, SparseInBatch),
            (STRIPE_MIN, Some(INLINE), true, false, Sparse),
            (STRIPE_MIN, Some(INLINE + 1), true, true, Sparse),
            (MAX, Some(MAX - 1), true, true, Sparse),
        ];
        for (len, won, pool, batching, want) in table {
            let got = TransferPlan::choose(len, won, pool, batching);
            assert_eq!(
                got, want,
                "len {len} won {won:?} pool {pool} batching {batching}"
            );
            assert_eq!(got.deferred(), matches!(got, BatchInline | SparseInBatch));
            // A D2H copy asks without codec or deferral.
            let d2h = TransferPlan::choose(len, None, pool, false);
            assert_eq!(
                d2h,
                if pool && len >= STRIPE_MIN {
                    Striped
                } else {
                    Plain
                }
            );
        }
    }

    /// `len` bytes whose 4 KiB page `i` is all-zero unless `literal(i)`.
    fn paged(len: usize, literal: impl Fn(usize) -> bool) -> Vec<u8> {
        let mut data = vec![0u8; len];
        for (i, page) in data.chunks_mut(SPARSE_MIN).enumerate() {
            if literal(i) {
                page.iter_mut()
                    .enumerate()
                    .for_each(|(j, b)| *b = ((i + j) % 251) as u8 | 1);
            }
        }
        data
    }

    fn transfer_counters(c: &CricketClient) -> [u64; 4] {
        let s = &c.stats;
        [
            s.bytes_h2d,
            s.bytes_d2h,
            s.wire_bytes_h2d,
            s.sparse_pages_elided,
        ]
    }

    /// Ops recorded into the batch and not yet flushed.
    fn pending(c: &CricketClient) -> usize {
        c.batch.as_ref().map_or(0, |b| b.builder.len())
    }

    fn stripes_sent(c: &CricketClient) -> u64 {
        c.stripes.as_ref().map_or(0, StripePool::stripes_sent)
    }

    /// A client on a fresh node, with a 4-lane pool and/or batching.
    fn client_with(pool: bool, batching: bool) -> (SimSetup, CricketClient) {
        let sim = SimSetup::new();
        let mut c = if pool {
            sim.striped_client(EnvConfig::RustyHermit, 4)
        } else {
            sim.client(EnvConfig::RustyHermit)
        };
        if batching {
            c.enable_batching();
        }
        (sim, c)
    }

    /// The same payload through every route it can reach lands the same
    /// device bytes and counts the same transfer, on the client and on the
    /// server — and between them the payloads reach every route there is.
    #[test]
    fn every_route_lands_the_same_bytes_and_counts_the_same_transfer() {
        use TransferPlan::*;
        let payloads = [
            paged(8 << 10, |_| true),
            paged(8 << 10, |i| i == 0),
            paged(STRIPE_MIN, |_| true),
            paged(STRIPE_MIN + SPARSE_MIN, |i| i % 32 == 0),
        ];
        let mut h2d_routes = std::collections::HashSet::new();
        let mut d2h_routes = std::collections::HashSet::new();
        for data in &payloads {
            let mut outcomes = Vec::new();
            for (pool, batching) in [(false, false), (false, true), (true, false), (true, true)] {
                let (_sim, mut c) = client_with(pool, batching);
                let ptr = c.malloc(data.len() as u64).unwrap();
                c.memcpy_htod(ptr, data).unwrap();
                let deferred = pending(&c) == 1;
                let striped_out = stripes_sent(&c);
                h2d_routes.insert(
                    match (c.stats.sparse_pages_elided > 0, deferred, striped_out > 0) {
                        (false, false, false) => Plain,
                        (false, true, false) => BatchInline,
                        (true, false, false) => Sparse,
                        (true, true, false) => SparseInBatch,
                        (false, false, true) => Striped,
                        mixed => panic!("one copy took two routes: {mixed:?}"),
                    },
                );
                let back = c.memcpy_dtoh(ptr, data.len() as u64).unwrap();
                d2h_routes.insert(if stripes_sent(&c) > striped_out {
                    Striped
                } else {
                    Plain
                });
                let bytes_in = c.server_stats().unwrap().get("server.bytes_in");
                assert_eq!(bytes_in, Some(data.len() as u64));
                let [h2d, d2h, wire, elided] = transfer_counters(&c);
                assert_eq!(wire < h2d, elided > 0, "only zero pages leave the wire");
                outcomes.push((back, h2d, d2h));
            }
            let want = (data.clone(), data.len() as u64, data.len() as u64);
            assert!(outcomes.iter().all(|o| *o == want), "{} bytes", data.len());
        }
        assert_eq!(
            h2d_routes,
            [Plain, BatchInline, Sparse, SparseInBatch, Striped].into()
        );
        assert_eq!(d2h_routes, [Plain, Striped].into());
    }

    /// The counting rule of `account`, on every route: a copy whose call
    /// returns an error — refused by the device, or never sent because the
    /// batch pending ahead of it failed to flush — moves no transfer counter.
    #[test]
    fn a_failed_copy_moves_no_transfer_counter_on_any_route() {
        let dense_small = paged(8 << 10, |_| true);
        let sparse_small = paged(8 << 10, |i| i == 0);
        let dense_large = paged(STRIPE_MIN, |_| true);
        let sparse_large = paged(STRIPE_MIN + SPARSE_MIN, |i| i % 32 == 0);
        let cases = [
            (&dense_small, false, false),  // Plain
            (&dense_small, false, true),   // BatchInline
            (&sparse_small, false, false), // Sparse
            (&sparse_small, false, true),  // SparseInBatch
            (&sparse_large, true, true),   // Sparse, too big to defer
            (&dense_large, true, false),   // Striped, both directions
            (&dense_large, false, true),   // Plain, too big to defer
        ];
        for (data, pool, batching) in cases {
            let what = format!("{} bytes, pool {pool}, batching {batching}", data.len());
            // Freed memory: the device refuses the copy itself.
            let (_sim, mut c) = client_with(pool, false);
            if batching {
                // Flush at once, so the refusal comes back from this call.
                c.enable_batching_with(BatchPolicy::new(1, 48 << 10));
            }
            let ptr = c.malloc(data.len() as u64).unwrap();
            c.free(ptr).unwrap();
            assert!(c.memcpy_htod(ptr, data).is_err(), "{what}");
            assert!(c.memcpy_dtoh(ptr, data.len() as u64).is_err(), "{what}");
            let mut into = vec![0u8; data.len()];
            assert!(c.memcpy_dtoh_into(ptr, &mut into).is_err(), "{what}");
            assert_eq!(transfer_counters(&c), [0; 4], "{what}");

            // A poisoned batch pending: the copy behind it is never sent.
            // (A copy that is itself deferred joins the batch instead and
            // is counted as recorded; its flush is the next call's error.)
            let (_sim, mut c) = client_with(pool, true);
            let ptr = c.malloc(data.len() as u64).unwrap();
            let poison = |c: &mut CricketClient| c.memset(0xdead_beef_0000, 0, 8).unwrap();
            poison(&mut c);
            let sent = c.memcpy_htod(ptr, data);
            if pending(&c) == 2 {
                sent.unwrap();
                assert_eq!(transfer_counters(&c)[0], data.len() as u64, "{what}");
                c.stats.reset();
            } else {
                assert!(
                    matches!(sent, Err(ClientError::Batch { index: 0, .. })),
                    "{what}"
                );
            }
            poison(&mut c);
            let read = c.memcpy_dtoh(ptr, data.len() as u64);
            assert!(matches!(read, Err(ClientError::Batch { .. })), "{what}");
            assert_eq!(transfer_counters(&c), [0; 4], "{what}");
        }
    }

    /// A D2H reply is exactly the bytes asked for or an error, on the plain
    /// route and on every stripe: a server that answers one byte short must
    /// not come back as a short `Vec` or a partly filled slice.
    #[test]
    fn short_dtoh_reply_is_a_typed_error() {
        let mut server = oncrpc::RpcServer::new();
        let short = |proc: u32, args: &mut xdr::XdrDecoder<'_>, reply: &mut xdr::XdrEncoder| {
            assert_eq!(proc, cricket_v1::CUDA_MEMCPY_DTOH);
            let garbage = |_| oncrpc::AcceptStat::GarbageArgs;
            let (_src, len) = (
                args.get_u64().map_err(garbage)?,
                args.get_u64().map_err(garbage)?,
            );
            reply.put_i32(0);
            reply.put_opaque(&vec![7u8; len as usize - 1]);
            Ok(())
        };
        server.register(
            cricket_proto::CRICKET_CUDA,
            cricket_proto::CRICKET_V1,
            Arc::new(short),
        );
        let (client_end, server_end) = oncrpc::duplex_pair();
        let (lane_ends, server_ends): (Vec<_>, Vec<_>) =
            (0..2).map(|_| oncrpc::duplex_pair()).unzip();
        std::thread::scope(|scope| {
            for mut end in server_ends.into_iter().chain([server_end]) {
                let server = &server;
                scope.spawn(move || server.serve_connection(&mut end));
            }
            let mut c = CricketClient::over(client_end, ClientFlavor::RustRpcLib, None);
            let mut plain = [0xEEu8; 50];
            let mut errs = vec![
                (c.memcpy_dtoh(0x1000, 50).unwrap_err(), 50),
                (c.memcpy_dtoh_into(0x1000, &mut plain).unwrap_err(), 50),
            ];
            let lanes = lane_ends
                .into_iter()
                .map(|end| CricketV1Client::new(Box::new(end)));
            c.enable_striping(StripePool::new(lanes.collect(), None));
            // Each stripe is one 256 KiB read, and the first one is short.
            let mut striped = vec![0xEEu8; STRIPE_MIN];
            errs.push((
                c.memcpy_dtoh(0x1000, STRIPE_MIN as u64).unwrap_err(),
                256 << 10,
            ));
            errs.push((
                c.memcpy_dtoh_into(0x1000, &mut striped).unwrap_err(),
                256 << 10,
            ));
            for (err, want) in errs {
                match err {
                    ClientError::Rpc(oncrpc::RpcError::Xdr(xdr::XdrError::Custom(why))) => {
                        let expect = format!("{} bytes, wanted {want}", want - 1);
                        assert!(why.contains(&expect), "{why}")
                    }
                    other => panic!("expected a length error, got {other}"),
                }
            }
            assert_eq!(plain, [0xEE; 50], "nothing of a refused reply is copied");
            assert!(
                striped.iter().all(|&b| b == 0xEE),
                "nor of a refused stripe"
            );
            assert_eq!(c.stats.bytes_d2h, 0);
            assert_eq!(stripes_sent(&c), 0);
        });
    }

    /// Every generated method but the `admin` ones, called once, counts one
    /// call under the name its `api` attribute declares, and nothing else:
    /// the key set of `per_api` is exactly the declared names.
    #[test]
    fn every_generated_call_counts_once_under_its_declared_name() {
        let spec = rpcl::parse(include_str!("../../cricket-proto/proto/cricket.x")).unwrap();
        let Some(rpcl::ast::Definition::Program(program)) = spec.definitions.last() else {
            panic!("cricket.x ends with its program")
        };
        let declared: Vec<&str> = (program.versions[0].procedures.iter())
            .filter(|proc| !proc.admin)
            .filter_map(|proc| Some(proc.api.as_ref()?.name.as_str()))
            .collect();
        use vgpu::fft::{CUFFT_C2C, CUFFT_FORWARD};
        let sim = SimSetup::new();
        let mut c = sim.client(EnvConfig::RustyHermit);
        let image = crate::CubinBuilder::new().kernel("empty", &[]).build(false);
        let module = c.module_load(&image).unwrap();
        c.stats.reset();

        assert_eq!(c.device_count().unwrap(), 4);
        assert_eq!(c.device_properties(0).unwrap().warp_size, 32);
        c.set_device(0).unwrap();
        assert_eq!(c.get_device().unwrap(), 0);
        let p = c.malloc(4096).unwrap();
        c.memset(p, 0x3f, 4096).unwrap();
        c.memcpy_dtod(p + 1024, p, 1024).unwrap();
        assert!(c.mem_get_info().unwrap().free > 0);
        assert_eq!(c.get_last_error().unwrap(), 0);
        c.module_get_function(module, "empty").unwrap();
        c.module_unload(module).unwrap();
        let stream = c.stream_create().unwrap();
        let event = c.event_create().unwrap();
        c.event_record(event, stream).unwrap();
        c.stream_synchronize(stream).unwrap();
        c.event_synchronize(event).unwrap();
        assert_eq!(c.event_elapsed_ms(event, event).unwrap(), 0.0);
        c.event_destroy(event).unwrap();
        c.stream_destroy(stream).unwrap();
        let blas = c.blas_create().unwrap();
        c.sgemm(blas, 0, 0, 1, 1, 1, 1.0, p, 1, p + 4, 1, 0.0, p + 8, 1)
            .unwrap();
        c.dgemm(blas, 0, 0, 1, 1, 1, 1.0, p, 1, p + 8, 1, 0.0, p + 16, 1)
            .unwrap();
        c.blas_destroy(blas).unwrap();
        let solver = c.solver_create().unwrap();
        let (a, work, ipiv, info) = (p + 2048, p + 2560, p + 3072, p + 3584);
        assert!(c.dgetrf_buffer_size(solver, 1, 1, a, 1).unwrap() >= 0);
        c.dgetrf(solver, 1, 1, a, 1, work, ipiv, info).unwrap();
        c.dgetrs(solver, 0, 1, 1, a, 1, ipiv, p, 1, info).unwrap();
        c.solver_destroy(solver).unwrap();
        let plan = c.fft_plan_1d(4, CUFFT_C2C, 1).unwrap();
        c.fft_exec_c2c(plan, p, p + 64, CUFFT_FORWARD).unwrap();
        // A refused call counts too: this plan is not a Z2Z one.
        assert!(c.fft_exec_z2z(plan, p, p + 128, CUFFT_FORWARD).is_err());
        c.fft_destroy(plan).unwrap();
        c.free(p).unwrap();
        c.device_synchronize().unwrap();
        c.device_reset().unwrap();
        // The management calls are not API calls.
        c.ping().unwrap();
        c.server_stats().unwrap();

        let counted: Vec<(&str, u64)> = c.stats.per_api.clone().into_iter().collect();
        let mut want: Vec<(&str, u64)> = declared.iter().map(|&name| (name, 1)).collect();
        want.sort_unstable();
        assert_eq!(counted, want);
        assert_eq!(c.stats.api_calls, declared.len() as u64);
    }

    /// `memcpy_dtoh_into` writes the caller's slice and nothing around it,
    /// and is the same read as the owned form.
    #[test]
    fn dtoh_into_fills_exactly_the_callers_slice() {
        let sim = SimSetup::new();
        let mut c = sim.client(EnvConfig::RustyHermit);
        let data: Vec<u8> = (0..=255).collect();
        let ptr = c.malloc(256).unwrap();
        c.memcpy_htod(ptr, &data).unwrap();
        let mut dst = [0xEEu8; 40];
        c.memcpy_dtoh_into(ptr + 8, &mut dst[4..36]).unwrap();
        assert_eq!(dst[..4], [0xEE; 4]);
        assert_eq!(dst[4..36], data[8..40]);
        assert_eq!(dst[36..], [0xEE; 4]);
        assert_eq!(c.memcpy_dtoh(ptr + 8, 32).unwrap(), data[8..40]);
        assert_eq!(c.stats.bytes_d2h, 64);
        // A device-side refusal is the CUDA error, for both forms.
        let refused = c.memcpy_dtoh_into(ptr + 250, &mut dst).unwrap_err();
        assert_eq!(
            refused.cuda_code(),
            c.memcpy_dtoh(ptr + 250, 40).unwrap_err().cuda_code()
        );
        assert!(refused.cuda_code().is_some());
        c.free(ptr).unwrap();
    }
}
