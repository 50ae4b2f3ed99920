//! The raw virtualized CUDA API: typed wrappers over the generated stub,
//! with accounting and client-flavor behavior.

use crate::ccompat::{launch_compat_marshal, LAUNCH_COMPAT_NS, TIRPC_CALL_NS};
use crate::env::ClientFlavor;
use crate::error::{ClientError, ClientResult};
use crate::stats::ApiStats;
use cricket_proto::{
    cricket_v1, BatchResult, CricketV1Client, DeviceProp, MemInfo, RpcDim3, ServerStats,
};
use oncrpc::{BatchBuilder, BatchPolicy, BatchStats, FlushReason, StripePool, BATCH_SKIPPED};
use simnet::SimClock;
use std::sync::Arc;

/// H2D copies at or below this size may ride inside a command batch;
/// larger payloads flush the batch and take the ordinary scatter-gather
/// path so a bulk transfer never sits behind a deferral watermark.
pub const BATCH_INLINE_HTOD_MAX: usize = 16 * 1024;

/// H2D payloads at or above this size are scanned for all-zero pages;
/// when the zero-elided form is strictly smaller it travels as
/// `CUDA_MEMCPY_HTOD_SPARSE` instead (one page is the smallest payload
/// the codec can win on).
pub const SPARSE_MIN: usize = oncrpc::sparse::SPARSE_PAGE;

/// Minimum copy size that fans out across a stripe pool, when one is
/// attached. Well above [`BATCH_INLINE_HTOD_MAX`], so striping
/// never competes with batching and small ops keep the untouched
/// single-connection fast path.
pub const STRIPE_MIN: usize = 1024 * 1024;

/// Client-side coalescing state: the pending batch plus the flush policy
/// and telemetry, and the api name of every recorded op so a failed
/// status index maps back to the originating call.
struct BatchState {
    builder: BatchBuilder,
    policy: BatchPolicy,
    stats: BatchStats,
    apis: Vec<&'static str>,
}

/// A D2H reply must carry exactly the bytes asked for: anything else would
/// hand the caller a short copy, or one that belongs somewhere else.
fn dtoh_len_check(got: usize, want: usize) -> Result<(), oncrpc::RpcError> {
    if got == want {
        return Ok(());
    }
    Err(oncrpc::RpcError::Xdr(xdr::XdrError::Custom(format!(
        "D2H reply carried {got} bytes, wanted {want}"
    ))))
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
    /// Scratch buffer for sparse payload encoding, reused across calls.
    sparse_scratch: Vec<u8>,
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
            sparse_scratch: Vec::new(),
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
        let Some(state) = self.batch.as_mut() else {
            return Ok(());
        };
        if state.builder.is_empty() {
            return Ok(());
        }
        let ops = state.builder.len();
        // The flush RPC is retryable under at-most-once only if every
        // recorded sub-op was declared idempotent.
        let idem = state.builder.all_idempotent();
        let mut apis = std::mem::take(&mut state.apis);
        let body = state.builder.finish();
        state.policy.on_flush(reason, ops);
        state.stats.record_flush(reason, ops);
        let sent = self.send_batch(idem, &body, &apis);
        let state = self.batch.as_mut().expect("batch state present");
        state.builder.recycle(body);
        apis.clear();
        state.apis = apis;
        sent
    }

    /// One flush round trip: the whole batch body travels as a single
    /// deferred scatter-gather segment, so recorded payloads are copied
    /// once (at record time) and never again on the client.
    fn send_batch(&mut self, idem: bool, body: &[u8], apis: &[&'static str]) -> ClientResult<()> {
        let receipt = {
            let reply = self
                .stub
                .rpc
                .call_raw_sg_tagged(cricket_v1::CRICKET_BATCH_EXEC, idem, |enc| {
                    enc.put_opaque_deferred(body);
                })
                .map_err(ClientError::Rpc)?;
            let mut dec = xdr::XdrDecoder::new(&reply);
            let result: BatchResult = xdr::Xdr::decode(&mut dec).map_err(oncrpc::RpcError::from)?;
            dec.finish().map_err(oncrpc::RpcError::from)?;
            result
        };
        match receipt {
            BatchResult::Receipt(r) => {
                for (index, &code) in r.statuses.iter().enumerate() {
                    if code != 0 && code != BATCH_SKIPPED {
                        return Err(ClientError::Batch {
                            code,
                            api: apis.get(index).copied().unwrap_or("cricketBatchExec"),
                            index,
                        });
                    }
                }
                Ok(())
            }
            BatchResult::Default(code) => Err(ClientError::cuda("cricketBatchExec", code)),
        }
    }

    /// Accounting for a call that is being *recorded* rather than sent:
    /// same per-call bookkeeping as [`Self::pre_call`] but no flush.
    fn pre_record(&mut self, api: &'static str) {
        self.stats.count(api);
        if self.flavor == ClientFlavor::CTirpc {
            self.charge(TIRPC_CALL_NS);
        }
    }

    /// Record bookkeeping plus the policy check: flush if the op just
    /// recorded reached the depth watermark or the byte budget.
    fn after_record(&mut self) -> ClientResult<()> {
        let state = self.batch.as_mut().expect("batch state present");
        match state
            .policy
            .should_flush(state.builder.len(), state.builder.body_bytes())
        {
            Some(reason) => self.flush_batch_as(reason),
            None => Ok(()),
        }
    }

    // ---- wire efficiency: striping and sparse encoding ----------------

    /// Attach a stripe pool: copies of at least [`STRIPE_MIN`] bytes shard
    /// across the pool's lanes as independent stripe RPCs and reassemble
    /// positionally at the far end. Smaller ops keep the single-connection
    /// fast path untouched.
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
    pub fn charge(&self, ns: u64) {
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

    fn int_status(api: &'static str, code: i32) -> ClientResult<()> {
        if code == 0 {
            Ok(())
        } else {
            Err(ClientError::cuda(api, code))
        }
    }

    // ---- device management ------------------------------------------

    /// cudaGetDeviceCount.
    pub fn device_count(&mut self) -> ClientResult<i32> {
        self.pre_call("cudaGetDeviceCount")?;
        self.stub
            .cuda_get_device_count()?
            .into_result()
            .map_err(|c| ClientError::cuda("cudaGetDeviceCount", c))
    }

    /// cudaGetDeviceProperties.
    pub fn device_properties(&mut self, ordinal: i32) -> ClientResult<DeviceProp> {
        self.pre_call("cudaGetDeviceProperties")?;
        match self.stub.cuda_get_device_properties(&ordinal)? {
            cricket_proto::PropResult::Prop(p) => Ok(p),
            cricket_proto::PropResult::Default(c) => {
                Err(ClientError::cuda("cudaGetDeviceProperties", c))
            }
        }
    }

    /// cudaSetDevice.
    pub fn set_device(&mut self, ordinal: i32) -> ClientResult<()> {
        self.pre_call("cudaSetDevice")?;
        Self::int_status("cudaSetDevice", self.stub.cuda_set_device(&ordinal)?)
    }

    /// cudaGetDevice.
    pub fn get_device(&mut self) -> ClientResult<i32> {
        self.pre_call("cudaGetDevice")?;
        self.stub
            .cuda_get_device()?
            .into_result()
            .map_err(|c| ClientError::cuda("cudaGetDevice", c))
    }

    /// cudaDeviceSynchronize.
    pub fn device_synchronize(&mut self) -> ClientResult<()> {
        self.pre_call("cudaDeviceSynchronize")?;
        Self::int_status(
            "cudaDeviceSynchronize",
            self.stub.cuda_device_synchronize()?,
        )
    }

    /// cudaDeviceReset.
    pub fn device_reset(&mut self) -> ClientResult<()> {
        self.pre_call("cudaDeviceReset")?;
        Self::int_status("cudaDeviceReset", self.stub.cuda_device_reset()?)
    }

    // ---- memory -------------------------------------------------------

    /// cudaMalloc.
    pub fn malloc(&mut self, size: u64) -> ClientResult<u64> {
        self.pre_call("cudaMalloc")?;
        self.stub
            .cuda_malloc(&size)?
            .into_result()
            .map_err(|c| ClientError::cuda("cudaMalloc", c))
    }

    /// cudaFree.
    pub fn free(&mut self, ptr: u64) -> ClientResult<()> {
        self.pre_call("cudaFree")?;
        Self::int_status("cudaFree", self.stub.cuda_free(&ptr)?)
    }

    /// cudaMemcpy host→device. The payload travels borrowed end to end:
    /// the stub defers it into a scatter-gather record, so the only copies
    /// left are inside the transport and the server's device write.
    ///
    /// With coalescing enabled, copies up to [`BATCH_INLINE_HTOD_MAX`]
    /// bytes are recorded as *async* descriptors inside the batch (the
    /// payload is staged into the batch body, so the caller's buffer is
    /// free immediately); larger copies flush the batch and go eagerly.
    ///
    /// Two wire optimizations apply transparently, in priority order:
    /// payloads of [`SPARSE_MIN`] to `MAX_RECORD` bytes (the most a sparse
    /// blob may decode to) whose zero-page-elided form is strictly smaller
    /// travel as `CUDA_MEMCPY_HTOD_SPARSE`; otherwise, payloads of at
    /// least [`STRIPE_MIN`] bytes fan out across an attached stripe pool.
    /// Either way the device write is byte-identical to the plain path.
    pub fn memcpy_htod(&mut self, dst: u64, data: &[u8]) -> ClientResult<()> {
        if (SPARSE_MIN..=oncrpc::record::MAX_RECORD).contains(&data.len()) {
            let mut scratch = std::mem::take(&mut self.sparse_scratch);
            let won =
                oncrpc::sparse::encode_adaptive(data, oncrpc::sparse::SPARSE_PAGE, &mut scratch);
            let r = won
                .map(|(wire, zeros)| self.send_htod_sparse(dst, data.len(), &scratch, wire, zeros));
            scratch.clear();
            self.sparse_scratch = scratch;
            if let Some(r) = r {
                return r;
            }
        }
        if self.stripes.is_some() && data.len() >= STRIPE_MIN {
            return self.memcpy_htod_striped(dst, data);
        }
        if self.batch.is_some() && data.len() <= BATCH_INLINE_HTOD_MAX {
            self.pre_record("cudaMemcpy(H2D)");
            self.stats.bytes_h2d += data.len() as u64;
            oncrpc::telemetry::add_transferred(data.len());
            oncrpc::telemetry::add_wire_raw(data.len());
            oncrpc::telemetry::add_wire_sent(data.len());
            let state = self.batch.as_mut().expect("batch state present");
            CricketV1Client::cuda_memcpy_htod_record(&mut state.builder, &dst, data);
            state.apis.push("cudaMemcpy(H2D)");
            return self.after_record();
        }
        self.pre_call("cudaMemcpy(H2D)")?;
        self.stats.bytes_h2d += data.len() as u64;
        oncrpc::telemetry::add_transferred(data.len());
        oncrpc::telemetry::add_wire_raw(data.len());
        oncrpc::telemetry::add_wire_sent(data.len());
        Self::int_status("cudaMemcpy(H2D)", self.stub.cuda_memcpy_htod(&dst, data)?)
    }

    /// Ship an already-encoded sparse H2D payload: recorded into the batch
    /// when the *encoded* blob fits the inline budget, eager
    /// `CUDA_MEMCPY_HTOD_SPARSE` otherwise. Transfer accounting counts the
    /// raw length — the codec changes wire bytes, not the copy.
    fn send_htod_sparse(
        &mut self,
        dst: u64,
        raw_len: usize,
        blob: &[u8],
        wire: usize,
        zeros: usize,
    ) -> ClientResult<()> {
        oncrpc::telemetry::add_wire_raw(raw_len);
        oncrpc::telemetry::add_wire_sent(wire);
        oncrpc::telemetry::add_sparse_pages_elided(zeros as u64);
        if self.batch.is_some() && blob.len() <= BATCH_INLINE_HTOD_MAX {
            self.pre_record("cudaMemcpy(H2D)");
            self.stats.bytes_h2d += raw_len as u64;
            oncrpc::telemetry::add_transferred(raw_len);
            let state = self.batch.as_mut().expect("batch state present");
            CricketV1Client::cuda_memcpy_htod_sparse_record(&mut state.builder, &dst, blob);
            state.apis.push("cudaMemcpy(H2D)");
            return self.after_record();
        }
        self.pre_call("cudaMemcpy(H2D)")?;
        self.stats.bytes_h2d += raw_len as u64;
        oncrpc::telemetry::add_transferred(raw_len);
        Self::int_status(
            "cudaMemcpy(H2D)",
            self.stub.cuda_memcpy_htod_sparse(&dst, blob)?,
        )
    }

    /// Shard one large H2D copy across the stripe pool as independent
    /// `CUDA_MEMCPY_HTOD_STRIPE` calls applied at `dst + offset`. The
    /// replay cache plus the lanes' disjoint xid spaces give exactly-once
    /// per stripe under retries.
    fn memcpy_htod_striped(&mut self, dst: u64, data: &[u8]) -> ClientResult<()> {
        self.pre_call("cudaMemcpy(H2D)")?;
        self.stats.bytes_h2d += data.len() as u64;
        oncrpc::telemetry::add_transferred(data.len());
        oncrpc::telemetry::add_wire_raw(data.len());
        oncrpc::telemetry::add_wire_sent(data.len());
        let pool = self.stripes.as_mut().expect("stripe pool attached");
        let mut bad: Option<i32> = None;
        let sent = pool.scatter(data, |lane, offset, seq, chunk| {
            let reply =
                lane.call_raw_sg_tagged(cricket_v1::CUDA_MEMCPY_HTOD_STRIPE, false, |enc| {
                    enc.put_u64(dst);
                    enc.put_u64(offset);
                    enc.put_u32(seq);
                    enc.put_opaque_deferred(chunk);
                })?;
            let mut dec = xdr::XdrDecoder::new(&reply);
            let code = dec.get_i32().map_err(oncrpc::RpcError::from)?;
            dec.finish().map_err(oncrpc::RpcError::from)?;
            if code != 0 {
                // Abort the remaining stripes; the CUDA code is what gets
                // reported — this marker error never escapes the function.
                bad = Some(code);
                return Err(oncrpc::RpcError::ConnectionClosed);
            }
            Ok(())
        });
        match (bad, sent) {
            (Some(code), _) => Err(ClientError::cuda("cudaMemcpy(H2D)", code)),
            (None, Err(e)) => Err(ClientError::Rpc(e)),
            (None, Ok(())) => Ok(()),
        }
    }

    /// Whether a copy of `len` bytes fans out across the stripe pool.
    fn striping(&self, len: usize) -> bool {
        self.stripes.is_some() && len >= STRIPE_MIN
    }

    /// cudaMemcpy device→host into a fresh `Vec`: the one allocation and
    /// the one client-side copy of the call. Reads of at least
    /// [`STRIPE_MIN`] bytes fan out across an attached stripe pool; the
    /// result is byte-identical to the single-connection read.
    pub fn memcpy_dtoh(&mut self, src: u64, len: u64) -> ClientResult<Vec<u8>> {
        if self.striping(len as usize) {
            let mut out = vec![0u8; len as usize];
            self.memcpy_dtoh_striped(src, &mut out)?;
            return Ok(out);
        }
        self.memcpy_dtoh_with(src, len, <[u8]>::to_vec)
    }

    /// [`Self::memcpy_dtoh`] of `dst.len()` bytes into the caller's buffer:
    /// no allocation at all.
    pub fn memcpy_dtoh_into(&mut self, src: u64, dst: &mut [u8]) -> ClientResult<()> {
        if self.striping(dst.len()) {
            return self.memcpy_dtoh_striped(src, dst);
        }
        self.memcpy_dtoh_with(src, dst.len() as u64, |data| dst.copy_from_slice(data))
    }

    /// One D2H read of exactly `len` bytes, lent to `take` where they sit in
    /// the RPC reply buffer: whatever `take` builds from them is the only
    /// copy the client makes. A reply of any other length is an error, not
    /// a short result.
    pub(crate) fn memcpy_dtoh_with<R>(
        &mut self,
        src: u64,
        len: u64,
        take: impl FnOnce(&[u8]) -> R,
    ) -> ClientResult<R> {
        if self.striping(len as usize) {
            return Ok(take(&self.memcpy_dtoh(src, len)?));
        }
        self.pre_call("cudaMemcpy(D2H)")?;
        let (err, data) = self.stub.cuda_memcpy_dtoh_ref(&src, &len)?;
        if err != 0 {
            return Err(ClientError::cuda("cudaMemcpy(D2H)", err));
        }
        dtoh_len_check(data.len(), len as usize)?;
        let out = take(data);
        self.stats.bytes_d2h += len;
        oncrpc::telemetry::add_transferred(len as usize);
        Ok(out)
    }

    /// Gather one large D2H copy into `out` as independent
    /// `CUDA_MEMCPY_DTOH_STRIPE` reads from `src + offset`, placed
    /// positionally client-side.
    fn memcpy_dtoh_striped(&mut self, src: u64, out: &mut [u8]) -> ClientResult<()> {
        self.pre_call("cudaMemcpy(D2H)")?;
        let pool = self.stripes.as_mut().expect("stripe pool attached");
        let mut bad: Option<i32> = None;
        let got = pool.gather(out, |lane, offset, seq, chunk| {
            let want = chunk.len();
            let reply =
                lane.call_raw_sg_tagged(cricket_v1::CUDA_MEMCPY_DTOH_STRIPE, true, |enc| {
                    enc.put_u64(src);
                    enc.put_u64(offset);
                    enc.put_u64(want as u64);
                    enc.put_u32(seq);
                })?;
            let mut dec = xdr::XdrDecoder::new(&reply);
            let err = dec.get_i32().map_err(oncrpc::RpcError::from)?;
            if err != 0 {
                bad = Some(err);
                return Err(oncrpc::RpcError::ConnectionClosed);
            }
            let data = dec.get_opaque_ref().map_err(oncrpc::RpcError::from)?;
            dec.finish().map_err(oncrpc::RpcError::from)?;
            dtoh_len_check(data.len(), want)?;
            chunk.copy_from_slice(data);
            Ok(())
        });
        match (bad, got) {
            (Some(code), _) => return Err(ClientError::cuda("cudaMemcpy(D2H)", code)),
            (None, Err(e)) => return Err(ClientError::Rpc(e)),
            (None, Ok(())) => {}
        }
        self.stats.bytes_d2h += out.len() as u64;
        oncrpc::telemetry::add_transferred(out.len());
        Ok(())
    }

    /// cudaMemcpy device→device.
    pub fn memcpy_dtod(&mut self, dst: u64, src: u64, len: u64) -> ClientResult<()> {
        if self.batch.is_some() {
            self.pre_record("cudaMemcpy(D2D)");
            let state = self.batch.as_mut().expect("batch state present");
            CricketV1Client::cuda_memcpy_dtod_record(&mut state.builder, &dst, &src, &len);
            state.apis.push("cudaMemcpy(D2D)");
            return self.after_record();
        }
        self.pre_call("cudaMemcpy(D2D)")?;
        Self::int_status(
            "cudaMemcpy(D2D)",
            self.stub.cuda_memcpy_dtod(&dst, &src, &len)?,
        )
    }

    /// cudaMemset.
    pub fn memset(&mut self, ptr: u64, value: i32, len: u64) -> ClientResult<()> {
        if self.batch.is_some() {
            self.pre_record("cudaMemset");
            let state = self.batch.as_mut().expect("batch state present");
            CricketV1Client::cuda_memset_record(&mut state.builder, &ptr, &value, &len);
            state.apis.push("cudaMemset");
            return self.after_record();
        }
        self.pre_call("cudaMemset")?;
        Self::int_status("cudaMemset", self.stub.cuda_memset(&ptr, &value, &len)?)
    }

    /// cudaGetLastError.
    pub fn get_last_error(&mut self) -> ClientResult<i32> {
        self.pre_call("cudaGetLastError")?;
        self.stub
            .cuda_get_last_error()?
            .into_result()
            .map_err(|c| ClientError::cuda("cudaGetLastError", c))
    }

    /// cudaMemGetInfo.
    pub fn mem_get_info(&mut self) -> ClientResult<MemInfo> {
        self.pre_call("cudaMemGetInfo")?;
        match self.stub.cuda_mem_get_info()? {
            cricket_proto::MemInfoResult::Info(i) => Ok(i),
            cricket_proto::MemInfoResult::Default(c) => Err(ClientError::cuda("cudaMemGetInfo", c)),
        }
    }

    // ---- modules and launches -----------------------------------------

    /// cuModuleLoadData: ship a cubin image read on the client side to the
    /// server (the paper's §3.3 loading path).
    pub fn module_load(&mut self, image: &[u8]) -> ClientResult<u64> {
        self.pre_call("cuModuleLoadData")?;
        self.stats.bytes_h2d += image.len() as u64;
        oncrpc::telemetry::add_transferred(image.len());
        self.stub
            .cu_module_load_data(image)?
            .into_result()
            .map_err(|c| ClientError::cuda("cuModuleLoadData", c))
    }

    /// cuModuleGetFunction.
    pub fn module_get_function(&mut self, module: u64, name: &str) -> ClientResult<u64> {
        self.pre_call("cuModuleGetFunction")?;
        self.stub
            .cu_module_get_function(&module, name)?
            .into_result()
            .map_err(|c| ClientError::cuda("cuModuleGetFunction", c))
    }

    /// cuModuleUnload.
    pub fn module_unload(&mut self, module: u64) -> ClientResult<()> {
        self.pre_call("cuModuleUnload")?;
        Self::int_status("cuModuleUnload", self.stub.cu_module_unload(&module)?)
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
        if self.batch.is_some() {
            self.pre_record("cuLaunchKernel");
            self.stats.launches += 1;
            let staged;
            let params = if self.flavor == ClientFlavor::CTirpc {
                staged = launch_compat_marshal(params);
                self.charge(LAUNCH_COMPAT_NS);
                &staged[..]
            } else {
                params
            };
            let state = self.batch.as_mut().expect("batch state present");
            CricketV1Client::cuda_launch_kernel_record(
                &mut state.builder,
                &func,
                &grid,
                &block,
                &shared_mem,
                &stream,
                params,
            );
            state.apis.push("cuLaunchKernel");
            return self.after_record();
        }
        self.pre_call("cuLaunchKernel")?;
        self.stats.launches += 1;
        let staged;
        let params = if self.flavor == ClientFlavor::CTirpc {
            staged = launch_compat_marshal(params);
            self.charge(LAUNCH_COMPAT_NS);
            &staged[..]
        } else {
            params
        };
        Self::int_status(
            "cuLaunchKernel",
            self.stub
                .cuda_launch_kernel(&func, &grid, &block, &shared_mem, &stream, params)?,
        )
    }

    // ---- streams and events -------------------------------------------

    /// cudaStreamCreate.
    pub fn stream_create(&mut self) -> ClientResult<u64> {
        self.pre_call("cudaStreamCreate")?;
        self.stub
            .cuda_stream_create()?
            .into_result()
            .map_err(|c| ClientError::cuda("cudaStreamCreate", c))
    }

    /// cudaStreamDestroy.
    pub fn stream_destroy(&mut self, h: u64) -> ClientResult<()> {
        self.pre_call("cudaStreamDestroy")?;
        Self::int_status("cudaStreamDestroy", self.stub.cuda_stream_destroy(&h)?)
    }

    /// cudaStreamSynchronize.
    pub fn stream_synchronize(&mut self, h: u64) -> ClientResult<()> {
        self.pre_call("cudaStreamSynchronize")?;
        Self::int_status(
            "cudaStreamSynchronize",
            self.stub.cuda_stream_synchronize(&h)?,
        )
    }

    /// cudaEventCreate.
    pub fn event_create(&mut self) -> ClientResult<u64> {
        self.pre_call("cudaEventCreate")?;
        self.stub
            .cuda_event_create()?
            .into_result()
            .map_err(|c| ClientError::cuda("cudaEventCreate", c))
    }

    /// cudaEventRecord.
    pub fn event_record(&mut self, event: u64, stream: u64) -> ClientResult<()> {
        if self.batch.is_some() {
            self.pre_record("cudaEventRecord");
            let state = self.batch.as_mut().expect("batch state present");
            CricketV1Client::cuda_event_record_record(&mut state.builder, &event, &stream);
            state.apis.push("cudaEventRecord");
            return self.after_record();
        }
        self.pre_call("cudaEventRecord")?;
        Self::int_status(
            "cudaEventRecord",
            self.stub.cuda_event_record(&event, &stream)?,
        )
    }

    /// cudaEventSynchronize.
    pub fn event_synchronize(&mut self, event: u64) -> ClientResult<()> {
        self.pre_call("cudaEventSynchronize")?;
        Self::int_status(
            "cudaEventSynchronize",
            self.stub.cuda_event_synchronize(&event)?,
        )
    }

    /// cudaEventElapsedTime (milliseconds).
    pub fn event_elapsed_ms(&mut self, start: u64, stop: u64) -> ClientResult<f32> {
        self.pre_call("cudaEventElapsedTime")?;
        self.stub
            .cuda_event_elapsed_time(&start, &stop)?
            .into_result()
            .map_err(|c| ClientError::cuda("cudaEventElapsedTime", c))
    }

    /// cudaEventDestroy.
    pub fn event_destroy(&mut self, event: u64) -> ClientResult<()> {
        self.pre_call("cudaEventDestroy")?;
        Self::int_status("cudaEventDestroy", self.stub.cuda_event_destroy(&event)?)
    }

    // ---- cuBLAS ---------------------------------------------------------

    /// cublasCreate.
    pub fn blas_create(&mut self) -> ClientResult<u64> {
        self.pre_call("cublasCreate")?;
        self.stub
            .cublas_create()?
            .into_result()
            .map_err(|c| ClientError::cuda("cublasCreate", c))
    }

    /// cublasDestroy.
    pub fn blas_destroy(&mut self, h: u64) -> ClientResult<()> {
        self.pre_call("cublasDestroy")?;
        Self::int_status("cublasDestroy", self.stub.cublas_destroy(&h)?)
    }

    /// cublasSgemm (column-major).
    #[allow(clippy::too_many_arguments)]
    pub fn sgemm(
        &mut self,
        h: u64,
        transa: i32,
        transb: i32,
        m: i32,
        n: i32,
        k: i32,
        alpha: f32,
        a: u64,
        lda: i32,
        b: u64,
        ldb: i32,
        beta: f32,
        c: u64,
        ldc: i32,
    ) -> ClientResult<()> {
        self.pre_call("cublasSgemm")?;
        Self::int_status(
            "cublasSgemm",
            self.stub.cublas_sgemm(
                &h, &transa, &transb, &m, &n, &k, &alpha, &a, &lda, &b, &ldb, &beta, &c, &ldc,
            )?,
        )
    }

    /// cublasDgemm (column-major).
    #[allow(clippy::too_many_arguments)]
    pub fn dgemm(
        &mut self,
        h: u64,
        transa: i32,
        transb: i32,
        m: i32,
        n: i32,
        k: i32,
        alpha: f64,
        a: u64,
        lda: i32,
        b: u64,
        ldb: i32,
        beta: f64,
        c: u64,
        ldc: i32,
    ) -> ClientResult<()> {
        self.pre_call("cublasDgemm")?;
        Self::int_status(
            "cublasDgemm",
            self.stub.cublas_dgemm(
                &h, &transa, &transb, &m, &n, &k, &alpha, &a, &lda, &b, &ldb, &beta, &c, &ldc,
            )?,
        )
    }

    // ---- cuSolverDn ------------------------------------------------------

    /// cusolverDnCreate.
    pub fn solver_create(&mut self) -> ClientResult<u64> {
        self.pre_call("cusolverDnCreate")?;
        self.stub
            .cusolver_dn_create()?
            .into_result()
            .map_err(|c| ClientError::cuda("cusolverDnCreate", c))
    }

    /// cusolverDnDestroy.
    pub fn solver_destroy(&mut self, h: u64) -> ClientResult<()> {
        self.pre_call("cusolverDnDestroy")?;
        Self::int_status("cusolverDnDestroy", self.stub.cusolver_dn_destroy(&h)?)
    }

    /// cusolverDnDgetrf_bufferSize.
    pub fn dgetrf_buffer_size(
        &mut self,
        h: u64,
        m: i32,
        n: i32,
        a: u64,
        lda: i32,
    ) -> ClientResult<i32> {
        self.pre_call("cusolverDnDgetrf_bufferSize")?;
        self.stub
            .cusolver_dn_dgetrf_buffer_size(&h, &m, &n, &a, &lda)?
            .into_result()
            .map_err(|c| ClientError::cuda("cusolverDnDgetrf_bufferSize", c))
    }

    /// cusolverDnDgetrf.
    #[allow(clippy::too_many_arguments)]
    pub fn dgetrf(
        &mut self,
        h: u64,
        m: i32,
        n: i32,
        a: u64,
        lda: i32,
        work: u64,
        ipiv: u64,
        info: u64,
    ) -> ClientResult<()> {
        self.pre_call("cusolverDnDgetrf")?;
        Self::int_status(
            "cusolverDnDgetrf",
            self.stub
                .cusolver_dn_dgetrf(&h, &m, &n, &a, &lda, &work, &ipiv, &info)?,
        )
    }

    /// cusolverDnDgetrs.
    #[allow(clippy::too_many_arguments)]
    pub fn dgetrs(
        &mut self,
        h: u64,
        trans: i32,
        n: i32,
        nrhs: i32,
        a: u64,
        lda: i32,
        ipiv: u64,
        b: u64,
        ldb: i32,
        info: u64,
    ) -> ClientResult<()> {
        self.pre_call("cusolverDnDgetrs")?;
        Self::int_status(
            "cusolverDnDgetrs",
            self.stub
                .cusolver_dn_dgetrs(&h, &trans, &n, &nrhs, &a, &lda, &ipiv, &b, &ldb, &info)?,
        )
    }

    // ---- cuFFT -----------------------------------------------------------

    /// cufftPlan1d (n must be a power of two; type is CUFFT_C2C/Z2Z).
    pub fn fft_plan_1d(&mut self, n: i32, kind: i32, batch: i32) -> ClientResult<u64> {
        self.pre_call("cufftPlan1d")?;
        self.stub
            .cufft_plan_1d(&n, &kind, &batch)?
            .into_result()
            .map_err(|c| ClientError::cuda("cufftPlan1d", c))
    }

    /// cufftDestroy.
    pub fn fft_destroy(&mut self, plan: u64) -> ClientResult<()> {
        self.pre_call("cufftDestroy")?;
        Self::int_status("cufftDestroy", self.stub.cufft_destroy(&plan)?)
    }

    /// cufftExecC2C.
    pub fn fft_exec_c2c(
        &mut self,
        plan: u64,
        idata: u64,
        odata: u64,
        direction: i32,
    ) -> ClientResult<()> {
        if self.batch.is_some() {
            self.pre_record("cufftExecC2C");
            let state = self.batch.as_mut().expect("batch state present");
            CricketV1Client::cufft_exec_c2c_record(
                &mut state.builder,
                &plan,
                &idata,
                &odata,
                &direction,
            );
            state.apis.push("cufftExecC2C");
            return self.after_record();
        }
        self.pre_call("cufftExecC2C")?;
        Self::int_status(
            "cufftExecC2C",
            self.stub
                .cufft_exec_c2c(&plan, &idata, &odata, &direction)?,
        )
    }

    /// cufftExecZ2Z.
    pub fn fft_exec_z2z(
        &mut self,
        plan: u64,
        idata: u64,
        odata: u64,
        direction: i32,
    ) -> ClientResult<()> {
        if self.batch.is_some() {
            self.pre_record("cufftExecZ2Z");
            let state = self.batch.as_mut().expect("batch state present");
            CricketV1Client::cufft_exec_z2z_record(
                &mut state.builder,
                &plan,
                &idata,
                &odata,
                &direction,
            );
            state.apis.push("cufftExecZ2Z");
            return self.after_record();
        }
        self.pre_call("cufftExecZ2Z")?;
        Self::int_status(
            "cufftExecZ2Z",
            self.stub
                .cufft_exec_z2z(&plan, &idata, &odata, &direction)?,
        )
    }

    // ---- server management (not counted as CUDA API calls) --------------
    //
    // These still flush any pending batch first: a checkpoint must see
    // recorded work, and server statistics must not race deferred ops.

    /// Capture a checkpoint of the server-side GPU state: one blob per
    /// server session that owns anything, on every device.
    pub fn checkpoint(&mut self) -> ClientResult<Vec<u8>> {
        self.flush_batch()?;
        self.stub
            .ckpt_capture()?
            .into_result()
            .map_err(|c| ClientError::cuda("ckptCapture", c))
    }

    /// Restore a checkpoint. This connection's session owns everything in
    /// it from then on. Nothing that was live on the server is replaced: a
    /// block or handle in it that somebody there holds fails the restore.
    pub fn restore(&mut self, blob: &[u8]) -> ClientResult<()> {
        self.flush_batch()?;
        Self::int_status("ckptRestore", self.stub.ckpt_restore(blob)?)
    }

    /// Server-side statistics.
    pub fn server_stats(&mut self) -> ClientResult<ServerStats> {
        self.flush_batch()?;
        Ok(self.stub.srv_get_stats()?)
    }

    /// Reset server-side statistics.
    pub fn server_reset_stats(&mut self) -> ClientResult<()> {
        self.flush_batch()?;
        Self::int_status("srvResetStats", self.stub.srv_reset_stats()?)
    }

    /// Select the GPU-sharing scheduler (0 FIFO, 1 RR, 2 priority, 3 WFQ).
    pub fn set_scheduler(&mut self, policy: i32) -> ClientResult<()> {
        self.flush_batch()?;
        Self::int_status("srvSetScheduler", self.stub.srv_set_scheduler(&policy)?)
    }

    /// Set a session's QoS parameters (WFQ weight, priority, device-time
    /// rate quota, resident-bytes quota). Zeroed quota fields mean
    /// "unlimited"; a zero weight is clamped to 1 server-side.
    pub fn set_qos(&mut self, params: &cricket_proto::QosParams) -> ClientResult<()> {
        self.flush_batch()?;
        Self::int_status("cricketQosSet", self.stub.cricket_qos_set(params)?)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> ClientResult<()> {
        self.flush_batch()?;
        Ok(self.stub.rpc_null()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvConfig;
    use crate::sim::SimSetup;

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

    /// A D2H reply is exactly the bytes asked for or an error: a server that
    /// answers one byte short must not come back as a short `Vec`.
    #[test]
    fn short_dtoh_reply_is_a_typed_error() {
        let server = oncrpc::RpcServer::new();
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
        let (client_end, mut server_end) = oncrpc::duplex_pair();
        std::thread::scope(|scope| {
            scope.spawn(|| server.serve_connection(&mut server_end));
            let mut c = CricketClient::over(client_end, ClientFlavor::RustRpcLib, None);
            let mut dst = [0xEEu8; 50];
            for err in [
                c.memcpy_dtoh(0x1000, 50).unwrap_err(),
                c.memcpy_dtoh_into(0x1000, &mut dst).unwrap_err(),
            ] {
                match err {
                    ClientError::Rpc(oncrpc::RpcError::Xdr(xdr::XdrError::Custom(why))) => {
                        assert!(why.contains("49 bytes, wanted 50"), "{why}")
                    }
                    other => panic!("expected a length error, got {other}"),
                }
            }
            assert_eq!(dst, [0xEE; 50], "nothing of a refused reply is copied");
            assert_eq!(c.stats.bytes_d2h, 0);
        });
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
