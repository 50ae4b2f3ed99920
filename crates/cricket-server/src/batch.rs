//! The `batchable` procedures' one body and the command-batch path:
//! decoding a `CRICKET_BATCH_EXEC` body, slicing it by (device, stream)
//! under one scheduler turn per slice, and `issue_op`, the only code that
//! touches a device on behalf of a batchable op however it arrived.

use crate::prologue::Returns;
use crate::scheduler::SessionId;
use crate::server::{CricketServer, HostObject};
use crate::service::{err_code, int_of};
use cricket_proto::{
    cricket_v1, BatchReceipt, BatchResult, CricketV1BatchOp as BatchOp, RpcDim3, BATCH_OP_NS,
    DISPATCH_NS,
};
use oncrpc::{sparse::raw_len, AcceptStat};
use vgpu::{Device, Dim3, Submit, VgpuError, VgpuResult};

/// Preemption point cadence inside a `CRICKET_BATCH_EXEC` slice: after this
/// many sub-ops under one issue turn, ask the scheduler whether a more
/// deserving waiter is queued and, if so, requeue the rest of the slice.
const BATCH_PREEMPT_OPS: u32 = 32;

/// Device-ns variant of [`BATCH_PREEMPT_OPS`]: a single slice may also not
/// charge more than this much device time between preemption checks.
const BATCH_PREEMPT_NS: u64 = 250_000;

/// Decode a batch body: `u32` op count, then per op a `u32` proc number
/// followed by that procedure's ordinary XDR argument stream, read by the
/// decoder `rpcl` generates from the `batchable` procedures of `cricket.x`.
/// Any decode error or non-batchable proc rejects the whole batch as
/// garbage — nothing has been issued yet, so the reject is side-effect free.
pub(crate) fn decode_batch(body: &[u8]) -> Result<Vec<BatchOp<'_>>, AcceptStat> {
    let garbage = |_| AcceptStat::GarbageArgs;
    let mut dec = xdr::XdrDecoder::new(body);
    let count = dec.get_u32().map_err(garbage)? as usize;
    let mut ops = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let proc = dec.get_u32().map_err(garbage)?;
        let op = BatchOp::decode(proc, &mut dec).map_err(garbage)?;
        ops.push(op.ok_or(AcceptStat::GarbageArgs)?);
    }
    dec.finish().map_err(garbage)?;
    Ok(ops)
}

impl CricketServer {
    /// Device a `batchable` op routes to, once the session owns what it
    /// names (the device checks a launch's function and ranges), and the
    /// stream it names on the wire (0: the session's default stream).
    pub(crate) fn op_device(&self, s: SessionId, op: &BatchOp<'_>) -> VgpuResult<(usize, u64)> {
        let (names, stream) = match *op {
            BatchOp::CudaMemcpyHtod(dst, data) => ([(dst, data.len() as u64), (0, 0), (0, 0)], 0),
            BatchOp::CudaMemcpyHtodSparse(dst, e) => ([(dst, raw_len(e)), (0, 0), (0, 0)], 0),
            BatchOp::CudaMemcpyDtod(dst, src, len) => ([(src, len), (dst, len), (0, 0)], 0),
            BatchOp::CudaMemset(ptr, _, len) => ([(ptr, len), (0, 0), (0, 0)], 0),
            BatchOp::CudaLaunchKernel(.., stream, _) => ([(stream, 0), (0, 0), (0, 0)], stream),
            BatchOp::CudaEventRecord(event, stream) => ([(event, 0), (stream, 0), (0, 0)], stream),
            BatchOp::CufftExecC2c(plan, i, o, _) | BatchOp::CufftExecZ2z(plan, i, o, _) => {
                ([(i, 0), (o, 0), (plan, 0)], 0)
            }
        };
        for &(token, len) in names[1..].iter().filter(|(token, _)| *token != 0) {
            self.owned(s, token, len)?;
        }
        // The first routes: 0 to the session's current device.
        Ok((self.owned(s, names[0].0, names[0].1)?, stream))
    }

    /// A `batchable` procedure called on its own: its own prologue, issue
    /// turn and device lock around the body a batch sub-op runs.
    pub(crate) fn immediate(
        &self,
        s: SessionId,
        op: &BatchOp<'_>,
        returns: Returns,
    ) -> VgpuResult<()> {
        let (idx, stream) = self.op_device(s, op)?;
        let st = self.resolve_stream(s, idx, stream);
        self.enqueue_at(s, idx, op.proc(), returns, |dev| {
            Ok(((), self.issue_op(s, dev, op, st)?))
        })
    }

    /// The one body of a plain `CUDA_MEMCPY_HTOD`, at its record's end: the
    /// transfer of the `len` bytes that landed at `dst` ([`Self::land`]),
    /// or `landed`'s status. The charges, the turn and the enqueue stay
    /// where the whole record's copy was, so virtual time does not move.
    pub(crate) fn htod(&self, s: SessionId, dst: u64, len: u64, landed: Result<(), i32>) -> i32 {
        let r = self.owned(s, dst, len).and_then(|idx| {
            let (st, proc) = (self.resolve_stream(s, idx, 0), cricket_v1::CUDA_MEMCPY_HTOD);
            self.enqueue_at(s, idx, proc, Returns::AtCompletion, |dev| {
                // Counted where `issue_op` counts a batched H2D's: once due.
                self.metrics.add(crate::stats::BYTES_IN, len);
                match landed {
                    Ok(()) => Ok((0, Some(dev.memcpy_htod_landed(dst, len, st)?))),
                    Err(code) => Ok((code, None)),
                }
            })
        });
        r.unwrap_or_else(|e| err_code(&e))
    }

    /// Write `piece` of a plain H2D's payload at `at` under its device's
    /// lock, once the session still owns it there: a block freed
    /// mid-payload, perhaps another session's by now, takes nothing more
    /// (`cudaFree` untracks a block under the lock it frees it under). A
    /// whole record's payload lands in one piece.
    pub(crate) fn land(&self, s: SessionId, at: u64, piece: &[u8]) -> Result<(), i32> {
        let mut dev = self.devices[self.device_of_token(at).unwrap_or(0)].lock();
        let owned = self.owned(s, at, piece.len() as u64);
        owned
            .and_then(|_| dev.mem.write(at, piece))
            .map_err(|e| err_code(&e))
    }

    /// A `cudaMemcpy(D2D)` between two devices (`cudaMemcpyPeer`
    /// semantics): not the batchable op but a read on one device and a
    /// write on another, staged through the host, paying PCIe on both —
    /// synchronous on both legs, and no client payload, so `bytes_in` does
    /// not move. Each leg pays the prologue's charge; neither counts the
    /// call, which its caller counts once.
    pub(crate) fn peer_copy(&self, s: SessionId, dst: u64, src: u64, len: u64) -> VgpuResult<()> {
        let (src_dev, dst_dev) = (self.owned(s, src, len)?, self.owned(s, dst, len)?);
        let src_st = self.session_stream(s, src_dev);
        let dst_st = self.session_stream(s, dst_dev);
        let proc = cricket_v1::CUDA_MEMCPY_DTOD;
        let bytes = self.enqueue_leg(s, src_dev, proc, Returns::AtCompletion, |d| {
            d.memcpy_dtoh_stream(src, len, src_st, <[u8]>::to_vec)
        })?;
        self.enqueue_leg(s, dst_dev, proc, Returns::AtCompletion, |d| {
            let sub = d.memcpy_htod_stream(dst, &bytes, dst_st)?;
            Ok(((), sub))
        })
    }

    /// `CRICKET_BATCH_EXEC`: decode every sub-op, then issue them in order,
    /// taking **one scheduler turn per consecutive (device, stream) slice**
    /// instead of one per op, and paying the RPC dispatch cost once for the
    /// whole batch plus `BATCH_OP_NS` per sub-op. A failed sub-op records
    /// its error code at its index and aborts the remainder of its slice
    /// (`BATCH_SKIPPED`); later slices — other streams' work — still run.
    pub(crate) fn batch_exec(&self, s: SessionId, body: &[u8]) -> Result<BatchResult, AcceptStat> {
        let ops = decode_batch(body)?;
        self.sessions.lock().entry(s).or_default();
        // Each sub-op is one CUDA API call in the paper's accounting;
        // coalescing changes the wire shape, not the call count.
        self.metrics.add(crate::stats::CALLS, ops.len() as u64);
        // One RPC dispatch for the whole batch — the coalescing win.
        self.clock.advance(DISPATCH_NS as u64);
        let mut statuses = vec![0i32; ops.len()];
        let mut agg = vgpu::SubmitAggregate::default();
        let mut executed: u32 = 0;
        // Cross-device D2D peer copies stage through the host on two
        // devices; they cannot share a single-device turn, so they run
        // through the ordinary synchronous path as their own slice.
        let dev = |token, len| self.owned(s, token, len);
        let peer = |op: &BatchOp<'_>| match *op {
            BatchOp::CudaMemcpyDtod(dst, src, len) if dev(src, len) != dev(dst, len) => {
                Some((dst, src, len))
            }
            _ => None,
        };
        // A sub-op the session does not own is refused where it is issued.
        let device = |op| (self.op_device(s, op)).unwrap_or_else(|_| (self.current_device(s), 0));
        let mut i = 0;
        while i < ops.len() {
            if let Some((dst, src, len)) = peer(&ops[i]) {
                statuses[i] = int_of(self.peer_copy(s, dst, src, len));
                executed += u32::from(statuses[i] == 0);
                i += 1;
                continue;
            }
            let (idx, wire) = device(&ops[i]);
            let stream = self.resolve_stream(s, idx, wire);
            let mut j = i + 1;
            while j < ops.len() && device(&ops[j]) == (idx, wire) && peer(&ops[j]).is_none() {
                j += 1;
            }
            // Issue the whole slice under one turn; the device lock and
            // turn drop together at the end of the slice. Every
            // BATCH_PREEMPT_OPS sub-ops (or BATCH_PREEMPT_NS of charged
            // device time) the turn is offered back: if the policy would
            // rather serve a queued waiter, the rest of the slice requeues
            // under a fresh turn, so a 1000-op batch cannot monopolize the
            // device against a higher-deficit tenant.
            let turn = self.scheduler.begin(s);
            let mut dev = self.devices[idx].lock();
            let mut failed = false;
            let mut resume_at = j;
            let mut since_ops: u32 = 0;
            let mut since_ns: u64 = 0;
            for (k, op) in ops.iter().enumerate().take(j).skip(i) {
                if failed {
                    statuses[k] = oncrpc::BATCH_SKIPPED;
                    continue;
                }
                if (since_ops >= BATCH_PREEMPT_OPS || since_ns >= BATCH_PREEMPT_NS)
                    && turn.should_yield()
                {
                    resume_at = k;
                    break;
                }
                self.clock.advance(BATCH_OP_NS as u64);
                since_ops += 1;
                // Every batched op is asynchronous: the clock never runs
                // to completion here — the next sync point drains the stream.
                match (self.op_device(s, op)).and_then(|_| self.issue_op(s, &mut dev, op, stream)) {
                    Ok(Some(sub)) => {
                        self.clock.advance(sub.submit_ns);
                        turn.charge(sub.queued_ns);
                        since_ns += sub.queued_ns;
                        agg.absorb(&sub);
                        executed += 1;
                    }
                    Ok(None) => {
                        executed += 1;
                    }
                    Err(e) => {
                        statuses[k] = err_code(&e);
                        failed = true;
                    }
                }
            }
            drop(dev);
            drop(turn);
            i = resume_at;
        }
        Ok(BatchResult::Receipt(BatchReceipt {
            statuses: statuses.into(),
            executed,
            queued_ns: agg.queued_ns,
            last_completes_at_ns: agg.last_completes_at_ns,
        }))
    }

    /// The body of the eight `batchable` procedures — the only code that
    /// touches a device on their behalf, whether the op arrived as its own
    /// RPC ([`Self::immediate`]) or inside `CRICKET_BATCH_EXEC`. `dev` is the
    /// locked device [`Self::op_device`] named for session `s`, `st` the
    /// stream it named, resolved. `Ok(Some(sub))` for queue-backed
    /// commands, `Ok(None)` for host-side stamps (event record). Per-op
    /// statistics are taken here, from what the body actually had in hand:
    /// `bytes_in` counts an H2D payload when it is about to be written (a
    /// sparse one at its decoded length, so only after it decoded).
    pub(crate) fn issue_op(
        &self,
        s: SessionId,
        dev: &mut Device,
        op: &BatchOp<'_>,
        st: u64,
    ) -> Result<Option<Submit>, VgpuError> {
        let mut write = |dst: u64, data: &[u8]| {
            // `data` is the borrowed wire record (or the decoded blob); the
            // write into device memory is the transfer endpoint itself
            // (the client's `bytes_transferred`), not an RPC-stack memmove.
            self.metrics.add(crate::stats::BYTES_IN, data.len() as u64);
            dev.memcpy_htod_stream(dst, data, st).map(Some)
        };
        match *op {
            BatchOp::CudaMemcpyHtod(dst, data) => write(dst, data),
            BatchOp::CudaMemcpyHtodSparse(dst, enc) => {
                let raw = oncrpc::sparse::decode(enc)
                    .map_err(|e| VgpuError::InvalidValue(format!("sparse blob: {e}")))?;
                write(dst, &raw)
            }
            BatchOp::CudaMemcpyDtod(dst, src, len) => dev.memcpy_dtod(dst, src, len, st).map(Some),
            BatchOp::CudaMemset(ptr, value, len) => dev.memset(ptr, value, len, st).map(Some),
            BatchOp::CudaLaunchKernel(func, grid, block, shared, _, params) => {
                let owned = |t, len| self.owned(s, t, len).is_ok();
                let sub = dev.launch(func, dim(grid), dim(block), shared, st, params, owned)?;
                self.metrics.add(crate::stats::KERNELS_LAUNCHED, 1);
                Ok(Some(sub))
            }
            BatchOp::CudaEventRecord(event, _) => {
                let front_ns = dev.event_record(event, st)?;
                self.clock.advance(front_ns);
                Ok(None)
            }
            BatchOp::CufftExecC2c(plan, idata, odata, dir)
            | BatchOp::CufftExecZ2z(plan, idata, odata, dir) => {
                let kind = match op {
                    BatchOp::CufftExecC2c(..) => vgpu::fft::CUFFT_C2C,
                    _ => vgpu::fft::CUFFT_Z2Z,
                };
                let objects = self.objects.lock();
                let Some(HostObject::Fft(p)) = objects.get(&plan) else {
                    return Err(VgpuError::InvalidHandle(plan));
                };
                if p.kind != kind {
                    return Err(VgpuError::InvalidValue(format!(
                        "plan type {:#x} does not match exec type {kind:#x}",
                        p.kind
                    )));
                }
                let t = vgpu::fft::exec(dev, p, idata, odata, dir)?;
                dev.enqueue_library(st, "fft", t).map(Some)
            }
        }
    }
}

fn dim(d: RpcDim3) -> Dim3 {
    Dim3 {
        x: d.x,
        y: d.y,
        z: d.z,
    }
}
