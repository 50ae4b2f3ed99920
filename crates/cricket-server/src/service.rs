//! The Cricket service: the generated [`cricket_proto::CricketV1Service`]
//! trait implemented over the simulated GPU — the one place each procedure
//! of `cricket.x` is written on the server.
//!
//! Every call charges the shared virtual clock with (a) a base dispatch
//! cost — the Cricket server's RPC handling plus the CUDA driver entry — and
//! the host-side cost `cricket.x` declares for the procedure, and (b) the
//! device time the operation consumes. Each body names its procedure to the
//! call prologue, which reads both costs from the generated tables. The
//! network legs around the call are charged by the transport (see
//! `crate::transport`).

use crate::prologue::Returns;
use crate::scheduler::{QosSpec, SchedulerPolicy, SessionId};
use crate::server::{CricketServer, Gemm, HostObject, Kind};
use crate::state::{images, module_room};
use crate::stats::{BYTES_IN, BYTES_OUT, CALLS};
use cricket_proto::{
    cricket_v1 as proc, BatchResult, CricketV1BatchOp as BatchOp, DataResultReplied,
    DataResultReply, DeviceProp, FloatResult, IntResult, MemInfo, MemInfoResult, MigKind,
    PropResult, QosParams, RpcDim3, ServerStats, U64Result,
};
use oncrpc::AcceptStat;
use std::sync::Arc;
use vgpu::{Device, VgpuError, VgpuResult};

/// What every procedure of the generated service trait returns.
type Reply<T> = Result<T, AcceptStat>;

pub(crate) fn err_code(e: &VgpuError) -> i32 {
    e.code() as i32
}

/// CUDA status word of an operation that returns nothing else.
pub(crate) fn int_of(r: Result<(), VgpuError>) -> i32 {
    match r {
        Ok(()) => 0,
        Err(e) => err_code(&e),
    }
}

/// Wire form of an operation's outcome as one of the `*_result` unions of
/// `cricket.x`: `ok` is the union's payload arm, `err` its default arm,
/// which carries the CUDA error code.
fn reply<T, R>(r: VgpuResult<T>, ok: fn(T) -> R, err: fn(i32) -> R) -> Reply<R> {
    Ok(match r {
        Ok(v) => ok(v),
        Err(e) => err(err_code(&e)),
    })
}

/// One connection's view implementing the generated service trait.
pub struct Sessioned {
    pub(crate) srv: Arc<CricketServer>,
    /// The session its calls act in ([`CricketServer::admit_token`]).
    pub(crate) session: std::sync::atomic::AtomicU32,
}

impl Sessioned {
    /// Bind `srv` as `session`.
    pub fn new(srv: Arc<CricketServer>, session: SessionId) -> Self {
        let session = session.into();
        Self { srv, session }
    }

    /// The session this view's calls act in.
    pub fn session(&self) -> SessionId {
        self.session.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// One of the `batchable` procedures, called on its own.
    fn immediate(&self, op: BatchOp<'_>, returns: Returns) -> Reply<i32> {
        Ok(int_of(self.srv.immediate(self.session(), &op, returns)))
    }
}

impl cricket_proto::CricketV1Service for Sessioned {
    fn rpc_null(&self) -> Reply<()> {
        Ok(())
    }

    fn cuda_get_device_count(&self) -> Reply<IntResult> {
        // Host-only: the count is immutable server state; no scheduler
        // turn, no device mutex.
        let srv = &self.srv;
        let count = srv.host_call(self.session(), proc::CUDA_GET_DEVICE_COUNT, || {
            srv.devices.len() as i32
        });
        Ok(IntResult::Data(count))
    }

    fn cuda_get_device_properties(&self, ordinal: i32) -> Reply<PropResult> {
        // Host-only: properties are immutable; the brief lock below copies
        // them out without taking a scheduler turn or device time.
        let srv = &self.srv;
        let r = srv.host_call(self.session(), proc::CUDA_GET_DEVICE_PROPERTIES, || {
            if ordinal < 0 || ordinal as usize >= srv.devices.len() {
                Err(VgpuError::InvalidDevice(ordinal))
            } else {
                Ok(srv.devices[ordinal as usize].lock().properties().clone())
            }
        });
        let prop = r.map(|p| DeviceProp {
            name: p.name,
            total_global_mem: p.total_global_mem,
            multi_processor_count: p.multi_processor_count,
            clock_rate_khz: p.clock_rate_khz,
            major: p.major,
            minor: p.minor,
            warp_size: p.warp_size,
            max_threads_per_block: p.max_threads_per_block,
            memory_bandwidth_bytes_per_sec: p.memory_bandwidth_bps,
        });
        reply(prop, PropResult::Prop, PropResult::Default)
    }

    fn cuda_set_device(&self, ordinal: i32) -> Reply<i32> {
        // Host-only: updates per-session routing state, never the device.
        let (srv, s) = (&self.srv, self.session());
        let r = srv.host_call(s, proc::CUDA_SET_DEVICE, || {
            if (0..srv.devices.len() as i32).contains(&ordinal) {
                srv.track(s, |r| r.device = Some(ordinal as usize));
                Ok(())
            } else {
                Err(VgpuError::InvalidDevice(ordinal))
            }
        });
        Ok(int_of(r))
    }

    fn cuda_get_device(&self) -> Reply<IntResult> {
        let (srv, s) = (&self.srv, self.session());
        let current = srv.host_call(s, proc::CUDA_GET_DEVICE, || srv.current_device(s) as i32);
        Ok(IntResult::Data(current))
    }

    fn cuda_device_synchronize(&self) -> Reply<i32> {
        // Waits for *this session's* timelines on its current device —
        // other sessions' streams keep running (each client is its own
        // context behind the virtualization layer).
        let (srv, s) = (&self.srv, self.session());
        let idx = srv.current_device(s);
        Ok(int_of(srv.wait_at(
            s,
            idx,
            proc::CUDA_DEVICE_SYNCHRONIZE,
            |d| {
                // The session's streams on this device (its lazy default stream
                // plus any it created), walked under the session lock with no
                // copy: the first `stream_synchronize` retires for all of them
                // and each wait is a pure read, so the walk's order is immaterial.
                let sessions = srv.sessions.lock();
                let handles = sessions.get(&s).into_iter().flat_map(|r| &r.handles);
                let wait = handles
                    .filter(|&(&h, &k)| k == Kind::Stream && srv.device_of_token(h) == Some(idx))
                    .map(|(&h, _)| d.stream_synchronize(h).unwrap_or(0))
                    .max()
                    .unwrap_or(0);
                Ok(((), wait))
            },
        )))
    }

    fn cuda_device_reset(&self) -> Reply<i32> {
        let (srv, s) = (&self.srv, self.session());
        let idx = srv.current_device(s);
        let r = srv.wait_at(s, idx, proc::CUDA_DEVICE_RESET, |d| {
            Ok(((), d.device_synchronize() + Device::RESET_NS))
        });
        srv.reset_share(s, idx);
        Ok(int_of(r))
    }

    fn cuda_malloc(&self, size: u64) -> Reply<U64Result> {
        let (srv, s) = (&self.srv, self.session());
        let r = srv.wait_here(s, proc::CUDA_MALLOC, |d| {
            let (ptr, t) = d.malloc(size)?;
            let size = d.mem.block_size(ptr).unwrap_or(size);
            srv.track(s, |r| r.mem.insert(ptr, size));
            Ok((ptr, t))
        });
        reply(r, U64Result::Data, U64Result::Default)
    }

    fn cuda_free(&self, ptr: u64) -> Reply<i32> {
        let (srv, s) = (&self.srv, self.session());
        let r = srv.wait_for(s, ptr, proc::CUDA_FREE, |d| d.free(ptr).map(|t| ((), t)));
        if r.is_ok() {
            srv.track(s, |r| r.mem.remove(&ptr));
        }
        Ok(int_of(r))
    }

    fn cuda_memcpy_htod(&self, dst: u64, data: &[u8]) -> Reply<i32> {
        // Sync copy: ordered on the session's stream, blocks to completion.
        let op = BatchOp::CudaMemcpyHtod(dst, data);
        self.immediate(op, Returns::AtCompletion)
    }

    fn cuda_memcpy_dtoh(
        &self,
        src: u64,
        len: u64,
        out: DataResultReply<'_>,
    ) -> Reply<DataResultReplied> {
        let (srv, s) = (&self.srv, self.session());
        // Sync D2H memcpy is the canonical wait point: it drains the
        // session's stream, then pays the PCIe transfer. The device lends
        // the source range under its lock and `out` writes it into the
        // reply buffer there: the server's only copy of the payload. `out`
        // is still here exactly when the call was refused before lending.
        let mut out = Some(out);
        let r = srv.owned(s, src, len).and_then(|idx| {
            let st = srv.session_stream(s, idx);
            srv.enqueue_at(s, idx, proc::CUDA_MEMCPY_DTOH, Returns::AtCompletion, |d| {
                d.memcpy_dtoh_stream(src, len, st, |bytes| {
                    out.take().expect("lent once").data(bytes)
                })
            })
        });
        Ok(match r {
            Ok(replied) => {
                srv.metrics.add(BYTES_OUT, len);
                replied
            }
            Err(e) => out.expect("unused on error").default(err_code(&e)),
        })
    }

    /// Sparse H2D: the shared body expands the zero-page-elided blob and
    /// writes it like a plain H2D — `bytes_in` counts the decoded length,
    /// keeping the paper's transfer accounting independent of the wire codec.
    fn cuda_memcpy_htod_sparse(&self, dst: u64, enc: &[u8]) -> Reply<i32> {
        let op = BatchOp::CudaMemcpyHtodSparse(dst, enc);
        self.immediate(op, Returns::AtCompletion)
    }

    fn cuda_memcpy_dtod(&self, dst: u64, src: u64, len: u64) -> Reply<i32> {
        let (srv, s) = (&self.srv, self.session());
        if srv.owned(s, src, len) == srv.owned(s, dst, len) {
            // Same-device copy is asynchronous: it rides the session's
            // stream and the RPC returns at submission.
            let op = BatchOp::CudaMemcpyDtod(dst, src, len);
            return self.immediate(op, Returns::AtSubmission);
        }
        // A peer copy's two legs each pay the prologue; the call counts once.
        let r = srv.peer_copy(s, dst, src, len);
        srv.metrics.add(CALLS, 1);
        Ok(int_of(r))
    }

    fn cuda_memset(&self, ptr: u64, value: i32, len: u64) -> Reply<i32> {
        let op = BatchOp::CudaMemset(ptr, value, len);
        self.immediate(op, Returns::AtSubmission)
    }

    fn cuda_mem_get_info(&self) -> Reply<MemInfoResult> {
        // Host-only: a bookkeeping read; the brief lock copies two counters.
        let (srv, s) = (&self.srv, self.session());
        let idx = srv.current_device(s);
        let (free, total) = srv.host_call(s, proc::CUDA_MEM_GET_INFO, || {
            srv.devices[idx].lock().mem_info()
        });
        Ok(MemInfoResult::Info(MemInfo { free, total }))
    }

    fn cuda_get_last_error(&self) -> Reply<IntResult> {
        Ok(IntResult::Data(0))
    }

    fn cu_module_load_data(&self, image: &[u8]) -> Reply<U64Result> {
        let (srv, s) = (&self.srv, self.session());
        srv.metrics.add(BYTES_IN, image.len() as u64);
        let r = srv.wait_here(s, proc::CU_MODULE_LOAD_DATA, |d| {
            // The bound is checked and the image kept under one hold of the
            // session table, so two loads on one session cannot both pass.
            let (mut sessions, mut objects) = (srv.sessions.lock(), srv.objects.lock());
            let held = sessions.entry(s).or_default();
            module_room(images(held, &objects), image.len() as u64)?;
            let (h, t) = d.module_load(image)?;
            // The retained copy is the only one: the image arrives as a
            // borrowed slice of the request record.
            objects.insert(h, HostObject::Module(image.to_vec()));
            held.handles.insert(h, Kind::Module);
            Ok((h, t))
        });
        reply(r, U64Result::Data, U64Result::Default)
    }

    fn cu_module_get_function(&self, module: u64, name: &str) -> Reply<U64Result> {
        let r = self
            .srv
            .wait_for(self.session(), module, proc::CU_MODULE_GET_FUNCTION, |d| {
                d.module_get_function(module, name)
            });
        reply(r, U64Result::Data, U64Result::Default)
    }

    fn cu_module_unload(&self, module: u64) -> Reply<i32> {
        let (srv, s) = (&self.srv, self.session());
        let r = srv.wait_for(s, module, proc::CU_MODULE_UNLOAD, |d| {
            d.module_unload(module).map(|t| ((), t))
        });
        if r.is_ok() {
            srv.objects.lock().remove(&module);
            srv.track(s, |r| r.handles.remove(&module));
        }
        Ok(int_of(r))
    }

    fn cuda_launch_kernel(
        &self,
        func: u64,
        grid: RpcDim3,
        block: RpcDim3,
        shared: u32,
        stream: u64,
        params: &[u8],
    ) -> Reply<i32> {
        // The launch is asynchronous: the RPC returns at submission and the
        // kernel's duration rides the session's stream timeline.
        let op = BatchOp::CudaLaunchKernel(func, grid, block, shared, stream, params);
        self.immediate(op, Returns::AtSubmission)
    }

    fn cuda_stream_create(&self) -> Reply<U64Result> {
        let (srv, s) = (&self.srv, self.session());
        let r = srv.wait_here(s, proc::CUDA_STREAM_CREATE, |d| d.stream_create());
        if let Ok(h) = r {
            srv.track(s, |r| r.handles.insert(h, Kind::Stream));
        }
        reply(r, U64Result::Data, U64Result::Default)
    }

    fn cuda_stream_destroy(&self, h: u64) -> Reply<i32> {
        let (srv, s) = (&self.srv, self.session());
        let r = srv.wait_for(s, h, proc::CUDA_STREAM_DESTROY, |d| {
            d.stream_destroy(h).map(|t| ((), t))
        });
        if r.is_ok() {
            // If this was its default stream, drop the binding too so
            // `session_stream` never returns a destroyed handle; it is
            // lazily recreated on next use.
            srv.track(s, |r| {
                (r.handles.remove(&h), r.streams.retain(|_, b| *b != h))
            });
        }
        Ok(int_of(r))
    }

    fn cuda_stream_synchronize(&self, h: u64) -> Reply<i32> {
        let (srv, s) = (&self.srv, self.session());
        let r = srv.owned(s, h, 0).and_then(|idx| {
            let st = srv.resolve_stream(s, idx, h);
            srv.wait_at(s, idx, proc::CUDA_STREAM_SYNCHRONIZE, |d| {
                d.stream_synchronize(st).map(|t| ((), t))
            })
        });
        Ok(int_of(r))
    }

    fn cuda_event_create(&self) -> Reply<U64Result> {
        let (srv, s) = (&self.srv, self.session());
        let r = srv.wait_here(s, proc::CUDA_EVENT_CREATE, |d| d.event_create());
        if let Ok(h) = r {
            srv.track(s, |r| r.handles.insert(h, Kind::Event));
        }
        reply(r, U64Result::Data, U64Result::Default)
    }

    fn cuda_event_record(&self, event: u64, stream: u64) -> Reply<i32> {
        // Event record is an enqueue: it stamps the stream's completion
        // frontier and returns immediately (the small cost it charges is
        // the device front-end work, not a wait).
        let op = BatchOp::CudaEventRecord(event, stream);
        self.immediate(op, Returns::AtSubmission)
    }

    fn cuda_event_synchronize(&self, event: u64) -> Reply<i32> {
        Ok(int_of(self.srv.wait_for(
            self.session(),
            event,
            proc::CUDA_EVENT_SYNCHRONIZE,
            |d| d.event_synchronize(event).map(|t| ((), t)),
        )))
    }

    fn cuda_event_elapsed_time(&self, start: u64, stop: u64) -> Reply<FloatResult> {
        let (srv, s) = (&self.srv, self.session());
        let r = srv.owned(s, stop, 0).and_then(|_| {
            srv.wait_for(s, start, proc::CUDA_EVENT_ELAPSED_TIME, |d| {
                d.event_elapsed_ms(start, stop).map(|v| (v, 0))
            })
        });
        reply(r, FloatResult::Data, FloatResult::Default)
    }

    fn cuda_event_destroy(&self, event: u64) -> Reply<i32> {
        let (srv, s) = (&self.srv, self.session());
        let r = srv.wait_for(s, event, proc::CUDA_EVENT_DESTROY, |d| {
            d.event_destroy(event).map(|t| ((), t))
        });
        if r.is_ok() {
            srv.track(s, |r| r.handles.remove(&event));
        }
        Ok(int_of(r))
    }

    fn cublas_create(&self) -> Reply<U64Result> {
        let blas = || Ok(HostObject::Blas);
        let (srv, s) = (&self.srv, self.session());
        let r = srv.lib_create(s, proc::CUBLAS_CREATE, blas);
        reply(r, U64Result::Data, U64Result::Default)
    }

    fn cublas_destroy(&self, h: u64) -> Reply<i32> {
        let (srv, s) = (&self.srv, self.session());
        Ok(int_of(srv.lib_destroy(
            s,
            proc::CUBLAS_DESTROY,
            h,
            Kind::Blas,
        )))
    }

    #[allow(clippy::too_many_arguments)]
    fn cublas_sgemm(
        &self,
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
    ) -> Reply<i32> {
        let g = Gemm {
            trans: (transa, transb),
            mnk: (m, n, k),
            alpha: alpha.into(),
            beta: beta.into(),
            a: (a, lda),
            b: (b, ldb),
            c: (c, ldc),
        };
        Ok(int_of(self.srv.gemm(self.session(), h, false, g)))
    }

    #[allow(clippy::too_many_arguments)]
    fn cublas_dgemm(
        &self,
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
    ) -> Reply<i32> {
        let g = Gemm {
            trans: (transa, transb),
            mnk: (m, n, k),
            alpha,
            beta,
            a: (a, lda),
            b: (b, ldb),
            c: (c, ldc),
        };
        Ok(int_of(self.srv.gemm(self.session(), h, true, g)))
    }

    fn cusolver_dn_create(&self) -> Reply<U64Result> {
        let solver = || Ok(HostObject::Solver(vgpu::solver::SolverDn::new()));
        let r = self
            .srv
            .lib_create(self.session(), proc::CUSOLVER_DN_CREATE, solver);
        reply(r, U64Result::Data, U64Result::Default)
    }

    fn cusolver_dn_destroy(&self, h: u64) -> Reply<i32> {
        let (srv, s) = (&self.srv, self.session());
        Ok(int_of(srv.lib_destroy(
            s,
            proc::CUSOLVER_DN_DESTROY,
            h,
            Kind::Solver,
        )))
    }

    fn cusolver_dn_dgetrf_buffer_size(
        &self,
        h: u64,
        m: i32,
        n: i32,
        _a: u64,
        _lda: i32,
    ) -> Reply<IntResult> {
        let (srv, s) = (&self.srv, self.session());
        let r = srv.host_call(s, proc::CUSOLVER_DN_DGETRF_BUFFER_SIZE, || {
            srv.solver(s, h, |solver| solver.dgetrf_buffer_size(m, n))
        });
        reply(r, IntResult::Data, IntResult::Default)
    }

    #[allow(clippy::too_many_arguments)]
    fn cusolver_dn_dgetrf(
        &self,
        h: u64,
        m: i32,
        n: i32,
        a: u64,
        lda: i32,
        work: u64,
        ipiv: u64,
        info: u64,
    ) -> Reply<i32> {
        let (srv, s) = (&self.srv, self.session());
        let getrf =
            |d: &mut Device| srv.solver(s, h, |lu| lu.dgetrf(d, m, n, a, lda, work, ipiv, info));
        let operands = [a, work, ipiv, info];
        let r = srv.library_op(s, proc::CUSOLVER_DN_DGETRF, &operands, "getrf", getrf);
        Ok(int_of(r))
    }

    #[allow(clippy::too_many_arguments)]
    fn cusolver_dn_dgetrs(
        &self,
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
    ) -> Reply<i32> {
        let (srv, s) = (&self.srv, self.session());
        let getrs = |d: &mut Device| {
            srv.solver(s, h, |lu| {
                lu.dgetrs(d, trans, n, nrhs, a, lda, ipiv, b, ldb, info)
            })
        };
        let operands = [a, ipiv, b, info];
        let r = srv.library_op(s, proc::CUSOLVER_DN_DGETRS, &operands, "getrs", getrs);
        Ok(int_of(r))
    }

    fn cufft_plan_1d(&self, n: i32, kind: i32, batch: i32) -> Reply<U64Result> {
        let plan = || vgpu::fft::FftPlan::plan_1d(n, kind, batch).map(HostObject::Fft);
        let (srv, s) = (&self.srv, self.session());
        let r = srv.lib_create(s, proc::CUFFT_PLAN_1D, plan);
        reply(r, U64Result::Data, U64Result::Default)
    }

    fn cufft_destroy(&self, h: u64) -> Reply<i32> {
        let (srv, s) = (&self.srv, self.session());
        Ok(int_of(srv.lib_destroy(
            s,
            proc::CUFFT_DESTROY,
            h,
            Kind::Fft,
        )))
    }

    fn cufft_exec_c2c(&self, h: u64, idata: u64, odata: u64, dir: i32) -> Reply<i32> {
        let op = BatchOp::CufftExecC2c(h, idata, odata, dir);
        self.immediate(op, Returns::AtSubmission)
    }

    fn cufft_exec_z2z(&self, h: u64, idata: u64, odata: u64, dir: i32) -> Reply<i32> {
        let op = BatchOp::CufftExecZ2z(h, idata, odata, dir);
        self.immediate(op, Returns::AtSubmission)
    }

    fn cricket_batch_exec(&self, body: &[u8]) -> Reply<BatchResult> {
        self.srv.batch_exec(self.session(), body)
    }

    fn ckpt_capture(&self, out: DataResultReply<'_>) -> Reply<DataResultReplied> {
        let srv = &self.srv;
        let r = srv.wait_turn(self.session(), proc::CKPT_CAPTURE, || {
            let blob = srv.checkpoint();
            // Serialization cost scales with snapshot size.
            let t = (blob.len() as u64) / 8;
            Ok((blob, t))
        });
        Ok(match r {
            Ok(blob) => {
                srv.metrics.add(BYTES_OUT, blob.len() as u64);
                out.data(&blob)
            }
            Err(e) => out.default(err_code(&e)),
        })
    }

    fn ckpt_restore(&self, blob: &[u8]) -> Reply<i32> {
        let srv = &self.srv;
        srv.metrics.add(BYTES_IN, blob.len() as u64);
        Ok(int_of(srv.wait_turn(
            self.session(),
            proc::CKPT_RESTORE,
            || {
                srv.restore(self.session(), blob)?;
                Ok(((), (blob.len() as u64) / 8))
            },
        )))
    }

    fn srv_get_stats(&self) -> Reply<ServerStats> {
        Ok(self.srv.stats())
    }

    fn srv_reset_stats(&self) -> Reply<i32> {
        // The server's own counters only: the live-session set is admission
        // state (`qos_admit`, `load_report`), and `release_session` empties
        // it; the reactor's and the replay cache's belong to them.
        self.srv.metrics.reset();
        Ok(0)
    }

    fn srv_set_scheduler(&self, policy: i32) -> Reply<i32> {
        Ok(match SchedulerPolicy::from_i32(policy) {
            Some(p) => {
                self.srv.scheduler.set_policy(p);
                0
            }
            None => vgpu::CudaCode::InvalidValue as i32,
        })
    }

    // The migration control plane deliberately bypasses `host_call`: no
    // scheduler turn and no virtual-clock charge, so streaming a session in
    // never perturbs the timing the migrated client will observe.
    fn mig_apply_base(&self, blob: &[u8]) -> Reply<i32> {
        Ok(int_of(self.srv.mig_apply(blob, &[MigKind::Base]).map(drop)))
    }

    fn mig_apply_delta(&self, blob: &[u8]) -> Reply<IntResult> {
        let r = self.srv.mig_apply(blob, &[MigKind::Delta, MigKind::Final]);
        reply(r.map(|n| n as i32), IntResult::Data, IntResult::Default)
    }

    fn mig_abort(&self, token: u64) -> Reply<i32> {
        self.srv.discard_adoption(token);
        Ok(0)
    }

    /// Install the caller's own QoS spec; another session's is refused.
    /// Administrative: charges no device time, like `srv_set_scheduler`.
    fn cricket_qos_set(&self, p: QosParams) -> Reply<i32> {
        if p.session != self.session() {
            return Ok(vgpu::CudaCode::InvalidValue as i32);
        }
        let spec = QosSpec {
            weight: p.weight,
            priority: p.priority,
            rate_ns_per_s: p.rate_ns_per_s,
            burst_ns: p.burst_ns,
            max_resident_bytes: p.max_resident_bytes,
        };
        self.srv.scheduler.set_qos(p.session, spec);
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::decode_batch;
    use crate::migrate;
    use crate::server::{handle_base, HANDLE_STRIDE, HEAP_STRIDE, LIB_HANDLE_BASE, LIB_HANDLE_END};
    use crate::{QosServerConfig, ServerConfig};
    use cricket_proto::cricket_v1;
    use cricket_proto::{
        CricketV1Service as _, DataResult, MigBlob, MigCursor, MigDefaultStream, MigEvent, MigFft,
        MigModule, MigStream, SessionMeta,
    };
    use simnet::clock::HORIZON_NS;
    use simnet::SimClock;
    use vgpu::memory::MemDelta;

    fn server() -> (Arc<CricketServer>, Sessioned) {
        let srv = CricketServer::a100();
        let sess = Sessioned::new(Arc::clone(&srv), 1);
        (srv, sess)
    }

    /// `cudaMemcpy(D2H)` as a caller sees it: the reply the sink wrote.
    fn read(s: &Sessioned, ptr: u64, len: u64) -> DataResult {
        let mut enc = xdr::XdrEncoder::new();
        s.cuda_memcpy_dtoh(ptr, len, DataResultReply(&mut enc))
            .unwrap();
        xdr::decode(enc.as_slice()).unwrap()
    }

    #[test]
    fn device_count_and_properties() {
        let (_srv, s) = server();
        assert_eq!(s.cuda_get_device_count().unwrap(), IntResult::Data(4));
        match s.cuda_get_device_properties(0).unwrap() {
            PropResult::Prop(p) => assert!(p.name.contains("A100")),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            s.cuda_get_device_properties(7).unwrap(),
            PropResult::Default(vgpu::CudaCode::InvalidDevice as i32)
        );
        // The paper's GPU node: device 1 is a T4, device 3 a P40.
        match s.cuda_get_device_properties(1).unwrap() {
            PropResult::Prop(p) => assert!(p.name.contains("T4")),
            other => panic!("{other:?}"),
        }
        match s.cuda_get_device_properties(3).unwrap() {
            PropResult::Prop(p) => assert!(p.name.contains("P40")),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.cuda_set_device(0).unwrap(), 0);
        assert_eq!(s.cuda_set_device(2).unwrap(), 0);
        assert_eq!(s.cuda_get_device().unwrap(), IntResult::Data(2));
        assert_ne!(s.cuda_set_device(9).unwrap(), 0);
        s.cuda_set_device(0).unwrap();
    }

    #[test]
    fn allocations_route_to_their_device() {
        let (_srv, s) = server();
        // Allocate on the A100, switch to the T4, allocate again; both
        // pointers stay usable because every pointer carries its device.
        let p0 = s.cuda_malloc(4096).unwrap().into_result().unwrap();
        s.cuda_set_device(1).unwrap();
        let p1 = s.cuda_malloc(4096).unwrap().into_result().unwrap();
        assert_ne!(p0 / HEAP_STRIDE, p1 / HEAP_STRIDE, "distinct heaps");
        s.cuda_memcpy_htod(p0, &[7u8; 16]).unwrap();
        s.cuda_memcpy_htod(p1, &[9u8; 16]).unwrap();
        assert_eq!(read(&s, p0, 16).into_result().unwrap(), vec![7u8; 16]);
        // Peer copy T4 → A100 through the host staging path.
        assert_eq!(s.cuda_memcpy_dtod(p0, p1, 16).unwrap(), 0);
        assert_eq!(read(&s, p0, 16).into_result().unwrap(), vec![9u8; 16]);
        assert_eq!(s.cuda_free(p0).unwrap(), 0);
        assert_eq!(s.cuda_free(p1).unwrap(), 0);
    }

    #[test]
    fn malloc_copy_free_cycle() {
        let (_srv, s) = server();
        let ptr = s.cuda_malloc(1024).unwrap().into_result().unwrap();
        assert_eq!(s.cuda_memcpy_htod(ptr, &[7u8; 100]).unwrap(), 0);
        let back = read(&s, ptr, 100).into_result().unwrap();
        assert_eq!(back, vec![7u8; 100]);
        assert_eq!(s.cuda_free(ptr).unwrap(), 0);
        // Double free is the error the safe wrapper prevents.
        assert_eq!(
            s.cuda_free(ptr).unwrap(),
            vgpu::CudaCode::InvalidValue as i32
        );
    }

    #[test]
    fn oom_reports_cuda_code() {
        let (_srv, s) = server();
        let r = s.cuda_malloc(1 << 60).unwrap();
        assert_eq!(
            r,
            U64Result::Default(vgpu::CudaCode::MemoryAllocation as i32)
        );
    }

    #[test]
    fn clock_advances_with_calls() {
        let (srv, s) = server();
        let t0 = srv.clock().now_ns();
        s.cuda_get_device_count().unwrap();
        let t1 = srv.clock().now_ns();
        assert!(t1 >= t0 + cricket_proto::DISPATCH_NS as u64);
    }

    /// The host cost of every procedure that enters the call prologue, as
    /// `cricket.x` declares it — the figures the server's bodies carried as
    /// literals before — and none for the procedures that bypass it, which
    /// charge the clock nothing (a batch charges its one dispatch and its
    /// sub-ops, never a cost of its own).
    #[test]
    fn the_cost_table_is_the_servers_call_costs() {
        use cricket_proto::cricket_v1 as p;
        #[rustfmt::skip]
        let costed: &[(u32, u64)] = &[
            (p::CUDA_GET_DEVICE_COUNT, 1_000), (p::CUDA_GET_DEVICE_PROPERTIES, 2_000),
            (p::CUDA_SET_DEVICE, 500), (p::CUDA_GET_DEVICE, 500),
            (p::CUDA_DEVICE_SYNCHRONIZE, 1_000), (p::CUDA_DEVICE_RESET, 5_000),
            (p::CUDA_MALLOC, 4_000), (p::CUDA_FREE, 3_500),
            (p::CUDA_MEMCPY_HTOD, 3_000), (p::CUDA_MEMCPY_DTOH, 3_000),
            (p::CUDA_MEMCPY_DTOD, 2_500), (p::CUDA_MEMSET, 2_000),
            (p::CUDA_MEM_GET_INFO, 1_500), (p::CUDA_MEMCPY_HTOD_SPARSE, 3_000),
            (p::CU_MODULE_LOAD_DATA, 25_000), (p::CU_MODULE_GET_FUNCTION, 2_000),
            (p::CU_MODULE_UNLOAD, 3_000), (p::CUDA_LAUNCH_KERNEL, 3_500),
            (p::CUDA_STREAM_CREATE, 1_500), (p::CUDA_STREAM_DESTROY, 1_000),
            (p::CUDA_STREAM_SYNCHRONIZE, 1_000), (p::CUDA_EVENT_CREATE, 800),
            (p::CUDA_EVENT_RECORD, 800), (p::CUDA_EVENT_SYNCHRONIZE, 800),
            (p::CUDA_EVENT_ELAPSED_TIME, 800), (p::CUDA_EVENT_DESTROY, 600),
            (p::CUBLAS_CREATE, 5_000), (p::CUBLAS_DESTROY, 2_000),
            (p::CUBLAS_SGEMM, 4_000), (p::CUBLAS_DGEMM, 4_000),
            (p::CUSOLVER_DN_CREATE, 10_000), (p::CUSOLVER_DN_DESTROY, 3_000),
            (p::CUSOLVER_DN_DGETRF_BUFFER_SIZE, 2_000), (p::CUSOLVER_DN_DGETRF, 8_000),
            (p::CUSOLVER_DN_DGETRS, 6_000), (p::CUFFT_PLAN_1D, 6_000),
            (p::CUFFT_DESTROY, 2_000), (p::CUFFT_EXEC_C2C, 5_000),
            (p::CUFFT_EXEC_Z2Z, 5_000), (p::CKPT_CAPTURE, 50_000),
            (p::CKPT_RESTORE, 50_000),
        ];
        let table: Vec<(u32, u64)> = (0..4096)
            .map(|proc| (proc, p::host_cost_ns(proc)))
            .filter(|&(_, ns)| ns > 0)
            .collect();
        let mut pinned = costed.to_vec();
        pinned.sort_unstable();
        assert_eq!(table, pinned, "cricket.x's costs vs the pinned table");
        assert_eq!(
            (cricket_proto::DISPATCH_NS, cricket_proto::BATCH_OP_NS),
            (6_000, 800)
        );

        let (srv, s) = server();
        let qos = QosParams {
            session: 1,
            weight: 1,
            priority: 100,
            rate_ns_per_s: 0,
            burst_ns: 0,
            max_resident_bytes: 0,
        };
        type Call = Box<dyn Fn(&Sessioned)>;
        #[rustfmt::skip]
        let bypass: Vec<(u32, Call)> = vec![
            (p::RPC_NULL, Box::new(|s| s.rpc_null().unwrap())),
            (p::CUDA_GET_LAST_ERROR, Box::new(|s| { s.cuda_get_last_error().unwrap(); })),
            (p::SRV_GET_STATS, Box::new(|s| { s.srv_get_stats().unwrap(); })),
            (p::SRV_RESET_STATS, Box::new(|s| { s.srv_reset_stats().unwrap(); })),
            (p::SRV_SET_SCHEDULER, Box::new(|s| { s.srv_set_scheduler(0).unwrap(); })),
            (p::MIG_APPLY_BASE, Box::new(|s| { s.mig_apply_base(b"not a blob").unwrap(); })),
            (p::MIG_APPLY_DELTA, Box::new(|s| { s.mig_apply_delta(b"not a blob").unwrap(); })),
            (p::MIG_ABORT, Box::new(|s| { s.mig_abort(7).unwrap(); })),
            (p::CRICKET_QOS_SET, Box::new(move |s| { s.cricket_qos_set(qos).unwrap(); })),
        ];
        for (proc, call) in &bypass {
            assert_eq!(p::host_cost_ns(*proc), 0, "proc {proc}");
            let t0 = srv.clock().now_ns();
            call(&s);
            assert_eq!(srv.clock().now_ns(), t0, "proc {proc} charged the clock");
        }
        assert_eq!(p::host_cost_ns(p::CRICKET_BATCH_EXEC), 0);
        let t0 = srv.clock().now_ns();
        s.cricket_batch_exec(&oncrpc::BatchBuilder::new().finish())
            .unwrap();
        let dispatch = cricket_proto::DISPATCH_NS as u64;
        assert_eq!(srv.clock().now_ns(), t0 + dispatch, "an empty batch");

        // A host-only call is charged its dispatch and its cost, exactly.
        let t0 = srv.clock().now_ns();
        s.cuda_get_device_properties(0).unwrap();
        let cost = p::host_cost_ns(p::CUDA_GET_DEVICE_PROPERTIES);
        assert_eq!(srv.clock().now_ns(), t0 + dispatch + cost);
    }

    /// A cross-device D2D is one CUDA call, alone or in a batch, like a
    /// same-device one; both of its legs still pay the prologue's charge.
    #[test]
    fn a_peer_copy_is_one_call_alone_and_in_a_batch() {
        let (srv, s) = server();
        let p0 = s.cuda_malloc(4096).unwrap().into_result().unwrap();
        let q0 = s.cuda_malloc(4096).unwrap().into_result().unwrap();
        s.cuda_set_device(1).unwrap();
        let p1 = s.cuda_malloc(4096).unwrap().into_result().unwrap();
        let calls = || s.srv_get_stats().unwrap().get("server.calls").unwrap();

        let (before, t0) = (calls(), srv.clock().now_ns());
        assert_eq!(s.cuda_memcpy_dtod(p1, p0, 4096).unwrap(), 0);
        assert_eq!(calls(), before + 1, "peer D2D alone");
        let leg = cricket_proto::DISPATCH_NS as u64
            + cricket_v1::host_cost_ns(cricket_v1::CUDA_MEMCPY_DTOD);
        assert!(srv.clock().now_ns() >= t0 + 2 * leg, "both legs pay");

        let before = calls();
        let mut b = oncrpc::BatchBuilder::new();
        BatchOp::CudaMemcpyDtod(p1, p0, 4096).record(&mut b);
        let BatchResult::Receipt(receipt) = s.cricket_batch_exec(&b.finish()).unwrap() else {
            panic!("batch refused");
        };
        assert_eq!((receipt.statuses.to_vec(), receipt.executed), (vec![0], 1));
        assert_eq!(calls(), before + 1, "peer D2D as a one-op batch");

        let before = calls();
        assert_eq!(s.cuda_memcpy_dtod(q0, p0, 4096).unwrap(), 0);
        assert_eq!(calls(), before + 1, "same-device D2D");
    }

    #[test]
    fn stats_accumulate() {
        let (_srv, s) = server();
        let ptr = s.cuda_malloc(4096).unwrap().into_result().unwrap();
        s.cuda_memcpy_htod(ptr, &[0u8; 4096]).unwrap();
        let _ = read(&s, ptr, 1024);
        // A refused read answers with the error arm and moves no bytes.
        assert_eq!(
            read(&s, ptr, 4097),
            DataResult::Default(vgpu::CudaCode::InvalidValue as i32)
        );
        let st = s.srv_get_stats().unwrap();
        assert!(st.get("server.calls").unwrap() >= 3);
        assert_eq!(st.get("server.bytes_in").unwrap(), 4096);
        assert_eq!(st.get("server.bytes_out").unwrap(), 1024);
        assert_eq!(st.get("server.sessions").unwrap(), 1);
        s.srv_reset_stats().unwrap();
        let st = s.srv_get_stats().unwrap();
        assert_eq!(st.get("server.bytes_in").unwrap(), 0);
        assert_eq!(
            st.get("server.sessions").unwrap(),
            1,
            "a reset leaves the live sessions alone"
        );
    }

    #[test]
    fn gemm_through_service() {
        let (_srv, s) = server();
        let h = s.cublas_create().unwrap().into_result().unwrap();
        let pa = s.cuda_malloc(32).unwrap().into_result().unwrap();
        // A = [2] (1x1), C = A*A.
        let two = 2.0f64.to_le_bytes().to_vec();
        s.cuda_memcpy_htod(pa, &two).unwrap();
        let pc = s.cuda_malloc(8).unwrap().into_result().unwrap();
        assert_eq!(
            s.cublas_dgemm(h, 0, 0, 1, 1, 1, 1.0, pa, 1, pa, 1, 0.0, pc, 1)
                .unwrap(),
            0
        );
        let out = read(&s, pc, 8).into_result().unwrap();
        assert_eq!(f64::from_le_bytes(out.try_into().unwrap()), 4.0);
        assert_eq!(s.cublas_destroy(h).unwrap(), 0);
        assert_ne!(s.cublas_destroy(h).unwrap(), 0, "stale handle rejected");
    }

    #[test]
    fn solver_requires_valid_handle() {
        let (_srv, s) = server();
        let r = s.cusolver_dn_dgetrf_buffer_size(0xbad, 4, 4, 0, 4).unwrap();
        assert_eq!(r, IntResult::Default(vgpu::CudaCode::InvalidHandle as i32));
    }

    #[test]
    fn release_session_reclaims_everything() {
        let (srv, s) = server();
        let MemInfoResult::Info(before) = s.cuda_mem_get_info().unwrap() else {
            panic!("mem_get_info failed");
        };
        let ptr = s.cuda_malloc(1 << 20).unwrap().into_result().unwrap();
        s.cuda_memcpy_htod(ptr, &[1u8; 64]).unwrap();
        let stream = s.cuda_stream_create().unwrap().into_result().unwrap();
        let event = s.cuda_event_create().unwrap().into_result().unwrap();
        let blas = s.cublas_create().unwrap().into_result().unwrap();
        let MemInfoResult::Info(held) = s.cuda_mem_get_info().unwrap() else {
            panic!("mem_get_info failed");
        };
        assert!(held.free < before.free);

        let cleanup = srv.release_session(1);
        assert_eq!(cleanup.allocations, 1);
        // Two streams: the explicitly created one plus the session's lazily
        // materialized default stream (created by the first async memcpy).
        assert_eq!(cleanup.streams, 2);
        assert_eq!(cleanup.events, 1);
        assert_eq!(cleanup.lib_handles, 1);
        assert_eq!(cleanup.total(), 5);

        // The scheduler forgets the session's ledger too (the leak fix).
        assert!(!srv.scheduler.knows(1));

        // The memory is back and every handle is dead.
        let MemInfoResult::Info(after) = s.cuda_mem_get_info().unwrap() else {
            panic!("mem_get_info failed");
        };
        assert_eq!(after.free, before.free);
        assert_ne!(s.cuda_free(ptr).unwrap(), 0);
        assert_ne!(s.cuda_stream_destroy(stream).unwrap(), 0);
        assert_ne!(s.cuda_event_destroy(event).unwrap(), 0);
        assert_ne!(s.cublas_destroy(blas).unwrap(), 0);

        // Releasing an unknown session is a no-op.
        assert_eq!(srv.release_session(99).total(), 0);
    }

    #[test]
    fn explicitly_destroyed_resources_are_not_double_released() {
        let (srv, s) = server();
        let ptr = s.cuda_malloc(4096).unwrap().into_result().unwrap();
        assert_eq!(s.cuda_free(ptr).unwrap(), 0);
        let cleanup = srv.release_session(1);
        assert_eq!(cleanup.total(), 0, "freed ptr must not be freed again");
    }

    /// The reactor executes every `inline` procedure on its one poll thread,
    /// so none of them may wait for a scheduler turn. The set is read off
    /// the table generated from `cricket.x` itself: a procedure tagged
    /// `inline` there without a row here fails the equality below.
    #[test]
    fn host_only_queries_take_no_scheduler_turn() {
        use cricket_proto::cricket_v1 as p;
        type Call = Box<dyn Fn(&Sessioned) + Send>;

        let (srv, s) = server();
        let solver = s.cusolver_dn_create().unwrap().into_result().unwrap();
        let qos = QosParams {
            session: 1,
            weight: 1,
            priority: 100,
            rate_ns_per_s: 0,
            burst_ns: 0,
            max_resident_bytes: 0,
        };
        #[rustfmt::skip]
        let driven: Vec<(u32, Call)> = vec![
            (p::RPC_NULL, Box::new(|s| s.rpc_null().unwrap())),
            (p::CUDA_GET_DEVICE_COUNT, Box::new(|s| { s.cuda_get_device_count().unwrap(); })),
            (p::CUDA_GET_DEVICE_PROPERTIES, Box::new(|s| { s.cuda_get_device_properties(0).unwrap(); })),
            (p::CUDA_SET_DEVICE, Box::new(|s| { s.cuda_set_device(0).unwrap(); })),
            (p::CUDA_GET_DEVICE, Box::new(|s| { s.cuda_get_device().unwrap(); })),
            (p::CUDA_MEM_GET_INFO, Box::new(|s| { s.cuda_mem_get_info().unwrap(); })),
            (p::CUDA_GET_LAST_ERROR, Box::new(|s| { s.cuda_get_last_error().unwrap(); })),
            (p::CUSOLVER_DN_DGETRF_BUFFER_SIZE, Box::new(move |s| {
                let size = s.cusolver_dn_dgetrf_buffer_size(solver, 8, 8, 0, 8).unwrap();
                assert!(matches!(size, IntResult::Data(_)), "{size:?}");
            })),
            (p::SRV_GET_STATS, Box::new(|s| { s.srv_get_stats().unwrap(); })),
            (p::SRV_RESET_STATS, Box::new(|s| { s.srv_reset_stats().unwrap(); })),
            (p::SRV_SET_SCHEDULER, Box::new(|s| { s.srv_set_scheduler(0).unwrap(); })),
            (p::CRICKET_QOS_SET, Box::new(move |s| { s.cricket_qos_set(qos).unwrap(); })),
        ];
        let done: Vec<u32> = (0..4096).filter(|&proc| p::is_inline(proc)).collect();
        for proc in 0..4096 {
            let class = crate::proc_class(proc);
            assert_eq!(class == oncrpc::ProcClass::Done, p::is_inline(proc));
        }
        let order: Vec<u32> = driven.iter().map(|(proc, _)| *proc).collect();
        let mut listed = order.clone();
        listed.sort_unstable();
        assert_eq!(
            done, listed,
            "cricket.x's inline set vs the procs driven here"
        );

        // Another session holds the issue slot for the whole sweep: a
        // procedure that needs a turn blocks behind it, and the bounded
        // wait turns that into a failure instead of a hang.
        let turn = srv.scheduler.begin(2);
        let before = srv.scheduler.served_ops();
        let (tx, rx) = std::sync::mpsc::channel();
        let caller = std::thread::spawn(move || {
            for (_, call) in &driven {
                call(&s);
                tx.send(()).unwrap();
            }
            s
        });
        for proc in order {
            assert!(
                rx.recv_timeout(std::time::Duration::from_secs(5)).is_ok(),
                "Done-class proc {proc} blocked behind another session's turn"
            );
        }
        assert_eq!(
            srv.scheduler.served_ops(),
            before,
            "host-only queries must not be arbitrated as device work"
        );
        drop(turn);
        let s = caller.join().unwrap();

        // Device work, by contrast, does take a turn.
        let ptr = s.cuda_malloc(256).unwrap().into_result().unwrap();
        s.cuda_free(ptr).unwrap();
        let after = srv.scheduler.served_ops();
        assert_eq!(after[&1], before.get(&1).copied().unwrap_or(0) + 2);
    }

    /// What the ops of [`one_of_each_batchable`] act on: made-up tokens for
    /// the decoder, live handles (see [`live_targets`]) to execute them.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Targets {
        mem: u64,
        func: u64,
        stream: u64,
        event: u64,
        c2c: u64,
        z2z: u64,
    }

    /// One op per batchable procedure, each with distinct arguments.
    fn one_of_each_batchable<'a>(
        t: &Targets,
        sparse: &'a [u8],
        params: &'a [u8],
    ) -> Vec<BatchOp<'a>> {
        let grid = RpcDim3 { x: 2, y: 3, z: 4 };
        let block = RpcDim3 { x: 5, y: 6, z: 7 };
        vec![
            BatchOp::CudaMemcpyHtod(t.mem + 0x10, b"abcde"),
            BatchOp::CudaMemcpyDtod(t.mem + 0x20, t.mem + 0x10, 5),
            BatchOp::CudaMemset(t.mem + 0x30, -3, 33),
            BatchOp::CudaMemcpyHtodSparse(t.mem + 0x1000, sparse),
            BatchOp::CudaLaunchKernel(t.func, grid, block, 51, t.stream, params),
            BatchOp::CudaEventRecord(t.event, t.stream),
            BatchOp::CufftExecC2c(t.c2c, t.mem + 0x100, t.mem + 0x200, -1),
            BatchOp::CufftExecZ2z(t.z2z, t.mem + 0x300, t.mem + 0x400, 1),
        ]
    }

    /// Status of `op` called on its own, through its trait method.
    fn call_alone(s: &Sessioned, op: &BatchOp<'_>) -> i32 {
        match *op {
            BatchOp::CudaMemcpyHtod(dst, data) => s.cuda_memcpy_htod(dst, data),
            BatchOp::CudaMemcpyDtod(dst, src, len) => s.cuda_memcpy_dtod(dst, src, len),
            BatchOp::CudaMemset(ptr, value, len) => s.cuda_memset(ptr, value, len),
            BatchOp::CudaMemcpyHtodSparse(dst, enc) => s.cuda_memcpy_htod_sparse(dst, enc),
            BatchOp::CudaLaunchKernel(func, grid, block, shared, stream, params) => {
                s.cuda_launch_kernel(func, grid, block, shared, stream, params)
            }
            BatchOp::CudaEventRecord(event, stream) => s.cuda_event_record(event, stream),
            BatchOp::CufftExecC2c(plan, idata, odata, dir) => {
                s.cufft_exec_c2c(plan, idata, odata, dir)
            }
            BatchOp::CufftExecZ2z(plan, idata, odata, dir) => {
                s.cufft_exec_z2z(plan, idata, odata, dir)
            }
        }
        .unwrap()
    }

    /// Status of `op` as the only sub-op of a `CRICKET_BATCH_EXEC`.
    fn call_batched(s: &Sessioned, op: &BatchOp<'_>) -> i32 {
        let mut b = oncrpc::BatchBuilder::new();
        op.record(&mut b);
        match s.cricket_batch_exec(&b.finish()).unwrap() {
            BatchResult::Receipt(receipt) => receipt.statuses[0],
            BatchResult::Default(code) => panic!("batch refused: {code}"),
        }
    }

    /// A fresh server holding everything [`one_of_each_batchable`] needs:
    /// 16 KiB of patterned memory, a loaded kernel, a stream, an event and
    /// one FFT plan of each kind. Handles are deterministic, so two calls
    /// give equal [`Targets`].
    fn live_targets() -> (Sessioned, Targets) {
        let (_srv, s) = server();
        let u = |r: U64Result| r.into_result().unwrap();
        let mem = u(s.cuda_malloc(LIVE_LEN).unwrap());
        let pattern: Vec<u8> = (0..LIVE_LEN).map(|i| (i % 251) as u8).collect();
        assert_eq!(s.cuda_memcpy_htod(mem, &pattern).unwrap(), 0);
        let image = vgpu::module::CubinBuilder::new()
            .kernel("saxpy", &[8, 8, 4, 4])
            .build(true);
        let module = u(s.cu_module_load_data(&image).unwrap());
        let targets = Targets {
            mem,
            func: u(s.cu_module_get_function(module, "saxpy").unwrap()),
            stream: u(s.cuda_stream_create().unwrap()),
            event: u(s.cuda_event_create().unwrap()),
            c2c: u(s.cufft_plan_1d(4, vgpu::fft::CUFFT_C2C, 1).unwrap()),
            z2z: u(s.cufft_plan_1d(4, vgpu::fft::CUFFT_Z2Z, 1).unwrap()),
        };
        (s, targets)
    }
    const LIVE_LEN: u64 = 16384;

    /// The generated `*_record` stubs and the generated batch decoder are
    /// inverses for every batchable procedure of `cricket.x`.
    #[test]
    fn record_stubs_decode_back_through_the_generated_batch_decoder() {
        let made_up = Targets {
            mem: 0x1_0000,
            func: 0x50,
            stream: 0x52,
            event: 0x60,
            c2c: 0x70,
            z2z: 0x80,
        };
        let want = one_of_each_batchable(&made_up, b"sparse!", b"par");
        let mut b = oncrpc::BatchBuilder::new();
        want.iter().for_each(|op| op.record(&mut b));
        let procs: Vec<u32> = (0..b.len()).map(|i| b.proc_at(i).unwrap()).collect();
        let batchable: Vec<u32> = (0..4096).filter(|&p| cricket_v1::is_batchable(p)).collect();
        let mut recorded = procs.clone();
        recorded.sort_unstable();
        assert_eq!(recorded, batchable, "a batchable proc has no row here");

        let body = b.finish();
        assert_eq!(decode_batch(&body).unwrap(), want);
        // Op by op, straight through the generated decoder.
        let mut dec = xdr::XdrDecoder::new(&body[4..]);
        for (proc, op) in procs.iter().zip(&want) {
            assert_eq!(dec.get_u32().unwrap(), *proc);
            assert_eq!(BatchOp::decode(*proc, &mut dec).unwrap().as_ref(), Some(op));
        }
        dec.finish().unwrap();
        // What the server still checks by hand: trailing bytes and a
        // truncated op reject the whole batch.
        let mut long = body.clone();
        long.extend_from_slice(&[0; 4]);
        assert_eq!(decode_batch(&long), Err(AcceptStat::GarbageArgs));
        assert_eq!(
            decode_batch(&body[..body.len() - 4]),
            Err(AcceptStat::GarbageArgs)
        );
    }

    /// Every batchable procedure runs one body whether it arrives as its
    /// own RPC or inside a batch: the same status, op by op, on the good
    /// inputs and on each way they can be refused, and the same device
    /// memory and statistics at the end.
    #[test]
    fn an_op_alone_and_as_a_one_op_batch_is_the_same_op() {
        let (alone, t) = live_targets();
        let (batched, same) = live_targets();
        assert_eq!(t, same);
        let mut sparse = Vec::new();
        let half_zero = [vec![0x5Au8; 4096], vec![0u8; 4096]].concat();
        oncrpc::sparse::encode_into(&half_zero[..4097], 4096, &mut sparse);
        let params = vgpu::kernels::ParamBuilder::new()
            .ptr(t.mem + 0x800)
            .ptr(t.mem + 0x800)
            .f32(1.0)
            .u32(64)
            .build();
        let good = one_of_each_batchable(&t, &sparse, &params);
        for (i, op) in good.iter().enumerate() {
            assert_eq!(call_alone(&alone, op), 0, "op {i} alone");
            assert_eq!(call_batched(&batched, op), 0, "op {i} batched");
        }

        let nowhere = 0xdead_0000u64;
        let grid = RpcDim3 { x: 1, y: 1, z: 1 };
        let mut lying = sparse.clone();
        lying[4..12].copy_from_slice(&(1u64 << 20).to_be_bytes());
        let refused = [
            BatchOp::CudaMemcpyHtod(nowhere, b"abcde"),
            BatchOp::CudaMemcpyDtod(t.mem, nowhere, 8),
            BatchOp::CudaMemset(t.mem + LIVE_LEN - 8, 1, 64),
            BatchOp::CudaMemcpyHtodSparse(t.mem, &lying),
            BatchOp::CudaMemcpyHtodSparse(t.mem, &sparse[..sparse.len() - 4]),
            BatchOp::CudaLaunchKernel(nowhere, grid, grid, 0, t.stream, &params),
            BatchOp::CudaLaunchKernel(t.func, grid, grid, 0, nowhere, &params),
            BatchOp::CudaEventRecord(nowhere, t.stream),
            BatchOp::CufftExecC2c(nowhere, t.mem, t.mem, -1),
            BatchOp::CufftExecC2c(t.z2z, t.mem, t.mem, -1),
            BatchOp::CufftExecZ2z(t.c2c, t.mem, t.mem, 1),
            BatchOp::CufftExecZ2z(t.z2z, nowhere, t.mem, 1),
        ];
        for (i, op) in refused.iter().enumerate() {
            let code = call_alone(&alone, op);
            assert_ne!(code, 0, "refused op {i} alone");
            assert_eq!(call_batched(&batched, op), code, "refused op {i} batched");
        }

        let sync = |s: &Sessioned| assert_eq!(s.cuda_device_synchronize().unwrap(), 0);
        sync(&alone);
        sync(&batched);
        let memory = read(&alone, t.mem, LIVE_LEN);
        assert!(matches!(&memory, DataResult::Data(d) if d.len() == LIVE_LEN as usize));
        assert_eq!(memory, read(&batched, t.mem, LIVE_LEN));
        let (a, b) = (
            alone.srv_get_stats().unwrap(),
            batched.srv_get_stats().unwrap(),
        );
        assert_eq!(
            (
                a.get("server.bytes_in").unwrap(),
                a.get("server.kernels_launched").unwrap()
            ),
            (
                b.get("server.bytes_in").unwrap(),
                b.get("server.kernels_launched").unwrap()
            )
        );
    }

    /// A batch naming any procedure `cricket.x` does not declare
    /// `batchable` is garbage as a whole, and nothing ran or was counted.
    #[test]
    fn non_batchable_procs_reject_the_whole_batch_without_side_effects() {
        let (srv, s) = server();
        let before = (srv.scheduler.served_ops(), s.srv_get_stats().unwrap());
        for proc in (0..4096).filter(|&p| !cricket_v1::is_batchable(p)) {
            let mut b = oncrpc::BatchBuilder::new();
            cricket_proto::CricketV1Client::cuda_memcpy_htod_record(&mut b, &0x10, &[7; 64]);
            b.record(proc, false, |enc| enc.put_opaque(&[7; 64]));
            assert_eq!(
                s.cricket_batch_exec(&b.finish()),
                Err(AcceptStat::GarbageArgs),
                "proc {proc}"
            );
        }
        let after = (srv.scheduler.served_ops(), s.srv_get_stats().unwrap());
        assert_eq!(before, after);
        assert_eq!(after.1.get("server.bytes_in").unwrap(), 0);
    }

    /// The 4116-byte sparse blob whose header asks for 64 TiB (see
    /// `oncrpc::sparse`): a CUDA error code on both routes, not an abort.
    #[test]
    fn sparse_bomb_is_a_cuda_error_and_the_server_keeps_serving() {
        let (_srv, s) = server();
        let mut enc = xdr::XdrEncoder::new();
        enc.put_u32(0x8000_0000);
        enc.put_u64(1 << 46);
        enc.put_opaque(&[0u8; 4096]);
        enc.put_opaque(&[]);
        let bomb = enc.into_inner();
        assert_eq!(bomb.len(), 4116);
        let ptr = s.cuda_malloc(4096).unwrap().into_result().unwrap();
        let invalid = vgpu::CudaCode::InvalidValue as i32;

        assert_eq!(s.cuda_memcpy_htod_sparse(ptr, &bomb).unwrap(), invalid);

        let mut b = oncrpc::BatchBuilder::new();
        cricket_proto::CricketV1Client::cuda_memcpy_htod_sparse_record(&mut b, &ptr, &bomb);
        let BatchResult::Receipt(receipt) = s.cricket_batch_exec(&b.finish()).unwrap() else {
            panic!("batch refused");
        };
        assert_eq!(receipt.statuses.to_vec(), vec![invalid]);
        assert_eq!(receipt.executed, 0);
        assert_eq!(
            s.srv_get_stats().unwrap().get("server.bytes_in").unwrap(),
            0,
            "bomb counted"
        );

        // Still serving, and the legitimate sparse path still works.
        let mut blob = Vec::new();
        oncrpc::sparse::encode_into(&[0u8; 4096], 4096, &mut blob);
        assert_eq!(s.cuda_memcpy_htod_sparse(ptr, &blob).unwrap(), 0);
        assert_eq!(s.cuda_free(ptr).unwrap(), 0);
    }

    /// A sparse sub-op whose header claims more than its bitmap covers is
    /// counted like the immediate call counts it — not at all, because it
    /// never decoded — fails at its own index, and leaves later slices alone.
    #[test]
    fn a_lying_sparse_header_in_a_batch_moves_no_counter_and_stops_only_its_slice() {
        let (_srv, s) = server();
        let ptr = s.cuda_malloc(8192).unwrap().into_result().unwrap();
        let stream = s.cuda_stream_create().unwrap().into_result().unwrap();
        let event = s.cuda_event_create().unwrap().into_result().unwrap();
        let mut blob = Vec::new();
        oncrpc::sparse::encode_into(&[7u8; 4096], 4096, &mut blob);
        // raw_len 4096 → 1 MiB: the one-byte bitmap no longer covers it.
        blob[4..12].copy_from_slice(&(1u64 << 20).to_be_bytes());
        let invalid = vgpu::CudaCode::InvalidValue as i32;
        assert_eq!(s.cuda_memcpy_htod_sparse(ptr, &blob).unwrap(), invalid);
        assert_eq!(
            s.srv_get_stats().unwrap().get("server.bytes_in").unwrap(),
            0
        );

        let mut b = oncrpc::BatchBuilder::new();
        use cricket_proto::CricketV1Client as C;
        C::cuda_memcpy_htod_sparse_record(&mut b, &ptr, &blob);
        C::cuda_memset_record(&mut b, &ptr, &1, &64); // same slice: skipped
        C::cuda_event_record_record(&mut b, &event, &stream); // its own slice
        let BatchResult::Receipt(receipt) = s.cricket_batch_exec(&b.finish()).unwrap() else {
            panic!("batch refused");
        };
        assert_eq!(
            receipt.statuses.to_vec(),
            vec![invalid, oncrpc::BATCH_SKIPPED, 0]
        );
        assert_eq!(receipt.executed, 1);
        assert_eq!(
            s.srv_get_stats().unwrap().get("server.bytes_in").unwrap(),
            0,
            "header believed"
        );
    }

    /// An empty `Base` blob with a well-formed library cursor: what the
    /// hand-made (mostly hostile) session state below is built from.
    fn base_blob() -> MigBlob {
        let meta = SessionMeta {
            next_lib_handle: LIB_HANDLE_BASE,
            ..SessionMeta::default()
        };
        migrate::blob(MigKind::Base, meta, MemDelta::default())
    }

    fn block(base: u64, bytes: Vec<u8>) -> cricket_proto::MemBlock {
        cricket_proto::MemBlock { base, bytes }
    }

    fn fft(handle: u64) -> MigFft {
        let (n, kind, batch) = (8, vgpu::fft::CUFFT_C2C, 1);
        MigFft {
            handle,
            n,
            kind,
            batch,
        }
    }

    fn module(handle: u64, image: Vec<u8>) -> MigModule {
        MigModule { handle, image }
    }

    /// A restore that fails in its *second* blob, after modules, streams,
    /// events and plans of both blobs have landed: everything placed is
    /// reclaimed through the one walker and nobody owns anything.
    #[test]
    fn a_restore_failing_midway_reclaims_what_it_placed() {
        let (srv, s) = server();
        let image = vgpu::module::CubinBuilder::new()
            .kernel("saxpy", &[8, 8, 4, 4])
            .build(true);
        let mut good = base_blob();
        good.meta.modules = vec![module(0x10, image.clone())].into();
        good.meta.streams = vec![MigStream {
            handle: 0x11,
            frontier_ns: 500,
        }]
        .into();
        good.meta.events = vec![MigEvent {
            handle: 0x12,
            recorded_ns: Some(400),
        }]
        .into();
        good.meta.blas = vec![LIB_HANDLE_BASE].into();
        good.meta.ffts = vec![fft(LIB_HANDLE_BASE + 1)].into();
        good.meta.next_handles = vec![MigCursor {
            device: 0,
            next: 0x13,
        }]
        .into();
        good.meta.next_lib_handle = LIB_HANDLE_BASE + 2;
        good.mem.new_blocks = vec![block(HEAP_STRIDE, vec![7; 256])].into();
        let mut bad = base_blob();
        let not_a_cubin = b"not a cubin".to_vec();
        bad.meta.modules = vec![module(0x20, image), module(0x21, not_a_cubin)].into();
        bad.meta.ffts = vec![fft(LIB_HANDLE_BASE + 2)].into();
        bad.meta.next_handles = vec![MigCursor {
            device: 0,
            next: 0x22,
        }]
        .into();
        bad.meta.next_lib_handle = LIB_HANDLE_BASE + 3;
        bad.mem.new_blocks = vec![block(2 * HEAP_STRIDE, vec![9; 256])].into();

        let ckpt = migrate::encode_checkpoint(vec![good, bad]);
        assert_ne!(s.ckpt_restore(&ckpt).unwrap(), 0);
        for d in &srv.devices {
            let (free, total) = d.lock().mem_info();
            assert_eq!(free, total);
        }
        assert!(srv.objects.lock().is_empty());
        assert_eq!(srv.devices[0].lock().snapshot_stream_frontiers().len(), 1);
        assert!(srv.devices[0].lock().snapshot_event_states().is_empty());
        assert_eq!(srv.release_session(1).total(), 0);
    }

    /// DESIGN §16, module images that arrive as session state: a blob
    /// whose modules pass `MAX_MODULE_BYTES` is refused before anything is
    /// placed, and a staged migration whose modules do not fit beside the
    /// claiming session's stays staged until a session with room claims it.
    #[test]
    fn module_images_a_migration_brings_are_bounded() {
        const TOKEN: u64 = 0xB0B;
        let (srv, s) = server();
        let half = vgpu::module::CubinBuilder::new()
            .kernel("saxpy", &[8, 8, 4, 4])
            .code(&vec![0x5a; (crate::MAX_MODULE_BYTES / 2) as usize])
            .build(false);
        let size = half.len() as u64;
        let mut blob = base_blob();
        blob.meta.token = TOKEN;
        blob.meta.modules = vec![module(0x20, half.clone()), module(0x21, half.clone())].into();
        blob.meta.next_handles = vec![MigCursor {
            device: 0,
            next: 0x22,
        }]
        .into();
        let oom = vgpu::CudaCode::MemoryAllocation as i32;
        assert_eq!(s.mig_apply_base(&xdr::encode(&blob)).unwrap(), oom);
        assert!(srv.objects.lock().is_empty());

        blob.meta.modules = vec![module(0x20, half.clone())].into();
        assert_eq!(s.mig_apply_base(&xdr::encode(&blob)).unwrap(), 0);
        blob.kind = MigKind::Final;
        let applied = s.mig_apply_delta(&xdr::encode(&blob)).unwrap();
        assert_eq!(applied, IntResult::Data(2));
        assert_eq!(s.cu_module_load_data(&half).unwrap(), U64Result::Data(0x22));
        assert!(!srv.observe_token(TOKEN, 1), "no room beside its own");
        assert_eq!(srv.module_bytes(1), size);
        assert!(srv.observe_token(TOKEN, 2), "a session with room claims it");
        assert_eq!(srv.module_bytes(2), size);
        assert_eq!(srv.release_session(1).modules, 1);
        assert_eq!(srv.release_session(2).modules, 1);
        assert!(srv.objects.lock().is_empty());
    }

    /// A blob may free or patch only blocks its own stream placed: a
    /// hand-made checkpoint naming another session's block in `freed` or
    /// `dirty` is refused and that block is untouched.
    #[test]
    fn a_blob_cannot_free_or_patch_a_block_it_did_not_place() {
        let (srv, victim) = server();
        let p = victim.cuda_malloc(256).unwrap().into_result().unwrap();
        victim.cuda_memcpy_htod(p, &[5; 256]).unwrap();
        let thief = Sessioned::new(Arc::clone(&srv), 2);
        let span = |base, offset| cricket_proto::MemSpan {
            base,
            offset,
            bytes: vec![0; 256],
        };
        let mut frees = base_blob();
        frees.mem.freed = vec![p].into();
        let mut patches = base_blob();
        patches.mem.dirty = vec![span(p, 0)].into();
        // Nor reach it through a span that runs off the end of its own.
        let mut overruns = base_blob();
        overruns.mem.new_blocks = vec![block(p + 256, vec![0; 256])].into();
        overruns.mem.dirty = vec![span(p + 256, u64::MAX - 255)].into();
        for blob in [frees, patches, overruns] {
            let ckpt = migrate::encode_checkpoint(vec![blob]);
            assert_ne!(thief.ckpt_restore(&ckpt).unwrap(), 0);
            let back = read(&victim, p, 256);
            assert_eq!(back.into_result().unwrap(), vec![5; 256]);
        }
    }

    /// Restore and the migration applier both refuse `blob`, and nothing
    /// of it stays behind: not its block, its stream `0x30` or event
    /// `0x20` on device 0, a host object, a staged adoption, or anything
    /// session 2 owns.
    fn refused_without_a_trace(srv: &Arc<CricketServer>, blob: &MigBlob) {
        let thief = Sessioned::new(Arc::clone(srv), 2);
        let free_before = srv.devices[0].lock().mem_info().0;
        let objects_before = srv.objects.lock().len();
        let ckpt = migrate::encode_checkpoint(vec![blob.clone()]);
        assert_ne!(thief.ckpt_restore(&ckpt).unwrap(), 0);
        let err = srv
            .mig_apply(&xdr::encode(blob), &[MigKind::Base])
            .unwrap_err();
        assert!(matches!(err, VgpuError::InvalidValue(_)), "{err}");

        assert_eq!(srv.devices[0].lock().mem_info().0, free_before, "block");
        assert!(!srv.devices[0].lock().holds(0x30), "stream handle");
        assert!(!srv.devices[0].lock().holds(0x20), "event handle");
        assert_eq!(srv.objects.lock().len(), objects_before, "host object");
        assert!(srv.tokens.lock().is_empty(), "staged adoption");
        assert!(srv
            .sessions
            .lock()
            .get(&2)
            .is_none_or(|r| r.streams.is_empty()));
        assert_eq!(srv.release_session(2).total(), 0);
    }

    /// A blob placing a block, stream `own` (`0x30`, device 0) and event
    /// `0x20`, with the given stream list and default-stream bindings, and
    /// device 0's handle cursor just past them.
    fn placing(streams: &[u64], default_streams: &[(u32, u64)]) -> MigBlob {
        let mut blob = base_blob();
        blob.meta.token = 0x71EF;
        blob.meta.next_handles = vec![MigCursor {
            device: 0,
            next: 0x31,
        }]
        .into();
        let stream = |&handle: &u64| MigStream {
            handle,
            frontier_ns: 0,
        };
        blob.meta.streams = streams.iter().map(stream).collect::<Vec<_>>().into();
        let bind = |&(device, stream): &(u32, u64)| MigDefaultStream { device, stream };
        let bindings = default_streams.iter().map(bind).collect::<Vec<_>>();
        blob.meta.default_streams = bindings.into();
        blob.meta.events = vec![MigEvent {
            handle: 0x20,
            recorded_ns: None,
        }]
        .into();
        blob.mem.new_blocks = vec![block(HEAP_STRIDE + (1 << 20), vec![7; 256])].into();
        blob
    }

    /// The reproducer: a blob whose `default_streams` binds wire handle 0
    /// to a stream the blob never placed — a resident session's — or to a
    /// device this server does not have, or to the wrong device. Adopted,
    /// the thief's default-stream work would have run on (and fenced) the
    /// victim's stream. Refused before anything is placed, by restore and
    /// by the migration applier alike.
    #[test]
    fn a_blob_cannot_bind_a_default_stream_it_did_not_place() {
        let (srv, victim) = server();
        let theirs = victim.cuda_stream_create().unwrap().into_result().unwrap();
        let thief = Sessioned::new(Arc::clone(&srv), 2);
        let own = 0x30; // device 0, placed by the blob itself
        for blob in [
            placing(&[], &[(0, theirs)]),
            placing(&[own], &[(0, own), (0, theirs)]),
            placing(&[own], &[(srv.devices.len() as u32, own)]),
            placing(&[own], &[(1, own)]),
        ] {
            refused_without_a_trace(&srv, &blob);
        }
        // The well-formed binding of the same shape is accepted.
        let good = placing(&[own], &[(0, own)]);
        let ckpt = migrate::encode_checkpoint(vec![good]);
        assert_eq!(thief.ckpt_restore(&ckpt).unwrap(), 0);
        assert_eq!(srv.sessions.lock()[&2].streams.get(&0), Some(&own));
        assert_eq!(victim.cuda_stream_synchronize(theirs).unwrap(), 0);
    }

    /// The reproducer: `next_handles = [(0, u64::MAX)]`. Applied, device
    /// 0's next `cudaStreamCreate` overflowed its cursor (a panic in debug
    /// builds, handle `u64::MAX` in release). A cursor outside its
    /// device's handle window is refused, and the device keeps issuing
    /// from its own.
    #[test]
    fn a_blob_cannot_wrap_a_device_handle_cursor() {
        let (srv, s) = server();
        let mut blob = placing(&[0x30], &[]);
        for next in [u64::MAX, HEAP_STRIDE, 0x10 + HANDLE_STRIDE] {
            blob.meta.next_handles = vec![MigCursor { device: 0, next }].into();
            refused_without_a_trace(&srv, &blob);
        }
        let h = s.cuda_stream_create().unwrap().into_result().unwrap();
        assert_eq!(srv.device_of_token(h), Some(0));
        assert!(h < 0x30, "{h:#x}");
    }

    /// A cursor on the last slot of device 0's window is well-formed, but
    /// one handle later `handle_base(1)` — device 1's first handle, maybe
    /// another tenant's — would come next. The device issues that last
    /// slot and then refuses; default-stream work still runs (on the
    /// device's stream 0). The library range ends the same way.
    #[test]
    fn no_handle_is_issued_past_its_window() {
        let (srv, s) = server();
        let mut blob = base_blob();
        let next = handle_base(1) - 1;
        blob.meta.next_handles = vec![MigCursor { device: 0, next }].into();
        blob.meta.next_lib_handle = LIB_HANDLE_END - 1;
        let ckpt = migrate::encode_checkpoint(vec![blob]);
        assert_eq!(s.ckpt_restore(&ckpt).unwrap(), 0);

        let invalid = Err(vgpu::CudaCode::InvalidValue as i32);
        let stream = || s.cuda_stream_create().unwrap().into_result();
        assert_eq!(stream(), Ok(next));
        assert_eq!(srv.device_of_token(next), Some(0));
        assert_eq!(stream(), invalid);
        assert_eq!(s.cuda_event_create().unwrap().into_result(), invalid);
        let p = s.cuda_malloc(64).unwrap().into_result().unwrap();
        assert_eq!(s.cuda_memset(p, 3, 64).unwrap(), 0);
        assert_eq!(read(&s, p, 64).into_result().unwrap(), vec![3; 64]);

        let blas = || s.cublas_create().unwrap().into_result();
        assert_eq!(blas(), Ok(LIB_HANDLE_END - 1));
        assert_eq!(blas(), invalid);
        let freed = srv.release_session(1);
        assert_eq!(
            (freed.allocations, freed.streams, freed.lib_handles),
            (1, 1, 1)
        );
    }

    /// The reproducer: a blob placed stream `0x30` under device-0 cursor
    /// `0x10`, and library handle `LIB_HANDLE_BASE + 5` under library cursor
    /// `LIB_HANDLE_BASE`. Applied, the next `cudaStreamCreate` and
    /// `cublasCreate` handed both values out a second time. A handle at or
    /// above its cursor, or on a device whose cursor the blob does not
    /// carry, is refused before anything is placed; below cursors that
    /// passed them, the same handles are placed and never issued again.
    #[test]
    fn a_blob_cannot_place_a_handle_its_cursor_has_not_passed() {
        let (srv, s) = server();
        let lib = LIB_HANDLE_BASE + 5;
        let mut low_device = placing(&[0x30], &[]);
        low_device.meta.next_handles = vec![MigCursor {
            device: 0,
            next: 0x10,
        }]
        .into();
        let mut no_device = placing(&[0x30], &[]);
        no_device.meta.next_handles = vec![MigCursor {
            device: 1,
            next: 0x31,
        }]
        .into();
        let mut low_lib = placing(&[0x30], &[]);
        low_lib.meta.blas = vec![lib].into();
        for blob in [low_device, no_device, low_lib] {
            refused_without_a_trace(&srv, &blob);
        }

        let mut good = placing(&[0x30], &[]);
        good.meta.blas = vec![lib].into();
        good.meta.next_lib_handle = lib + 1;
        let ckpt = migrate::encode_checkpoint(vec![good]);
        assert_eq!(s.ckpt_restore(&ckpt).unwrap(), 0);
        let stream = s.cuda_stream_create().unwrap().into_result();
        assert_eq!(stream, Ok(0x31));
        assert_eq!(s.cublas_create().unwrap().into_result(), Ok(lib + 1));
    }

    /// The reproducer: session 2 on device 1 holds a module, a function, a
    /// cuBLAS handle and 64 B; session 1 resets device 0. Session 2's gemm
    /// answered 400 and its checkpoint restored with 400: the reset had
    /// dropped every module image and library handle on the server. A reset
    /// of device `d` removes what the caller holds on `d` — its memory and
    /// handles there, the default stream it bound there, the images of
    /// modules it loaded there — and nothing else: session 2's buffer and
    /// stream on device 0 survive it.
    #[test]
    fn a_device_reset_removes_only_what_lives_on_that_device() {
        let (srv, one) = server();
        let two = Sessioned::new(Arc::clone(&srv), 2);
        let u = |r: U64Result| r.into_result().unwrap();
        let image = vgpu::module::CubinBuilder::new()
            .kernel("saxpy", &[8, 8, 4, 4])
            .build(true);
        let gone = u(one.cu_module_load_data(&image).unwrap());
        let p0 = u(one.cuda_malloc(64).unwrap());
        assert_eq!(one.cuda_memset(p0, 1, 64).unwrap(), 0);
        let kept = u(two.cuda_malloc(64).unwrap());
        srv.devices[0].lock().mem.write(kept, &[7; 64]).unwrap();
        let stream = u(two.cuda_stream_create().unwrap());

        assert_eq!(two.cuda_set_device(1).unwrap(), 0);
        let module = u(two.cu_module_load_data(&image).unwrap());
        u(two.cu_module_get_function(module, "saxpy").unwrap());
        let blas = u(two.cublas_create().unwrap());
        let p = u(two.cuda_malloc(64).unwrap());
        assert_eq!(two.cuda_memcpy_htod(p, &3.0f32.to_le_bytes()).unwrap(), 0);

        assert_eq!(one.cuda_device_reset().unwrap(), 0);
        let gemm = two.cublas_sgemm(blas, 0, 0, 1, 1, 1, 1.0, p, 1, p, 1, 0.0, p + 8, 1);
        assert_eq!(gemm.unwrap(), 0);
        assert_eq!(
            read(&two, p + 8, 4),
            DataResult::Data(9.0f32.to_le_bytes().to_vec())
        );
        let mut enc = xdr::XdrEncoder::new();
        two.ckpt_capture(DataResultReply(&mut enc)).unwrap();
        let ckpt: DataResult = xdr::decode(enc.as_slice()).unwrap();
        let restorer = Sessioned::new(CricketServer::a100(), 3);
        assert_eq!(
            restorer.ckpt_restore(&ckpt.into_result().unwrap()).unwrap(),
            0
        );

        // Device 0's side is gone, from the device and from every record.
        assert!(!srv.objects.lock().contains_key(&gone));
        let stale = one.cu_module_get_function(gone, "saxpy").unwrap();
        assert_eq!(
            stale,
            U64Result::Default(vgpu::CudaCode::InvalidHandle as i32)
        );
        assert!(srv.sessions.lock()[&1].mem.is_empty());
        assert_eq!(srv.release_session(1).total(), 0);
        // Session 2's share of device 0 was not session 1's to reset.
        assert_eq!(srv.devices[0].lock().mem.read(kept, 64).unwrap(), [7; 64]);
        assert_eq!(two.cuda_stream_synchronize(stream).unwrap(), 0);
        assert_eq!(two.cuda_stream_destroy(stream).unwrap(), 0);
        assert_eq!(two.cuda_free(kept).unwrap(), 0);
        let kept = srv.release_session(2);
        let counts = (
            kept.allocations,
            kept.streams,
            kept.modules,
            kept.lib_handles,
        );
        assert_eq!(counts, (1, 1, 1, 1));
    }

    /// The reproducer: `next_lib_handle = u64::MAX`. Applied, the next two
    /// `cublasCreate` calls returned `u64::MAX`, then `0` — a wrapped
    /// counter handing out a handle from no range at all. A cursor outside
    /// the library range, or at its end, is refused.
    #[test]
    fn a_blob_cannot_exhaust_the_library_handle_cursor() {
        let (srv, s) = server();
        let mut blob = placing(&[0x30], &[]);
        for next in [u64::MAX, LIB_HANDLE_END, 0] {
            blob.meta.next_lib_handle = next;
            refused_without_a_trace(&srv, &blob);
        }
        let first = s.cublas_create().unwrap().into_result().unwrap();
        let second = s.cublas_create().unwrap().into_result().unwrap();
        assert_eq!((first, second), (LIB_HANDLE_BASE, LIB_HANDLE_BASE + 1));
    }

    /// The reproducer: `src_now_ns = u64::MAX - 10`. Applied, the clock
    /// jumped there and the next call's charge overflowed it (a panic in
    /// debug builds; in release the clock read 6 989 ns afterwards). A
    /// timestamp past the virtual-time horizon is refused — the blob's own
    /// clock, a stream frontier or an event's record time alike.
    #[test]
    fn a_blob_cannot_move_the_clock_past_the_horizon() {
        let (srv, s) = server();
        let poisons: [fn(&mut SessionMeta); 3] = [
            |m| m.src_now_ns = u64::MAX - 10,
            |m| m.streams[0].frontier_ns = HORIZON_NS + 1,
            |m| m.events[0].recorded_ns = Some(u64::MAX),
        ];
        for poison in poisons {
            let mut blob = placing(&[0x30], &[]);
            poison(&mut blob.meta);
            refused_without_a_trace(&srv, &blob);
        }
        let before = srv.clock().now_ns();
        assert!(before < 1_000_000_000, "the clock moved to {before} ns");
        assert_eq!(s.cuda_get_device_count().unwrap(), IntResult::Data(4));
        assert!(srv.clock().now_ns() > before);
    }

    /// `SRV_RESET_STATS` is `admin` (always admitted) and open to any
    /// tenant; it used to clear the live-session set along with the
    /// counters, which let new sessions past `max_sessions` and made the
    /// shard report itself empty to the fleet directory.
    #[test]
    fn resetting_stats_does_not_lift_the_session_watermark() {
        use cricket_proto::cricket_v1 as p;
        let qos = QosServerConfig {
            max_sessions: 2,
            ..QosServerConfig::default()
        };
        let cfg = ServerConfig {
            qos,
            ..ServerConfig::default()
        };
        let srv = CricketServer::new(cfg, SimClock::new());
        // One call of `proc` by `session` through the RPC layer: was it shed?
        let shed = |session: SessionId, proc: u32| {
            let rpc = crate::make_session_rpc(Arc::clone(&srv), session);
            let mut enc = xdr::XdrEncoder::new();
            let call =
                oncrpc::CallBody::new(cricket_proto::CRICKET_CUDA, cricket_proto::CRICKET_V1, proc);
            enc.put(&oncrpc::RpcMessage::call(1, call));
            let mut reply = xdr::XdrEncoder::new();
            rpc.handle_record_into(enc.as_slice(), &mut reply).unwrap();
            let busy = oncrpc::ReplyBody::busy(qos.admission_retry_ns);
            let mut want = xdr::XdrEncoder::new();
            want.put(&oncrpc::RpcMessage::reply(1, busy));
            reply.as_slice() == want.as_slice()
        };
        assert!(!shed(1, p::CUDA_GET_DEVICE_COUNT));
        assert!(!shed(2, p::CUDA_GET_DEVICE_COUNT));
        assert!(shed(3, p::CUDA_GET_DEVICE_COUNT), "third session: over");

        assert!(!shed(3, p::SRV_RESET_STATS), "admin: always admitted");
        assert_eq!(
            srv.stats().get("server.calls"),
            Some(0),
            "the statistics did reset"
        );
        assert!(
            shed(3, p::CUDA_GET_DEVICE_COUNT),
            "still over the watermark"
        );
        let load = srv.load_report();
        assert_eq!((load.sessions, load.qos_pressure), (2, 1000));

        // Releasing a session is what makes room.
        srv.release_session(1);
        assert!(!shed(3, p::CUDA_GET_DEVICE_COUNT));
    }

    #[test]
    fn scheduler_policy_via_rpc() {
        let (srv, s) = server();
        assert_eq!(s.srv_set_scheduler(2).unwrap(), 0);
        assert_eq!(srv.scheduler.policy(), SchedulerPolicy::Priority);
        assert_ne!(s.srv_set_scheduler(42).unwrap(), 0);
    }
}
