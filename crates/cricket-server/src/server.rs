//! The server's state and its tables: what [`CricketServer`] holds, how it
//! is configured and built, and the per-session records every procedure
//! reads — default streams, library contexts and the lazily created
//! session record. The call prologue is in `prologue`, session-state
//! export and apply in `state`, the batch path in `batch`.

use crate::prologue::Returns;
use crate::scheduler::{Scheduler, SchedulerPolicy, SessionId};
use cricket_proto::cricket_v1;
use oncrpc::{telemetry::Metrics, ReplayCache};
use parking_lot::Mutex;
use simnet::SimClock;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vgpu::{Device, DeviceProperties, VgpuError, VgpuResult};

/// Handles for library contexts (cuBLAS/cuSolver/cuFFT) live in the range
/// `LIB_HANDLE_BASE..LIB_HANDLE_END`, disjoint from device handles: 2^47
/// handles, more than any server issues, ending far short of `u64::MAX`.
pub(crate) const LIB_HANDLE_BASE: u64 = 0x8000_0000_0000;
pub(crate) const LIB_HANDLE_END: u64 = 2 * LIB_HANDLE_BASE;

/// Device heap spacing: device `i`'s pointers live in
/// `[(i+1)·HEAP_STRIDE, ...)`, so any pointer identifies its device.
pub(crate) const HEAP_STRIDE: u64 = vgpu::memory::HEAP_BASE;

/// Device handle spacing: device `i`'s module/function/stream/event handles
/// are the window `handle_base(i)..handle_base(i + 1)`.
pub(crate) const HANDLE_STRIDE: u64 = 0x1000_0000;

pub(crate) fn handle_base(device: usize) -> u64 {
    0x10 + device as u64 * HANDLE_STRIDE
}

/// At most this many simulated GPUs per server (keeps the address layout
/// disjoint from the library-handle range).
pub(crate) const MAX_DEVICES: usize = 8;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Properties of device 0 (the paper's A100).
    pub props: DeviceProperties,
    /// Number of simulated devices. The paper's GPU node has four — one
    /// A100, two T4, one P40 — and that is the layout used here: device 0
    /// gets `props`, devices 1–2 are T4s, device 3 is a P40 (further
    /// devices cycle T4, up to eight). Sessions select with `cudaSetDevice`.
    pub device_count: i32,
    /// QoS / overload-control configuration.
    pub qos: QosServerConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            props: DeviceProperties::a100(),
            device_count: 4,
            qos: QosServerConfig::default(),
        }
    }
}

/// Server-wide QoS and overload-control configuration
/// ([`ServerConfig::qos`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosServerConfig {
    /// Overload watermark: once this many sessions are live, *new* sessions
    /// are shed with `CRICKET_BUSY` (established sessions keep running).
    /// 0 = unlimited.
    pub max_sessions: u32,
    /// Retry-after hint carried by admission sheds, nanoseconds.
    pub admission_retry_ns: u64,
}

impl Default for QosServerConfig {
    fn default() -> Self {
        Self {
            max_sessions: 0,
            admission_retry_ns: 2_000_000,
        }
    }
}

/// What a handle a session holds names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Stream,
    Event,
    Module,
    Blas,
    Solver,
    Fft,
}

/// The host side of a handle: what the server keeps beside the devices for
/// a loaded module or a library context.
pub(crate) enum HostObject {
    /// The module's original image (checkpoint support).
    Module(Vec<u8>),
    Blas,
    Solver(vgpu::solver::SolverDn),
    Fft(vgpu::fft::FftPlan),
}

impl HostObject {
    pub(crate) fn kind(&self) -> Kind {
        match self {
            HostObject::Module(_) => Kind::Module,
            HostObject::Blas => Kind::Blas,
            HostObject::Solver(_) => Kind::Solver,
            HostObject::Fft(_) => Kind::Fft,
        }
    }
}

/// One session's record: how its calls route, and everything it has
/// created and not yet destroyed — tracked so the server can reclaim it
/// all when the client vanishes mid-session (TCP reset, unikernel crash)
/// instead of leaking vGPU state forever.
#[derive(Debug, Default, Clone)]
pub(crate) struct Session {
    /// Device memory, by block base.
    pub(crate) mem: HashSet<u64>,
    /// Every other handle the session holds, and what it names.
    pub(crate) handles: HashMap<u64, Kind>,
    /// Current device (`cudaSetDevice`); `None` = device 0, not chosen.
    pub(crate) device: Option<usize>,
    /// Lazily created default streams, by device: the stream the client's
    /// handle `0` is remapped to. Giving each session its own timeline is
    /// what lets independent sessions overlap on the device instead of
    /// serializing on stream 0.
    pub(crate) streams: HashMap<usize, u64>,
    /// A disconnect-triggered release waits for the migration driver: the
    /// session's token was evicted mid-migration and the final delta still
    /// has to read its state (`mig_finalize_source`, or `readmit_token`).
    pub(crate) deferred: bool,
}

impl Session {
    pub(crate) fn holds(&self, handle: u64, kind: Kind) -> bool {
        self.handles.get(&handle) == Some(&kind)
    }

    /// Its handles of `kind`, in order.
    pub(crate) fn sorted(&self, kind: Kind) -> Vec<u64> {
        let mut v: Vec<u64> = (self.handles.iter())
            .filter_map(|(&h, &k)| (k == kind).then_some(h))
            .collect();
        v.sort_unstable();
        v
    }

    /// Move out every handle `keep` does not list as the same kind. Memory
    /// is not a handle: blocks leave through a delta's `freed` list.
    pub(crate) fn split_off_handles_not_in(&mut self, keep: &HashMap<u64, Kind>) -> Self {
        let gone = self.handles.extract_if(|h, k| keep.get(h) != Some(k));
        Self {
            handles: gone.collect(),
            ..Self::default()
        }
    }

    /// Adopt staged state: own everything `other` holds as well (merged —
    /// this session may hold some already), and take its current-device and
    /// default-stream bindings for every slot this session has not bound
    /// itself.
    pub(crate) fn absorb(&mut self, other: Self) {
        self.mem.extend(other.mem);
        self.handles.extend(other.handles);
        self.device = self.device.or(other.device);
        for (idx, stream) in other.streams {
            self.streams.entry(idx).or_insert(stream);
        }
    }

    /// Forget what lived on the device `on_device` accepts: a reset
    /// destroyed it.
    pub(crate) fn forget_device(&mut self, idx: usize, on_device: impl Fn(u64) -> bool) {
        self.mem.retain(|&p| !on_device(p));
        self.handles.retain(|&h, _| !on_device(h));
        self.streams.remove(&idx);
    }
}

/// What [`CricketServer::release_session`] reclaimed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SessionCleanup {
    /// Device memory allocations freed.
    pub allocations: usize,
    /// Streams destroyed.
    pub streams: usize,
    /// Events destroyed.
    pub events: usize,
    /// Modules unloaded.
    pub modules: usize,
    /// cuBLAS/cuSolver/cuFFT handles dropped.
    pub lib_handles: usize,
}

impl SessionCleanup {
    /// Total number of reclaimed resources.
    pub fn total(&self) -> usize {
        self.allocations + self.streams + self.events + self.modules + self.lib_handles
    }
}

/// Session state placed on this server by [`CricketServer::apply_blob`]
/// that no live session owns yet. An inbound migration stages one per
/// client token (`MIG_APPLY_BASE`/`MIG_APPLY_DELTA`): until `ready`, the
/// token gate refuses the client (the source is still streaming); the
/// client's first call after cutover merges it into a live session.
/// `CKPT_RESTORE` stages one per blob and hands them to its caller.
#[derive(Default)]
pub(crate) struct Adoption {
    pub(crate) session: Session,
    pub(crate) ready: bool,
    pub(crate) applied_epochs: u32,
}

/// One client token's record at the token gate.
#[derive(Default)]
pub(crate) struct Token {
    /// The live session its calls run in.
    pub(crate) session: Option<SessionId>,
    /// Evicted by a migration cutover: the gate refuses the token so the
    /// client reconnects and resolves its new home.
    pub(crate) evicted: bool,
    /// Calls admitted through the gate and not yet completed. Eviction
    /// drains them before the final snapshot, so no call can mutate memory
    /// the final delta already captured.
    pub(crate) inflight: usize,
    /// An inbound migration staged by `MIG_APPLY_*`.
    pub(crate) adoption: Option<Adoption>,
}

impl Token {
    pub(crate) fn is_idle(&self) -> bool {
        self.session.is_none() && !self.evicted && self.inflight == 0 && self.adoption.is_none()
    }
}

/// The Cricket server state shared by all sessions: the devices and three
/// tables, one per kind of key. `sessions` owns what a session holds and
/// how its calls route; `tokens` what the gate knows of a client token —
/// its session, eviction, calls in flight and staged migration; `objects`
/// the host side of a module or library handle.
///
/// Lock order: one device, then `tokens`, then `sessions`, then `objects`
/// — never the reverse, and never two devices at once. An issue turn is
/// won before any of them; `stats`, `replay` and the scheduler's own lock
/// are leaves.
pub struct CricketServer {
    pub(crate) devices: Vec<Mutex<Device>>,
    pub(crate) sessions: Mutex<HashMap<SessionId, Session>>,
    pub(crate) tokens: Mutex<HashMap<u64, Token>>,
    /// Signalled whenever a token's in-flight count drops.
    pub(crate) quiesce: parking_lot::Condvar,
    pub(crate) objects: Mutex<HashMap<u64, HostObject>>,
    pub(crate) next_lib_handle: AtomicU64,
    /// GPU-sharing scheduler.
    pub scheduler: Scheduler,
    pub(crate) clock: Arc<SimClock>,
    /// The server's own counters (`server.*`, [`Self::stats`]).
    pub(crate) metrics: Metrics,
    /// The counters of the reactor serving this server (attached by the
    /// builder; all zero until then).
    pub(crate) reactor: Mutex<Arc<Metrics>>,
    pub(crate) cfg: ServerConfig,
    /// The at-most-once replay cache every session's RPC server shares;
    /// migration ships a client's entries with the final delta.
    pub(crate) replay: Arc<ReplayCache>,
}

/// The operands of one `cublasSgemm` / `cublasDgemm` call, `C = alpha ·
/// op(A) · op(B) + beta · C`: each matrix with its leading dimension, the
/// scalars widened to `f64`.
pub(crate) struct Gemm {
    pub(crate) trans: (i32, i32),
    pub(crate) mnk: (i32, i32, i32),
    pub(crate) alpha: f64,
    pub(crate) beta: f64,
    pub(crate) a: (u64, i32),
    pub(crate) b: (u64, i32),
    pub(crate) c: (u64, i32),
}

impl CricketServer {
    /// Create a server on `clock` with the given configuration.
    pub fn new(cfg: ServerConfig, clock: Arc<SimClock>) -> Arc<Self> {
        let count = (cfg.device_count.max(1) as usize).min(MAX_DEVICES);
        let devices = (0..count)
            .map(|i| {
                // The paper's GPU-node layout: A100, T4, T4, P40.
                let props = match i {
                    0 => cfg.props.clone(),
                    3 => DeviceProperties::p40(),
                    _ => DeviceProperties::t4(),
                };
                Mutex::new(Device::with_bases(
                    props,
                    Arc::clone(&clock),
                    (i as u64 + 1) * HEAP_STRIDE,
                    handle_base(i)..handle_base(i + 1),
                ))
            })
            .collect();
        Arc::new(Self {
            devices,
            sessions: Mutex::new(HashMap::new()),
            tokens: Mutex::new(HashMap::new()),
            quiesce: parking_lot::Condvar::new(),
            objects: Mutex::new(HashMap::new()),
            next_lib_handle: AtomicU64::new(LIB_HANDLE_BASE),
            scheduler: Scheduler::new(SchedulerPolicy::Fifo),
            clock,
            metrics: Metrics::new(crate::stats::METRICS),
            reactor: Mutex::new(Arc::new(Metrics::new(oncrpc::reactor::METRICS))),
            cfg,
            replay: Arc::default(),
        })
    }

    /// A default A100 server on a fresh clock.
    pub fn a100() -> Arc<Self> {
        Self::new(ServerConfig::default(), SimClock::new())
    }

    /// Device-utilization telemetry for device `idx`: `(busy_span_ns,
    /// device_time_ns)` — the merged span during which at least one stream
    /// had work running vs. the sum of all enqueued command durations.
    /// `device_time / busy_span > 1` means streams genuinely overlapped.
    pub fn device_utilization(&self, idx: usize) -> Option<(u64, u64)> {
        let mut d = self.devices.get(idx)?.lock();
        let span = d.busy_span_ns();
        Some((span, d.stats.device_time_ns))
    }

    /// Retired-command log of device `idx` (drains the log). Test hook for
    /// asserting retirement order.
    pub fn drain_retired(&self, idx: usize) -> Vec<vgpu::Retired> {
        self.devices
            .get(idx)
            .map(|d| d.lock().take_retired())
            .unwrap_or_default()
    }

    /// The clock this server charges.
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// Load snapshot for the fleet directory ([`oncrpc::portmap`] shard
    /// heartbeats): free/total device memory summed across all vgpus, the
    /// shard's cumulative virtual service time (the clock only moves when
    /// this server dispatches work, so `now_ns` *is* served time), and the
    /// number of live sessions.
    pub fn load_report(&self) -> oncrpc::LoadReport {
        let (mut free, mut total) = (0u64, 0u64);
        for d in &self.devices {
            let (f, t) = d.lock().mem_info();
            free += f;
            total += t;
        }
        let sessions = self.stats().get("server.sessions").unwrap_or(0) as u32;
        // QoS pressure in permille: occupancy against the session watermark,
        // saturating at 1000 whenever calls were shed since the last report
        // (the directory steers placement away from saturated shards).
        let max = self.cfg.qos.max_sessions;
        let mut qos_pressure = if max > 0 {
            (u64::from(sessions) * 1000 / u64::from(max)).min(1000) as u32
        } else {
            0
        };
        if self.scheduler.take_recent_sheds() > 0 {
            qos_pressure = 1000;
        }
        oncrpc::LoadReport {
            free_mem: free,
            total_mem: total,
            served_ns: self.clock.now_ns(),
            sessions,
            qos_pressure,
        }
    }

    /// Read or mutate the session's record, created if it has none.
    pub(crate) fn track<R>(&self, session: SessionId, f: impl FnOnce(&mut Session) -> R) -> R {
        f(self.sessions.lock().entry(session).or_default())
    }

    /// The session's default stream on device `idx`, lazily created. The
    /// client's stream handle `0` is remapped here so every session gets
    /// its own device timeline (streams from different sessions overlap;
    /// work within one session's stream retires in issue order). Guards
    /// against `cudaDeviceReset` having destroyed the stream under us.
    pub(crate) fn session_stream(&self, session: SessionId, idx: usize) -> u64 {
        // Hot path: map lookup only. Taking the device lock here would
        // serialize every arriving call behind the current holder's
        // transfer *before* it reaches the scheduler queue, so the
        // scheduler would pick from a near-empty queue and sharing policy
        // would degrade to lock wake-up order. The binding is kept valid by
        // the two paths that destroy streams out from under it
        // (`device_reset`, `stream_destroy`), which drop stale ones.
        if let Some(h) = self.track(session, |r| r.streams.get(&idx).copied()) {
            return h;
        }
        // A device whose handle window is spent has no stream to give; the
        // session then shares the device's own stream 0, which is what
        // CUDA's legacy default stream is anyway.
        let Ok((h, _t)) = self.devices[idx].lock().stream_create() else {
            return 0;
        };
        self.track(session, |r| {
            r.streams.insert(idx, h);
            r.handles.insert(h, Kind::Stream)
        });
        h
    }

    /// Remap the wire stream handle: `0` means "the session's default
    /// stream on this device"; explicit handles pass through.
    pub(crate) fn resolve_stream(&self, session: SessionId, idx: usize, stream: u64) -> u64 {
        if stream == 0 {
            self.session_stream(session, idx)
        } else {
            stream
        }
    }

    // ---- helpers shared by several procedures ----

    /// Run `f` on the cuSolver context `h`.
    pub(crate) fn solver<R>(
        &self,
        h: u64,
        f: impl FnOnce(&mut vgpu::solver::SolverDn) -> VgpuResult<R>,
    ) -> VgpuResult<R> {
        match self.objects.lock().get_mut(&h) {
            Some(HostObject::Solver(solver)) => f(solver),
            _ => Err(VgpuError::InvalidHandle(h)),
        }
    }

    /// The next library handle; once the library range is spent (or a
    /// restored cursor reached its end) nothing more is issued.
    pub(crate) fn new_lib_handle(&self) -> VgpuResult<u64> {
        let next = |h| (h < LIB_HANDLE_END).then_some(h + 1);
        (self
            .next_lib_handle
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, next))
        .map_err(|h| VgpuError::InvalidValue(format!("library handles exhausted at {h:#x}")))
    }

    /// `cublasCreate`, `cusolverDnCreate` and `cufftPlan1d` (`proc`): win a
    /// turn on the current device, build the context (`make` may refuse its
    /// arguments), then issue it a library handle.
    pub(crate) fn lib_create(
        &self,
        s: SessionId,
        proc: u32,
        make: impl FnOnce() -> VgpuResult<HostObject>,
    ) -> VgpuResult<u64> {
        let obj = self.wait_here(s, proc, |_d| Ok((make()?, 0)))?;
        let h = self.new_lib_handle()?;
        self.track(s, |r| r.handles.insert(h, obj.kind()));
        self.objects.lock().insert(h, obj);
        Ok(h)
    }

    /// `cublasDestroy`, `cusolverDnDestroy` and `cufftDestroy` (`proc`): `h`
    /// must name a live context of `kind`.
    pub(crate) fn lib_destroy(
        &self,
        s: SessionId,
        proc: u32,
        h: u64,
        kind: Kind,
    ) -> VgpuResult<()> {
        self.wait_here(s, proc, |_d| {
            let mut objects = self.objects.lock();
            if !objects.get(&h).is_some_and(|obj| obj.kind() == kind) {
                return Err(VgpuError::InvalidHandle(h));
            }
            objects.remove(&h);
            Ok(((), 0))
        })?;
        self.track(s, |r| r.handles.remove(&h));
        Ok(())
    }

    /// `cublasSgemm` (`double` false) or `cublasDgemm`.
    pub(crate) fn gemm(&self, s: SessionId, h: u64, double: bool, g: Gemm) -> VgpuResult<()> {
        let Gemm {
            trans: (transa, transb),
            mnk: (m, n, k),
            alpha,
            beta,
            a: (a, lda),
            b: (b, ldb),
            c: (c, ldc),
        } = g;
        let proc = match double {
            true => cricket_v1::CUBLAS_DGEMM,
            false => cricket_v1::CUBLAS_SGEMM,
        };
        self.library_op(s, proc, a, "gemm", |d| {
            if !matches!(self.objects.lock().get(&h), Some(HostObject::Blas)) {
                return Err(VgpuError::InvalidHandle(h));
            }
            if m < 0 || n < 0 || k < 0 || lda < 1 || ldb < 1 || ldc < 1 {
                return Err(VgpuError::InvalidValue("negative gemm dimension".into()));
            }
            let ta = vgpu::blas::Op::from_i32(transa)?;
            let tb = vgpu::blas::Op::from_i32(transb)?;
            let (m, n, k) = (m as usize, n as usize, k as usize);
            let (lda, ldb, ldc) = (lda as usize, ldb as usize, ldc as usize);
            if double {
                vgpu::blas::dgemm(d, ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
            } else {
                let (alpha, beta) = (alpha as f32, beta as f32);
                vgpu::blas::sgemm(d, ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
            }
        })
    }

    /// A cuBLAS / cuSolver call (`proc`) on the device owning `a`: `f`
    /// computes there and reports the device time, which rides the
    /// session's default stream as library op `name` — results are
    /// materialized eagerly (the simulation computes in host code) but the
    /// device-time cost rides the stream timeline.
    pub(crate) fn library_op(
        &self,
        s: SessionId,
        proc: u32,
        a: u64,
        name: &'static str,
        f: impl FnOnce(&mut Device) -> VgpuResult<u64>,
    ) -> VgpuResult<()> {
        let idx = self.route(s, a);
        let st = self.resolve_stream(s, idx, 0);
        self.enqueue_at(s, idx, proc, Returns::AtSubmission, |d| {
            let t = f(d)?;
            Ok(((), d.enqueue_library(st, name, t)?))
        })
    }
}
