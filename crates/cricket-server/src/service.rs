//! The Cricket service: generated-trait implementation over the simulated
//! GPU, with per-API host-side cost accounting.
//!
//! Every call charges the shared virtual clock with (a) a base dispatch
//! cost — the Cricket server's RPC handling plus the CUDA driver entry — and
//! (b) the device time the operation consumes. The network legs around the
//! call are charged by the transport (see [`crate::transport`]).

use crate::migrate;
use crate::scheduler::{QosSpec, Scheduler, SchedulerPolicy, SessionId};
use cricket_proto::{
    cricket_v1, BatchReceipt, BatchResult, CricketV1BatchOp as BatchOp, DataResultReplied,
    DataResultReply, DeviceProp, FloatResult, IntResult, MemInfo, MemInfoResult, MigBlob,
    MigCursor, MigDefaultStream, MigEvent, MigFft, MigFunction, MigKind, MigModule, MigStream,
    PropResult, QosParams, ReplayEntry, RpcDim3, ServerStats, SessionMeta, U64Result,
};
use oncrpc::{AcceptStat, ReplayCache};
use parking_lot::{Mutex, MutexGuard};
use simnet::clock::HORIZON_NS;
use simnet::SimClock;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vgpu::memory::MemDelta;
use vgpu::{Device, DeviceProperties, Dim3, Submit, VgpuError, VgpuResult};

/// Handles for library contexts (cuBLAS/cuSolver/cuFFT) live in the range
/// `LIB_HANDLE_BASE..LIB_HANDLE_END`, disjoint from device handles: 2^47
/// handles, more than any server issues, ending far short of `u64::MAX`.
const LIB_HANDLE_BASE: u64 = 0x8000_0000_0000;
const LIB_HANDLE_END: u64 = 2 * LIB_HANDLE_BASE;

/// Device heap spacing: device `i`'s pointers live in
/// `[(i+1)·HEAP_STRIDE, ...)`, so any pointer identifies its device.
const HEAP_STRIDE: u64 = vgpu::memory::HEAP_BASE;

/// Device handle spacing: device `i`'s module/function/stream/event handles
/// are the window `handle_base(i)..handle_base(i + 1)`.
const HANDLE_STRIDE: u64 = 0x1000_0000;

fn handle_base(device: usize) -> u64 {
    0x10 + device as u64 * HANDLE_STRIDE
}

/// At most this many simulated GPUs per server (keeps the address layout
/// disjoint from the library-handle range).
pub const MAX_DEVICES: usize = 8;

/// Host-side cost of one API call: Cricket's RPC dispatch + CUDA driver
/// entry. Dominates simple calls like `cudaGetDeviceCount` (Fig. 6a).
const DISPATCH_NS: u64 = 6_000;

/// Host-side cost of one sub-op inside a command batch: the CUDA driver
/// entry alone. The RPC dispatch share of [`DISPATCH_NS`] is paid once per
/// batch, which is exactly the per-call overhead coalescing amortizes.
const BATCH_OP_NS: u64 = 800;

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
fn decode_batch(body: &[u8]) -> Result<Vec<BatchOp<'_>>, AcceptStat> {
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

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Properties of device 0 (the paper's A100).
    pub props: DeviceProperties,
    /// Number of simulated devices. The paper's GPU node has four — one
    /// A100, two T4, one P40 — and that is the layout used here: device 0
    /// gets `props`, devices 1–2 are T4s, device 3 is a P40 (further
    /// devices cycle T4). Sessions select with `cudaSetDevice`.
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
/// ([`crate::ServerBuilder::qos`]).
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

#[derive(Debug, Default, Clone, Copy)]
struct StatsInner {
    total_calls: u64,
    bytes_in: u64,
    bytes_out: u64,
    kernels_launched: u64,
}

/// What a handle a session holds names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Stream,
    Event,
    Module,
    Blas,
    Solver,
    Fft,
}

/// The host side of a handle: what the server keeps beside the devices for
/// a loaded module or a library context.
enum HostObject {
    /// The module's original image (checkpoint support).
    Module(Vec<u8>),
    Blas,
    Solver(vgpu::solver::SolverDn),
    Fft(vgpu::fft::FftPlan),
}

impl HostObject {
    fn kind(&self) -> Kind {
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
struct Session {
    /// Device memory, by block base.
    mem: HashSet<u64>,
    /// Every other handle the session holds, and what it names.
    handles: HashMap<u64, Kind>,
    /// Current device (`cudaSetDevice`); `None` = device 0, not chosen.
    device: Option<usize>,
    /// Lazily created default streams, by device: the stream the client's
    /// handle `0` is remapped to. Giving each session its own timeline is
    /// what lets independent sessions overlap on the device instead of
    /// serializing on stream 0.
    streams: HashMap<usize, u64>,
    /// A disconnect-triggered release waits for the migration driver: the
    /// session's token was evicted mid-migration and the final delta still
    /// has to read its state (`mig_finalize_source`, or `readmit_token`).
    deferred: bool,
}

impl Session {
    fn holds(&self, handle: u64, kind: Kind) -> bool {
        self.handles.get(&handle) == Some(&kind)
    }

    /// Its handles of `kind`, in order.
    fn sorted(&self, kind: Kind) -> Vec<u64> {
        let mut v: Vec<u64> = (self.handles.iter())
            .filter_map(|(&h, &k)| (k == kind).then_some(h))
            .collect();
        v.sort_unstable();
        v
    }

    /// Move out every handle `keep` does not list as the same kind. Memory
    /// is not a handle: blocks leave through a delta's `freed` list.
    fn split_off_handles_not_in(&mut self, keep: &HashMap<u64, Kind>) -> Self {
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
    fn absorb(&mut self, other: Self) {
        self.mem.extend(other.mem);
        self.handles.extend(other.handles);
        self.device = self.device.or(other.device);
        for (idx, stream) in other.streams {
            self.streams.entry(idx).or_insert(stream);
        }
    }

    /// Forget what lived on the device `on_device` accepts: a reset
    /// destroyed it.
    fn forget_device(&mut self, idx: usize, on_device: impl Fn(u64) -> bool) {
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
struct Adoption {
    session: Session,
    ready: bool,
    applied_epochs: u32,
}

/// One client token's record at the token gate.
#[derive(Default)]
struct Token {
    /// The live session its calls run in.
    session: Option<SessionId>,
    /// Evicted by a migration cutover: the gate refuses the token so the
    /// client reconnects and resolves its new home.
    evicted: bool,
    /// Calls admitted through the gate and not yet completed. Eviction
    /// drains them before the final snapshot, so no call can mutate memory
    /// the final delta already captured.
    inflight: usize,
    /// An inbound migration staged by `MIG_APPLY_*`.
    adoption: Option<Adoption>,
}

impl Token {
    fn is_idle(&self) -> bool {
        self.session.is_none() && !self.evicted && self.inflight == 0 && self.adoption.is_none()
    }
}

/// The typed refusal of a restored handle somebody on this server holds.
fn live_here(handle: u64) -> VgpuError {
    VgpuError::InvalidValue(format!("handle {handle:#x} is live on this server"))
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
    devices: Vec<Mutex<Device>>,
    sessions: Mutex<HashMap<SessionId, Session>>,
    tokens: Mutex<HashMap<u64, Token>>,
    /// Signalled whenever a token's in-flight count drops.
    quiesce: parking_lot::Condvar,
    objects: Mutex<HashMap<u64, HostObject>>,
    next_lib_handle: AtomicU64,
    /// GPU-sharing scheduler.
    pub scheduler: Scheduler,
    clock: Arc<SimClock>,
    stats: Mutex<StatsInner>,
    cfg: ServerConfig,
    /// The transport's shared at-most-once replay cache (attached by the
    /// builder); migration ships a client's entries with the final delta.
    replay: Mutex<Option<Arc<ReplayCache>>>,
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
            stats: Mutex::new(StatsInner::default()),
            cfg,
            replay: Mutex::new(None),
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
        let sessions = self.sessions.lock().len() as u32;
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

    /// Admission control, consulted by the hook [`crate::make_session_rpc`]
    /// installs before any procedure body runs. `Err(retry_after_ns)` sheds
    /// the call with `CRICKET_BUSY` — never executed, never replay-cached,
    /// safe to retry after the hint.
    ///
    /// `malloc_size` is the peeked `CUDA_MALLOC` argument, used to enforce
    /// the resident-bytes quota before the allocation happens.
    pub fn qos_admit(
        &self,
        session: SessionId,
        proc: u32,
        malloc_size: Option<u64>,
    ) -> Result<(), u64> {
        // `admin` procedures of `cricket.x` are always admitted: an operator
        // must be able to relax a quota or drain a saturated server, and
        // migration control never competes with tenant work.
        if cricket_v1::is_admin(proc) {
            return Ok(());
        }
        let cfg = self.cfg.qos;
        // Overload watermark: shed *new* sessions past the mark;
        // established sessions keep their service.
        if cfg.max_sessions > 0 {
            let sessions = self.sessions.lock();
            if !sessions.contains_key(&session) && sessions.len() >= cfg.max_sessions as usize {
                drop(sessions);
                return Err(self.shed(cfg.admission_retry_ns));
            }
        }
        // Resident-bytes quota: refuse a malloc that would cross the
        // session's ceiling (frees bring it back under).
        if let Some(size) = malloc_size {
            let quota = self.scheduler.qos_of(session).max_resident_bytes;
            if quota > 0 && self.resident_bytes(session).saturating_add(size) > quota {
                return Err(self.shed(cfg.admission_retry_ns));
            }
        }
        // Device-time rate quota: each admitted work call spends one
        // dispatch quantum from the session's token bucket; the bucket
        // refills on the virtual clock. Host-answered (`Done`-class) calls
        // are free — they consume no device time.
        if matches!(crate::proc_class(proc), oncrpc::ProcClass::Parked) {
            if let Err(hint) = self
                .scheduler
                .rate_check(session, self.clock.now_ns(), DISPATCH_NS)
            {
                return Err(self.shed(hint));
            }
        }
        Ok(())
    }

    /// Record a shed and advance the virtual clock by one dispatch quantum.
    /// The advance matters: token buckets refill on this clock, so even a
    /// lone over-quota client makes progress by retrying — each rejection
    /// moves time forward toward its refill.
    fn shed(&self, retry_after_ns: u64) -> u64 {
        self.scheduler.note_shed();
        self.clock.advance(DISPATCH_NS);
        retry_after_ns
    }

    /// Bytes of device memory `session` currently holds, summed across all
    /// devices (computed on demand from the live allocation tables).
    fn resident_bytes(&self, session: SessionId) -> u64 {
        let ptrs = match self.sessions.lock().get(&session) {
            Some(r) if !r.mem.is_empty() => r.mem.clone(),
            _ => return 0,
        };
        let mut total = 0u64;
        for d in &self.devices {
            let dev = d.lock();
            for (base, size) in dev.mem.live_allocations() {
                if ptrs.contains(&base) {
                    total += size;
                }
            }
        }
        total
    }

    /// The session's current device ordinal.
    fn current_device(&self, session: SessionId) -> usize {
        let sessions = self.sessions.lock();
        sessions.get(&session).and_then(|r| r.device).unwrap_or(0)
    }

    /// Which device a pointer or handle belongs to, if any.
    fn device_of_token(&self, token: u64) -> Option<usize> {
        if (HEAP_STRIDE..LIB_HANDLE_BASE).contains(&token) {
            let idx = (token / HEAP_STRIDE - 1) as usize;
            (idx < self.devices.len()).then_some(idx)
        } else if (0x10..HEAP_STRIDE).contains(&token) {
            let idx = ((token - 0x10) / HANDLE_STRIDE) as usize;
            (idx < self.devices.len()).then_some(idx)
        } else {
            None
        }
    }

    /// Route by token (pointer/handle); fall back to the session's current
    /// device for tokens that carry no device identity (0, lib handles).
    fn route(&self, session: SessionId, token: u64) -> usize {
        self.device_of_token(token)
            .unwrap_or_else(|| self.current_device(session))
    }

    /// Read or mutate the session's record, created if it has none.
    fn track<R>(&self, session: SessionId, f: impl FnOnce(&mut Session) -> R) -> R {
        f(self.sessions.lock().entry(session).or_default())
    }

    /// Reclaim everything `session` still holds: free its device memory,
    /// destroy its streams/events, unload its modules, and drop its library
    /// handles. Called when a client connection vanishes so a crashed or
    /// partitioned unikernel cannot leak vGPU state. Individual teardown
    /// errors are ignored — the resource may already be gone (explicit
    /// destroy raced with the disconnect, or a `device_reset` cleared it).
    pub fn release_session(&self, session: SessionId) -> SessionCleanup {
        // A session whose client token was evicted mid-migration is torn
        // down by the migration driver (`mig_finalize_source`) after the
        // final delta is exported — the disconnect-triggered release must
        // not free state that delta still has to read. If the migration
        // aborts instead, `readmit_token` performs the deferred release.
        {
            let tokens = self.tokens.lock();
            if tokens
                .values()
                .any(|t| t.session == Some(session) && t.evicted)
            {
                self.track(session, |r| r.deferred = true);
                return SessionCleanup::default();
            }
        }
        self.force_release(session)
    }

    /// [`Self::release_session`] without the mid-migration deferral.
    fn force_release(&self, session: SessionId) -> SessionCleanup {
        self.tokens.lock().retain(|_, t| {
            if t.session == Some(session) {
                t.session = None;
            }
            !t.is_idle()
        });
        let record = self.sessions.lock().remove(&session);
        // Drop the session's scheduler record (priority, served ledgers) or
        // session churn grows that table without bound.
        self.scheduler.forget(session);
        record.map_or_else(SessionCleanup::default, |r| self.reclaim(r))
    }

    /// The one teardown walker: free, destroy, unload and drop everything
    /// `r` holds — a released session's, or an adoption's that will never
    /// be claimed. Individual errors are ignored; the counts are of what
    /// was actually still there.
    fn reclaim(&self, r: Session) -> SessionCleanup {
        let mut out = SessionCleanup::default();
        let on_device = |token: u64, f: fn(&mut Device, u64) -> VgpuResult<u64>| {
            (self.device_for(token)).is_ok_and(|d| f(&mut d.lock(), token).is_ok())
        };
        let freed = r.mem.into_iter().filter(|&p| on_device(p, Device::free));
        out.allocations = freed.count();
        let dropped = |h| self.objects.lock().remove(&h).is_some();
        for (h, kind) in r.handles {
            let (count, gone) = match kind {
                Kind::Stream => (&mut out.streams, on_device(h, Device::stream_destroy)),
                Kind::Event => (&mut out.events, on_device(h, Device::event_destroy)),
                Kind::Module => {
                    self.objects.lock().remove(&h);
                    (&mut out.modules, on_device(h, Device::module_unload))
                }
                Kind::Blas | Kind::Solver | Kind::Fft => (&mut out.lib_handles, dropped(h)),
            };
            *count += usize::from(gone);
        }
        out
    }

    /// The session's default stream on device `idx`, lazily created. The
    /// client's stream handle `0` is remapped here so every session gets
    /// its own device timeline (streams from different sessions overlap;
    /// work within one session's stream retires in issue order). Guards
    /// against `cudaDeviceReset` having destroyed the stream under us.
    fn session_stream(&self, session: SessionId, idx: usize) -> u64 {
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
    fn resolve_stream(&self, session: SessionId, idx: usize, stream: u64) -> u64 {
        if stream == 0 {
            self.session_stream(session, idx)
        } else {
            stream
        }
    }

    /// The one call prologue. Gives the session its record (marks it seen),
    /// then takes what the call holds while it runs (`acquire`: nothing, an
    /// issue turn, or a turn and then a device lock), and only then counts
    /// the call and charges `DISPATCH_NS + host_ns` — so a call that queues
    /// for the device is charged once it owns it, and contended virtual time
    /// depends on the scheduler's order alone.
    fn enter<H>(&self, session: SessionId, host_ns: u64, acquire: impl FnOnce() -> H) -> H {
        self.sessions.lock().entry(session).or_default();
        let held = acquire();
        self.stats.lock().total_calls += 1;
        self.clock.advance(DISPATCH_NS + host_ns);
        held
    }

    /// Host-only path: charge the RPC dispatch cost but take no scheduler
    /// turn and hold no device for simulated time. For queries over
    /// host-visible state (device count, properties, current device).
    fn host_call<R>(&self, session: SessionId, host_ns: u64, f: impl FnOnce() -> R) -> R {
        self.enter(session, host_ns, || ());
        f()
    }

    /// Queue-backed path: win an issue slot from the scheduler, lock device
    /// `idx`, run `f`. A command the device accepted costs the clock its
    /// submission and the session's ledger its queued device time; a
    /// host-side stamp (no `Submit`) costs what `f` charged itself.
    /// [`Returns::AtSubmission`] is an asynchronous call — the RPC returns
    /// while the work is still in flight on its stream;
    /// [`Returns::AtCompletion`] has sync memcpy semantics (ordered behind
    /// prior stream work, returns when done).
    fn enqueue_at<R, S: Into<Option<Submit>>>(
        &self,
        session: SessionId,
        idx: usize,
        host_ns: u64,
        returns: Returns,
        f: impl FnOnce(&mut Device) -> Result<(R, S), VgpuError>,
    ) -> Result<R, VgpuError> {
        let (turn, mut dev) = self.enter(session, host_ns, || {
            let turn = self.scheduler.begin(session);
            (turn, self.devices[idx].lock())
        });
        let (r, sub) = f(&mut dev)?;
        if let Some(sub) = sub.into() {
            self.clock.advance(sub.submit_ns);
            if returns == Returns::AtCompletion {
                self.clock.advance_to(sub.completes_at_ns);
            }
            turn.charge(sub.queued_ns);
        }
        Ok(r)
    }

    /// Synchronization path: win an issue slot, run the op, then advance
    /// the clock by the wait `f` reports (time until the relevant timeline
    /// drains). Nothing new is charged to the ledger — the waited-on work
    /// was charged when it was enqueued.
    fn wait_at<R>(
        &self,
        session: SessionId,
        idx: usize,
        host_ns: u64,
        f: impl FnOnce(&mut Device) -> Result<(R, u64), VgpuError>,
    ) -> Result<R, VgpuError> {
        self.wait_turn(session, host_ns, || f(&mut self.devices[idx].lock()))
    }

    /// [`Self::wait_at`] without a device: `f` locks what it needs itself
    /// (`CKPT_*` walk every device in turn).
    fn wait_turn<R>(
        &self,
        session: SessionId,
        host_ns: u64,
        f: impl FnOnce() -> Result<(R, u64), VgpuError>,
    ) -> Result<R, VgpuError> {
        let _turn = self.enter(session, host_ns, || self.scheduler.begin(session));
        let (r, wait_ns) = f()?;
        self.clock.advance(wait_ns);
        Ok(r)
    }

    /// [`Self::wait_at`] on the session's current device.
    fn wait_here<R>(
        &self,
        session: SessionId,
        host_ns: u64,
        f: impl FnOnce(&mut Device) -> Result<(R, u64), VgpuError>,
    ) -> Result<R, VgpuError> {
        let idx = self.current_device(session);
        self.wait_at(session, idx, host_ns, f)
    }

    /// [`Self::wait_at`] on the device owning `token`.
    fn wait_for<R>(
        &self,
        session: SessionId,
        token: u64,
        host_ns: u64,
        f: impl FnOnce(&mut Device) -> Result<(R, u64), VgpuError>,
    ) -> Result<R, VgpuError> {
        let idx = self.route(session, token);
        self.wait_at(session, idx, host_ns, f)
    }

    // ---- helpers shared by several procedures ----

    /// Run `f` on the cuSolver context `h`.
    fn solver<R>(
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
    fn new_lib_handle(&self) -> VgpuResult<u64> {
        let next = |h| (h < LIB_HANDLE_END).then_some(h + 1);
        (self
            .next_lib_handle
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, next))
        .map_err(|h| VgpuError::InvalidValue(format!("library handles exhausted at {h:#x}")))
    }

    #[allow(clippy::too_many_arguments)]
    fn gemm(
        &self,
        s: SessionId,
        h: u64,
        double: bool,
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
    ) -> i32 {
        let idx = self.route(s, a);
        let st = self.resolve_stream(s, idx, 0);
        int_of(self.enqueue_at(s, idx, 4_000, Returns::AtSubmission, |d| {
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
            let t = if double {
                vgpu::blas::dgemm(d, ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)?
            } else {
                let (alpha, beta) = (alpha as f32, beta as f32);
                vgpu::blas::sgemm(d, ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)?
            };
            // Results are materialized eagerly (the simulation computes in
            // host code) but the device-time cost rides the stream timeline.
            let sub = d.enqueue_library(st, "gemm", t)?;
            Ok(((), sub))
        }))
    }

    /// Device a `batchable` op routes to.
    fn op_device(&self, s: SessionId, op: &BatchOp<'_>) -> usize {
        let token = match *op {
            BatchOp::CudaMemcpyHtod(dst, _) | BatchOp::CudaMemcpyHtodSparse(dst, _) => dst,
            BatchOp::CudaMemcpyDtod(_, src, _) => src,
            BatchOp::CudaMemset(ptr, ..) => ptr,
            BatchOp::CudaLaunchKernel(func, ..) => func,
            BatchOp::CudaEventRecord(event, _) => event,
            BatchOp::CufftExecC2c(_, idata, ..) | BatchOp::CufftExecZ2z(_, idata, ..) => idata,
        };
        self.route(s, token)
    }

    /// Resolved stream of a `batchable` op on device `idx`. Ops without a
    /// wire stream argument ride the session's default stream.
    fn op_stream(&self, s: SessionId, idx: usize, op: &BatchOp<'_>) -> u64 {
        match *op {
            BatchOp::CudaLaunchKernel(.., stream, _) | BatchOp::CudaEventRecord(_, stream) => {
                self.resolve_stream(s, idx, stream)
            }
            _ => self.session_stream(s, idx),
        }
    }

    /// A `batchable` procedure called on its own: its own prologue, issue
    /// turn and device lock around the body a batch sub-op runs.
    fn immediate(&self, s: SessionId, op: &BatchOp<'_>, host_ns: u64, returns: Returns) -> i32 {
        let idx = self.op_device(s, op);
        let st = self.op_stream(s, idx, op);
        int_of(self.enqueue_at(s, idx, host_ns, returns, |dev| {
            Ok(((), self.issue_op(dev, op, st)?))
        }))
    }

    /// The body of the eight `batchable` procedures — the only code that
    /// touches a device on their behalf, whether the op arrived as its own
    /// RPC ([`Self::immediate`]) or inside `CRICKET_BATCH_EXEC`. `dev` is the
    /// locked device [`Self::op_device`] named, `st` the stream
    /// [`Self::op_stream`] resolved. `Ok(Some(sub))` for queue-backed
    /// commands, `Ok(None)` for host-side stamps (event record). Per-op
    /// statistics are taken here, from what the body actually had in hand:
    /// `bytes_in` counts an H2D payload when it is about to be written (a
    /// sparse one at its decoded length, so only after it decoded).
    fn issue_op(
        &self,
        dev: &mut Device,
        op: &BatchOp<'_>,
        st: u64,
    ) -> Result<Option<Submit>, VgpuError> {
        let mut write = |dst: u64, data: &[u8]| {
            // `data` is the borrowed wire record (or the decoded blob); the
            // write into device memory is the transfer endpoint itself
            // (the client's `bytes_transferred`), not an RPC-stack memmove.
            self.stats.lock().bytes_in += data.len() as u64;
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
                let sub = dev.launch_kernel(func, dim(grid), dim(block), shared, st, params)?;
                self.stats.lock().kernels_launched += 1;
                Ok(Some(sub))
            }
            BatchOp::CudaEventRecord(event, _) => {
                let host_ns = dev.event_record(event, st)?;
                self.clock.advance(host_ns);
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

/// When a queue-backed call's RPC returns, in virtual time.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Returns {
    /// Once the command is submitted; it completes on its stream later.
    AtSubmission,
    /// Once the command has completed (sync memcpy semantics).
    AtCompletion,
}

/// What every procedure of the generated service trait returns.
type Reply<T> = Result<T, AcceptStat>;

fn err_code(e: &VgpuError) -> i32 {
    e.code() as i32
}

/// CUDA status word of an operation that returns nothing else.
fn int_of(r: Result<(), VgpuError>) -> i32 {
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

fn dim(d: RpcDim3) -> Dim3 {
    Dim3 {
        x: d.x,
        y: d.y,
        z: d.z,
    }
}

/// Per-session view implementing the generated service trait: the one place
/// each procedure of `cricket.x` is written on the server.
pub struct Sessioned {
    srv: Arc<CricketServer>,
    session: SessionId,
}

impl Sessioned {
    /// Bind `srv` as `session`.
    pub fn new(srv: Arc<CricketServer>, session: SessionId) -> Self {
        Self { srv, session }
    }

    /// The session this view is bound to.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// One of the `batchable` procedures, called on its own.
    fn immediate(&self, op: BatchOp<'_>, host_ns: u64, returns: Returns) -> Reply<i32> {
        Ok(self.srv.immediate(self.session, &op, host_ns, returns))
    }

    /// `cublasCreate`, `cusolverDnCreate` and `cufftPlan1d`: win a turn on
    /// the current device, build the context (`make` may refuse its
    /// arguments), then issue it a library handle.
    fn lib_create(
        &self,
        host_ns: u64,
        make: impl FnOnce() -> VgpuResult<HostObject>,
    ) -> Reply<U64Result> {
        let (srv, s) = (&self.srv, self.session);
        let made = srv.wait_here(s, host_ns, |_d| Ok((make()?, 0)));
        let r = made.and_then(|obj| {
            let h = srv.new_lib_handle()?;
            srv.track(s, |r| r.handles.insert(h, obj.kind()));
            srv.objects.lock().insert(h, obj);
            Ok(h)
        });
        reply(r, U64Result::Data, U64Result::Default)
    }

    /// `cublasDestroy`, `cusolverDnDestroy` and `cufftDestroy`: `h` must
    /// name a live context of `kind`.
    fn lib_destroy(&self, h: u64, host_ns: u64, kind: Kind) -> Reply<i32> {
        let (srv, s) = (&self.srv, self.session);
        let r = srv.wait_here(s, host_ns, |_d| {
            let mut objects = srv.objects.lock();
            if !objects.get(&h).is_some_and(|obj| obj.kind() == kind) {
                return Err(VgpuError::InvalidHandle(h));
            }
            objects.remove(&h);
            Ok(((), 0))
        });
        if r.is_ok() {
            srv.track(s, |r| r.handles.remove(&h));
        }
        Ok(int_of(r))
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
        let count = srv.host_call(self.session, 1_000, || srv.devices.len() as i32);
        Ok(IntResult::Data(count))
    }

    fn cuda_get_device_properties(&self, ordinal: i32) -> Reply<PropResult> {
        // Host-only: properties are immutable; the brief lock below copies
        // them out without taking a scheduler turn or device time.
        let srv = &self.srv;
        let r = srv.host_call(self.session, 2_000, || {
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
        let (srv, s) = (&self.srv, self.session);
        let r = srv.host_call(s, 500, || {
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
        let (srv, s) = (&self.srv, self.session);
        let current = srv.host_call(s, 500, || srv.current_device(s) as i32);
        Ok(IntResult::Data(current))
    }

    fn cuda_device_synchronize(&self) -> Reply<i32> {
        // Waits for *this session's* timelines on its current device —
        // other sessions' streams keep running (each client is its own
        // context behind the virtualization layer).
        let (srv, s) = (&self.srv, self.session);
        let idx = srv.current_device(s);
        Ok(int_of(srv.wait_at(s, idx, 1_000, |d| {
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
        })))
    }

    fn cuda_device_reset(&self) -> Reply<i32> {
        let (srv, s) = (&self.srv, self.session);
        let idx = srv.current_device(s);
        let r = srv.wait_at(s, idx, 5_000, |d| Ok(((), d.device_reset())));
        // The reset destroyed exactly what lived on the device: every
        // session's (and staged adoption's) memory and handles there, its
        // default streams there — lazily recreated on next use — and the
        // images of modules loaded there. Library handles live on no
        // device and survive.
        let on_device = |token| srv.device_of_token(token) == Some(idx);
        let mut tokens = srv.tokens.lock();
        let staged = tokens.values_mut().filter_map(|t| t.adoption.as_mut());
        let mut sessions = srv.sessions.lock();
        for r in staged.map(|a| &mut a.session).chain(sessions.values_mut()) {
            r.forget_device(idx, on_device);
        }
        srv.objects.lock().retain(|&h, _| !on_device(h));
        Ok(int_of(r))
    }

    fn cuda_malloc(&self, size: u64) -> Reply<U64Result> {
        let (srv, s) = (&self.srv, self.session);
        let r = srv.wait_here(s, 4_000, |d| d.malloc(size));
        if let Ok(ptr) = r {
            srv.track(s, |r| r.mem.insert(ptr));
        }
        reply(r, U64Result::Data, U64Result::Default)
    }

    fn cuda_free(&self, ptr: u64) -> Reply<i32> {
        let (srv, s) = (&self.srv, self.session);
        let r = srv.wait_for(s, ptr, 3_500, |d| d.free(ptr).map(|t| ((), t)));
        if r.is_ok() {
            srv.track(s, |r| r.mem.remove(&ptr));
        }
        Ok(int_of(r))
    }

    fn cuda_memcpy_htod(&self, dst: u64, data: &[u8]) -> Reply<i32> {
        // Sync copy: ordered on the session's stream, blocks to completion.
        let op = BatchOp::CudaMemcpyHtod(dst, data);
        self.immediate(op, 3_000, Returns::AtCompletion)
    }

    fn cuda_memcpy_dtoh(
        &self,
        src: u64,
        len: u64,
        out: DataResultReply<'_>,
    ) -> Reply<DataResultReplied> {
        let (srv, s) = (&self.srv, self.session);
        let idx = srv.route(s, src);
        let st = srv.session_stream(s, idx);
        // Sync D2H memcpy is the canonical wait point: it drains the
        // session's stream, then pays the PCIe transfer. The device lends
        // the source range under its lock and `out` writes it into the
        // reply buffer there: the server's only copy of the payload. `out`
        // is still here exactly when the device refused before lending.
        let mut out = Some(out);
        let r = srv.enqueue_at(s, idx, 3_000, Returns::AtCompletion, |d| {
            d.memcpy_dtoh_stream(src, len, st, |bytes| {
                out.take().expect("lent once").data(bytes)
            })
        });
        Ok(match r {
            Ok(replied) => {
                srv.stats.lock().bytes_out += len;
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
        self.immediate(op, 3_000, Returns::AtCompletion)
    }

    fn cuda_memcpy_dtod(&self, dst: u64, src: u64, len: u64) -> Reply<i32> {
        let (srv, s) = (&self.srv, self.session);
        let src_dev = srv.route(s, src);
        let dst_dev = srv.route(s, dst);
        if src_dev == dst_dev {
            // Same-device copy is asynchronous: it rides the session's
            // stream and the RPC returns at submission.
            let op = BatchOp::CudaMemcpyDtod(dst, src, len);
            return self.immediate(op, 2_500, Returns::AtSubmission);
        }
        // Peer copy (cudaMemcpyPeer semantics) is not the batchable op: it
        // is a read on one device and a write on another, staged through
        // the host, paying PCIe on both — synchronous on both legs, and no
        // client payload, so `bytes_in` does not move.
        let src_st = srv.session_stream(s, src_dev);
        let dst_st = srv.session_stream(s, dst_dev);
        let staged = srv.enqueue_at(s, src_dev, 2_500, Returns::AtCompletion, |d| {
            d.memcpy_dtoh_stream(src, len, src_st, <[u8]>::to_vec)
        });
        Ok(int_of(staged.and_then(|bytes| {
            srv.enqueue_at(s, dst_dev, 2_500, Returns::AtCompletion, |d| {
                d.memcpy_htod_stream(dst, &bytes, dst_st)
                    .map(|sub| ((), sub))
            })
        })))
    }

    fn cuda_memset(&self, ptr: u64, value: i32, len: u64) -> Reply<i32> {
        let op = BatchOp::CudaMemset(ptr, value, len);
        self.immediate(op, 2_000, Returns::AtSubmission)
    }

    fn cuda_mem_get_info(&self) -> Reply<MemInfoResult> {
        // Host-only: a bookkeeping read; the brief lock copies two counters.
        let (srv, s) = (&self.srv, self.session);
        let idx = srv.current_device(s);
        let (free, total) = srv.host_call(s, 1_500, || srv.devices[idx].lock().mem_info());
        Ok(MemInfoResult::Info(MemInfo { free, total }))
    }

    fn cuda_get_last_error(&self) -> Reply<IntResult> {
        Ok(IntResult::Data(0))
    }

    fn cu_module_load_data(&self, image: &[u8]) -> Reply<U64Result> {
        let (srv, s) = (&self.srv, self.session);
        srv.stats.lock().bytes_in += image.len() as u64;
        let r = srv.wait_here(s, 25_000, |d| d.module_load(image));
        if let Ok(h) = r {
            // The retained copy is the only one: the image arrives as a
            // borrowed slice of the request record.
            srv.objects
                .lock()
                .insert(h, HostObject::Module(image.to_vec()));
            srv.track(s, |r| r.handles.insert(h, Kind::Module));
        }
        reply(r, U64Result::Data, U64Result::Default)
    }

    fn cu_module_get_function(&self, module: u64, name: &str) -> Reply<U64Result> {
        let r = self.srv.wait_for(self.session, module, 2_000, |d| {
            d.module_get_function(module, name)
        });
        reply(r, U64Result::Data, U64Result::Default)
    }

    fn cu_module_unload(&self, module: u64) -> Reply<i32> {
        let (srv, s) = (&self.srv, self.session);
        let r = srv.wait_for(s, module, 3_000, |d| {
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
        self.immediate(op, 3_500, Returns::AtSubmission)
    }

    fn cuda_stream_create(&self) -> Reply<U64Result> {
        let (srv, s) = (&self.srv, self.session);
        let r = srv.wait_here(s, 1_500, |d| d.stream_create());
        if let Ok(h) = r {
            srv.track(s, |r| r.handles.insert(h, Kind::Stream));
        }
        reply(r, U64Result::Data, U64Result::Default)
    }

    fn cuda_stream_destroy(&self, h: u64) -> Reply<i32> {
        let (srv, s) = (&self.srv, self.session);
        let r = srv.wait_for(s, h, 1_000, |d| d.stream_destroy(h).map(|t| ((), t)));
        if r.is_ok() {
            srv.track(s, |r| r.handles.remove(&h));
            // If this was a default stream, drop the binding too so
            // `session_stream` never returns a destroyed handle; it is
            // lazily recreated on next use.
            for r in srv.sessions.lock().values_mut() {
                r.streams.retain(|_, &mut bound| bound != h);
            }
        }
        Ok(int_of(r))
    }

    fn cuda_stream_synchronize(&self, h: u64) -> Reply<i32> {
        let (srv, s) = (&self.srv, self.session);
        let idx = srv.route(s, h);
        let st = srv.resolve_stream(s, idx, h);
        Ok(int_of(srv.wait_at(s, idx, 1_000, |d| {
            d.stream_synchronize(st).map(|t| ((), t))
        })))
    }

    fn cuda_event_create(&self) -> Reply<U64Result> {
        let (srv, s) = (&self.srv, self.session);
        let r = srv.wait_here(s, 800, |d| d.event_create());
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
        self.immediate(op, 800, Returns::AtSubmission)
    }

    fn cuda_event_synchronize(&self, event: u64) -> Reply<i32> {
        Ok(int_of(self.srv.wait_for(self.session, event, 800, |d| {
            d.event_synchronize(event).map(|t| ((), t))
        })))
    }

    fn cuda_event_elapsed_time(&self, start: u64, stop: u64) -> Reply<FloatResult> {
        let r = self.srv.wait_for(self.session, start, 800, |d| {
            d.event_elapsed_ms(start, stop).map(|v| (v, 0))
        });
        reply(r, FloatResult::Data, FloatResult::Default)
    }

    fn cuda_event_destroy(&self, event: u64) -> Reply<i32> {
        let (srv, s) = (&self.srv, self.session);
        let r = srv.wait_for(s, event, 600, |d| d.event_destroy(event).map(|t| ((), t)));
        if r.is_ok() {
            srv.track(s, |r| r.handles.remove(&event));
        }
        Ok(int_of(r))
    }

    fn cublas_create(&self) -> Reply<U64Result> {
        self.lib_create(5_000, || Ok(HostObject::Blas))
    }

    fn cublas_destroy(&self, h: u64) -> Reply<i32> {
        self.lib_destroy(h, 2_000, Kind::Blas)
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
        Ok(self.srv.gemm(
            self.session,
            h,
            false,
            transa,
            transb,
            m,
            n,
            k,
            alpha as f64,
            a,
            lda,
            b,
            ldb,
            beta as f64,
            c,
            ldc,
        ))
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
        Ok(self.srv.gemm(
            self.session,
            h,
            true,
            transa,
            transb,
            m,
            n,
            k,
            alpha,
            a,
            lda,
            b,
            ldb,
            beta,
            c,
            ldc,
        ))
    }

    fn cusolver_dn_create(&self) -> Reply<U64Result> {
        self.lib_create(10_000, || {
            Ok(HostObject::Solver(vgpu::solver::SolverDn::new()))
        })
    }

    fn cusolver_dn_destroy(&self, h: u64) -> Reply<i32> {
        self.lib_destroy(h, 3_000, Kind::Solver)
    }

    fn cusolver_dn_dgetrf_buffer_size(
        &self,
        h: u64,
        m: i32,
        n: i32,
        _a: u64,
        _lda: i32,
    ) -> Reply<IntResult> {
        let r = self.srv.host_call(self.session, 2_000, || {
            self.srv.solver(h, |solver| solver.dgetrf_buffer_size(m, n))
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
        let (srv, s) = (&self.srv, self.session);
        let idx = srv.route(s, a);
        let st = srv.resolve_stream(s, idx, 0);
        Ok(int_of(srv.enqueue_at(
            s,
            idx,
            8_000,
            Returns::AtSubmission,
            |d| {
                let t = srv.solver(h, |solver| solver.dgetrf(d, m, n, a, lda, work, ipiv, info))?;
                let sub = d.enqueue_library(st, "getrf", t)?;
                Ok(((), sub))
            },
        )))
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
        let (srv, s) = (&self.srv, self.session);
        let idx = srv.route(s, a);
        let st = srv.resolve_stream(s, idx, 0);
        Ok(int_of(srv.enqueue_at(
            s,
            idx,
            6_000,
            Returns::AtSubmission,
            |d| {
                let t = srv.solver(h, |s| {
                    s.dgetrs(d, trans, n, nrhs, a, lda, ipiv, b, ldb, info)
                })?;
                let sub = d.enqueue_library(st, "getrs", t)?;
                Ok(((), sub))
            },
        )))
    }

    fn cufft_plan_1d(&self, n: i32, kind: i32, batch: i32) -> Reply<U64Result> {
        self.lib_create(6_000, || {
            vgpu::fft::FftPlan::plan_1d(n, kind, batch).map(HostObject::Fft)
        })
    }

    fn cufft_destroy(&self, h: u64) -> Reply<i32> {
        self.lib_destroy(h, 2_000, Kind::Fft)
    }

    fn cufft_exec_c2c(&self, h: u64, idata: u64, odata: u64, dir: i32) -> Reply<i32> {
        let op = BatchOp::CufftExecC2c(h, idata, odata, dir);
        self.immediate(op, 5_000, Returns::AtSubmission)
    }

    fn cufft_exec_z2z(&self, h: u64, idata: u64, odata: u64, dir: i32) -> Reply<i32> {
        let op = BatchOp::CufftExecZ2z(h, idata, odata, dir);
        self.immediate(op, 5_000, Returns::AtSubmission)
    }

    /// Execute a coalesced command batch: decode every sub-op, then issue
    /// them in order, taking **one scheduler turn per consecutive
    /// (device, stream) slice** instead of one per op, and paying the RPC
    /// dispatch cost once for the whole batch plus a small driver-entry
    /// cost per sub-op. A failed sub-op records its error code at its
    /// index and aborts the remainder of its slice (`BATCH_SKIPPED`);
    /// later slices — other streams' work — still run.
    fn cricket_batch_exec(&self, body: &[u8]) -> Reply<BatchResult> {
        let (srv, s) = (&self.srv, self.session);
        let ops = decode_batch(body)?;
        srv.sessions.lock().entry(s).or_default();
        // Each sub-op is one CUDA API call in the paper's accounting;
        // coalescing changes the wire shape, not the call count.
        srv.stats.lock().total_calls += ops.len() as u64;
        // One RPC dispatch for the whole batch — the coalescing win.
        srv.clock.advance(DISPATCH_NS);
        let mut statuses = vec![0i32; ops.len()];
        let mut agg = vgpu::SubmitAggregate::default();
        let mut executed: u32 = 0;
        // Cross-device D2D peer copies stage through the host on two
        // devices; they cannot share a single-device turn, so they run
        // through the ordinary synchronous path as their own slice.
        let peer = |op: &BatchOp<'_>| match *op {
            BatchOp::CudaMemcpyDtod(dst, src, len) if srv.route(s, src) != srv.route(s, dst) => {
                Some((dst, src, len))
            }
            _ => None,
        };
        let mut i = 0;
        while i < ops.len() {
            if let Some((dst, src, len)) = peer(&ops[i]) {
                statuses[i] = self.cuda_memcpy_dtod(dst, src, len)?;
                executed += u32::from(statuses[i] == 0);
                i += 1;
                continue;
            }
            let idx = srv.op_device(s, &ops[i]);
            let stream = srv.op_stream(s, idx, &ops[i]);
            let mut j = i + 1;
            while j < ops.len()
                && srv.op_device(s, &ops[j]) == idx
                && srv.op_stream(s, idx, &ops[j]) == stream
                && peer(&ops[j]).is_none()
            {
                j += 1;
            }
            // Issue the whole slice under one turn; the device lock and
            // turn drop together at the end of the slice. Every
            // BATCH_PREEMPT_OPS sub-ops (or BATCH_PREEMPT_NS of charged
            // device time) the turn is offered back: if the policy would
            // rather serve a queued waiter, the rest of the slice requeues
            // under a fresh turn, so a 1000-op batch cannot monopolize the
            // device against a higher-deficit tenant.
            let turn = srv.scheduler.begin(s);
            let mut dev = srv.devices[idx].lock();
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
                srv.clock.advance(BATCH_OP_NS);
                since_ops += 1;
                // Every batched op is asynchronous: the clock never runs
                // to completion here — the next sync point drains the stream.
                match srv.issue_op(&mut dev, op, stream) {
                    Ok(Some(sub)) => {
                        srv.clock.advance(sub.submit_ns);
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

    fn ckpt_capture(&self, out: DataResultReply<'_>) -> Reply<DataResultReplied> {
        let srv = &self.srv;
        let r = srv.wait_turn(self.session, 50_000, || {
            let blob = srv.checkpoint();
            // Serialization cost scales with snapshot size.
            let t = (blob.len() as u64) / 8;
            Ok((blob, t))
        });
        Ok(match r {
            Ok(blob) => {
                srv.stats.lock().bytes_out += blob.len() as u64;
                out.data(&blob)
            }
            Err(e) => out.default(err_code(&e)),
        })
    }

    fn ckpt_restore(&self, blob: &[u8]) -> Reply<i32> {
        let srv = &self.srv;
        srv.stats.lock().bytes_in += blob.len() as u64;
        Ok(int_of(srv.wait_turn(self.session, 50_000, || {
            srv.restore(self.session, blob)?;
            Ok(((), (blob.len() as u64) / 8))
        })))
    }

    fn srv_get_stats(&self) -> Reply<ServerStats> {
        let srv = &self.srv;
        let st = *srv.stats.lock();
        let device_time_ns = srv
            .devices
            .iter()
            .map(|d| d.lock().stats.device_time_ns)
            .sum();
        Ok(ServerStats {
            total_calls: st.total_calls,
            bytes_in: st.bytes_in,
            bytes_out: st.bytes_out,
            kernels_launched: st.kernels_launched,
            active_sessions: srv.sessions.lock().len() as u64,
            device_time_ns,
        })
    }

    fn srv_reset_stats(&self) -> Reply<i32> {
        // Statistics only: the live-session set is admission state
        // (`qos_admit`, `load_report`), and `release_session` empties it.
        *self.srv.stats.lock() = StatsInner::default();
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

    /// Install a session's QoS spec. Administrative: charges no device
    /// time, like `srv_set_scheduler`.
    fn cricket_qos_set(&self, p: QosParams) -> Reply<i32> {
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

impl CricketServer {
    // ---- session state: export, apply, reclaim ---------------------------

    /// Attach the transport's shared at-most-once replay cache so
    /// migration can ship a client's entries with the final delta.
    pub fn attach_replay(&self, replay: &Arc<ReplayCache>) {
        *self.replay.lock() = Some(Arc::clone(replay));
    }

    /// The live session currently bound to a client token, if any.
    pub fn session_of_token(&self, token: u64) -> Option<SessionId> {
        self.tokens.lock().get(&token).and_then(|t| t.session)
    }

    /// Run `f` on `token`'s record under the token lock; a record left
    /// saying nothing is dropped.
    fn with_token<R>(&self, token: u64, f: impl FnOnce(&mut Token) -> R) -> R {
        let mut tokens = self.tokens.lock();
        let t = tokens.entry(token).or_default();
        let r = f(t);
        if t.is_idle() {
            tokens.remove(&token);
        }
        r
    }

    /// Token-gate hook (see `oncrpc::RpcServer::set_token_gate`): may a
    /// call from `token` arriving on `session` proceed?
    ///
    /// * evicted token → `false`: the connection closes and the client's
    ///   reconnect resolves the session's new home;
    /// * staged but unfinished inbound migration → `false`: the client
    ///   raced ahead of the final delta, retry until cutover completes;
    /// * ready inbound migration → merge it into this session, `true`;
    /// * otherwise record the token ↔ session binding and admit.
    ///
    /// An admitted call counts as in flight until [`Self::call_complete`],
    /// decided under the same lock [`Self::evict_token`] drains under: once
    /// eviction has returned, no call of the token is admitted.
    pub fn observe_token(&self, token: u64, session: SessionId) -> bool {
        self.with_token(token, |t| {
            if t.evicted || t.adoption.as_ref().is_some_and(|a| !a.ready) {
                return false;
            }
            if let Some(a) = t.adoption.take() {
                self.track(session, |r| r.absorb(a.session));
            }
            t.session = Some(session);
            t.inflight += 1;
            true
        })
    }

    /// Gate completion hook: an admitted call from `token` finished.
    pub fn call_complete(&self, token: u64) {
        self.with_token(token, |t| t.inflight = t.inflight.saturating_sub(1));
        self.quiesce.notify_all();
    }

    /// Evict `token`: the gate refuses its calls from now on, closing the
    /// client's connection so its retransmission lands at the new home.
    /// Blocks (bounded) until calls already past the gate have completed —
    /// the final snapshot must not race a half-executed mutation whose
    /// reply the client will still receive.
    pub fn evict_token(&self, token: u64) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut tokens = self.tokens.lock();
        tokens.entry(token).or_default().evicted = true;
        while tokens.get(&token).is_some_and(|t| t.inflight > 0) {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                // Safety valve: a wedged call must not hang the cutover.
                break;
            }
            self.quiesce.wait_for(&mut tokens, left);
        }
    }

    /// Roll back an eviction (aborted migration): admit the token again
    /// and perform any release that was deferred while it was evicted.
    pub fn readmit_token(&self, token: u64) {
        let session = self.with_token(token, |t| {
            t.evicted = false;
            t.session
        });
        let deferred = |s| {
            let mut sessions = self.sessions.lock();
            sessions
                .get_mut(&s)
                .is_some_and(|r| std::mem::take(&mut r.deferred))
        };
        if let Some(s) = session.filter(|&s| deferred(s)) {
            self.force_release(s);
        }
    }

    /// Export one leg of the migration stream for `token`'s session.
    ///
    /// `known` is the set of block bases previous legs already shipped
    /// (empty for the base snapshot); it is updated to what the
    /// destination holds after applying this blob. Every export closes
    /// the per-device dirty-tracking window (`mark_epoch`), so at most
    /// one migration may stream per device at a time. A
    /// [`MigKind::Final`] export additionally fences all streams (the
    /// snapshot barrier) and attaches the client's replay entries.
    pub fn mig_export(
        &self,
        token: u64,
        known: &mut BTreeSet<u64>,
        kind: MigKind,
    ) -> VgpuResult<Vec<u8>> {
        let session = self.session_of_token(token).ok_or_else(|| {
            VgpuError::InvalidValue(format!("no live session for client token {token:#x}"))
        })?;
        let mut blob = self.export_session(session, Some(known), kind);
        blob.meta.token = token;
        blob.meta.src_now_ns = self.clock.now_ns();
        if kind == MigKind::Final {
            if let Some(r) = self.replay.lock().clone() {
                let entries = r.export_client(token).into_iter();
                let mut replay: Vec<_> = entries
                    .map(|(xid, reply)| ReplayEntry { xid, reply })
                    .collect();
                replay.sort_by_key(|e| e.xid);
                blob.replay = replay.into();
            }
        }
        Ok(xdr::encode(&blob))
    }

    /// `CKPT_CAPTURE`: one [`MigKind::Base`] blob per session that owns
    /// anything, oldest session first. A checkpoint is a full sync point —
    /// every stream on every device is fenced and the clock waits for the
    /// drained completion frontier, which is also what the blobs are
    /// stamped with (not the clock: capture → restore → capture is a fixed
    /// point). The caller holds the issue turn, so no session can enqueue
    /// between the fence and the walk.
    fn checkpoint(&self) -> Vec<u8> {
        let fence = |d: &Mutex<Device>| d.lock().fence_all_streams();
        let frontier = self.devices.iter().map(fence).max().unwrap_or(0);
        self.clock.advance_to(frontier);
        let mut sessions: Vec<SessionId> = {
            let all = self.sessions.lock();
            let owning = all
                .iter()
                .filter(|(_, r)| !r.mem.is_empty() || !r.handles.is_empty());
            owning.map(|(&s, _)| s).collect()
        };
        sessions.sort_unstable();
        let blobs = sessions
            .into_iter()
            .map(|s| {
                let mut blob = self.export_session(s, None, MigKind::Base);
                blob.meta.src_now_ns = frontier;
                blob
            })
            .collect();
        migrate::encode_checkpoint(blobs)
    }

    /// The one export walker: `session`'s state as a blob of `kind`, with
    /// `token` and `src_now_ns` left for the caller to stamp.
    ///
    /// `known` is the delta stream this leg belongs to: memory is shipped
    /// relative to it, it is updated to what the consumer holds afterwards,
    /// and the per-device dirty window is closed (`mark_epoch`) under the
    /// same device lock the delta was read under. `None` is a snapshot at
    /// rest: everything travels whole and no window is touched, so a
    /// migration streaming from the same device loses nothing.
    fn export_session(
        &self,
        session: SessionId,
        known: Option<&mut BTreeSet<u64>>,
        kind: MigKind,
    ) -> MigBlob {
        let r = self.sessions.lock().get(&session).cloned();
        let r = r.unwrap_or_default();
        let mut meta = SessionMeta {
            current_device: r.device.unwrap_or(0) as u32,
            next_lib_handle: self.next_lib_handle.load(Ordering::SeqCst),
            blas: r.sorted(Kind::Blas).into(),
            solvers: r.sorted(Kind::Solver).into(),
            ..SessionMeta::default()
        };
        {
            let objects = self.objects.lock();
            for handle in r.sorted(Kind::Module) {
                if let Some(HostObject::Module(image)) = objects.get(&handle) {
                    let image = image.clone();
                    meta.modules.push(MigModule { handle, image });
                }
            }
            for handle in r.sorted(Kind::Fft) {
                if let Some(HostObject::Fft(p)) = objects.get(&handle) {
                    let (n, kind, batch) = (p.n as i32, p.kind, p.batch as i32);
                    meta.ffts.push(MigFft {
                        handle,
                        n,
                        kind,
                        batch,
                    });
                }
            }
        }
        let bind = |(&idx, &stream): (&usize, &u64)| MigDefaultStream {
            device: idx as u32,
            stream,
        };
        let mut bound: Vec<_> = r.streams.iter().map(bind).collect();
        bound.sort_unstable_by_key(|d| (d.device, d.stream));
        meta.default_streams = bound.into();

        let mut delta = MemDelta::default();
        for idx in 0..self.devices.len() {
            let known_here: BTreeSet<u64> = known
                .iter()
                .flat_map(|k| k.iter().copied())
                .filter(|&b| self.device_of_token(b) == Some(idx))
                .collect();
            let mut dev = self.devices[idx].lock();
            if kind == MigKind::Final {
                // The CRAC-style snapshot barrier: retire every pending
                // command so the final delta is taken with nothing in
                // flight. Execution is eager, so this changes bookkeeping,
                // never memory.
                dev.fence_all_streams();
            }
            // The device is shared: only this session's blocks ride along.
            let d = dev.mem.delta_since(&known_here, |b| r.mem.contains(&b));
            if known.is_some() {
                dev.mem.mark_epoch();
            }
            meta.next_handles.push(MigCursor {
                device: idx as u32,
                next: dev.next_handle_value(),
            });
            for (handle, frontier_ns) in dev.snapshot_stream_frontiers() {
                if r.holds(handle, Kind::Stream) {
                    meta.streams.push(MigStream {
                        handle,
                        frontier_ns,
                    });
                }
            }
            for (handle, recorded_ns) in dev.snapshot_event_states() {
                if r.holds(handle, Kind::Event) {
                    meta.events.push(MigEvent {
                        handle,
                        recorded_ns,
                    });
                }
            }
            for (handle, module, name) in dev.snapshot_functions() {
                if r.holds(module, Kind::Module) {
                    meta.functions.push(MigFunction {
                        handle,
                        module,
                        name,
                    });
                }
            }
            delta.freed.extend(d.freed);
            delta.new_blocks.extend(d.new_blocks);
            delta.dirty.extend(d.dirty);
        }
        // Handles are unique: ordering by handle is ordering by the whole.
        meta.functions.sort_unstable_by_key(|f| f.handle);

        if let Some(known) = known {
            for &b in &delta.freed {
                known.remove(&b);
            }
            for (b, _) in &delta.new_blocks {
                known.insert(*b);
            }
        }

        migrate::blob(kind, meta, delta)
    }

    /// Bytes a naive full-snapshot migration of `token`'s session would
    /// move right now: every owned block plus every module image. The
    /// streamed-migration bench compares its cumulative payload to this.
    pub fn session_footprint(&self, token: u64) -> u64 {
        let Some(session) = self.session_of_token(token) else {
            return 0;
        };
        let r = self.sessions.lock().get(&session).cloned();
        let r = r.unwrap_or_default();
        let mut total = 0u64;
        for &b in &r.mem {
            if let Some(idx) = self.device_of_token(b) {
                if let Ok(bytes) = self.devices[idx].lock().mem.block_bytes(b) {
                    total += bytes.len() as u64;
                }
            }
        }
        let objects = self.objects.lock();
        for h in r.sorted(Kind::Module) {
            if let Some(HostObject::Module(image)) = objects.get(&h) {
                total += image.len() as u64;
            }
        }
        total
    }

    /// Tear down the source side after a completed cutover: drop the
    /// client's replay entries (they now live at the destination) and
    /// force-release its session. The eviction marker stays, so late
    /// retransmissions on a half-dead connection remain refused.
    pub fn mig_finalize_source(&self, token: u64) -> SessionCleanup {
        if let Some(r) = self.replay.lock().clone() {
            r.forget_client(token);
        }
        match self.session_of_token(token) {
            Some(session) => self.force_release(session),
            None => SessionCleanup::default(),
        }
    }

    /// Apply one migration blob pushed by a source server's driver; the
    /// blob kind must be in `allow` (wire procs pin the direction).
    /// Returns the count of applied epochs for this token's stream. No
    /// scheduler turn and no clock charge: the stream must not perturb
    /// the destination's virtual timeline — the only clock effect is the
    /// forward alignment to the source's `src_now_ns`.
    pub fn mig_apply(&self, bytes: &[u8], allow: &[MigKind]) -> VgpuResult<u32> {
        self.stats.lock().bytes_in += bytes.len() as u64;
        let blob = migrate::decode(bytes)?;
        let kind = blob.kind;
        if !allow.contains(&kind) {
            return Err(VgpuError::InvalidValue(format!(
                "blob kind {kind:?} not allowed by this procedure"
            )));
        }
        let token = blob.meta.token;
        let mut staged = match kind {
            MigKind::Base => {
                // A fresh base replaces any half-applied previous attempt
                // and re-legitimizes a token this server itself evicted in
                // an earlier outbound migration (moving back home).
                self.discard_adoption(token);
                self.with_token(token, |t| t.evicted = false);
                Adoption::default()
            }
            MigKind::Delta | MigKind::Final => {
                let staged = self.with_token(token, |t| t.adoption.take());
                staged.ok_or_else(|| {
                    VgpuError::InvalidValue(format!(
                        "delta for token {token:#x} without a staged base"
                    ))
                })?
            }
        };
        let mem = migrate::mem_delta(blob.mem);
        if let Err(e) = self.apply_blob(&blob.meta, &mem, &mut staged.session) {
            // Half-applied state is unusable; free whatever was placed so
            // a retried migration can start from a clean base.
            self.reclaim(staged.session);
            return Err(e);
        }
        staged.applied_epochs += 1;
        if kind == MigKind::Final {
            if let Some(r) = self.replay.lock().clone() {
                let entries = blob.replay.0.into_iter();
                r.import_client(token, entries.map(|e| (e.xid, e.reply)).collect());
            }
            staged.ready = true;
        }
        // Align this shard's virtual clock with the source so post-cutover
        // timing (event elapsed, batch receipts) continues byte-identically
        // on an otherwise idle destination.
        self.clock.advance_to(blob.meta.src_now_ns);
        let epochs = staged.applied_epochs;
        self.with_token(token, |t| t.adoption = Some(staged));
        Ok(epochs)
    }

    /// `CKPT_RESTORE`: apply every blob of the checkpoint and hand the
    /// result to `session`. Each blob is staged into a record of its own
    /// (`apply_blob` diffs metadata against what is staged, so two
    /// sessions' blobs must not share one); nothing is handed over until
    /// all have applied, and on any failure everything this restore placed
    /// is reclaimed — state that was live before is never touched.
    fn restore(&self, session: SessionId, bytes: &[u8]) -> VgpuResult<()> {
        let blobs = migrate::decode_checkpoint(bytes)?;
        let mut staged = Vec::with_capacity(blobs.len());
        for blob in blobs {
            let mut r = Session::default();
            let applied = self.apply_blob(&blob.meta, &migrate::mem_delta(blob.mem), &mut r);
            staged.push((blob.meta.src_now_ns, r));
            if let Err(e) = applied {
                for (_, r) in staged {
                    self.reclaim(r);
                }
                return Err(e);
            }
        }
        for (src_now_ns, r) in staged {
            // Restored stream frontiers must lie in this node's past.
            self.clock.advance_to(src_now_ns);
            self.track(session, |live| live.absorb(r));
        }
        Ok(())
    }

    /// Reconcile one blob into the staged record `held`: memory delta first
    /// (each device replays its share), then the full metadata diffed
    /// against what previous blobs placed. `held` learns of a resource the
    /// moment it lands, so a failure midway leaves nothing behind that
    /// `reclaim` does not know of — and it never learns of one that was
    /// live here before: a block, handle or library handle somebody already
    /// holds is a typed error, not an alias.
    fn apply_blob(&self, meta: &SessionMeta, mem: &MemDelta, held: &mut Session) -> VgpuResult<()> {
        let bases = (mem.freed.iter())
            .chain(mem.new_blocks.iter().map(|(b, _)| b))
            .chain(mem.dirty.iter().map(|(b, ..)| b));
        for &b in bases {
            self.device_for(b)?;
        }
        // A default-stream binding becomes the adopting session's stream 0:
        // it may name only a stream this very blob places, on the device
        // that stream lives on.
        for d in meta.default_streams.iter() {
            let (dev, h) = (d.device, d.stream);
            let placed = meta.streams.iter().any(|s| s.handle == h);
            if !placed || self.device_of_token(h) != Some(dev as usize) {
                return Err(VgpuError::InvalidValue(format!(
                    "default stream {h:#x} of device {dev} is not a stream of this blob there"
                )));
            }
        }
        // Cursors and the clock only ever move forward, so a blob must not
        // move them where nothing can follow: a device's cursor stays in
        // that device's handle window (a device this server lacks issues
        // nothing; its cursor is ignored), the library cursor in the
        // library range, and every timestamp short of the horizon.
        for c in meta.next_handles.iter() {
            let window = handle_base(c.device as usize)..handle_base(c.device as usize + 1);
            if (c.device as usize) < self.devices.len() && !window.contains(&c.next) {
                return Err(VgpuError::InvalidValue(format!(
                    "handle cursor {:#x} is outside device {}'s window",
                    c.next, c.device
                )));
            }
        }
        if !(LIB_HANDLE_BASE..LIB_HANDLE_END).contains(&meta.next_lib_handle) {
            return Err(VgpuError::InvalidValue(format!(
                "library handle cursor {:#x} is outside the library range",
                meta.next_lib_handle
            )));
        }
        // Every handle the blob places lies below the blob's own cursor for
        // its device (which ends inside that device's window, see above) or
        // for the library: the cursors are raised first, so nothing this
        // server issues later repeats one.
        let issued_on_device = |h: u64| {
            let window = |c: &MigCursor| handle_base(c.device as usize)..c.next;
            let mut cursors = meta.next_handles.iter();
            cursors.any(|c| (c.device as usize) < self.devices.len() && window(c).contains(&h))
        };
        let device_handles = (meta.modules.iter().map(|m| m.handle))
            .chain(meta.functions.iter().map(|f| f.handle))
            .chain(meta.streams.iter().map(|s| s.handle))
            .chain(meta.events.iter().map(|e| e.handle));
        let lib_handles = (meta.blas.iter().copied())
            .chain(meta.solvers.iter().copied())
            .chain(meta.ffts.iter().map(|f| f.handle));
        let issued_by_lib = |h: &u64| (LIB_HANDLE_BASE..meta.next_lib_handle).contains(h);
        let mut unissued = (device_handles.filter(|&h| !issued_on_device(h)))
            .chain(lib_handles.filter(|h| !issued_by_lib(h)));
        if let Some(h) = unissued.next() {
            return Err(VgpuError::InvalidValue(format!(
                "handle {h:#x} is not below the blob's cursor for it"
            )));
        }
        let frontiers = meta.streams.iter().map(|s| s.frontier_ns);
        let recorded = meta.events.iter().filter_map(|e| e.recorded_ns);
        let mut times = std::iter::once(meta.src_now_ns)
            .chain(frontiers)
            .chain(recorded);
        if let Some(t) = times.find(|&t| t > HORIZON_NS) {
            return Err(VgpuError::InvalidValue(format!(
                "timestamp {t} ns is past the virtual-time horizon"
            )));
        }
        for (idx, dev) in self.devices.iter().enumerate() {
            let here = |b| self.device_of_token(b) == Some(idx);
            (dev.lock().mem).apply_delta(mem, here, &mut held.mem)?;
        }

        // Handle counters first, and only ever raised: from here on nothing
        // this server issues can take a value the blob is about to place.
        for c in meta.next_handles.iter() {
            if let Some(d) = self.devices.get(c.device as usize) {
                d.lock().restore_next_handle(c.next);
            }
        }
        self.next_lib_handle
            .fetch_max(meta.next_lib_handle, Ordering::SeqCst);

        // What earlier blobs placed and the source has since destroyed goes
        // through the one reclaimer (memory travelled as `freed` above).
        let wanted: HashMap<u64, Kind> = (meta.modules.iter().map(|m| (m.handle, Kind::Module)))
            .chain(meta.streams.iter().map(|s| (s.handle, Kind::Stream)))
            .chain(meta.events.iter().map(|e| (e.handle, Kind::Event)))
            .chain(meta.blas.iter().map(|&h| (h, Kind::Blas)))
            .chain(meta.solvers.iter().map(|&h| (h, Kind::Solver)))
            .chain(meta.ffts.iter().map(|f| (f.handle, Kind::Fft)))
            .collect();
        self.reclaim(held.split_off_handles_not_in(&wanted));

        for m in meta.modules.iter() {
            if !held.holds(m.handle, Kind::Module) {
                self.place_at(m.handle, false)?
                    .restore_module(m.handle, &m.image)?;
                let image = HostObject::Module(m.image.clone());
                self.objects.lock().insert(m.handle, image);
                held.handles.insert(m.handle, Kind::Module);
            }
        }
        for f in meta.functions.iter() {
            if !held.holds(f.module, Kind::Module) {
                return Err(VgpuError::InvalidHandle(f.module));
            }
            (self.device_for(f.handle)?.lock()).restore_function(f.handle, f.module, &f.name)?;
        }
        // Streams and events are placed anew by every blob, at their exact
        // completion frontier and record timestamp (idempotent).
        for s in meta.streams.iter() {
            let h = s.handle;
            (self.place_at(h, held.holds(h, Kind::Stream))?).restore_stream_at(h, s.frontier_ns);
            held.handles.insert(h, Kind::Stream);
        }
        for e in meta.events.iter() {
            let h = e.handle;
            (self.place_at(h, held.holds(h, Kind::Event))?).restore_event_at(h, e.recorded_ns);
            held.handles.insert(h, Kind::Event);
        }

        // Library handles. cuBLAS handles are pure capabilities; a
        // cuSolver context's factorization memo is a timing cache whose
        // hits replay the stored duration, so a fresh context is
        // trace-equivalent; FFT plans are pure values rebuilt through the
        // validating constructor.
        for &h in meta.blas.iter() {
            self.lib_place(held, h, HostObject::Blas)?;
        }
        for &h in meta.solvers.iter() {
            self.lib_place(held, h, HostObject::Solver(vgpu::solver::SolverDn::new()))?;
        }
        for f in meta.ffts.iter() {
            let plan = vgpu::fft::FftPlan::plan_1d(f.n, f.kind, f.batch)?;
            self.lib_place(held, f.handle, HostObject::Fft(plan))?;
        }

        held.device =
            Some((meta.current_device as usize).min(self.devices.len().saturating_sub(1)));
        held.streams.clear();
        for d in meta.default_streams.iter() {
            held.streams.entry(d.device as usize).or_insert(d.stream);
        }
        Ok(())
    }

    /// The device a pointer or handle of a blob routes to.
    fn device_for(&self, token: u64) -> VgpuResult<&Mutex<Device>> {
        let idx = self.device_of_token(token).ok_or_else(|| {
            VgpuError::InvalidValue(format!("token {token:#x} maps to no local device"))
        })?;
        Ok(&self.devices[idx])
    }

    /// Lock the device `handle` routes to, to place it there: unless it is
    /// `ours` (this stream staged it earlier), the handle must be vacant.
    fn place_at(&self, handle: u64, ours: bool) -> VgpuResult<MutexGuard<'_, Device>> {
        let dev = self.device_for(handle)?.lock();
        if !ours && dev.holds(handle) {
            return Err(live_here(handle));
        }
        Ok(dev)
    }

    /// Place library context `obj` at `h` for `held`, unless `held` has it
    /// there already. One counter issues cuBLAS, cuSolver and cuFFT handles
    /// alike, so any live host object at `h` is refused.
    fn lib_place(&self, held: &mut Session, h: u64, obj: HostObject) -> VgpuResult<()> {
        let kind = obj.kind();
        if held.holds(h, kind) {
            return Ok(());
        }
        let mut objects = self.objects.lock();
        if objects.contains_key(&h) {
            return Err(live_here(h));
        }
        objects.insert(h, obj);
        held.handles.insert(h, kind);
        Ok(())
    }

    /// Drop a staged inbound migration and free everything it placed on
    /// this server (`MIG_ABORT`, or a fresh base superseding it).
    fn discard_adoption(&self, token: u64) {
        if let Some(a) = self.with_token(token, |t| t.adoption.take()) {
            self.reclaim(a.session);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cricket_proto::{CricketV1Service as _, DataResult};

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
        assert!(t1 >= t0 + DISPATCH_NS);
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
        assert!(st.total_calls >= 3);
        assert_eq!(st.bytes_in, 4096);
        assert_eq!(st.bytes_out, 1024);
        assert_eq!(st.active_sessions, 1);
        s.srv_reset_stats().unwrap();
        let st = s.srv_get_stats().unwrap();
        assert_eq!(st.bytes_in, 0);
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
            (a.bytes_in, a.kernels_launched),
            (b.bytes_in, b.kernels_launched)
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
        assert_eq!(after.1.bytes_in, 0);
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
        assert_eq!(s.srv_get_stats().unwrap().bytes_in, 0, "bomb counted");

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
        assert_eq!(s.srv_get_stats().unwrap().bytes_in, 0);

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
        assert_eq!(s.srv_get_stats().unwrap().bytes_in, 0, "header believed");
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
    /// of device `d` removes what lives on `d` — the device's state, the
    /// default streams bound there, the images of modules loaded there —
    /// and nothing else.
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
            let reply = rpc.handle_record(enc.as_slice()).unwrap();
            let busy = oncrpc::ReplyBody::busy(qos.admission_retry_ns);
            let mut want = xdr::XdrEncoder::new();
            want.put(&oncrpc::RpcMessage::reply(1, busy));
            reply == want.as_slice()
        };
        assert!(!shed(1, p::CUDA_GET_DEVICE_COUNT));
        assert!(!shed(2, p::CUDA_GET_DEVICE_COUNT));
        assert!(shed(3, p::CUDA_GET_DEVICE_COUNT), "third session: over");

        assert!(!shed(3, p::SRV_RESET_STATS), "admin: always admitted");
        assert_eq!(srv.stats.lock().total_calls, 0, "the statistics did reset");
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
