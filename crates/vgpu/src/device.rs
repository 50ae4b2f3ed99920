//! The device facade: the driver-level API the Cricket server calls.
//!
//! The device is split into **shared state** (memory, modules, functions,
//! events, the memo cache) and **per-stream [`CommandQueue`]s** holding work
//! in flight. Asynchronous operations (kernel launches, async copies,
//! memsets, library routines) *enqueue*: they cost the host only a small
//! submission fee (returned in a [`Submit`] receipt) while the device-time
//! cost rides the stream's virtual timeline. Synchronization points
//! (stream/event/device synchronize, sync D2H copies, frees) *wait*: they
//! return the nanoseconds the host must block until the relevant timeline
//! drains. Commands retire strictly in issue order per stream; overlapping
//! work on different streams costs the device the max, not the sum, of the
//! timelines.
//!
//! Everything is charged to the shared virtual clock by the caller (the
//! Cricket server service), so identical workloads produce identical
//! timelines — determinism is part of the contract.

use crate::error::{VgpuError, VgpuResult};
use crate::kernels::{self, Dim3, LaunchConfig, Params};
use crate::memory::MemoryManager;
use crate::module::Cubin;
use crate::properties::DeviceProperties;
use crate::queue::{CommandKind, CommandQueue, IntervalUnion, Retired, Submit};
use crate::stream::EventState;
use crate::timemodel::{kernel_duration_ns, Workload};
use simnet::SimClock;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// First value handed out for module/function/stream/event handles.
/// Distinct ranges make stray-handle bugs visible in logs.
const HANDLE_BASE: u64 = 0x10;

/// Submission cost of a kernel launch on the device front-end (ns).
const KERNEL_SUBMIT_NS: u64 = 600;
/// Submission cost of an async copy/memset/library enqueue (ns).
const ENQUEUE_SUBMIT_NS: u64 = 500;
/// Retired-command log size: at least this many of the newest entries are
/// kept, and the log is cut back to it on reaching twice it, so
/// long-running servers don't grow without bound and a full log is not
/// shifted down by one entry on every retirement.
const RETIRED_LOG_CAP: usize = 4096;
/// Launch-memo size, bounded like the retired log: on reaching twice this
/// many entries the cache is cut back to those recorded by the newest this
/// many launches, so an app that rewrites its inputs every iteration (a
/// new key per launch) does not grow a long-running server without bound.
const MEMO_CAP: usize = 4096;

/// Execution statistics (memoization effectiveness, launch counts).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Kernel launches requested.
    pub launches: u64,
    /// Launches satisfied from the memo cache (time advanced, no compute).
    pub memo_hits: u64,
    /// Total device-time nanoseconds of all enqueued work.
    pub device_time_ns: u64,
}

struct FunctionEntry {
    module: u64,
    builtin: &'static kernels::Builtin,
}

/// A launch as the memo sees it. [`Device`] refills one of these in place
/// per launch and clones it only to insert a miss, so a hit allocates
/// nothing.
#[derive(Hash, PartialEq, Eq, Clone, Default)]
struct MemoKey {
    func: u64,
    params: Vec<u8>,
    input_versions: Vec<u64>,
}

struct MemoEntry {
    /// (base pointer, version after execution) for every written range.
    out_versions: Vec<(u64, u64)>,
    /// `stats.launches` when recorded: the age the cache is cut back by.
    launch: u64,
}

/// A simulated GPU device.
pub struct Device {
    props: DeviceProperties,
    /// Device memory (public for the solver/BLAS libraries, which run
    /// server-side against device memory like their CUDA namesakes).
    pub mem: MemoryManager,
    clock: Arc<SimClock>,
    modules: HashMap<u64, Cubin>,
    functions: HashMap<u64, FunctionEntry>,
    /// Ordered by handle: the deterministic order commands retire in.
    streams: BTreeMap<u64, CommandQueue>,
    events: HashMap<u64, EventState>,
    next_handle: u64,
    /// End of this device's handle window: nothing at or past it is issued.
    handle_end: u64,
    memo: HashMap<MemoKey, MemoEntry>,
    /// The launch being looked up; see [`MemoKey`].
    memo_key: MemoKey,
    /// Device-global issue sequence; total order over all enqueues.
    issue_seq: u64,
    /// Completed commands, retired in per-stream issue order.
    retired: Vec<Retired>,
    /// Union of busy intervals of retired commands (overlap telemetry).
    busy: IntervalUnion,
    /// Execution statistics.
    pub stats: ExecStats,
}

impl Device {
    /// Create a device with the given properties on a shared clock.
    pub fn new(props: DeviceProperties, clock: Arc<SimClock>) -> Self {
        Self::with_bases(
            props,
            clock,
            crate::memory::HEAP_BASE,
            HANDLE_BASE..u64::MAX,
        )
    }

    /// Create a device with an explicit heap base and handle window.
    /// Multi-GPU servers give each device disjoint ranges so that any
    /// pointer or handle identifies its device.
    pub fn with_bases(
        props: DeviceProperties,
        clock: Arc<SimClock>,
        heap_base: u64,
        handles: std::ops::Range<u64>,
    ) -> Self {
        let mem = MemoryManager::with_base(props.total_global_mem, heap_base);
        let mut streams = BTreeMap::new();
        streams.insert(0, CommandQueue::default()); // default stream
        Self {
            props,
            mem,
            clock,
            modules: HashMap::new(),
            functions: HashMap::new(),
            streams,
            events: HashMap::new(),
            next_handle: handles.start.max(HANDLE_BASE),
            handle_end: handles.end,
            memo: HashMap::new(),
            memo_key: MemoKey::default(),
            issue_seq: 0,
            retired: Vec::new(),
            busy: IntervalUnion::default(),
            stats: ExecStats::default(),
        }
    }

    /// An A100 on a fresh clock (tests, examples).
    pub fn a100() -> Self {
        Self::new(DeviceProperties::a100(), SimClock::new())
    }

    /// Device properties.
    pub fn properties(&self) -> &DeviceProperties {
        &self.props
    }

    /// The clock this device charges time to.
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// The next handle of this device's window; once the window is spent
    /// (or a restored cursor reached its end) nothing more is issued.
    fn new_handle(&mut self) -> VgpuResult<u64> {
        let h = self.next_handle;
        if h >= self.handle_end {
            return Err(VgpuError::InvalidValue(format!(
                "handle window exhausted at {h:#x}"
            )));
        }
        self.next_handle += 1;
        Ok(h)
    }

    fn next_seq(&mut self) -> u64 {
        self.issue_seq += 1;
        self.issue_seq
    }

    /// (free, total) device memory.
    pub fn mem_info(&self) -> (u64, u64) {
        (self.mem.free_bytes(), self.mem.total())
    }

    // -- observation / retirement ----------------------------------------

    /// Retire every command whose completion time has passed on the shared
    /// clock, in issue order per stream. Called at the top of device entry
    /// points so the retired log and busy span track the clock.
    pub(crate) fn observe(&mut self) {
        let now = self.clock.now_ns();
        // Retire straight into the log's tail: no per-call scratch.
        let first = self.retired.len();
        for (&h, q) in self.streams.iter_mut() {
            q.retire_until(now, h, &mut self.retired);
        }
        // Global retire order: by completion time, ties by issue seq (a
        // unique key, so the allocation-free unstable sort is exact).
        let batch = &mut self.retired[first..];
        batch.sort_unstable_by_key(|r| (r.completes_at_ns, r.seq));
        for r in batch.iter() {
            self.busy.add(r.starts_at_ns, r.completes_at_ns);
        }
        if self.retired.len() >= 2 * RETIRED_LOG_CAP {
            let excess = self.retired.len() - RETIRED_LOG_CAP;
            self.retired.drain(..excess);
        }
    }

    /// Drain the retired-command log (retires completed work first).
    pub fn take_retired(&mut self) -> Vec<Retired> {
        self.observe();
        std::mem::take(&mut self.retired)
    }

    /// Total virtual time during which at least one stream had work running,
    /// counting work enqueued so far (pending commands included). Comparing
    /// this to the sum of per-command durations measures cross-stream
    /// overlap.
    pub fn busy_span_ns(&mut self) -> u64 {
        self.observe();
        let mut u = self.busy.clone();
        for q in self.streams.values() {
            for c in q.iter_pending() {
                u.add(c.starts_at_ns, c.completes_at_ns);
            }
        }
        u.total_ns()
    }

    /// Whether `handle` names a live module, function, stream or event.
    /// One counter issues all four, so a restore may place a handle only
    /// where this is false (or where it placed that handle itself).
    pub fn holds(&self, handle: u64) -> bool {
        self.streams.contains_key(&handle)
            || self.events.contains_key(&handle)
            || self.modules.contains_key(&handle)
            || self.functions.contains_key(&handle)
    }

    fn queue_mut(&mut self, stream: u64) -> VgpuResult<&mut CommandQueue> {
        self.streams
            .get_mut(&stream)
            .ok_or(VgpuError::InvalidHandle(stream))
    }

    /// Enqueue `duration_ns` on `stream`, charging device-time stats.
    fn enqueue_on(
        &mut self,
        stream: u64,
        kind: CommandKind,
        duration_ns: u64,
        submit_ns: u64,
    ) -> VgpuResult<Submit> {
        let now = self.clock.now_ns();
        let seq = self.next_seq();
        let q = self.queue_mut(stream)?;
        let cmd = q.enqueue(now, seq, kind, duration_ns);
        self.stats.device_time_ns += duration_ns;
        Ok(Submit {
            stream,
            seq,
            submit_ns,
            queued_ns: duration_ns,
            completes_at_ns: cmd.completes_at_ns,
        })
    }

    // -- memory ---------------------------------------------------------

    /// cudaMalloc. Returns (pointer, device-time ns).
    pub fn malloc(&mut self, size: u64) -> VgpuResult<(u64, u64)> {
        let ptr = self.mem.alloc(size)?;
        // Driver-side bookkeeping: page-table and allocator work, roughly
        // constant (cudaMalloc is ~10 µs on real systems; most of that is
        // host driver time which the server-exec model charges separately).
        Ok((ptr, 1_500))
    }

    /// cudaFree. Returns device-time ns (including the implicit
    /// synchronization with all outstanding work, as on real devices).
    /// `cudaFree(0)` is a valid no-op (the classic context-init idiom).
    pub fn free(&mut self, ptr: u64) -> VgpuResult<u64> {
        if ptr == 0 {
            return Ok(500);
        }
        self.observe();
        let wait = self.wait_all_ns();
        self.mem.free(ptr)?;
        Ok(1_000 + wait)
    }

    /// Synchronous cudaMemcpy host→device on the default stream.
    /// Returns the wait in ns until the transfer completes.
    pub fn memcpy_htod(&mut self, dst: u64, data: &[u8]) -> VgpuResult<u64> {
        let sub = self.memcpy_htod_stream(dst, data, 0)?;
        Ok(sub.completes_at_ns.saturating_sub(self.clock.now_ns()))
    }

    /// cudaMemcpy host→device ordered on `stream`: the transfer is enqueued
    /// behind prior work on the stream. The returned [`Submit`] carries the
    /// completion time; a synchronous caller blocks until then (CUDA's
    /// sync-memcpy contract).
    pub fn memcpy_htod_stream(&mut self, dst: u64, data: &[u8], stream: u64) -> VgpuResult<Submit> {
        self.observe();
        self.mem.write(dst, data)?;
        let dur = self.pcie_ns(data.len());
        self.enqueue_on(
            stream,
            CommandKind::MemcpyH2D {
                bytes: data.len() as u64,
            },
            dur,
            0,
        )
    }

    /// Synchronous cudaMemcpy device→host on the default stream.
    /// Returns (bytes, wait ns).
    pub fn memcpy_dtoh(&mut self, src: u64, len: u64) -> VgpuResult<(Vec<u8>, u64)> {
        let (bytes, sub) = self.memcpy_dtoh_stream(src, len, 0, <[u8]>::to_vec)?;
        let wait = sub.completes_at_ns.saturating_sub(self.clock.now_ns());
        Ok((bytes, wait))
    }

    /// cudaMemcpy device→host ordered on `stream`: waits for prior work on
    /// the stream, then the PCIe transfer (the "sync D2H memcpy waits" rule
    /// — the only memcpy that must always block). The device does not stage
    /// the bytes: once the copy is validated and enqueued it lends the
    /// source range to `sink`, which makes the one copy to wherever the data
    /// is going. `sink` does not run when the copy fails.
    pub fn memcpy_dtoh_stream<R>(
        &mut self,
        src: u64,
        len: u64,
        stream: u64,
        sink: impl FnOnce(&[u8]) -> R,
    ) -> VgpuResult<(R, Submit)> {
        self.observe();
        self.mem.read(src, len)?;
        let dur = self.pcie_ns(len as usize);
        let sub = self.enqueue_on(stream, CommandKind::MemcpyD2H { bytes: len }, dur, 0)?;
        let lent = self.mem.read(src, len).expect("range validated above");
        Ok((sink(lent), sub))
    }

    /// cudaMemcpy device→device: asynchronous, enqueued on `stream`.
    pub fn memcpy_dtod(&mut self, dst: u64, src: u64, len: u64, stream: u64) -> VgpuResult<Submit> {
        self.observe();
        self.mem.copy_dtod(dst, src, len)?;
        // On-device copy at memory bandwidth (read + write).
        let dur = kernel_duration_ns(&self.props, &Workload::memory(2.0 * len as f64));
        self.enqueue_on(
            stream,
            CommandKind::MemcpyD2D { bytes: len },
            dur,
            ENQUEUE_SUBMIT_NS,
        )
    }

    /// cudaMemset: asynchronous, enqueued on `stream`.
    pub fn memset(&mut self, ptr: u64, value: i32, len: u64, stream: u64) -> VgpuResult<Submit> {
        self.observe();
        self.mem.memset(ptr, value as u8, len)?;
        let dur = kernel_duration_ns(&self.props, &Workload::memory(len as f64));
        self.enqueue_on(
            stream,
            CommandKind::Memset { bytes: len },
            dur,
            ENQUEUE_SUBMIT_NS,
        )
    }

    /// Enqueue a library routine (cuBLAS / cuSOLVER / cuFFT) whose result
    /// was just computed server-side: the device-time cost rides `stream`'s
    /// timeline instead of blocking the host.
    pub fn enqueue_library(
        &mut self,
        stream: u64,
        what: &'static str,
        duration_ns: u64,
    ) -> VgpuResult<Submit> {
        self.observe();
        self.enqueue_on(
            stream,
            CommandKind::Library { what },
            duration_ns,
            ENQUEUE_SUBMIT_NS,
        )
    }

    fn pcie_ns(&self, bytes: usize) -> u64 {
        (bytes as f64 / self.props.pcie_bandwidth_bps as f64 * 1e9) as u64
    }

    // -- modules --------------------------------------------------------

    /// cuModuleLoadData: parse (and decompress) a cubin image, resolving
    /// each exported kernel against the builtin registry.
    pub fn module_load(&mut self, image: &[u8]) -> VgpuResult<(u64, u64)> {
        let cubin = Cubin::parse(image)?;
        for k in &cubin.kernels {
            let b = kernels::lookup(&k.name).ok_or_else(|| {
                VgpuError::BadModule(format!("kernel `{}` has no device implementation", k.name))
            })?;
            if b.param_count != k.param_sizes.len() {
                return Err(VgpuError::BadModule(format!(
                    "kernel `{}` declares {} params, device expects {}",
                    k.name,
                    k.param_sizes.len(),
                    b.param_count
                )));
            }
        }
        let h = self.new_handle()?;
        // JIT/verification cost scales with image size.
        let t = 20_000 + (image.len() as u64) / 64;
        self.modules.insert(h, cubin);
        Ok((h, t))
    }

    /// cuModuleGetFunction.
    pub fn module_get_function(&mut self, module: u64, name: &str) -> VgpuResult<(u64, u64)> {
        let cubin = self
            .modules
            .get(&module)
            .ok_or(VgpuError::InvalidHandle(module))?;
        let meta = cubin
            .kernel(name)
            .ok_or_else(|| VgpuError::BadModule(format!("no kernel `{name}` in module")))?;
        let builtin = kernels::lookup(&meta.name).expect("validated at load");
        let h = self.new_handle()?;
        self.functions.insert(h, FunctionEntry { module, builtin });
        Ok((h, 800))
    }

    /// cuModuleUnload. Invalidate the module's functions too.
    pub fn module_unload(&mut self, module: u64) -> VgpuResult<u64> {
        if self.modules.remove(&module).is_none() {
            return Err(VgpuError::InvalidHandle(module));
        }
        self.functions.retain(|_, f| f.module != module);
        Ok(2_000)
    }

    // -- launches -------------------------------------------------------

    /// cuLaunchKernel: enqueue a kernel on a stream. Returns a [`Submit`]
    /// receipt; the host pays only `submit_ns`, the kernel itself runs "on
    /// the device", advancing the stream's timeline by its duration.
    pub fn launch_kernel(
        &mut self,
        func: u64,
        grid: Dim3,
        block: Dim3,
        shared_mem: u32,
        stream: u64,
        params: &[u8],
    ) -> VgpuResult<Submit> {
        self.observe();
        let entry = self
            .functions
            .get(&func)
            .ok_or(VgpuError::InvalidHandle(func))?;
        let builtin = entry.builtin;
        if !self.streams.contains_key(&stream) {
            return Err(VgpuError::InvalidHandle(stream));
        }
        if block.count() > self.props.max_threads_per_block as u64 || block.count() == 0 {
            return Err(VgpuError::InvalidValue(format!(
                "block of {} threads invalid (max {})",
                block.count(),
                self.props.max_threads_per_block
            )));
        }
        if grid.count() == 0 {
            return Err(VgpuError::InvalidValue("empty grid".into()));
        }
        let cfg = LaunchConfig {
            grid,
            block,
            shared_mem,
            stream,
        };
        let p = Params::new(params)?;
        if p.len() != builtin.param_count {
            return Err(VgpuError::InvalidValue(format!(
                "kernel `{}` expects {} params, got {}",
                builtin.name,
                builtin.param_count,
                p.len()
            )));
        }

        let access = (builtin.analyze)(&cfg, p)?;
        let duration = kernel_duration_ns(&self.props, &access.workload);

        // Memoization: identical launch on identical inputs whose outputs
        // still hold the previous result → pure time accounting. The key is
        // refilled from scratch, so an error part-way leaves nothing stale.
        // Every range is checked against its allocation here, before
        // `execute` sizes or touches anything from the launch's geometry.
        let key = &mut self.memo_key;
        key.func = func;
        key.params.clear();
        key.params.extend_from_slice(params);
        key.input_versions.clear();
        for &(ptr, len) in access.reads.iter() {
            key.input_versions.push(self.mem.range_version(ptr, len)?);
        }
        for &(ptr, len) in access.writes.iter() {
            self.mem.range_version(ptr, len)?;
        }
        let cache_ok = self.memo.get(&self.memo_key).is_some_and(|entry| {
            entry
                .out_versions
                .iter()
                .all(|&(ptr, v)| self.mem.version_of(ptr) == Ok(v))
        });

        self.stats.launches += 1;
        if cache_ok {
            self.stats.memo_hits += 1;
        } else {
            (builtin.execute)(&mut self.mem, &cfg, p)?;
            let out_versions = access
                .writes
                .iter()
                .map(|&(ptr, _)| Ok((ptr, self.mem.version_of(ptr)?)))
                .collect::<VgpuResult<Vec<_>>>()?;
            let launch = self.stats.launches;
            if self.memo.len() >= 2 * MEMO_CAP {
                self.memo.retain(|_, e| e.launch + MEMO_CAP as u64 > launch);
            }
            self.memo.insert(
                self.memo_key.clone(),
                MemoEntry {
                    out_versions,
                    launch,
                },
            );
        }

        self.enqueue_on(
            stream,
            CommandKind::Kernel { func },
            duration,
            KERNEL_SUBMIT_NS,
        )
    }

    /// Remaining wait for a stream, without consuming it.
    fn stream_wait(&self, stream: u64) -> u64 {
        self.streams
            .get(&stream)
            .map(|q| q.wait_ns(self.clock.now_ns()))
            .unwrap_or(0)
    }

    /// Remaining wait until every stream drains.
    fn wait_all_ns(&self) -> u64 {
        let now = self.clock.now_ns();
        self.streams
            .values()
            .map(|q| q.wait_ns(now))
            .max()
            .unwrap_or(0)
    }

    // -- session-state export / restore support ---------------------------
    //
    // The Cricket server serializes a session's state per resource (see
    // `cricket_server::migrate`) — at rest that is a checkpoint, in flight
    // a live migration. Either way handles are restored at their original
    // values so clients holding them keep working, and streams and events
    // at their exact completion frontiers and record timestamps so the
    // virtual timeline continues byte-identically.

    /// Enumerate function handles as (handle, module handle, kernel name).
    pub fn snapshot_functions(&self) -> Vec<(u64, u64, String)> {
        let mut out: Vec<(u64, u64, String)> = self
            .functions
            .iter()
            .map(|(&h, f)| (h, f.module, f.builtin.name.to_string()))
            .collect();
        out.sort_by_key(|&(h, _, _)| h);
        out
    }

    /// Next handle value (to restore the counter).
    pub fn next_handle_value(&self) -> u64 {
        self.next_handle
    }

    /// Restore-only: place a module at an exact handle.
    pub fn restore_module(&mut self, handle: u64, image: &[u8]) -> VgpuResult<()> {
        let cubin = Cubin::parse(image)?;
        self.modules.insert(handle, cubin);
        Ok(())
    }

    /// Restore-only: place a function handle. Placing it again under the
    /// same module is idempotent; a handle that names anything else is live
    /// state of somebody's and is refused.
    pub fn restore_function(&mut self, handle: u64, module: u64, name: &str) -> VgpuResult<()> {
        if !self.modules.contains_key(&module) {
            return Err(VgpuError::InvalidHandle(module));
        }
        let replaced = self
            .functions
            .get(&handle)
            .is_some_and(|f| f.module == module);
        if !replaced && self.holds(handle) {
            return Err(VgpuError::InvalidValue(format!(
                "handle {handle:#x} is live on this device"
            )));
        }
        let builtin = kernels::lookup(name)
            .ok_or_else(|| VgpuError::BadModule(format!("unknown kernel `{name}`")))?;
        self.functions
            .insert(handle, FunctionEntry { module, builtin });
        Ok(())
    }

    /// Restore-only: raise the handle counter to at least `next`, so no
    /// handle issued from here on takes a restored value.
    pub fn restore_next_handle(&mut self, next: u64) {
        self.next_handle = self.next_handle.max(next);
    }

    /// Enumerate every stream's completion frontier, *including* the default
    /// stream 0.
    pub fn snapshot_stream_frontiers(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .streams
            .iter()
            .map(|(&h, q)| (h, q.frontier_ns()))
            .collect();
        v.sort_unstable();
        v
    }

    /// Restore-only: place a stream at an exact completion frontier. The
    /// stream is (re)created idle; see `CommandQueue::restore_frontier`.
    pub fn restore_stream_at(&mut self, handle: u64, frontier_ns: u64) {
        let q = self.streams.entry(handle).or_default();
        if !q.restore_frontier(frontier_ns) {
            // A non-idle queue here means restore ran on a live device; fence
            // it first so the frontier restore is well-defined.
            q.retire_until(u64::MAX, handle, &mut self.retired);
            let q = self.streams.get_mut(&handle).expect("just inserted");
            let _ = q.restore_frontier(frontier_ns);
        }
    }

    /// Enumerate event record timestamps as (handle, recorded_at_ns).
    pub fn snapshot_event_states(&self) -> Vec<(u64, Option<u64>)> {
        let mut v: Vec<(u64, Option<u64>)> = self
            .events
            .iter()
            .map(|(&h, e)| (h, e.recorded_at_ns))
            .collect();
        v.sort_unstable();
        v
    }

    /// Restore-only: place an event with an exact recorded timestamp.
    pub fn restore_event_at(&mut self, handle: u64, recorded_at_ns: Option<u64>) {
        self.events.insert(handle, EventState { recorded_at_ns });
    }

    /// Snapshot barrier: force-retire all pending commands on every stream.
    ///
    /// Execution in this engine is eager (memory effects land at enqueue;
    /// queues only model device *time*), so fencing cannot change memory —
    /// it guarantees the final migration delta is taken with zero commands
    /// in flight. Returns the post-fence device completion frontier.
    pub fn fence_all_streams(&mut self) -> u64 {
        for (&h, q) in self.streams.iter_mut() {
            q.retire_until(u64::MAX, h, &mut self.retired);
        }
        self.streams
            .values()
            .map(|q| q.frontier_ns())
            .max()
            .unwrap_or(0)
    }

    // -- streams & events -------------------------------------------------

    /// cudaStreamCreate.
    pub fn stream_create(&mut self) -> VgpuResult<(u64, u64)> {
        let h = self.new_handle()?;
        self.streams.insert(h, CommandQueue::default());
        Ok((h, 900))
    }

    /// cudaStreamDestroy (waits for pending work, like CUDA). Pending
    /// commands are deemed complete once the wait elapses, so they are
    /// force-retired into the log rather than lost.
    pub fn stream_destroy(&mut self, stream: u64) -> VgpuResult<u64> {
        if stream == 0 {
            return Err(VgpuError::InvalidValue(
                "cannot destroy default stream".into(),
            ));
        }
        self.observe();
        let wait = self.stream_wait(stream);
        let mut q = self
            .streams
            .remove(&stream)
            .ok_or(VgpuError::InvalidHandle(stream))?;
        q.retire_until(u64::MAX, stream, &mut self.retired);
        Ok(500 + wait)
    }

    /// cudaStreamSynchronize: returns the wait time the host must spend.
    pub fn stream_synchronize(&mut self, stream: u64) -> VgpuResult<u64> {
        self.observe();
        if !self.streams.contains_key(&stream) {
            return Err(VgpuError::InvalidHandle(stream));
        }
        Ok(self.stream_wait(stream))
    }

    /// cudaDeviceSynchronize: wait for all streams.
    pub fn device_synchronize(&mut self) -> u64 {
        self.observe();
        self.wait_all_ns()
    }

    /// cudaDeviceReset: drop all state.
    pub fn device_reset(&mut self) -> u64 {
        let wait = self.device_synchronize();
        // Pending work is deemed complete after the wait; keep the log
        // coherent before dropping the queues.
        for (&h, q) in self.streams.iter_mut() {
            q.retire_until(u64::MAX, h, &mut self.retired);
        }
        let total = self.props.total_global_mem;
        self.mem = MemoryManager::new(total);
        self.modules.clear();
        self.functions.clear();
        self.streams.clear();
        self.streams.insert(0, CommandQueue::default());
        self.events.clear();
        self.memo.clear();
        wait + 50_000
    }

    /// cudaEventCreate.
    pub fn event_create(&mut self) -> VgpuResult<(u64, u64)> {
        let h = self.new_handle()?;
        self.events.insert(h, EventState::default());
        Ok((h, 400))
    }

    /// cudaEventDestroy.
    pub fn event_destroy(&mut self, event: u64) -> VgpuResult<u64> {
        self.events
            .remove(&event)
            .ok_or(VgpuError::InvalidHandle(event))?;
        Ok(300)
    }

    /// cudaEventRecord: capture the stream's completion frontier. The event
    /// "completes" when the stream drains past everything enqueued before
    /// the record — enqueue semantics, no host wait.
    pub fn event_record(&mut self, event: u64, stream: u64) -> VgpuResult<u64> {
        let frontier = self
            .streams
            .get(&stream)
            .ok_or(VgpuError::InvalidHandle(stream))?
            .frontier_ns()
            .max(self.clock.now_ns());
        let e = self
            .events
            .get_mut(&event)
            .ok_or(VgpuError::InvalidHandle(event))?;
        e.record(frontier);
        Ok(400)
    }

    /// cudaEventSynchronize: wait until the event's timestamp.
    pub fn event_synchronize(&mut self, event: u64) -> VgpuResult<u64> {
        let e = self
            .events
            .get(&event)
            .ok_or(VgpuError::InvalidHandle(event))?;
        Ok(e.recorded_at_ns
            .map(|t| t.saturating_sub(self.clock.now_ns()))
            .unwrap_or(0))
    }

    /// cudaEventElapsedTime in milliseconds.
    pub fn event_elapsed_ms(&self, start: u64, stop: u64) -> VgpuResult<f32> {
        let a = self
            .events
            .get(&start)
            .ok_or(VgpuError::InvalidHandle(start))?;
        let b = self
            .events
            .get(&stop)
            .ok_or(VgpuError::InvalidHandle(stop))?;
        EventState::elapsed_ms(a, b)
            .ok_or_else(|| VgpuError::InvalidValue("event not recorded".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::ParamBuilder;
    use crate::memory::{bytes_to_f32, f32_to_bytes};
    use crate::module::CubinBuilder;

    impl Device {
        /// Commands enqueued but not yet retired across all streams.
        fn pending_ops(&self) -> usize {
            self.streams.values().map(|q| q.pending_len()).sum()
        }
    }

    fn loaded_device() -> (Device, u64) {
        let mut d = Device::a100();
        let image = CubinBuilder::new()
            .kernel("vectorAdd", &[8, 8, 8, 4])
            .kernel("matrixMulCUDA", &[8, 8, 8, 4, 4])
            .kernel("empty", &[])
            .code(b"sass")
            .build(true);
        let (module, _) = d.module_load(&image).unwrap();
        (d, module)
    }

    #[test]
    fn module_load_and_function_lookup() {
        let (mut d, module) = loaded_device();
        let (f, _) = d.module_get_function(module, "vectorAdd").unwrap();
        assert!(f >= HANDLE_BASE);
        assert!(d.module_get_function(module, "missing").is_err());
        assert!(d.module_get_function(999, "vectorAdd").is_err());
    }

    #[test]
    fn module_with_unknown_kernel_rejected() {
        let mut d = Device::a100();
        let image = CubinBuilder::new()
            .kernel("notARealKernel", &[8])
            .build(false);
        assert!(matches!(
            d.module_load(&image),
            Err(VgpuError::BadModule(_))
        ));
    }

    #[test]
    fn module_with_wrong_param_count_rejected() {
        let mut d = Device::a100();
        let image = CubinBuilder::new()
            .kernel("vectorAdd", &[8, 8])
            .build(false);
        assert!(d.module_load(&image).is_err());
    }

    #[test]
    fn unload_invalidates_functions() {
        let (mut d, module) = loaded_device();
        let (f, _) = d.module_get_function(module, "empty").unwrap();
        d.module_unload(module).unwrap();
        let err = d
            .launch_kernel(f, Dim3::one(), Dim3::one(), 0, 0, &[])
            .unwrap_err();
        assert!(matches!(err, VgpuError::InvalidHandle(_)));
    }

    #[test]
    fn end_to_end_vector_add() {
        let (mut d, module) = loaded_device();
        let (f, _) = d.module_get_function(module, "vectorAdd").unwrap();
        let n = 256u64;
        let (a, _) = d.malloc(n * 4).unwrap();
        let (b, _) = d.malloc(n * 4).unwrap();
        let (c, _) = d.malloc(n * 4).unwrap();
        d.memcpy_htod(a, &f32_to_bytes(&vec![1.0; n as usize]))
            .unwrap();
        d.memcpy_htod(b, &f32_to_bytes(&vec![2.5; n as usize]))
            .unwrap();
        let params = ParamBuilder::new()
            .ptr(c)
            .ptr(a)
            .ptr(b)
            .u32(n as u32)
            .build();
        d.launch_kernel(f, Dim3::linear(1), Dim3::linear(256), 0, 0, &params)
            .unwrap();
        let wait = d.stream_synchronize(0).unwrap();
        d.clock().advance(wait);
        let (out, _) = d.memcpy_dtoh(c, n * 4).unwrap();
        assert!(bytes_to_f32(&out).iter().all(|&v| v == 3.5));
    }

    #[test]
    fn launch_validates_geometry_and_params() {
        let (mut d, module) = loaded_device();
        let (f, _) = d.module_get_function(module, "empty").unwrap();
        // Too many threads per block.
        assert!(d
            .launch_kernel(
                f,
                Dim3::one(),
                Dim3 {
                    x: 2048,
                    y: 1,
                    z: 1
                },
                0,
                0,
                &[]
            )
            .is_err());
        // Zero grid.
        assert!(d
            .launch_kernel(f, Dim3 { x: 0, y: 1, z: 1 }, Dim3::one(), 0, 0, &[])
            .is_err());
        // Wrong param count.
        assert!(d
            .launch_kernel(f, Dim3::one(), Dim3::one(), 0, 0, &[0u8; 8])
            .is_err());
        // Bad stream handle.
        assert!(d
            .launch_kernel(f, Dim3::one(), Dim3::one(), 0, 777, &[])
            .is_err());
    }

    #[test]
    fn memoization_kicks_in_for_repeated_launches() {
        let (mut d, module) = loaded_device();
        let (f, _) = d.module_get_function(module, "vectorAdd").unwrap();
        let n = 64u64;
        let (a, _) = d.malloc(n * 4).unwrap();
        let (b, _) = d.malloc(n * 4).unwrap();
        let (c, _) = d.malloc(n * 4).unwrap();
        d.memcpy_htod(a, &f32_to_bytes(&vec![1.0; n as usize]))
            .unwrap();
        d.memcpy_htod(b, &f32_to_bytes(&vec![2.0; n as usize]))
            .unwrap();
        let params = ParamBuilder::new()
            .ptr(c)
            .ptr(a)
            .ptr(b)
            .u32(n as u32)
            .build();
        for _ in 0..10 {
            d.launch_kernel(f, Dim3::linear(1), Dim3::linear(64), 0, 0, &params)
                .unwrap();
        }
        assert_eq!(d.stats.launches, 10);
        assert_eq!(d.stats.memo_hits, 9);
        // Rewriting an input invalidates the cache.
        d.memcpy_htod(a, &f32_to_bytes(&vec![5.0; n as usize]))
            .unwrap();
        d.launch_kernel(f, Dim3::linear(1), Dim3::linear(64), 0, 0, &params)
            .unwrap();
        assert_eq!(d.stats.memo_hits, 9);
        let wait = d.device_synchronize();
        d.clock().advance(wait);
        let (out, _) = d.memcpy_dtoh(c, n * 4).unwrap();
        assert!(bytes_to_f32(&out).iter().all(|&v| v == 7.0));
    }

    /// An in-place kernel reads what it wrote last time, so every launch is
    /// a new memo key: the cache must stay bounded, and entries that survive
    /// a cut-back must still hit.
    #[test]
    fn memo_cache_is_bounded_and_survivors_still_hit() {
        let mut d = Device::a100();
        let image = CubinBuilder::new()
            .kernel("vectorAdd", &[8, 8, 8, 4])
            .kernel("saxpy", &[8, 8, 4, 4])
            .code(b"sass")
            .build(false);
        let (module, _) = d.module_load(&image).unwrap();
        let (add, _) = d.module_get_function(module, "vectorAdd").unwrap();
        let (saxpy, _) = d.module_get_function(module, "saxpy").unwrap();
        let ptrs: Vec<u64> = (0..4).map(|_| d.malloc(16).unwrap().0).collect();
        let (x, y, a, c) = (ptrs[0], ptrs[1], ptrs[2], ptrs[3]);
        let in_place = ParamBuilder::new().ptr(y).ptr(x).f32(1.0).u32(4).build();
        let pure = ParamBuilder::new().ptr(c).ptr(a).ptr(x).u32(4).build();
        let launch = |d: &mut Device, f: u64, params: &[u8]| {
            d.launch_kernel(f, Dim3::linear(1), Dim3::linear(4), 0, 0, params)
                .unwrap();
        };
        for _ in 0..2 * MEMO_CAP + 100 {
            launch(&mut d, saxpy, &in_place);
            assert!(d.memo.len() <= 2 * MEMO_CAP);
        }
        assert_eq!(d.memo.len(), MEMO_CAP + 99, "cut back once, to the cap");
        assert_eq!(d.stats.memo_hits, 0);
        launch(&mut d, add, &pure);
        launch(&mut d, add, &pure);
        assert_eq!(d.stats.memo_hits, 1);
        // The next cut-back keeps what the newest MEMO_CAP launches recorded.
        for _ in 0..MEMO_CAP - 99 {
            launch(&mut d, saxpy, &in_place);
        }
        assert!(d.memo.len() <= MEMO_CAP, "cut back a second time");
        launch(&mut d, add, &pure);
        assert_eq!(d.stats.memo_hits, 2);
    }

    /// A launch's geometry comes off the wire. Geometry that would size a
    /// buffer past the caller's allocations, or past 64 bits, is a typed
    /// error (not an allocation abort or an overflow panic), and the
    /// device launches and memoizes normally afterwards.
    #[test]
    fn hostile_launch_geometry_is_refused() {
        let mut d = Device::a100();
        let image = CubinBuilder::new()
            .kernel("histogram64Kernel", &[8, 8, 4])
            .kernel("matrixMulCUDA", &[8, 8, 8, 4, 4])
            .kernel("vectorAdd", &[8, 8, 8, 4])
            .build(false);
        let (module, _) = d.module_load(&image).unwrap();
        let func = |d: &mut Device, name| d.module_get_function(module, name).unwrap().0;
        let (hist, mm, add) = (
            func(&mut d, "histogram64Kernel"),
            func(&mut d, "matrixMulCUDA"),
            func(&mut d, "vectorAdd"),
        );
        let (p, _) = d.malloc(1024).unwrap();
        let (q, _) = d.malloc(1024).unwrap();
        let huge = Dim3 {
            x: u32::MAX,
            y: u32::MAX,
            z: u32::MAX,
        };
        let params = ParamBuilder::new().ptr(p).ptr(q).u32(1024).build();
        let err = d
            .launch_kernel(hist, huge, Dim3::linear(64), 0, 0, &params)
            .unwrap_err();
        assert!(matches!(err, VgpuError::InvalidValue(_)), "{err:?}");
        // No overflow, but 2^20 partial histograms do not fit 1 KiB.
        let err = d
            .launch_kernel(hist, Dim3::linear(1 << 20), Dim3::linear(64), 0, 0, &params)
            .unwrap_err();
        assert!(matches!(err, VgpuError::OutOfBounds { .. }), "{err:?}");
        // hA * wA * 4 = 2^64.
        let params = ParamBuilder::new()
            .ptr(p)
            .ptr(q)
            .ptr(p)
            .u32(1 << 31)
            .u32(1 << 31)
            .build();
        let grid = Dim3 {
            x: 1,
            y: 1 << 31,
            z: 1,
        };
        let err = d
            .launch_kernel(mm, grid, Dim3::one(), 0, 0, &params)
            .unwrap_err();
        assert!(matches!(err, VgpuError::InvalidValue(_)), "{err:?}");
        assert_eq!(d.stats.launches, 0, "a refused launch is not a launch");

        let params = ParamBuilder::new().ptr(p).ptr(q).ptr(q).u32(256).build();
        for _ in 0..2 {
            d.launch_kernel(add, Dim3::one(), Dim3::linear(256), 0, 0, &params)
                .unwrap();
        }
        assert_eq!((d.stats.launches, d.stats.memo_hits), (2, 1));
    }

    #[test]
    fn memo_still_charges_device_time() {
        let (mut d, module) = loaded_device();
        let (f, _) = d.module_get_function(module, "empty").unwrap();
        for _ in 0..5 {
            d.launch_kernel(f, Dim3::one(), Dim3::one(), 0, 0, &[])
                .unwrap();
        }
        let per_launch = d.properties().launch_overhead_ns;
        assert_eq!(d.stats.device_time_ns, 5 * per_launch);
    }

    #[test]
    fn streams_and_events_measure_device_time() {
        let (mut d, module) = loaded_device();
        let (f, _) = d.module_get_function(module, "empty").unwrap();
        let (s, _) = d.stream_create().unwrap();
        let (e0, _) = d.event_create().unwrap();
        let (e1, _) = d.event_create().unwrap();
        d.event_record(e0, s).unwrap();
        for _ in 0..3 {
            d.launch_kernel(f, Dim3::one(), Dim3::one(), 0, s, &[])
                .unwrap();
        }
        d.event_record(e1, s).unwrap();
        let ms = d.event_elapsed_ms(e0, e1).unwrap();
        let expected = 3.0 * d.properties().launch_overhead_ns as f32 / 1e6;
        assert!((ms - expected).abs() < 1e-6, "ms={ms} expected={expected}");
        let wait = d.stream_synchronize(s).unwrap();
        assert!(wait > 0);
        d.clock().advance(wait);
        assert_eq!(d.stream_synchronize(s).unwrap(), 0);
        d.event_destroy(e0).unwrap();
        d.event_destroy(e1).unwrap();
        d.stream_destroy(s).unwrap();
        assert!(d.stream_destroy(s).is_err());
    }

    #[test]
    fn default_stream_cannot_be_destroyed() {
        let mut d = Device::a100();
        assert!(d.stream_destroy(0).is_err());
    }

    #[test]
    fn elapsed_on_unrecorded_event_is_error() {
        let mut d = Device::a100();
        let (e0, _) = d.event_create().unwrap();
        let (e1, _) = d.event_create().unwrap();
        assert!(d.event_elapsed_ms(e0, e1).is_err());
    }

    #[test]
    fn device_reset_clears_everything() {
        let (mut d, module) = loaded_device();
        let (p, _) = d.malloc(1024).unwrap();
        d.device_reset();
        assert!(d.mem.read(p, 1).is_err());
        assert!(d.module_get_function(module, "empty").is_err());
        assert_eq!(d.mem_info().0, d.mem_info().1);
    }

    #[test]
    fn mem_info_reflects_allocations() {
        let mut d = Device::a100();
        let (free0, total) = d.mem_info();
        assert_eq!(free0, total);
        let (_p, _) = d.malloc(1 << 20).unwrap();
        let (free1, _) = d.mem_info();
        assert_eq!(free0 - free1, 1 << 20);
    }

    // -- async engine ----------------------------------------------------

    #[test]
    fn cross_stream_overlap_is_max_not_sum() {
        let (mut d, module) = loaded_device();
        let (f, _) = d.module_get_function(module, "empty").unwrap();
        let (s1, _) = d.stream_create().unwrap();
        let (s2, _) = d.stream_create().unwrap();
        let t0 = d.clock().now_ns();
        let a = d
            .launch_kernel(f, Dim3::one(), Dim3::one(), 0, s1, &[])
            .unwrap();
        let b = d
            .launch_kernel(f, Dim3::one(), Dim3::one(), 0, s2, &[])
            .unwrap();
        let per = d.properties().launch_overhead_ns;
        // Both timelines start at t0: the device finishes both after one
        // kernel duration, not two.
        assert_eq!(a.completes_at_ns, t0 + per);
        assert_eq!(b.completes_at_ns, t0 + per);
        let wait = d.device_synchronize();
        assert_eq!(wait, per, "overlap: max of timelines, not sum");
        d.clock().advance(wait);
        assert_eq!(d.device_synchronize(), 0);
    }

    #[test]
    fn same_stream_commands_retire_in_issue_order() {
        let (mut d, module) = loaded_device();
        let (f, _) = d.module_get_function(module, "empty").unwrap();
        let (s, _) = d.stream_create().unwrap();
        let mut seqs = Vec::new();
        for _ in 0..4 {
            let sub = d
                .launch_kernel(f, Dim3::one(), Dim3::one(), 0, s, &[])
                .unwrap();
            seqs.push(sub.seq);
        }
        let wait = d.stream_synchronize(s).unwrap();
        d.clock().advance(wait);
        let retired: Vec<_> = d
            .take_retired()
            .into_iter()
            .filter(|r| r.stream == s)
            .map(|r| r.seq)
            .collect();
        assert_eq!(retired, seqs, "retire order == issue order");
    }

    #[test]
    fn retired_log_is_bounded_and_keeps_the_newest_entries() {
        let (mut d, module) = loaded_device();
        let (f, _) = d.module_get_function(module, "empty").unwrap();
        let mut last = 0;
        for _ in 0..3 * RETIRED_LOG_CAP {
            last = d
                .launch_kernel(f, Dim3::one(), Dim3::one(), 0, 0, &[])
                .unwrap()
                .seq;
            let wait = d.device_synchronize();
            d.clock().advance(wait);
            assert!(d.retired.len() < 2 * RETIRED_LOG_CAP);
        }
        let log = d.take_retired();
        assert!(log.len() >= RETIRED_LOG_CAP);
        let seqs: Vec<u64> = log.iter().map(|r| r.seq).collect();
        let newest: Vec<u64> = (last + 1 - log.len() as u64..=last).collect();
        assert_eq!(seqs, newest, "a contiguous run ending at the last retired");
    }

    #[test]
    fn partial_retirement_respects_clock() {
        let (mut d, module) = loaded_device();
        let (f, _) = d.module_get_function(module, "empty").unwrap();
        let per = d.properties().launch_overhead_ns;
        for _ in 0..3 {
            d.launch_kernel(f, Dim3::one(), Dim3::one(), 0, 0, &[])
                .unwrap();
        }
        assert_eq!(d.pending_ops(), 3);
        d.clock().advance(per + per / 2); // 1.5 kernels in
        d.observe();
        assert_eq!(d.pending_ops(), 2, "only the first kernel has completed");
        d.clock().advance(2 * per);
        d.observe();
        assert_eq!(d.pending_ops(), 0);
    }

    #[test]
    fn busy_span_counts_overlap_once() {
        let (mut d, module) = loaded_device();
        let (f, _) = d.module_get_function(module, "empty").unwrap();
        let (s1, _) = d.stream_create().unwrap();
        let (s2, _) = d.stream_create().unwrap();
        let per = d.properties().launch_overhead_ns;
        d.launch_kernel(f, Dim3::one(), Dim3::one(), 0, s1, &[])
            .unwrap();
        d.launch_kernel(f, Dim3::one(), Dim3::one(), 0, s2, &[])
            .unwrap();
        let span = d.busy_span_ns();
        assert_eq!(span, per, "two overlapped kernels occupy one duration");
        assert_eq!(d.stats.device_time_ns, 2 * per, "but both are charged");
    }

    #[test]
    fn sync_htod_waits_for_prior_stream_work() {
        let (mut d, module) = loaded_device();
        let (f, _) = d.module_get_function(module, "empty").unwrap();
        let (p, _) = d.malloc(64).unwrap();
        let per = d.properties().launch_overhead_ns;
        d.launch_kernel(f, Dim3::one(), Dim3::one(), 0, 0, &[])
            .unwrap();
        let wait = d.memcpy_htod(p, &[0u8; 64]).unwrap();
        assert!(wait >= per, "sync copy is ordered behind the kernel");
    }

    #[test]
    fn enqueue_library_rides_the_stream_timeline() {
        let mut d = Device::a100();
        let (s, _) = d.stream_create().unwrap();
        let sub = d.enqueue_library(s, "gemm", 10_000).unwrap();
        assert_eq!(sub.queued_ns, 10_000);
        let sub2 = d.enqueue_library(s, "gemm", 5_000).unwrap();
        assert_eq!(sub2.completes_at_ns, sub.completes_at_ns + 5_000);
        assert!(d.enqueue_library(777, "gemm", 1).is_err());
        assert_eq!(d.stream_synchronize(s).unwrap(), 15_000);
    }

    #[test]
    fn fence_then_frontier_restore_continues_the_timeline() {
        // Source device: enqueue work on two streams, fence, snapshot
        // frontiers + event timestamps.
        let mut src = Device::a100();
        let (s, _) = src.stream_create().unwrap();
        let (ev, _) = src.event_create().unwrap();
        src.enqueue_library(s, "gemm", 10_000).unwrap();
        src.enqueue_library(0, "gemm", 4_000).unwrap();
        src.event_record(ev, s).unwrap();
        assert!(src.pending_ops() > 0);
        let device_frontier = src.fence_all_streams();
        assert_eq!(src.pending_ops(), 0);
        assert_eq!(device_frontier, 10_000);
        let frontiers = src.snapshot_stream_frontiers();
        assert!(frontiers.contains(&(0, 4_000)));
        assert!(frontiers.contains(&(s, 10_000)));
        let events = src.snapshot_event_states();
        assert_eq!(events, vec![(ev, Some(10_000))]);

        // Destination device built from the snapshot: the next enqueue on
        // each stream lands at the same absolute virtual time the source
        // would have produced.
        let mut dst = Device::a100();
        for &(h, f) in &frontiers {
            dst.restore_stream_at(h, f);
        }
        for &(h, rec) in &events {
            dst.restore_event_at(h, rec);
        }
        let sub = dst.enqueue_library(s, "gemm", 1_000).unwrap();
        assert_eq!(sub.completes_at_ns, 11_000);
        let sub0 = dst.enqueue_library(0, "gemm", 1_000).unwrap();
        assert_eq!(sub0.completes_at_ns, 5_000);
        // Event timestamp survives for elapsed-time queries.
        assert_eq!(dst.snapshot_event_states(), vec![(ev, Some(10_000))]);
    }
}
