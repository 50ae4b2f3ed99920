//! What every workload shares: op classes, correctness accounting, the
//! measurement window, the observers that time (or trace) each op, and the
//! loop that turns a workload into trials.

use crate::meter::{Exchanges, Meter, VirtClock};
use crate::stats::{self, Summary};
use crate::sys::Reference;
use cricket_client::ClientResult;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The kinds of CUDA call the per-layer metrics break down by, named as in
/// the metric names. `Other` (synchronize, module and stream management,
/// library calls) is timed and counted but has no breakdown of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Count,
    Malloc,
    Free,
    Launch,
    H2d,
    D2h,
    Other,
}

impl Class {
    pub const REPORTED: [Class; 6] = [
        Class::Count,
        Class::Malloc,
        Class::Free,
        Class::Launch,
        Class::H2d,
        Class::D2h,
    ];
    pub const ALL: usize = 7;

    pub fn name(self) -> &'static str {
        match self {
            Class::Count => "count",
            Class::Malloc => "malloc",
            Class::Free => "free",
            Class::Launch => "launch",
            Class::H2d => "h2d",
            Class::D2h => "d2h",
            Class::Other => "other",
        }
    }

    /// Class of a recorded request, read off its bytes as written (record
    /// mark, then the RFC 5531 call header, whose sixth word is the
    /// procedure). The numbers are the wire protocol's (`cricket.x`), the
    /// one thing a refactor cannot move.
    pub fn of_request(wire: &[u8]) -> (Class, u32) {
        let Some(word) = wire.get(24..28) else {
            return (Class::Other, u32::MAX);
        };
        let proc = u32::from_be_bytes(word.try_into().expect("4-byte slice"));
        let class = match proc {
            1 => Class::Count,
            7 => Class::Malloc,
            8 => Class::Free,
            23 => Class::Launch,
            9 | 81 | 83 => Class::H2d,
            10 | 82 => Class::D2h,
            _ => Class::Other,
        };
        (class, proc)
    }
}

/// Procedures that execute device work (kernel launch, cuBLAS GEMMs,
/// cuSolver factorise/solve), by wire number.
pub fn is_kernel_proc(proc: u32) -> bool {
    matches!(proc, 23 | 42 | 43 | 53 | 54)
}

/// Kinds of correctness check; every one that fails marks an op as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// `cudaGetDeviceCount` answered 4 (the paper's GPU node).
    DeviceCount,
    /// `cudaMalloc` returned a non-null pointer distinct from every live one.
    Pointer,
    /// Bytes read back from the device equal the bytes written to it.
    Bytes,
    /// A proxy application validated its own result against the host.
    AppValid,
}

impl Check {
    pub const NAMES: [&'static str; 4] = ["device_count", "pointer", "bytes", "app_valid"];
}

/// Ops attempted, ops failed (error returned or wrong result), and how
/// many checks of each kind ran.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub performed: [u64; 4],
    pub first_failure: Option<String>,
}

impl Checks {
    /// Count one attempted op; an `Err` is a failed op.
    pub fn op<T>(&mut self, what: &str, r: ClientResult<T>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(|| format!("{what}: {e}"));
                None
            }
        }
    }

    /// Count one op issued by someone else (a proxy app) that failed.
    pub fn failed_op(&mut self, what: String) {
        self.attempted += 1;
        self.fail(|| what);
    }

    /// Count ops issued by someone else (a proxy app) that all succeeded.
    pub fn ops_ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Record a result check; a wrong result is a failed op.
    pub fn verify(&mut self, kind: Check, ok: bool, what: impl FnOnce() -> String) {
        self.performed[kind as usize] += 1;
        if !ok {
            self.fail(what);
        }
    }

    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }
}

/// Accumulates what the timed phase costs. Open only around timed ops:
/// verification, payload generation and tracing bookkeeping stay outside.
pub struct Window {
    meter: Arc<Meter>,
    virt: Option<VirtClock>,
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub virt_ns: u64,
    pub wire_bytes: u64,
    pub allocs: u64,
    start: (Instant, u64, u64, u64, u64),
}

impl Window {
    pub fn new(meter: &Arc<Meter>, virt: Option<&VirtClock>) -> Self {
        Self {
            meter: Arc::clone(meter),
            virt: virt.cloned(),
            wall_ns: 0,
            cpu_ns: 0,
            virt_ns: 0,
            wire_bytes: 0,
            allocs: 0,
            start: (Instant::now(), 0, 0, 0, 0),
        }
    }

    fn virt_now(&self) -> u64 {
        self.virt.as_ref().map_or(0, |f| f())
    }

    pub fn resume(&mut self) {
        self.start = (
            Instant::now(),
            crate::sys::process_cpu_ns(),
            self.virt_now(),
            self.meter.wire_bytes(),
            crate::alloc::allocations(),
        );
        crate::alloc::open();
        // Re-read the clock last so the window's own start-up is outside.
        self.start.0 = Instant::now();
    }

    pub fn pause(&mut self) {
        let wall = self.start.0.elapsed();
        crate::alloc::close();
        self.wall_ns += wall.as_nanos() as u64;
        self.cpu_ns += crate::sys::process_cpu_ns() - self.start.1;
        self.virt_ns += self.virt_now() - self.start.2;
        self.wire_bytes += self.meter.wire_bytes() - self.start.3;
        self.allocs += crate::alloc::allocations() - self.start.4;
    }
}

/// Sees every op a workload issues itself.
pub trait Observer {
    fn begin(&mut self, class: Class);
    fn end(&mut self, class: Class);
    /// A workload that hands its ops to someone else (a proxy app) marks
    /// where one part of the pass ends.
    fn boundary(&mut self) {}
}

/// Observer for warm-up and verification ops: sees nothing.
pub struct Unobserved;

impl Observer for Unobserved {
    fn begin(&mut self, _: Class) {}
    fn end(&mut self, _: Class) {}
}

/// The untraced observer: one wall-clock latency per op. One buffer serves
/// every trial of a run, so that the process's memory does not grow with
/// the number of trials that fit into the run.
pub struct Timed {
    t0: Instant,
    latencies_ns: Vec<u64>,
}

impl Timed {
    pub fn with_capacity(ops: usize) -> Self {
        Self {
            t0: Instant::now(),
            latencies_ns: Vec::with_capacity(ops),
        }
    }
}

impl Observer for Timed {
    #[inline]
    fn begin(&mut self, _class: Class) {
        self.t0 = Instant::now();
    }
    #[inline]
    fn end(&mut self, _class: Class) {
        self.latencies_ns.push(self.t0.elapsed().as_nanos() as u64);
    }
}

/// Spans of one op class in a traced pass: the outer call span and, inside
/// it, what crossed the transport boundary.
#[derive(Debug, Clone, Default)]
pub struct ClassSpans {
    pub calls: u64,
    pub call_wall_ns: u64,
    pub xchg: Exchanges,
    /// Per-call wall latencies, for percentiles.
    pub latencies_ns: Vec<u64>,
}

/// The traced observer.
pub struct Traced {
    meter: Arc<Meter>,
    t0: u64,
    pub by_class: [ClassSpans; Class::ALL],
    /// One recorded reply per class, to can for the client-half replay.
    pub replies: [Option<Vec<u8>>; Class::ALL],
    /// Keep the bytes of the requests made while this observer watches.
    capture: bool,
    /// Requests recorded when each `boundary` was marked.
    pub boundaries: Vec<usize>,
}

impl Traced {
    pub fn new(meter: &Arc<Meter>, capture: bool) -> Self {
        // Exchanges made by set-up belong to no op.
        meter.take_exchanges();
        Self {
            meter: Arc::clone(meter),
            t0: 0,
            by_class: Default::default(),
            replies: Default::default(),
            capture,
            boundaries: Vec::new(),
        }
    }
}

impl Observer for Traced {
    fn begin(&mut self, _class: Class) {
        self.meter.set_capturing(self.capture);
        // What unobserved ops (a pass's own verification) left behind must
        // not be charged to this one.
        self.meter.take_exchanges();
        self.t0 = crate::sys::now_ns();
    }

    fn end(&mut self, class: Class) {
        let wall = crate::sys::now_ns() - self.t0;
        let x = self.meter.take_exchanges();
        let spans = &mut self.by_class[class as usize];
        spans.calls += 1;
        spans.call_wall_ns += wall;
        spans.xchg.count += x.count;
        spans.xchg.wall_ns += x.wall_ns;
        spans.xchg.virt_ns += x.virt_ns;
        spans.latencies_ns.push(wall);
        if self.capture && self.replies[class as usize].is_none() && x.count == 1 {
            self.replies[class as usize] = Some(self.meter.last_reply());
        }
    }

    fn boundary(&mut self) {
        self.boundaries.push(self.meter.request_count());
    }
}

/// How long a pass is: the driver's runs, the traced suite's short passes,
/// and `--quick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Short,
    Quick,
}

impl Size {
    /// Pick by size.
    pub fn pick<T>(self, full: T, short: T, quick: T) -> T {
        match self {
            Size::Full => full,
            Size::Short => short,
            Size::Quick => quick,
        }
    }
}

/// One benchmark workload. `set_up` builds the system under test, generates
/// the inputs from the seed and warms up; `pass` issues one fixed, seeded
/// sequence of ops (the same every time it is called); `verify` checks
/// whatever `pass` left to the end.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Real loopback TCP, or no link at all.
    const LINK: &'static str;
    /// Virtual time, wire bytes and allocations per pass must repeat exactly.
    const DETERMINISTIC: bool;
    /// What the workload's wall time mostly waits for, and so which
    /// reference work its durations are normalised by.
    const REFERENCE: Reference;

    fn set_up(seed: u64, size: Size, tracing: bool) -> Self;
    fn meter(&self) -> &Arc<Meter>;
    fn virt(&self) -> Option<&VirtClock>;
    /// Issue the pass's ops, opening `win` around the timed ones and
    /// reporting each op the workload issues itself to `obs`. Returns the
    /// number of ops issued.
    fn pass<O: Observer>(&mut self, obs: &mut O, win: &mut Window, checks: &mut Checks) -> u64;
    fn verify(&mut self, checks: &mut Checks);
    /// Ops per pass, to size latency buffers (an upper bound is fine).
    fn ops_hint(&self) -> usize;
}

/// One timed trial: one pass with the window's totals and the order
/// statistics of its ops. Scalars only: a run keeps every trial.
#[derive(Debug, Clone)]
pub struct Trial {
    pub ops: u64,
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub virt_ns: u64,
    pub wire_bytes: u64,
    pub allocs: u64,
    /// Median op latency; where the workload's ops are issued by a proxy app
    /// and cannot be timed one by one, the trial's wall time over its ops.
    pub p50_ns: f64,
    pub p99_ns: f64,
    /// The highest percentile with ten samples beyond it, and its latency
    /// (`None` where ops are not timed one by one, or are too few).
    pub tail: Option<(f64, f64)>,
    /// What normalises the trial's durations: the mean of
    /// [`Reference::scale`] taken just before and just after it.
    pub scale: f64,
}

/// One pass of `w` timed by `obs`, whose buffer is reused from trial to trial.
pub fn run_trial<W: Workload>(w: &mut W, obs: &mut Timed, checks: &mut Checks) -> Trial {
    obs.latencies_ns.clear();
    let mut win = Window::new(w.meter(), w.virt());
    let before = W::REFERENCE.scale();
    let ops = w.pass(obs, &mut win, checks);
    let after = W::REFERENCE.scale();
    let lat = &mut obs.latencies_ns;
    lat.sort_unstable();
    let mean_ns = win.wall_ns as f64 / ops.max(1) as f64;
    let at = |p| stats::percentile_sorted(lat, p) as f64;
    Trial {
        ops,
        wall_ns: win.wall_ns,
        cpu_ns: win.cpu_ns,
        virt_ns: win.virt_ns,
        wire_bytes: win.wire_bytes,
        allocs: win.allocs,
        p50_ns: if lat.is_empty() { mean_ns } else { at(50.0) },
        p99_ns: if lat.is_empty() { mean_ns } else { at(99.0) },
        tail: stats::highest_supported_percentile(lat.len()).map(|p| (p, at(p))),
        scale: (before + after) / 2.0,
    }
}

/// Everything an untraced run measured.
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub trials: Vec<Trial>,
    pub checks: Checks,
    pub peak_rss_mib: f64,
    /// Why the deterministic quantities did not repeat, if they did not.
    pub nondeterminism: Option<String>,
}

/// Set up in a process that does nothing else and return the monotonic
/// time at which the first timed op could start. `setup_s` is process start
/// to that moment, so each of its samples is a process of its own, started
/// and timed by the run (`main::cold_setups`): a set-up repeated inside one
/// process would find the allocator and the page tables already primed, and
/// work moved into start-up or first touch would not show.
pub fn ready_stamp_ns<W: Workload>(seed: u64, size: Size) -> u64 {
    let w = W::set_up(seed, size, false);
    let ready = crate::sys::now_ns();
    drop(w);
    ready
}

/// Set up, run timed trials for `seconds` — at least `min_trials` — then
/// verify. `setup_s` holds the cold set-ups already timed.
pub fn measure<W: Workload>(
    seed: u64,
    size: Size,
    seconds: f64,
    setup_s: Vec<f64>,
    min_trials: usize,
) -> Measured {
    let mut w = W::set_up(seed, size, false);
    let mut obs = Timed::with_capacity(w.ops_hint());
    let mut checks = Checks::default();
    let mut trials = Vec::new();
    let mut peak_rss_mib = 0.0;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while trials.len() < min_trials || Instant::now() < deadline {
        trials.push(run_trial(&mut w, &mut obs, &mut checks));
        // Read after a fixed amount of work, not at the end of the run: how
        // many trials fit into `seconds` depends on the program's speed, and
        // memory must not read as a function of it.
        if trials.len() == min_trials {
            peak_rss_mib = crate::sys::peak_rss_mib();
        }
    }
    w.verify(&mut checks);
    let nondeterminism = if W::DETERMINISTIC {
        repeat_exactly(&trials)
    } else {
        None
    };
    Measured {
        setup_s,
        trials,
        checks,
        peak_rss_mib,
        nondeterminism,
    }
}

/// Every trial issues the same ops against the same state, so on the
/// simulated workloads ops, virtual time and wire bytes must come out
/// identical trial after trial. Allocations nearly do: the stack's hash
/// maps are randomly seeded, so whether an insert rehashes in place or
/// grows — a handful of allocations in hundreds of thousands — differs
/// from trial to trial. They must agree to one part in ten thousand (and
/// eight, for short trials).
fn repeat_exactly(trials: &[Trial]) -> Option<String> {
    let first = trials.first()?;
    trials.iter().enumerate().skip(1).find_map(|(i, t)| {
        let pairs = [
            ("ops", first.ops, t.ops, 0),
            ("virtual ns", first.virt_ns, t.virt_ns, 0),
            ("wire bytes", first.wire_bytes, t.wire_bytes, 0),
            (
                "allocations",
                first.allocs,
                t.allocs,
                first.allocs / 10_000 + 8,
            ),
        ];
        pairs
            .iter()
            .find(|(_, a, b, slack)| a.abs_diff(*b) > *slack)
            .map(|(what, a, b, _)| format!("{what} differ: trial 0 has {a}, trial {i} has {b}"))
    })
}

impl Measured {
    pub fn summary(&self, f: impl Fn(&Trial) -> f64) -> Summary {
        let v: Vec<f64> = self.trials.iter().map(f).collect();
        stats::summarize(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cricket_client::ClientError;

    #[test]
    fn every_check_feeds_the_failure_count() {
        let mut c = Checks::default();
        assert_eq!(c.op("ok", Ok::<_, ClientError>(4)), Some(4));
        c.verify(Check::DeviceCount, true, || unreachable!());
        assert_eq!((c.attempted, c.failed), (1, 0));

        // One wrong answer of each kind.
        for kind in [
            Check::DeviceCount,
            Check::Pointer,
            Check::Bytes,
            Check::AppValid,
        ] {
            let before = c.failed;
            c.verify(kind, false, || format!("{kind:?} wrong"));
            assert_eq!(c.failed, before + 1, "{kind:?} not counted");
        }
        assert_eq!(c.performed, [2, 1, 1, 1]);
        assert_eq!(c.first_failure.as_deref(), Some("DeviceCount wrong"));

        // An op that returns an error is attempted and failed.
        let r: ClientResult<u64> = Err(ClientError::cuda("cudaMalloc", 2));
        assert_eq!(c.op("malloc", r), None);
        assert_eq!((c.attempted, c.failed), (2, 5));
    }

    #[test]
    fn request_class_is_read_off_the_wire() {
        let mut wire = vec![0u8; 28];
        wire[24..28].copy_from_slice(&7u32.to_be_bytes());
        assert_eq!(Class::of_request(&wire), (Class::Malloc, 7));
        wire[24..28].copy_from_slice(&83u32.to_be_bytes());
        assert_eq!(Class::of_request(&wire).0, Class::H2d);
        wire[24..28].copy_from_slice(&5u32.to_be_bytes());
        assert_eq!(Class::of_request(&wire), (Class::Other, 5));
        assert_eq!(Class::of_request(&wire[..20]).0, Class::Other);
        assert!(is_kernel_proc(23) && is_kernel_proc(53) && !is_kernel_proc(9));
    }

    #[test]
    fn trials_that_differ_are_reported() {
        let t = |virt_ns| Trial {
            ops: 10,
            wall_ns: 1,
            cpu_ns: 1,
            virt_ns,
            wire_bytes: 100,
            allocs: 600_000 + virt_ns,
            p50_ns: 1.0,
            p99_ns: 1.0,
            tail: None,
            scale: 1.0,
        };
        assert_eq!(repeat_exactly(&[t(5), t(5), t(5)]), None);
        let why = repeat_exactly(&[t(5), t(5), t(6)]).unwrap();
        assert!(
            why.contains("virtual ns") && why.contains("trial 2"),
            "{why}"
        );
    }
}
