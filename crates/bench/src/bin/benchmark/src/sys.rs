//! The few things the benchmark needs from the operating system: CPU
//! pinning, process CPU time, peak RSS, the descriptor limit and the
//! provenance header. Linux only; elsewhere every call degrades to
//! "unavailable" rather than failing the run.

use std::time::Instant;

#[cfg(target_os = "linux")]
mod ffi {
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }
    #[repr(C)]
    pub struct Rlimit {
        pub cur: u64,
        pub max: u64,
    }
    pub const CLOCK_MONOTONIC: i32 = 1;
    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    pub const RLIMIT_NOFILE: i32 = 7;
    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        pub fn getrlimit(resource: i32, lim: *mut Rlimit) -> i32;
        pub fn setrlimit(resource: i32, lim: *const Rlimit) -> i32;
    }
}

/// CPU mask words: room for 1024 CPUs, the kernel's usual `CONFIG_NR_CPUS`.
const MASK_WORDS: usize = 16;

/// What became of the request to pin the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pin {
    /// Every thread of the process runs on this CPU.
    Pinned(usize),
    /// The kernel refused (or this is not Linux); the run goes on unpinned
    /// and its wall-clock numbers are noisier.
    Unpinned(String),
}

impl Pin {
    pub fn describe(&self) -> String {
        match self {
            Pin::Pinned(cpu) => format!("cpu{cpu}"),
            Pin::Unpinned(why) => format!("unpinned ({why})"),
        }
    }
}

/// CPUs this process may run on.
#[cfg(target_os = "linux")]
fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed.
    let rc = unsafe { ffi::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok((0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

#[cfg(target_os = "linux")]
fn set_affinity(cpu: usize) -> Result<(), String> {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0 is
    // the calling thread, and threads spawned later inherit its mask.
    let rc = unsafe { ffi::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

#[cfg(not(target_os = "linux"))]
fn allowed_cpus() -> Result<Vec<usize>, String> {
    Err("affinity is Linux-only".into())
}

#[cfg(not(target_os = "linux"))]
fn set_affinity(_cpu: usize) -> Result<(), String> {
    Err("affinity is Linux-only".into())
}

/// Pin with injectable system calls, so the refusal path is testable.
/// The last allowed CPU is chosen: CPU 0 usually also takes interrupts.
fn pin_with(
    allowed: Result<Vec<usize>, String>,
    set: impl FnOnce(usize) -> Result<(), String>,
) -> Pin {
    let outcome = allowed.and_then(|cpus| {
        let cpu = *cpus.last().ok_or("empty affinity mask")?;
        set(cpu).map(|()| cpu)
    });
    match outcome {
        Ok(cpu) => Pin::Pinned(cpu),
        Err(why) => {
            eprintln!(
                "warning: could not pin to one CPU ({why}); wall-clock numbers will be noisier"
            );
            Pin::Unpinned(why)
        }
    }
}

/// Pin the calling thread — call before any thread is spawned — to one CPU.
pub fn pin_to_one_cpu() -> Pin {
    pin_with(allowed_cpus(), set_affinity)
}

/// User + system CPU time of the whole process, in ns (0 if unavailable).
pub fn process_cpu_ns() -> u64 {
    #[cfg(target_os = "linux")]
    {
        let mut ts = ffi::Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `timespec`.
        if unsafe { ffi::clock_gettime(ffi::CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0 {
            return ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64;
        }
    }
    0
}

/// Raise the soft descriptor limit to the hard one and return it.
pub fn raise_fd_limit() -> u64 {
    #[cfg(target_os = "linux")]
    {
        let mut lim = ffi::Rlimit { cur: 0, max: 0 };
        // SAFETY: `lim` is a live, writable `rlimit`; `setrlimit` only reads it.
        unsafe {
            if ffi::getrlimit(ffi::RLIMIT_NOFILE, &mut lim) == 0 {
                if lim.cur < lim.max {
                    let want = ffi::Rlimit {
                        cur: lim.max,
                        max: lim.max,
                    };
                    if ffi::setrlimit(ffi::RLIMIT_NOFILE, &want) == 0 {
                        return want.cur;
                    }
                }
                return lim.cur;
            }
        }
    }
    1024
}

/// Peak resident set of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:") / 1024.0
}

fn proc_status_kib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0.0)
}

/// Monotonic ns (`CLOCK_MONOTONIC`): one time base for every process of a
/// boot, so a parent can time its child's start-up from the stamp the child
/// reports.
pub fn now_ns() -> u64 {
    #[cfg(target_os = "linux")]
    {
        let mut ts = ffi::Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `timespec`.
        if unsafe { ffi::clock_gettime(ffi::CLOCK_MONOTONIC, &mut ts) } == 0 {
            return ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64;
        }
    }
    // No shared monotonic clock: the system's time of day will do.
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// A fixed piece of work in the benchmark's own code, timed next to every
/// duration that carries a bound: how long it takes says how fast the
/// machine is running right now. The sizing machine's speed moves by 30 %
/// within the hour and differently for instructions and for memory traffic
/// (`baseline/README.md`), which no statistic over one run's trials removes;
/// a duration divided by the reference's duration does not move with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// Instructions and cache hits: a dependent multiply chain with loads
    /// from a 64 KiB table.
    Cpu,
    /// Memory traffic: copying 8 MiB four times.
    Memory,
}

impl Reference {
    /// How long the work is *defined* to take: a normalised second is a
    /// second at the speed at which the work takes this long. The figures
    /// are the sizing machine's in its usual state, so that there normalised
    /// and measured values read about the same; on any machine, a normalised
    /// value is `measured × nominal ÷ reference measured alongside`.
    pub fn nominal_ns(self) -> f64 {
        match self {
            Reference::Cpu => 550_000.0,
            Reference::Memory => 3_400_000.0,
        }
    }

    /// Do the work once and return `nominal ÷ time taken`: the factor that
    /// normalises a duration measured next to it (above 1 on a slow machine).
    pub fn scale(self) -> f64 {
        let taken = match self {
            Reference::Cpu => {
                static TABLE: std::sync::OnceLock<Vec<u64>> = std::sync::OnceLock::new();
                let table = TABLE.get_or_init(|| {
                    (0..8192u64)
                        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                        .collect()
                });
                let t0 = Instant::now();
                let (mut x, mut acc) = (1u64, 0u64);
                for _ in 0..400_000 {
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    acc = acc.wrapping_add(table[(x >> 40) as usize & 8191] ^ x);
                }
                std::hint::black_box(acc);
                t0.elapsed()
            }
            Reference::Memory => {
                thread_local! {
                    static BUFS: std::cell::RefCell<(Vec<u8>, Vec<u8>)> =
                        std::cell::RefCell::new((vec![1u8; 8 << 20], vec![2u8; 8 << 20]));
                }
                BUFS.with(|bufs| {
                    let (src, dst) = &mut *bufs.borrow_mut();
                    let t0 = Instant::now();
                    for _ in 0..4 {
                        dst.copy_from_slice(std::hint::black_box(src));
                        std::hint::black_box(&mut *dst);
                    }
                    t0.elapsed()
                })
            }
        };
        self.nominal_ns() / (taken.as_nanos() as f64).max(1.0)
    }
}

/// Where and how a result was produced.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub git_rev: String,
    pub nproc: usize,
    pub pinned: String,
    pub profile: &'static str,
    pub seed: u64,
    pub kernel: String,
    pub link: &'static str,
}

impl Provenance {
    pub fn collect(pin: &Pin, seed: u64, link: &'static str) -> Self {
        Self {
            git_rev: git_rev(),
            nproc: online_cpus(),
            pinned: pin.describe(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            seed,
            kernel: std::fs::read_to_string("/proc/version")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| std::env::consts::OS.to_string()),
            link,
        }
    }
}

/// CPUs online in the machine (not those this pinned process may use).
fn online_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|n| *n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Commit of the enclosing checkout, read from `.git` without running git
/// ("unknown" in an exported tree, which is what the driver runs in).
fn git_rev() -> String {
    let mut dir = std::env::current_dir().unwrap_or_default();
    loop {
        let git = dir.join(".git");
        if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            return match head.strip_prefix("ref: ") {
                Some(r) => std::fs::read_to_string(git.join(r))
                    .map(|s| s.trim().to_string())
                    .unwrap_or_else(|_| format!("unborn {r}")),
                None => head.to_string(),
            };
        }
        if !dir.pop() {
            return "unknown".into();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_falls_back_when_affinity_is_refused() {
        let refused = pin_with(Ok(vec![0, 1]), |_| Err("EPERM".into()));
        assert_eq!(refused, Pin::Unpinned("EPERM".into()));
        assert!(refused.describe().starts_with("unpinned"));
        let no_mask = pin_with(Err("ENOSYS".into()), |_| unreachable!());
        assert_eq!(no_mask, Pin::Unpinned("ENOSYS".into()));
    }

    #[test]
    fn pin_chooses_the_last_allowed_cpu() {
        let mut asked = None;
        let pin = pin_with(Ok(vec![0, 2, 5]), |cpu| {
            asked = Some(cpu);
            Ok(())
        });
        assert_eq!(pin, Pin::Pinned(5));
        assert_eq!(asked, Some(5));
    }

    #[test]
    fn reference_work_yields_a_usable_scale() {
        for kind in [Reference::Cpu, Reference::Memory] {
            // The first call also builds the work's table or buffers.
            let (first, second) = (kind.scale(), kind.scale());
            assert!(first.is_finite() && first > 0.0, "{kind:?}: {first}");
            // Within a factor of five of itself, back to back.
            assert!(
                (0.2..5.0).contains(&(first / second)),
                "{kind:?}: {first} {second}"
            );
        }
    }

    #[test]
    fn cpu_time_advances() {
        let t0 = process_cpu_ns();
        let mut x = 1u64;
        while process_cpu_ns() - t0 < 2_000_000 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(process_cpu_ns() > t0);
        assert!(peak_rss_mib() > 0.0);
    }
}
