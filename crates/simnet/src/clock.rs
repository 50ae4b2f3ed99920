//! Virtual time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The virtual-time horizon: 2^62 ns, about 146 years. No simulated run
/// comes near it, and a clock short of it has 2^62 ns of charges left
/// before `u64` overflow — so a timestamp past it, in state a server is
/// asked to adopt, is refused rather than moved to.
pub const HORIZON_NS: u64 = 1 << 62;

/// A monotonically advancing virtual clock, shared by every component of a
/// simulated deployment (guest, wire, Cricket server, GPU).
///
/// All benchmark harnesses report times read from this clock, so runs are
/// deterministic and independent of host machine speed. The clock is
/// thread-safe (the TCP-mode tests drive it from several threads), but the
/// figure harnesses use it single-threaded.
#[derive(Debug, Default)]
pub struct SimClock {
    now_ns: AtomicU64,
}

impl SimClock {
    /// A clock at t = 0.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Current virtual time in nanoseconds.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::Relaxed)
    }

    /// Advance by `delta_ns`, returning the new time.
    #[inline]
    pub fn advance(&self, delta_ns: u64) -> u64 {
        self.now_ns.fetch_add(delta_ns, Ordering::Relaxed) + delta_ns
    }

    /// Advance to at least `t_ns` (no-op if already past). Returns the new
    /// current time. Used when waiting on an absolute completion time, e.g.
    /// stream synchronization against queued kernel work.
    pub fn advance_to(&self, t_ns: u64) -> u64 {
        let mut cur = self.now_ns.load(Ordering::Relaxed);
        while cur < t_ns {
            match self
                .now_ns
                .compare_exchange_weak(cur, t_ns, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return t_ns,
                Err(actual) => cur = actual,
            }
        }
        cur
    }

    /// Reset to zero (between benchmark runs).
    pub fn reset(&self) {
        self.now_ns.store(0, Ordering::Relaxed);
    }
}

/// A span measured on a [`SimClock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimSpan {
    /// Start timestamp (ns).
    pub start_ns: u64,
    /// End timestamp (ns).
    pub end_ns: u64,
}

impl SimSpan {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.ns() as f64 / crate::NS_PER_SEC
    }
}

/// Measure `f` on `clock`.
pub fn measure<R>(clock: &SimClock, f: impl FnOnce() -> R) -> (R, SimSpan) {
    let start_ns = clock.now_ns();
    let r = f();
    let end_ns = clock.now_ns();
    (r, SimSpan { start_ns, end_ns })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_monotonically() {
        let c = SimClock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.advance(100), 100);
        assert_eq!(c.advance(50), 150);
        assert_eq!(c.now_ns(), 150);
    }

    #[test]
    fn advance_to_is_idempotent_backwards() {
        let c = SimClock::new();
        c.advance(1000);
        assert_eq!(c.advance_to(500), 1000, "never goes backwards");
        assert_eq!(c.advance_to(2000), 2000);
    }

    #[test]
    fn measure_spans() {
        let c = SimClock::new();
        let (v, span) = measure(&c, || {
            c.advance(42);
            "done"
        });
        assert_eq!(v, "done");
        assert_eq!(span.ns(), 42);
        assert!((span.secs() - 42e-9).abs() < 1e-15);
    }

    #[test]
    fn reset_zeroes() {
        let c = SimClock::new();
        c.advance(5);
        c.reset();
        assert_eq!(c.now_ns(), 0);
    }

    #[test]
    fn concurrent_advances_sum() {
        let c = SimClock::new();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.advance(3);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now_ns(), 4 * 1000 * 3);
    }
}
