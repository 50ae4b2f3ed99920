//! What the stack counts: the allocation counter, the one piece of
//! process-wide state, and [`Metrics`], the named counters of one owner.
//!
//! An allocator is process-wide by construction — `#[global_allocator]` is a
//! static — so its counter is too. [`CountingAllocator`] makes the "zero
//! steady-state allocations in the call loop" property a regression test,
//! not a code-review hope; it must be installed by the final binary/test
//! via `#[global_allocator]`, and tests that read it take the best of
//! several rounds to ride out allocations by sibling threads.
//!
//! Everything else the stack counts lives on the instance that does the
//! counting: copies on the client and transport that own the destination
//! buffer (`crate::client::ClientStats::bytes_copied`,
//! [`crate::Transport::bytes_copied`]), and the server side's in one
//! [`Metrics`] per owner: the reactor's `reactor.*` on its
//! [`crate::ServerHandle`], the [`crate::ReplayCache`]'s `replay.*`, a
//! Cricket server's own `server.*`. Its `SRV_GET_STATS` returns them all
//! as one name/value list.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A fixed set of named counters owned by one instance: relaxed atomics,
/// bumped by the owner through a compile-time index (no name lookup, no
/// lock, no allocation on the call path) and read by everyone else as
/// `(name, value)` pairs. Declare an owner's set with [`crate::counters!`].
#[derive(Debug)]
pub struct Metrics {
    names: &'static [&'static str],
    values: Box<[AtomicU64]>,
}

impl Metrics {
    /// One zeroed counter per name in `names`.
    pub fn new(names: &'static [&'static str]) -> Self {
        let values = names.iter().map(|_| AtomicU64::new(0)).collect();
        Self { names, values }
    }

    /// Add `n` to counter `idx`, an index [`crate::counters!`] declared.
    pub fn add(&self, idx: usize, n: u64) {
        self.values[idx].fetch_add(n, Ordering::Relaxed);
    }

    /// Every counter with its stable name, in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let values = self.values.iter().map(|v| v.load(Ordering::Relaxed));
        self.names.iter().copied().zip(values)
    }

    /// Zero every counter.
    pub fn reset(&self) {
        self.values
            .iter()
            .for_each(|v| v.store(0, Ordering::Relaxed));
    }
}

/// Declare an owner's counters: `$names`, their stable names in order (the
/// table [`Metrics::new`] takes), and a crate-private index `const` for
/// each, which the owner hands to [`Metrics::add`].
#[macro_export]
macro_rules! counters {
    ($(#[$doc:meta])* $vis:vis const $names:ident = { $($idx:ident = $name:literal,)+ }) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        enum Counter { $($idx,)+ }
        $(pub(crate) const $idx: usize = Counter::$idx as usize;)+
        $(#[$doc])* $vis const $names: &[&str] = &[$($name,)+];
    };
}

/// Allocation-counting wrapper around the system allocator.
///
/// Install in a test or bench binary with
/// `#[global_allocator] static A: CountingAllocator = CountingAllocator;`
/// then compare [`allocation_count`] across the region under test.
pub struct CountingAllocator;

/// Number of heap allocations since process start (only meaningful when
/// [`CountingAllocator`] is installed as the global allocator).
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

// SAFETY: delegates every operation to `System` unchanged; the only extra
// behaviour is a relaxed counter increment on the allocating paths.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
