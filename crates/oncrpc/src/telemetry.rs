//! The allocation counter: the one piece of process-wide state in the stack.
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
//! buffer ([`crate::client::ClientStats::bytes_copied`],
//! [`crate::Transport::bytes_copied`]), the reactor's calls and buffers on
//! its [`crate::ServerHandle`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

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
