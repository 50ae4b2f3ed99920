//! Counting global allocator: heap allocations made by the whole process
//! (driver thread and, on `tcp_sessions`, the server's threads) while a
//! measurement window is open. Set-up, warm-up and verification run with
//! the window closed and are not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static OPEN: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The allocator installed by `main.rs`.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics and
// publish no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[inline]
fn count() {
    if OPEN.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Start counting.
pub fn open() {
    OPEN.store(true, Ordering::Relaxed);
}

/// Stop counting.
pub fn close() {
    OPEN.store(false, Ordering::Relaxed);
}

/// Allocations counted so far (monotonic; take differences).
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The window excludes what happens before `open` and after `close`.
    /// (Other test threads may allocate while the window is open, so the
    /// assertions are one-sided where they have to be.)
    #[test]
    fn window_excludes_set_up() {
        let _guard = crate::TEST_LOCK.lock().unwrap();
        close();
        let before = allocations();
        let set_up: Vec<Vec<u8>> = (0..64).map(|i| vec![0u8; 32 + i]).collect();
        assert_eq!(allocations(), before, "closed window counted set-up");
        open();
        let timed: Vec<Vec<u8>> = (0..16).map(|i| vec![1u8; 8 + i]).collect();
        close();
        let counted = allocations() - before;
        assert!(counted >= 17, "open window missed allocations: {counted}");
        let after = allocations();
        drop((set_up, timed));
        let _late = vec![2u8; 4096];
        assert_eq!(allocations(), after, "closed window counted tear-down");
    }
}
