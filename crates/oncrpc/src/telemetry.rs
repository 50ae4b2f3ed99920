//! Copy/allocation accounting for the RPC data path.
//!
//! The paper's only transfer mechanism is "memory as RPC arguments", so the
//! cost that gates Fig. 7 bandwidth is how many times a payload byte is
//! memcpy'd between the application buffer and its destination. These
//! process-global counters make that a measured number instead of a claim:
//! every layer that copies payload-sized data into one of its own buffers
//! calls [`add_memmoved`], the client call layer reports payload bytes via
//! [`add_transferred`], and benchmarks read [`snapshot`] around a workload
//! to report *bytes memmoved per byte transferred*.
//!
//! Counting convention (one increment per memcpy destination):
//! * client argument encode into the scratch buffer — owned stream bytes
//!   only, deferred scatter-gather slices are not copied and not counted;
//! * transport-internal send/receive buffering (the in-memory pipe's chunk
//!   copy, the simulated guest path's pending/incoming buffers) — the
//!   analogue of a real socket's copy into the kernel;
//! * record reassembly into the pooled receive buffer.
//!
//! The write into device memory itself is *not* a memmove: it is the
//! transfer endpoint, mirrored by [`add_transferred`] on the client. The
//! modeled TCP/virtio machinery inside the simulated wire is likewise
//! excluded — its copies model NIC/hypervisor work already charged in
//! virtual time by the cost model. On the zero-copy HtoD path this leaves
//! exactly two payload-sized copies: send buffering and reassembly.
//!
//! The counters are relaxed atomics: cheap enough to stay on in release
//! builds, and the benches read them single-threaded.
//!
//! [`CountingAllocator`] complements this with an allocation counter so the
//! "zero steady-state allocations in the client call loop" property is a
//! regression test, not a code-review hope. It must be installed by the
//! final binary/test via `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static BYTES_MEMMOVED: AtomicU64 = AtomicU64::new(0);
static BYTES_TRANSFERRED: AtomicU64 = AtomicU64::new(0);

/// Record `n` bytes copied between buffers inside the stack.
#[inline]
pub fn add_memmoved(n: usize) {
    BYTES_MEMMOVED.fetch_add(n as u64, Ordering::Relaxed);
}

/// Record `n` application payload bytes handed to the RPC layer.
#[inline]
pub fn add_transferred(n: usize) {
    BYTES_TRANSFERRED.fetch_add(n as u64, Ordering::Relaxed);
}

/// Point-in-time view of the copy counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CopySnapshot {
    /// Total bytes memcpy'd between internal buffers.
    pub bytes_memmoved: u64,
    /// Total application payload bytes transferred.
    pub bytes_transferred: u64,
}

impl CopySnapshot {
    /// Counter deltas since `earlier`.
    pub fn since(&self, earlier: &CopySnapshot) -> CopySnapshot {
        CopySnapshot {
            bytes_memmoved: self.bytes_memmoved - earlier.bytes_memmoved,
            bytes_transferred: self.bytes_transferred - earlier.bytes_transferred,
        }
    }

    /// Bytes memmoved per byte transferred — the Fig. 7 figure of merit.
    pub fn copies_per_byte(&self) -> f64 {
        if self.bytes_transferred == 0 {
            0.0
        } else {
            self.bytes_memmoved as f64 / self.bytes_transferred as f64
        }
    }
}

/// Read both counters.
pub fn snapshot() -> CopySnapshot {
    CopySnapshot {
        bytes_memmoved: BYTES_MEMMOVED.load(Ordering::Relaxed),
        bytes_transferred: BYTES_TRANSFERRED.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------------
// Reactor counters: how the completion-driven server core spent its calls.
// Same relaxed-atomic convention as the copy counters above.

static REACTOR_INLINE_REPLIES: AtomicU64 = AtomicU64::new(0);
static REACTOR_PARKED_CALLS: AtomicU64 = AtomicU64::new(0);
static REACTOR_STALLS: AtomicU64 = AtomicU64::new(0);
static REACTOR_BUFS_REUSED: AtomicU64 = AtomicU64::new(0);
static REACTOR_BUFS_ALLOCATED: AtomicU64 = AtomicU64::new(0);
static REACTOR_WRITER_KILLS: AtomicU64 = AtomicU64::new(0);

/// Record a `Done`-classified call answered inline on the reactor thread.
#[inline]
pub fn add_reactor_inline(n: u64) {
    REACTOR_INLINE_REPLIES.fetch_add(n, Ordering::Relaxed);
}

/// Record a `Parked`-classified call handed to the worker shard.
#[inline]
pub fn add_reactor_parked(n: u64) {
    REACTOR_PARKED_CALLS.fetch_add(n, Ordering::Relaxed);
}

/// Record a session hitting its bounded queue (backpressure stall).
#[inline]
pub fn add_reactor_stall(n: u64) {
    REACTOR_STALLS.fetch_add(n, Ordering::Relaxed);
}

/// Record a pooled buffer recycled from a free list.
#[inline]
pub fn add_reactor_buf_reused(n: u64) {
    REACTOR_BUFS_REUSED.fetch_add(n, Ordering::Relaxed);
}

/// Record a buffer freshly allocated because the pool was empty.
#[inline]
pub fn add_reactor_buf_allocated(n: u64) {
    REACTOR_BUFS_ALLOCATED.fetch_add(n, Ordering::Relaxed);
}

/// Record the completion writer killing a connection that stopped
/// accepting reply bytes (stall deadline or backlog cap exceeded).
#[inline]
pub fn add_reactor_writer_kill(n: u64) {
    REACTOR_WRITER_KILLS.fetch_add(n, Ordering::Relaxed);
}

/// Point-in-time view of the reactor counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReactorSnapshot {
    /// Calls classified `Done` and answered from the reactor thread.
    pub inline_replies: u64,
    /// Calls classified `Parked` and executed on a worker shard.
    pub parked_calls: u64,
    /// Backpressure stalls (bounded per-session queue filled).
    pub stalls: u64,
    /// Pooled buffers recycled.
    pub bufs_reused: u64,
    /// Buffers allocated because no pooled one was free.
    pub bufs_allocated: u64,
    /// Connections the completion writer killed for not reading replies.
    pub writer_kills: u64,
}

impl ReactorSnapshot {
    /// Counter deltas since `earlier`.
    pub fn since(&self, earlier: &ReactorSnapshot) -> ReactorSnapshot {
        ReactorSnapshot {
            inline_replies: self.inline_replies - earlier.inline_replies,
            parked_calls: self.parked_calls - earlier.parked_calls,
            stalls: self.stalls - earlier.stalls,
            bufs_reused: self.bufs_reused - earlier.bufs_reused,
            bufs_allocated: self.bufs_allocated - earlier.bufs_allocated,
            writer_kills: self.writer_kills - earlier.writer_kills,
        }
    }
}

/// Read the reactor counters.
pub fn reactor_snapshot() -> ReactorSnapshot {
    ReactorSnapshot {
        inline_replies: REACTOR_INLINE_REPLIES.load(Ordering::Relaxed),
        parked_calls: REACTOR_PARKED_CALLS.load(Ordering::Relaxed),
        stalls: REACTOR_STALLS.load(Ordering::Relaxed),
        bufs_reused: REACTOR_BUFS_REUSED.load(Ordering::Relaxed),
        bufs_allocated: REACTOR_BUFS_ALLOCATED.load(Ordering::Relaxed),
        writer_kills: REACTOR_WRITER_KILLS.load(Ordering::Relaxed),
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_deltas_and_ratio() {
        let before = snapshot();
        add_memmoved(300);
        add_transferred(100);
        let delta = snapshot().since(&before);
        assert_eq!(delta.bytes_memmoved, 300);
        assert_eq!(delta.bytes_transferred, 100);
        assert!((delta.copies_per_byte() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_transfer_ratio_is_zero() {
        let s = CopySnapshot::default();
        assert_eq!(s.copies_per_byte(), 0.0);
    }
}
