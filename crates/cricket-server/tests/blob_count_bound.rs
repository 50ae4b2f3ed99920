//! A count read off the wire reserves no more memory than the bytes behind
//! it: a 64 KiB session blob whose module list claims 5 000 entries but
//! carries none is a typed error, and no single allocation made while
//! decoding it exceeds 64 KiB. (A module entry is 32 bytes in memory, so
//! trusting the count would reserve 160 kB.) Its own binary: the allocator
//! below watches every allocation in the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Records the largest single allocation (or reallocation) since reset.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

#[test]
fn a_module_count_the_bytes_cannot_hold_reserves_nothing_past_them() {
    const BLOB: usize = 64 * 1024;
    // An empty session blob: magic, version, kind, token, device, clock,
    // no cursors, library cursor, then the module count at byte 44.
    let mut blob = [
        &0x4d49_4731u32.to_be_bytes()[..],
        &1u32.to_be_bytes(),
        &[0; 4 + 8 + 4 + 8 + 4 + 8],
    ]
    .concat();
    blob.extend_from_slice(&5_000u32.to_be_bytes());
    // What follows is no module entry: a handle, then a length no input holds.
    blob.resize(BLOB, 0xFF);

    LARGEST.store(0, Ordering::Relaxed);
    let err = cricket_server::migrate::decode(&blob).unwrap_err();
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(matches!(err, vgpu::VgpuError::InvalidValue(_)), "{err}");
    assert!(largest <= BLOB, "a {largest}-byte allocation");
}
