//! Device memory manager.
//!
//! A first-fit free-list allocator over a virtual device address space, with
//! CUDA's 256-byte allocation alignment. Each live allocation owns a host
//! `Vec<u8>` as backing store, materialised (zero-filled) on the block's
//! first touch: a `cudaMalloc` nobody reads or writes costs the host no
//! memory and no allocation, and a simulated A100 does not require 40 GB of
//! host RAM. Interior pointers (base + offset) resolve to the containing
//! block, as CUDA permits.
//!
//! Each block carries a monotonically increasing **version**, bumped on every
//! write; the kernel memoization cache uses versions to detect that inputs
//! are unchanged (see crate docs).
//!
//! For live migration the manager also tracks **dirty ranges**: every write
//! records the touched `(offset, len)` span on its block, merged and capped
//! at `MAX_DIRTY_RANGES` (overflow collapses to the whole block). Epochs
//! cut the tracking into windows: [`MemoryManager::mark_epoch`] clears all
//! dirty spans, and [`MemoryManager::delta_since`] packages everything that
//! changed since the last mark — freed blocks, new blocks (full bytes), and
//! the dirty spans of surviving blocks — as a [`MemDelta`] that
//! [`MemoryManager::apply_delta`] replays on a destination manager.

use crate::error::{VgpuError, VgpuResult};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// A raw device pointer (opaque 64-bit address).
pub(crate) type DevicePtr = u64;

/// Base of the device heap. Non-zero so that null is never a valid pointer.
pub const HEAP_BASE: u64 = 0x0100_0000_0000;

/// CUDA allocation alignment.
pub const ALLOC_ALIGN: u64 = 256;

/// Dirty spans tracked per block before collapsing to whole-block. Small on
/// purpose: past this many distinct spans the block is effectively rewritten
/// and a single full-range entry is cheaper than precise bookkeeping.
pub(crate) const MAX_DIRTY_RANGES: usize = 32;

/// Sorted, merged `(offset, len)` spans within one block, capped at
/// [`MAX_DIRTY_RANGES`] entries (overflow collapses to one whole-block span).
#[derive(Debug, Default, Clone)]
struct DirtyRanges {
    spans: Vec<(u64, u64)>,
}

impl DirtyRanges {
    fn clear(&mut self) {
        self.spans.clear();
    }

    /// Record `[off, off+len)` as dirty, merging with touching/overlapping
    /// spans. `block_size` bounds the whole-block collapse.
    fn mark(&mut self, off: u64, len: u64, block_size: u64) {
        if len == 0 {
            return;
        }
        // Already collapsed to the whole block: nothing finer to track.
        if self.spans.first() == Some(&(0, block_size)) {
            return;
        }
        let (mut start, mut end) = (off, off + len);
        // Merge every span that overlaps or touches [start, end).
        let mut i = 0;
        while i < self.spans.len() {
            let (s, l) = self.spans[i];
            if s + l < start || s > end {
                i += 1;
                continue;
            }
            start = start.min(s);
            end = end.max(s + l);
            self.spans.remove(i);
        }
        let at = self.spans.partition_point(|&(s, _)| s < start);
        self.spans.insert(at, (start, end - start));
        if self.spans.len() > MAX_DIRTY_RANGES {
            self.spans.clear();
            self.spans.push((0, block_size));
        }
    }

    fn spans(&self) -> &[(u64, u64)] {
        &self.spans
    }
}

#[derive(Debug)]
struct Block {
    size: u64,
    /// Host backing, `size` bytes; unset until the first touch, which
    /// zero-fills it (fresh device memory reads as zeros).
    data: OnceLock<Vec<u8>>,
    version: u64,
    /// Epoch (see [`MemoryManager::mark_epoch`]) in which this block was
    /// created. A block born in the current window always travels whole in
    /// a delta, even if its base address was seen before (free + realloc at
    /// the same address must not masquerade as an in-place update).
    born_epoch: u64,
    /// Spans written since the last epoch mark.
    dirty: DirtyRanges,
}

impl Block {
    fn bytes(&self) -> &[u8] {
        self.data.get_or_init(|| vec![0u8; self.size as usize])
    }

    fn bytes_mut(&mut self) -> &mut [u8] {
        self.bytes();
        self.data.get_mut().expect("materialised above")
    }
}

/// Device memory state: live allocations + free list.
#[derive(Debug)]
pub struct MemoryManager {
    total: u64,
    /// base address → block
    blocks: BTreeMap<u64, Block>,
    /// start address → length, coalesced
    free_list: BTreeMap<u64, u64>,
    next_version: u64,
    /// Current dirty-tracking window (bumped by [`Self::mark_epoch`]).
    epoch: u64,
    /// Running counters for telemetry and tests.
    pub stats: MemStats,
}

/// Everything that changed on a [`MemoryManager`] since an epoch mark,
/// relative to a `known` set of block bases the consumer already holds:
/// blocks to free, blocks to materialize whole, and in-place dirty spans.
/// Apply order is frees → new blocks → dirty writes (see
/// [`MemoryManager::apply_delta`]).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MemDelta {
    /// Bases the consumer holds that are gone (or were replaced) here.
    pub freed: Vec<u64>,
    /// Blocks the consumer lacks (or must replace), with full contents.
    pub new_blocks: Vec<(u64, Vec<u8>)>,
    /// `(base, offset, bytes)` in-place updates to surviving blocks.
    pub dirty: Vec<(u64, u64, Vec<u8>)>,
}

/// Allocation statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemStats {
    /// Number of successful allocations.
    pub allocs: u64,
    /// Number of successful frees.
    pub frees: u64,
    /// Bytes currently allocated.
    pub bytes_in_use: u64,
    /// High-water mark of bytes in use.
    pub peak_bytes: u64,
}

impl MemoryManager {
    /// Create a manager over `total` bytes of device memory.
    pub fn new(total: u64) -> Self {
        Self::with_base(total, HEAP_BASE)
    }

    /// Create a manager whose address space starts at `base` (multi-GPU
    /// servers give each device a disjoint range so pointers identify their
    /// device).
    pub(crate) fn with_base(total: u64, base: u64) -> Self {
        assert!(base > 0, "null must never be a valid pointer");
        let mut free_list = BTreeMap::new();
        free_list.insert(base, total);
        Self {
            total,
            blocks: BTreeMap::new(),
            free_list,
            next_version: 1,
            epoch: 0,
            stats: MemStats::default(),
        }
    }

    /// Total device memory in bytes.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Free device memory in bytes (sum over free list).
    pub fn free_bytes(&self) -> u64 {
        self.free_list.values().sum()
    }

    /// Allocate `size` bytes (first fit, 256-byte aligned). Zero-size
    /// allocations succeed with a unique non-null pointer, like CUDA.
    pub fn alloc(&mut self, size: u64) -> VgpuResult<DevicePtr> {
        let rounded = size.max(1).div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        let slot = self
            .free_list
            .iter()
            .find(|(_, &len)| len >= rounded)
            .map(|(&addr, &len)| (addr, len));
        let Some((addr, len)) = slot else {
            return Err(VgpuError::OutOfMemory {
                requested: size,
                free: self.free_bytes(),
            });
        };
        self.free_list.remove(&addr);
        if len > rounded {
            self.free_list.insert(addr + rounded, len - rounded);
        }
        self.blocks.insert(
            addr,
            Block {
                size: rounded,
                data: OnceLock::new(),
                version: self.next_version,
                born_epoch: self.epoch,
                dirty: DirtyRanges::default(),
            },
        );
        self.next_version += 1;
        self.stats.allocs += 1;
        self.stats.bytes_in_use += rounded;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.bytes_in_use);
        Ok(addr)
    }

    /// Free the allocation starting at `ptr`. Freeing a non-base pointer or
    /// double-freeing fails with [`VgpuError::InvalidFree`].
    pub fn free(&mut self, ptr: DevicePtr) -> VgpuResult<()> {
        let Some(block) = self.blocks.remove(&ptr) else {
            return Err(VgpuError::InvalidFree(ptr));
        };
        self.stats.frees += 1;
        self.stats.bytes_in_use -= block.size;
        // Insert into the free list and coalesce with neighbors.
        let mut start = ptr;
        let mut len = block.size;
        if let Some((&prev_start, &prev_len)) = self.free_list.range(..ptr).next_back() {
            if prev_start + prev_len == start {
                self.free_list.remove(&prev_start);
                start = prev_start;
                len += prev_len;
            }
        }
        if let Some(&next_len) = self.free_list.get(&(ptr + block.size)) {
            self.free_list.remove(&(ptr + block.size));
            len += next_len;
        }
        self.free_list.insert(start, len);
        Ok(())
    }

    /// Resolve an interior pointer to (base, offset).
    fn resolve(&self, ptr: DevicePtr) -> VgpuResult<(u64, u64)> {
        let (&base, block) = self
            .blocks
            .range(..=ptr)
            .next_back()
            .ok_or(VgpuError::InvalidPointer(ptr))?;
        let off = ptr - base;
        if off >= block.size {
            return Err(VgpuError::InvalidPointer(ptr));
        }
        Ok((base, off))
    }

    fn check_len(&self, ptr: DevicePtr, len: u64) -> VgpuResult<(u64, u64)> {
        let (base, off) = self.resolve(ptr)?;
        let available = self.blocks[&base].size - off;
        if len > available {
            return Err(VgpuError::OutOfBounds {
                ptr,
                len,
                available,
            });
        }
        Ok((base, off))
    }

    /// Read `len` bytes at `ptr`.
    pub fn read(&self, ptr: DevicePtr, len: u64) -> VgpuResult<&[u8]> {
        let (base, off) = self.check_len(ptr, len)?;
        let block = &self.blocks[&base];
        Ok(&block.bytes()[off as usize..(off + len) as usize])
    }

    /// Write `bytes` at `ptr`, bumping the block version.
    pub fn write(&mut self, ptr: DevicePtr, bytes: &[u8]) -> VgpuResult<()> {
        let (base, off) = self.check_len(ptr, bytes.len() as u64)?;
        let version = self.next_version;
        self.next_version += 1;
        let block = self.blocks.get_mut(&base).expect("resolved");
        block.bytes_mut()[off as usize..off as usize + bytes.len()].copy_from_slice(bytes);
        block.version = version;
        block.dirty.mark(off, bytes.len() as u64, block.size);
        Ok(())
    }

    /// Fill `len` bytes at `ptr` with `value` (cudaMemset).
    pub fn memset(&mut self, ptr: DevicePtr, value: u8, len: u64) -> VgpuResult<()> {
        let (base, off) = self.check_len(ptr, len)?;
        let version = self.next_version;
        self.next_version += 1;
        let block = self.blocks.get_mut(&base).expect("resolved");
        block.bytes_mut()[off as usize..(off + len) as usize].fill(value);
        block.version = version;
        block.dirty.mark(off, len, block.size);
        Ok(())
    }

    /// Device-to-device copy (handles distinct blocks; overlapping ranges in
    /// the same block copy through a temporary, like cudaMemcpy semantics).
    pub(crate) fn copy_dtod(&mut self, dst: DevicePtr, src: DevicePtr, len: u64) -> VgpuResult<()> {
        let tmp = self.read(src, len)?.to_vec();
        self.write(dst, &tmp)
    }

    /// Current version of the block containing `ptr` (for memoization keys).
    pub(crate) fn version_of(&self, ptr: DevicePtr) -> VgpuResult<u64> {
        let (base, _) = self.resolve(ptr)?;
        Ok(self.blocks[&base].version)
    }

    /// Version of the block holding all of `[ptr, ptr + len)`, refusing a
    /// range that runs past its block or that is not the caller's (`owned`
    /// says). Touches no backing store, so a launch can check every range
    /// it will access before anything runs.
    pub(crate) fn range_version(
        &self,
        ptr: DevicePtr,
        len: u64,
        owned: impl Fn(u64, u64) -> bool,
    ) -> VgpuResult<u64> {
        if !owned(ptr, len) {
            return Err(VgpuError::InvalidPointer(ptr));
        }
        let (base, _) = self.check_len(ptr, len)?;
        Ok(self.blocks[&base].version)
    }

    /// Mutable access to a whole region as bytes (kernel execution helper).
    /// Reads then writes back via closure so version accounting stays exact.
    pub(crate) fn update<R>(
        &mut self,
        ptr: DevicePtr,
        len: u64,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> VgpuResult<R> {
        let (base, off) = self.check_len(ptr, len)?;
        let version = self.next_version;
        self.next_version += 1;
        let block = self.blocks.get_mut(&base).expect("resolved");
        let r = f(&mut block.bytes_mut()[off as usize..(off + len) as usize]);
        block.version = version;
        block.dirty.mark(off, len, block.size);
        Ok(r)
    }

    /// Enumerate live allocations as (base, size) — checkpoint support.
    pub fn live_allocations(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.blocks.iter().map(|(&b, blk)| (b, blk.size))
    }

    /// Size of the allocation at `base`, as rounded when it was made.
    pub fn block_size(&self, base: u64) -> Option<u64> {
        self.blocks.get(&base).map(|b| b.size)
    }

    /// Raw contents of the allocation at `base` (checkpoint support).
    pub fn block_bytes(&self, base: u64) -> VgpuResult<&[u8]> {
        self.blocks
            .get(&base)
            .map(Block::bytes)
            .ok_or(VgpuError::InvalidPointer(base))
    }

    /// Restore an allocation at an exact base address (checkpoint restore).
    /// Fails if the range is not entirely free.
    pub(crate) fn restore_block(&mut self, base: u64, bytes: &[u8]) -> VgpuResult<()> {
        let size = bytes.len() as u64;
        // Find the free span containing [base, base+size).
        let span = self
            .free_list
            .range(..=base)
            .next_back()
            .map(|(&s, &l)| (s, l));
        let Some((start, len)) = span else {
            return Err(VgpuError::InvalidValue(format!(
                "restore target {base:#x} not free"
            )));
        };
        if base + size > start + len {
            return Err(VgpuError::InvalidValue(format!(
                "restore target {base:#x}+{size} overlaps live memory"
            )));
        }
        self.free_list.remove(&start);
        if base > start {
            self.free_list.insert(start, base - start);
        }
        if start + len > base + size {
            self.free_list
                .insert(base + size, (start + len) - (base + size));
        }
        self.blocks.insert(
            base,
            Block {
                size,
                data: OnceLock::from(bytes.to_vec()),
                version: self.next_version,
                born_epoch: self.epoch,
                dirty: DirtyRanges::default(),
            },
        );
        self.next_version += 1;
        self.stats.allocs += 1;
        self.stats.bytes_in_use += size;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.bytes_in_use);
        Ok(())
    }

    // -- dirty tracking / incremental deltas ------------------------------

    /// Cut a dirty-tracking window: clear every block's dirty spans and
    /// advance the epoch. Blocks allocated after this call are "born in the
    /// new window" and travel whole in the next [`Self::delta_since`].
    /// Returns the new epoch number.
    pub fn mark_epoch(&mut self) -> u64 {
        self.epoch += 1;
        for block in self.blocks.values_mut() {
            block.dirty.clear();
        }
        self.epoch
    }

    /// Package everything that changed since the last [`Self::mark_epoch`],
    /// relative to `known` — the set of block bases the consumer already
    /// holds (typically: what the previous delta or base snapshot shipped).
    /// A block born in the current window is always shipped whole, even if
    /// its base is in `known` (free + realloc at the same address). Only
    /// blocks `owned` accepts travel — one tenant's share of a device;
    /// nobody else's block is even copied.
    pub fn delta_since(&self, known: &BTreeSet<u64>, owned: impl Fn(u64) -> bool) -> MemDelta {
        let mut delta = MemDelta::default();
        for &base in known {
            let reborn = self
                .blocks
                .get(&base)
                .is_some_and(|b| b.born_epoch >= self.epoch);
            if reborn || !self.blocks.contains_key(&base) {
                delta.freed.push(base);
            }
        }
        for (&base, block) in self.blocks.iter().filter(|(&b, _)| owned(b)) {
            if !known.contains(&base) || block.born_epoch >= self.epoch {
                delta.new_blocks.push((base, block.bytes().to_vec()));
            } else {
                for &(off, len) in block.dirty.spans() {
                    let bytes = block.bytes()[off as usize..(off + len) as usize].to_vec();
                    delta.dirty.push((base, off, bytes));
                }
            }
        }
        delta
    }

    /// Replay the entries of a source manager's [`MemDelta`] that `here`
    /// accepts (a server routes one delta across its devices): free
    /// departed blocks, materialize new ones at their exact addresses, then
    /// apply in-place dirty spans. `placed` is what this consumer's stream
    /// has placed so far, base to size: a new block joins it the moment it
    /// lands, and the delta may free or patch only its members. Fails (typed) if the delta
    /// does not fit — e.g. a new block overlapping live memory.
    pub fn apply_delta(
        &mut self,
        delta: &MemDelta,
        here: impl Fn(u64) -> bool,
        placed: &mut BTreeMap<u64, u64>,
    ) -> VgpuResult<()> {
        let foreign = |b: u64| VgpuError::InvalidValue(format!("block {b:#x} was not staged"));
        for &base in delta.freed.iter().filter(|&&b| here(b)) {
            if placed.remove(&base).is_none() {
                return Err(foreign(base));
            }
            self.free(base)?;
        }
        for (base, bytes) in delta.new_blocks.iter().filter(|(b, _)| here(*b)) {
            self.restore_block(*base, bytes)?;
            placed.insert(*base, bytes.len() as u64);
        }
        for (base, off, bytes) in delta.dirty.iter().filter(|(b, ..)| here(*b)) {
            if !placed.contains_key(base) {
                return Err(foreign(*base));
            }
            self.patch(*base, *off, bytes)?;
        }
        Ok(())
    }

    /// Overwrite `bytes` at offset `off` of the block at exactly `base` —
    /// one dirty span of a [`MemDelta`]. Unlike [`Self::write`] on
    /// `base + off`, a span that does not fit the block is an error rather
    /// than a write into whichever block the sum happens to land in.
    pub(crate) fn patch(&mut self, base: u64, off: u64, bytes: &[u8]) -> VgpuResult<()> {
        let size = (self.blocks.get(&base))
            .ok_or(VgpuError::InvalidPointer(base))?
            .size;
        match off.checked_add(bytes.len() as u64) {
            Some(end) if end <= size => self.write(base + off, bytes),
            _ => Err(VgpuError::OutOfBounds {
                ptr: base,
                len: bytes.len() as u64,
                available: size.saturating_sub(off),
            }),
        }
    }
}

/// Reinterpret a byte slice as f32 values (little-endian device layout).
pub(crate) fn bytes_to_f32(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// Serialize f32 values into device byte layout.
pub fn f32_to_bytes(vals: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 4);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Reinterpret a byte slice as f64 values.
pub(crate) fn bytes_to_f64(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect()
}

/// Serialize f64 values into device byte layout.
pub(crate) fn f64_to_bytes(vals: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 8);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Reinterpret a byte slice as u32 values.
pub fn bytes_to_u32(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// Serialize u32 values into device byte layout.
pub fn u32_to_bytes(vals: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 4);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MemDelta {
        /// Payload bytes this delta moves (block contents + dirty spans).
        fn payload_bytes(&self) -> u64 {
            let new: u64 = self.new_blocks.iter().map(|(_, b)| b.len() as u64).sum();
            let dirty: u64 = self.dirty.iter().map(|(_, _, b)| b.len() as u64).sum();
            new + dirty
        }

        /// True when nothing changed.
        fn is_empty(&self) -> bool {
            self.freed.is_empty() && self.new_blocks.is_empty() && self.dirty.is_empty()
        }
    }

    impl MemoryManager {
        /// Dirty spans of the block at `base` as `(offset, len)` pairs, merged.
        fn dirty_spans(&self, base: u64) -> VgpuResult<Vec<(u64, u64)>> {
            self.blocks
                .get(&base)
                .map(|b| b.dirty.spans().to_vec())
                .ok_or(VgpuError::InvalidPointer(base))
        }
    }

    fn mm() -> MemoryManager {
        MemoryManager::new(1 << 20)
    }

    #[test]
    fn alloc_is_aligned_and_distinct() {
        let mut m = mm();
        let a = m.alloc(100).unwrap();
        let b = m.alloc(100).unwrap();
        assert_eq!(a % ALLOC_ALIGN, 0);
        assert_eq!(b % ALLOC_ALIGN, 0);
        assert_ne!(a, b);
        assert!(a >= HEAP_BASE);
    }

    #[test]
    fn zero_size_alloc_gets_unique_pointer() {
        let mut m = mm();
        let a = m.alloc(0).unwrap();
        let b = m.alloc(0).unwrap();
        assert_ne!(a, b);
        m.free(a).unwrap();
        m.free(b).unwrap();
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = mm();
        let p = m.alloc(64).unwrap();
        m.write(p, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.read(p, 4).unwrap(), &[1, 2, 3, 4]);
        // Fresh memory is zeroed.
        assert_eq!(m.read(p + 4, 4).unwrap(), &[0, 0, 0, 0]);
    }

    /// `cudaMalloc` reserves address space only: the backing appears on a
    /// block's first touch, already zeroed, and a block nobody touched
    /// still reads, exports and migrates as `size` zero bytes.
    #[test]
    fn untouched_block_is_unbacked_and_reads_as_zeros() {
        let backed = |m: &MemoryManager, b: u64| m.blocks[&b].data.get().is_some();
        let mut src = mm();
        let p = src.alloc(1000).unwrap();
        let q = src.alloc(64).unwrap();
        // Bookkeeping is not a touch.
        let v0 = src.version_of(p).unwrap();
        assert_eq!(src.live_allocations().count(), 2);
        assert!(src.dirty_spans(p).unwrap().is_empty());
        assert_eq!(src.stats.bytes_in_use, 1024 + 256);
        assert!(!backed(&src, p) && !backed(&src, q));
        src.write(q, &[7]).unwrap();
        assert!(backed(&src, q) && !backed(&src, p), "only the touched one");

        let mut dst = mm();
        let mut placed = BTreeMap::new();
        let delta = src.delta_since(&BTreeSet::new(), |_| true);
        assert_eq!(delta.payload_bytes(), 1024 + 256);
        dst.apply_delta(&delta, |_| true, &mut placed).unwrap();
        assert_eq!(dst.block_bytes(p).unwrap(), &[0u8; 1024][..]);
        assert_eq!(src.block_bytes(p).unwrap(), dst.block_bytes(p).unwrap());
        assert_eq!(src.block_bytes(q).unwrap(), dst.block_bytes(q).unwrap());
        assert_eq!(src.read(p + 1000, 24).unwrap(), &[0; 24]);
        assert_eq!(src.version_of(p).unwrap(), v0, "reads do not version");

        // Freeing a block that never got a backing is an ordinary free.
        let r = src.alloc(512).unwrap();
        src.free(r).unwrap();
        assert_eq!(src.stats.bytes_in_use, 1024 + 256);
    }

    #[test]
    fn interior_pointers_resolve() {
        let mut m = mm();
        let p = m.alloc(256).unwrap();
        m.write(p + 100, &[9]).unwrap();
        assert_eq!(m.read(p + 100, 1).unwrap(), &[9]);
    }

    #[test]
    fn oob_and_invalid_pointers_rejected() {
        let mut m = mm();
        let p = m.alloc(64).unwrap();
        // 64 rounds to 256; access past the rounded size fails.
        assert!(matches!(m.read(p, 257), Err(VgpuError::OutOfBounds { .. })));
        assert!(matches!(
            m.read(0xdead, 1),
            Err(VgpuError::InvalidPointer(0xdead))
        ));
        assert!(matches!(
            m.write(p + 300, &[0]),
            Err(VgpuError::InvalidPointer(_))
        ));
    }

    #[test]
    fn double_free_detected() {
        let mut m = mm();
        let p = m.alloc(64).unwrap();
        m.free(p).unwrap();
        assert_eq!(m.free(p), Err(VgpuError::InvalidFree(p)));
    }

    #[test]
    fn free_of_interior_pointer_rejected() {
        let mut m = mm();
        let p = m.alloc(512).unwrap();
        assert_eq!(m.free(p + 256), Err(VgpuError::InvalidFree(p + 256)));
        m.free(p).unwrap();
    }

    #[test]
    fn oom_reports_free_bytes() {
        let mut m = MemoryManager::new(1024);
        let _a = m.alloc(512).unwrap();
        match m.alloc(1024) {
            Err(VgpuError::OutOfMemory { requested, free }) => {
                assert_eq!(requested, 1024);
                assert_eq!(free, 512);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn free_coalesces_neighbors() {
        let mut m = MemoryManager::new(1024);
        let a = m.alloc(256).unwrap();
        let b = m.alloc(256).unwrap();
        let c = m.alloc(256).unwrap();
        let _d = m.alloc(256).unwrap();
        m.free(a).unwrap();
        m.free(c).unwrap();
        m.free(b).unwrap(); // should merge a+b+c into one 768-byte span
        assert_eq!(m.free_list.len(), 1);
        let p = m.alloc(768).unwrap();
        assert_eq!(p, a);
    }

    #[test]
    fn alloc_after_frees_reuses_space() {
        let mut m = MemoryManager::new(4096);
        let ptrs: Vec<_> = (0..16).map(|_| m.alloc(256).unwrap()).collect();
        assert!(m.alloc(256).is_err());
        for p in ptrs {
            m.free(p).unwrap();
        }
        assert_eq!(m.free_bytes(), 4096);
        assert!(m.alloc(4096).is_ok());
    }

    #[test]
    fn memset_fills() {
        let mut m = mm();
        let p = m.alloc(32).unwrap();
        m.memset(p, 0xab, 16).unwrap();
        assert_eq!(m.read(p, 17).unwrap()[..16], [0xab; 16]);
        assert_eq!(m.read(p + 16, 1).unwrap(), &[0]);
    }

    #[test]
    fn dtod_copies_across_blocks() {
        let mut m = mm();
        let a = m.alloc(64).unwrap();
        let b = m.alloc(64).unwrap();
        m.write(a, b"hello world!").unwrap();
        m.copy_dtod(b, a, 12).unwrap();
        assert_eq!(m.read(b, 12).unwrap(), b"hello world!");
    }

    #[test]
    fn versions_bump_on_writes_only() {
        let mut m = mm();
        let p = m.alloc(64).unwrap();
        let v0 = m.version_of(p).unwrap();
        let _ = m.read(p, 8).unwrap();
        assert_eq!(m.version_of(p).unwrap(), v0);
        m.write(p, &[1]).unwrap();
        let v1 = m.version_of(p).unwrap();
        assert!(v1 > v0);
        m.memset(p, 0, 8).unwrap();
        assert!(m.version_of(p).unwrap() > v1);
    }

    #[test]
    fn stats_track_usage() {
        let mut m = mm();
        let p = m.alloc(1000).unwrap(); // rounds to 1024
        assert_eq!(m.stats.allocs, 1);
        assert_eq!(m.stats.bytes_in_use, 1024);
        assert_eq!(m.stats.peak_bytes, 1024);
        m.free(p).unwrap();
        assert_eq!(m.stats.bytes_in_use, 0);
        assert_eq!(m.stats.peak_bytes, 1024);
    }

    #[test]
    fn restore_block_roundtrip() {
        let mut m = mm();
        let p = m.alloc(512).unwrap();
        m.write(p, b"state").unwrap();
        let saved = m.block_bytes(p).unwrap().to_vec();
        m.free(p).unwrap();
        m.restore_block(p, &saved).unwrap();
        assert_eq!(m.read(p, 5).unwrap(), b"state");
        // Restoring over live memory fails.
        assert!(m.restore_block(p, &saved).is_err());
    }

    // -- dirty tracking / deltas -----------------------------------------

    #[test]
    fn dirty_spans_merge_and_clear() {
        let mut m = mm();
        let p = m.alloc(1024).unwrap();
        m.mark_epoch();
        assert!(m.dirty_spans(p).unwrap().is_empty(), "epoch mark clears");
        m.write(p + 16, &[1; 16]).unwrap();
        m.write(p + 32, &[2; 16]).unwrap(); // touches the first span
        m.write(p + 256, &[3; 8]).unwrap();
        assert_eq!(m.dirty_spans(p).unwrap(), vec![(16, 32), (256, 8)]);
        m.write(p + 20, &[4; 200]).unwrap(); // swallows the first span
        assert_eq!(m.dirty_spans(p).unwrap(), vec![(16, 204), (256, 8)]);
        m.mark_epoch();
        assert!(m.dirty_spans(p).unwrap().is_empty());
    }

    #[test]
    fn dirty_overflow_collapses_to_whole_block() {
        let mut m = mm();
        let p = m.alloc(8192).unwrap();
        m.mark_epoch();
        // Disjoint 1-byte writes, two bytes apart: more spans than the cap.
        for i in 0..(MAX_DIRTY_RANGES as u64 + 4) {
            m.write(p + i * 2, &[9]).unwrap();
        }
        assert_eq!(m.dirty_spans(p).unwrap(), vec![(0, 8192)]);
        // Further writes stay collapsed.
        m.write(p + 4000, &[1]).unwrap();
        assert_eq!(m.dirty_spans(p).unwrap(), vec![(0, 8192)]);
    }

    /// Base + deltas reconstruct the source bytes, including the tricky
    /// free-then-realloc-at-the-same-address case, which must travel as
    /// freed + whole new block rather than as an in-place update.
    #[test]
    fn delta_since_reconstructs_source_state() {
        let mut src = MemoryManager::new(1 << 16);
        let mut dst = MemoryManager::new(1 << 16);
        let a = src.alloc(512).unwrap();
        let b = src.alloc(256).unwrap();
        src.write(a, &[1; 512]).unwrap();
        src.write(b, &[2; 256]).unwrap();

        // Base snapshot: delta relative to "knows nothing".
        let mut placed = BTreeMap::new();
        let base = src.delta_since(&BTreeSet::new(), |_| true);
        dst.apply_delta(&base, |_| true, &mut placed).unwrap();
        let known: BTreeSet<u64> = src.live_allocations().map(|(p, _)| p).collect();
        src.mark_epoch();

        // Window: in-place update on `a`, free+realloc at `b`'s address
        // (same first-fit slot, different size), and a brand-new block.
        src.write(a + 64, &[7; 32]).unwrap();
        src.free(b).unwrap();
        let b2 = src.alloc(128).unwrap();
        assert_eq!(b2, b, "first fit reuses the freed slot");
        src.write(b2, &[8; 64]).unwrap();
        let c = src.alloc(256).unwrap();
        src.write(c, &[9; 16]).unwrap();

        let delta = src.delta_since(&known, |_| true);
        assert!(delta.freed.contains(&b), "realloc must free the old block");
        assert_eq!(delta.new_blocks.len(), 2, "reborn b + new c travel whole");
        assert_eq!(delta.dirty.len(), 1, "only a's span is in-place");
        dst.apply_delta(&delta, |_| true, &mut placed).unwrap();
        assert_eq!(placed, BTreeMap::from([(a, 512), (b, 256), (c, 256)]));

        for (p, size) in src.live_allocations() {
            assert_eq!(
                src.block_bytes(p).unwrap(),
                dst.block_bytes(p).unwrap(),
                "block {p:#x} ({size} B) diverged"
            );
        }
        assert_eq!(src.free_bytes(), dst.free_bytes());
    }

    #[test]
    fn delta_payload_is_incremental_not_full() {
        let mut m = MemoryManager::new(1 << 20);
        let p = m.alloc(1 << 18).unwrap();
        m.write(p, &vec![5u8; 1 << 18]).unwrap();
        let known: BTreeSet<u64> = m.live_allocations().map(|(b, _)| b).collect();
        m.mark_epoch();
        m.write(p + 1000, &[1; 100]).unwrap();
        let delta = m.delta_since(&known, |_| true);
        assert_eq!(delta.payload_bytes(), 100);
        assert!(!delta.is_empty());
        m.mark_epoch();
        assert!(m.delta_since(&known, |_| true).is_empty());
    }

    #[test]
    fn patch_stays_inside_its_block() {
        let mut m = MemoryManager::new(1 << 20);
        let a = m.alloc(256).unwrap();
        let b = m.alloc(256).unwrap();
        assert_eq!(b, a + 256, "adjacent, so a + off can land in b");
        m.patch(a, 200, &[1; 56]).unwrap();
        assert_eq!(m.read(a + 200, 56).unwrap(), &[1; 56]);
        // One byte too long, wholly in the neighbour, wrapping, no block.
        for (base, off, len) in [
            (a, 201, 56),
            (a, 256, 8),
            (b, u64::MAX - 255, 8),
            (a + 8, 0, 8),
        ] {
            assert!(
                m.patch(base, off, &vec![9; len]).is_err(),
                "{base:#x}+{off}"
            );
        }
        assert_eq!(m.read(b, 256).unwrap(), &[0; 256]);
    }

    #[test]
    fn apply_delta_rejects_misfit() {
        let mut dst = MemoryManager::new(1 << 16);
        let live = dst.alloc(512).unwrap();
        dst.write(live, &[3; 512]).unwrap();
        let mut placed = BTreeMap::new();
        let new_block = MemDelta {
            new_blocks: vec![(live, vec![0u8; 512])],
            ..MemDelta::default()
        };
        let free = |b| MemDelta {
            freed: vec![b],
            ..MemDelta::default()
        };
        let patch = MemDelta {
            dirty: vec![(live, 0, vec![9u8; 8])],
            ..MemDelta::default()
        };
        let mut refused = |delta: &MemDelta, why: &str| {
            assert!(
                dst.apply_delta(delta, |_| true, &mut placed).is_err(),
                "{why}"
            );
        };
        refused(&new_block, "overlaps live memory");
        refused(&free(live + 8192), "freeing unknown block");
        // A live block this stream did not place is somebody else's.
        refused(&free(live), "freeing a block the stream did not place");
        refused(&patch, "patching a block the stream did not place");
        assert!(placed.is_empty());
        assert_eq!(dst.read(live, 512).unwrap(), &[3; 512]);
        // Entries `here` turns away belong to another manager: not an error.
        dst.apply_delta(&free(live), |_| false, &mut placed)
            .unwrap();
        assert_eq!(dst.read(live, 512).unwrap(), &[3; 512]);
    }

    #[test]
    fn typed_conversions_roundtrip() {
        let f = vec![1.5f32, -2.25, 0.0];
        assert_eq!(bytes_to_f32(&f32_to_bytes(&f)), f);
        let d = vec![1.5f64, -2.25, 1e300];
        assert_eq!(bytes_to_f64(&f64_to_bytes(&d)), d);
        let u = vec![1u32, 0xffff_ffff];
        assert_eq!(bytes_to_u32(&u32_to_bytes(&u)), u);
    }
}
