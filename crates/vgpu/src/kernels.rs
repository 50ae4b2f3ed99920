//! Builtin kernel implementations.
//!
//! Each kernel the proxy applications launch exists here as a Rust function
//! that really executes against device memory, plus an *access analysis*
//! used for (a) the memoization cache keys and (b) the timing model's
//! workload estimate. Kernels follow the semantics of their CUDA-sample
//! namesakes (matrixMul, histogram) so the ported applications validate
//! their results exactly as the originals do.
//!
//! Parameter ABI: the launch parameter blob contains one little-endian
//! 8-byte slot per parameter (pointers and scalars alike), matching how the
//! client stub marshals `void* args[]`.

use crate::error::{span, VgpuError, VgpuResult};
use crate::memory::{bytes_to_f32, MemoryManager};
use crate::timemodel::{Precision, Workload};

/// CUDA dim3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dim3 {
    /// X extent.
    pub x: u32,
    /// Y extent.
    pub y: u32,
    /// Z extent.
    pub z: u32,
}

impl Dim3 {
    /// 1×1×1.
    pub fn one() -> Self {
        Self { x: 1, y: 1, z: 1 }
    }

    /// Linear geometry (x, 1, 1).
    pub fn linear(x: u32) -> Self {
        Self { x, y: 1, z: 1 }
    }

    /// Total element count, saturating at `u64::MAX`: three `u32::MAX`
    /// extents exceed 64 bits, and nothing sized from the count fits.
    pub(crate) fn count(&self) -> u64 {
        (self.x as u64 * self.y as u64).saturating_mul(self.z as u64)
    }
}

/// One kernel launch request.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchConfig {
    /// Grid dimensions (blocks).
    pub grid: Dim3,
    /// Block dimensions (threads).
    pub block: Dim3,
    /// Dynamic shared memory bytes.
    pub shared_mem: u32,
    /// Stream handle (0 = default stream).
    pub stream: u64,
}

/// Typed view over the parameter blob.
#[derive(Debug, Clone, Copy)]
pub struct Params<'a>(&'a [u8]);

impl<'a> Params<'a> {
    /// Wrap a parameter blob, validating slot alignment.
    pub fn new(blob: &'a [u8]) -> VgpuResult<Self> {
        if !blob.len().is_multiple_of(8) {
            return Err(VgpuError::InvalidValue(format!(
                "parameter blob of {} bytes is not 8-byte aligned",
                blob.len()
            )));
        }
        Ok(Self(blob))
    }

    /// Number of 8-byte parameter slots.
    pub fn len(&self) -> usize {
        self.0.len() / 8
    }

    /// True when no parameters were passed.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn slot(&self, i: usize) -> VgpuResult<[u8; 8]> {
        self.0
            .get(i * 8..i * 8 + 8)
            .map(|s| s.try_into().unwrap())
            .ok_or_else(|| VgpuError::InvalidValue(format!("missing kernel parameter {i}")))
    }

    /// Parameter `i` as a device pointer / u64.
    pub fn ptr(&self, i: usize) -> VgpuResult<u64> {
        Ok(u64::from_le_bytes(self.slot(i)?))
    }

    /// Parameter `i` as u32 (low half of the slot).
    pub fn u32(&self, i: usize) -> VgpuResult<u32> {
        let s = self.slot(i)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Parameter `i` as f32 (low half of the slot).
    pub fn f32(&self, i: usize) -> VgpuResult<f32> {
        Ok(f32::from_bits(self.u32(i)?))
    }
}

/// Marshal parameter values into a blob (client-side helper, also used by
/// tests). Every value occupies one 8-byte slot.
#[derive(Debug, Default, Clone)]
pub struct ParamBuilder {
    blob: Vec<u8>,
}

impl ParamBuilder {
    /// Empty parameter list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a device pointer / u64.
    pub fn ptr(mut self, v: u64) -> Self {
        self.blob.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a u32 scalar.
    pub fn u32(mut self, v: u32) -> Self {
        self.blob.extend_from_slice(&(v as u64).to_le_bytes());
        self
    }

    /// Append an f32 scalar.
    pub fn f32(self, v: f32) -> Self {
        self.u32(v.to_bits())
    }

    /// Finish, returning the blob.
    pub fn build(self) -> Vec<u8> {
        self.blob
    }
}

/// At most two memory ranges `(pointer, bytes)`, stored inline so that
/// analysing a launch allocates nothing. Derefs to the slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ranges {
    len: usize,
    slots: [(u64, u64); Ranges::CAP],
}

impl Ranges {
    /// Most ranges one side of a builtin's access set holds (vectorAdd and
    /// matrixMul read two).
    const CAP: usize = 2;
}

impl<const N: usize> From<[(u64, u64); N]> for Ranges {
    fn from(ranges: [(u64, u64); N]) -> Self {
        const { assert!(N <= Ranges::CAP) };
        let mut slots = [(0, 0); Ranges::CAP];
        slots[..N].copy_from_slice(&ranges);
        Self { len: N, slots }
    }
}

impl std::ops::Deref for Ranges {
    type Target = [(u64, u64)];

    fn deref(&self) -> &[(u64, u64)] {
        &self.slots[..self.len]
    }
}

/// Memory ranges a launch will read and write, plus its workload estimate.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Access {
    /// Ranges read (pointer, bytes).
    pub reads: Ranges,
    /// Ranges written (pointer, bytes).
    pub writes: Ranges,
    /// Timing-model workload.
    pub workload: Workload,
}

/// A builtin kernel: access analysis + real execution.
pub struct Builtin {
    /// Kernel symbol name.
    pub name: &'static str,
    /// Parameter slot count the kernel expects.
    pub param_count: usize,
    /// Compute the access set and workload for a launch (no side effects).
    pub(crate) analyze: fn(&LaunchConfig, Params<'_>) -> VgpuResult<Access>,
    /// Execute the kernel against device memory.
    pub execute: fn(&mut MemoryManager, &LaunchConfig, Params<'_>) -> VgpuResult<()>,
}

/// Look up a builtin kernel by symbol name.
pub fn lookup(name: &str) -> Option<&'static Builtin> {
    REGISTRY.iter().find(|b| b.name == name)
}

/// All builtin kernels (for module validation and docs).
pub fn registry() -> &'static [Builtin] {
    REGISTRY
}

/// The f32 in the first four bytes of `b` (device layout, little-endian).
fn f32_le(b: &[u8]) -> f32 {
    f32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

// ---------------------------------------------------------------------------
// empty kernel — the Fig. 6c micro-benchmark target
// ---------------------------------------------------------------------------

fn empty_analyze(_cfg: &LaunchConfig, _p: Params<'_>) -> VgpuResult<Access> {
    Ok(Access {
        reads: [].into(),
        writes: [].into(),
        workload: Workload {
            flops: 0.0,
            bytes: 0.0,
            precision: Precision::F32,
        },
    })
}

fn empty_execute(_m: &mut MemoryManager, _cfg: &LaunchConfig, _p: Params<'_>) -> VgpuResult<()> {
    Ok(())
}

// ---------------------------------------------------------------------------
// vectorAdd(C, A, B, n) — quickstart example
// ---------------------------------------------------------------------------

fn vector_add_analyze(_cfg: &LaunchConfig, p: Params<'_>) -> VgpuResult<Access> {
    // `n` is 32-bit, so no size below can overflow.
    let (c, a, b, n) = (p.ptr(0)?, p.ptr(1)?, p.ptr(2)?, p.u32(3)? as u64);
    Ok(Access {
        reads: [(a, n * 4), (b, n * 4)].into(),
        writes: [(c, n * 4)].into(),
        workload: Workload {
            flops: n as f64,
            bytes: (n * 12) as f64,
            precision: Precision::F32,
        },
    })
}

fn vector_add_execute(m: &mut MemoryManager, cfg: &LaunchConfig, p: Params<'_>) -> VgpuResult<()> {
    let (c, a, b, n) = (p.ptr(0)?, p.ptr(1)?, p.ptr(2)?, p.u32(3)? as u64);
    let threads = cfg.grid.count().saturating_mul(cfg.block.count());
    if threads < n {
        return Err(VgpuError::LaunchFailure(format!(
            "vectorAdd launched with {threads} threads for {n} elements"
        )));
    }
    let (av, bv) = (m.read(a, n * 4)?, m.read(b, n * 4)?);
    let mut cv = Vec::with_capacity(av.len());
    for (x, y) in av.chunks_exact(4).zip(bv.chunks_exact(4)) {
        cv.extend_from_slice(&(f32_le(x) + f32_le(y)).to_le_bytes());
    }
    m.write(c, &cv)
}

// ---------------------------------------------------------------------------
// matrixMulCUDA(C, A, B, wA, wB) — the Fig. 5a workload
//
// Geometry follows the CUDA sample: block = (32, 32), grid = (wB/32, hA/32),
// so hA = grid.y * 32. C (hA×wB) = A (hA×wA) × B (wA×wB), row-major.
// ---------------------------------------------------------------------------

/// A matrixMul launch's operands and their byte lengths.
struct MatrixMul {
    c: u64,
    a: u64,
    b: u64,
    wa: u64,
    wb: u64,
    ha: u64,
    a_len: u64,
    b_len: u64,
    c_len: u64,
}

fn matrix_mul_dims(cfg: &LaunchConfig, p: Params<'_>) -> VgpuResult<MatrixMul> {
    let (c, a, b) = (p.ptr(0)?, p.ptr(1)?, p.ptr(2)?);
    let wa = p.u32(3)? as u64;
    let wb = p.u32(4)? as u64;
    let ha = cfg.grid.y as u64 * cfg.block.y as u64;
    if wa == 0 || wb == 0 || ha == 0 {
        return Err(VgpuError::InvalidValue(
            "matrixMul with zero dimension".into(),
        ));
    }
    Ok(MatrixMul {
        c,
        a,
        b,
        wa,
        wb,
        ha,
        a_len: span("matrixMul A", &[ha, wa, 4])?,
        b_len: span("matrixMul B", &[wa, wb, 4])?,
        c_len: span("matrixMul C", &[ha, wb, 4])?,
    })
}

fn matrix_mul_analyze(cfg: &LaunchConfig, p: Params<'_>) -> VgpuResult<Access> {
    let mm = matrix_mul_dims(cfg, p)?;
    Ok(Access {
        reads: [(mm.a, mm.a_len), (mm.b, mm.b_len)].into(),
        writes: [(mm.c, mm.c_len)].into(),
        workload: Workload {
            flops: 2.0 * mm.ha as f64 * mm.wa as f64 * mm.wb as f64,
            bytes: mm.a_len as f64 + mm.b_len as f64 + mm.c_len as f64,
            precision: Precision::F32,
        },
    })
}

/// Rows of C computed together, sharing each row of B they read.
const TILE_ROWS: usize = 4;
/// Columns of C held in registers across the whole k loop.
const TILE_COLS: usize = 8;

fn matrix_mul_execute(m: &mut MemoryManager, cfg: &LaunchConfig, p: Params<'_>) -> VgpuResult<()> {
    let mm = matrix_mul_dims(cfg, p)?;
    let (wa, wb, ha) = (mm.wa as usize, mm.wb as usize, mm.ha as usize);
    let (ab, bb) = (m.read(mm.a, mm.a_len)?, m.read(mm.b, mm.b_len)?);
    // A by row tiles: entry `t * wA + k` holds A[t * TILE_ROWS + r][k] for
    // each r, rows past hA zero.
    let mut a_tiles = vec![[0f32; TILE_ROWS]; ha.div_ceil(TILE_ROWS) * wa];
    for (i, row) in ab.chunks_exact(4 * wa).enumerate() {
        let tile = &mut a_tiles[i / TILE_ROWS * wa..][..wa];
        for (t, v) in tile.iter_mut().zip(row.chunks_exact(4)) {
            t[i % TILE_ROWS] = f32_le(v);
        }
    }
    let mut b_panel = vec![[0f32; TILE_COLS]; wa];
    let mut cv = vec![0u8; mm.c_len as usize];
    for j0 in (0..wb).step_by(TILE_COLS) {
        let cols = TILE_COLS.min(wb - j0);
        // Columns j0.. of B as one contiguous panel, columns past wB zero.
        for (k, panel_row) in b_panel.iter_mut().enumerate() {
            let src = &bb[4 * (k * wb + j0)..][..4 * cols];
            *panel_row = [0.0; TILE_COLS];
            for (d, s) in panel_row.iter_mut().zip(src.chunks_exact(4)) {
                *d = f32_le(s);
            }
        }
        for (t, a_tile) in a_tiles.chunks_exact(wa).enumerate() {
            // Every element of C sums its k terms in order, from 0.0, just
            // as a naive ikj loop does: the output is bit-identical to it.
            let mut acc = [[0f32; TILE_COLS]; TILE_ROWS];
            for (a, b) in a_tile.iter().zip(&b_panel) {
                for (acc_row, &ar) in acc.iter_mut().zip(a) {
                    for (c, &bc) in acc_row.iter_mut().zip(b) {
                        *c += ar * bc;
                    }
                }
            }
            let rows = TILE_ROWS.min(ha - t * TILE_ROWS);
            for (r, acc_row) in acc.iter().enumerate().take(rows) {
                let out = &mut cv[4 * ((t * TILE_ROWS + r) * wb + j0)..][..4 * cols];
                for (o, v) in out.chunks_exact_mut(4).zip(acc_row) {
                    o.copy_from_slice(&v.to_le_bytes());
                }
            }
        }
    }
    m.write(mm.c, &cv)
}

// ---------------------------------------------------------------------------
// histogram64 / histogram256 — the Fig. 5c workload
//
// Semantics follow the CUDA sample: the input is an array of bytes; the
// 64-bin variant bins by the top 6 bits of each byte (byte >> 2), the
// 256-bin variant by the full byte. Each block produces a partial histogram
// over a strided share of the data; a merge kernel reduces the partials.
// Partial layout: partial[block * BINS + bin] (u32 counts).
// ---------------------------------------------------------------------------

/// Bytes of `blocks` partial histograms of `bins` u32 counts.
fn partials_len(blocks: u64, bins: usize) -> VgpuResult<u64> {
    span("histogram partials", &[blocks, bins as u64, 4])
}

fn histogram_analyze<const BINS: usize>(cfg: &LaunchConfig, p: Params<'_>) -> VgpuResult<Access> {
    let (partial, data, byte_count) = (p.ptr(0)?, p.ptr(1)?, p.u32(2)? as u64);
    let out_len = partials_len(cfg.grid.count(), BINS)?;
    Ok(Access {
        reads: [(data, byte_count)].into(),
        writes: [(partial, out_len)].into(),
        workload: Workload {
            flops: byte_count as f64,
            bytes: byte_count as f64 + out_len as f64,
            precision: Precision::F32,
        },
    })
}

fn histogram_execute<const BINS: usize, const SHIFT: u32>(
    m: &mut MemoryManager,
    cfg: &LaunchConfig,
    p: Params<'_>,
) -> VgpuResult<()> {
    let (partial, data, byte_count) = (p.ptr(0)?, p.ptr(1)?, p.u32(2)? as u64);
    let blocks = cfg.grid.count();
    if blocks == 0 {
        return Err(VgpuError::InvalidValue("histogram with zero blocks".into()));
    }
    // The partials are sized from the grid: refuse a grid whose partials
    // would not fit their allocation before allocating them.
    let out_len = partials_len(blocks, BINS)?;
    m.range_version(partial, out_len, |_, _| true)?;
    let input = m.read(data, byte_count)?;
    let mut partials = vec![[0u32; BINS]; blocks as usize];
    // Block b handles bytes b, b+blocks, b+2*blocks, ... (strided), like
    // the sample's grid-stride loop: byte i of each blocks-long chunk.
    for chunk in input.chunks(blocks as usize) {
        for (hist, &byte) in partials.iter_mut().zip(chunk) {
            hist[(byte >> SHIFT) as usize] += 1;
        }
    }
    m.update(partial, out_len, |out| {
        for (o, n) in out.chunks_exact_mut(4).zip(partials.as_flattened()) {
            o.copy_from_slice(&n.to_le_bytes());
        }
    })
}

fn merge_histogram_analyze<const BINS: usize>(
    _cfg: &LaunchConfig,
    p: Params<'_>,
) -> VgpuResult<Access> {
    // `count` is 32-bit and BINS at most 256: no size below can overflow.
    let (out, partial, count) = (p.ptr(0)?, p.ptr(1)?, p.u32(2)? as u64);
    let bins = BINS as u64;
    Ok(Access {
        reads: [(partial, count * bins * 4)].into(),
        writes: [(out, bins * 4)].into(),
        workload: Workload {
            flops: (count * bins) as f64,
            bytes: ((count + 1) * bins * 4) as f64,
            precision: Precision::F32,
        },
    })
}

fn merge_histogram_execute<const BINS: usize>(
    m: &mut MemoryManager,
    _cfg: &LaunchConfig,
    p: Params<'_>,
) -> VgpuResult<()> {
    let (out, partial, count) = (p.ptr(0)?, p.ptr(1)?, p.u32(2)? as u64);
    let mut merged = [0u32; BINS];
    for row in m
        .read(partial, count * BINS as u64 * 4)?
        .chunks_exact(4 * BINS)
    {
        for (sum, n) in merged.iter_mut().zip(row.chunks_exact(4)) {
            *sum = sum.wrapping_add(u32::from_le_bytes([n[0], n[1], n[2], n[3]]));
        }
    }
    m.update(out, BINS as u64 * 4, |o| {
        for (o, n) in o.chunks_exact_mut(4).zip(merged) {
            o.copy_from_slice(&n.to_le_bytes());
        }
    })
}

// ---------------------------------------------------------------------------
// saxpy(Y, X, alpha, n) — used by tests and the multi-tenant example
// ---------------------------------------------------------------------------

fn saxpy_analyze(_cfg: &LaunchConfig, p: Params<'_>) -> VgpuResult<Access> {
    // `n` is 32-bit, so no size below can overflow.
    let (y, x, _alpha, n) = (p.ptr(0)?, p.ptr(1)?, p.f32(2)?, p.u32(3)? as u64);
    Ok(Access {
        reads: [(x, n * 4), (y, n * 4)].into(),
        writes: [(y, n * 4)].into(),
        workload: Workload {
            flops: 2.0 * n as f64,
            bytes: (n * 12) as f64,
            precision: Precision::F32,
        },
    })
}

fn saxpy_execute(m: &mut MemoryManager, _cfg: &LaunchConfig, p: Params<'_>) -> VgpuResult<()> {
    let (y, x, alpha, n) = (p.ptr(0)?, p.ptr(1)?, p.f32(2)?, p.u32(3)? as u64);
    // X is copied out: it may share Y's block, which is updated in place.
    let xv = bytes_to_f32(m.read(x, n * 4)?);
    m.update(y, n * 4, |yb| {
        for (yi, xi) in yb.chunks_exact_mut(4).zip(&xv) {
            yi.copy_from_slice(&(f32_le(yi) + alpha * xi).to_le_bytes());
        }
    })
}

static REGISTRY: &[Builtin] = &[
    Builtin {
        name: "empty",
        param_count: 0,
        analyze: empty_analyze,
        execute: empty_execute,
    },
    Builtin {
        name: "vectorAdd",
        param_count: 4,
        analyze: vector_add_analyze,
        execute: vector_add_execute,
    },
    Builtin {
        name: "matrixMulCUDA",
        param_count: 5,
        analyze: matrix_mul_analyze,
        execute: matrix_mul_execute,
    },
    Builtin {
        name: "histogram64Kernel",
        param_count: 3,
        analyze: histogram_analyze::<64>,
        execute: histogram_execute::<64, 2>,
    },
    Builtin {
        name: "mergeHistogram64Kernel",
        param_count: 3,
        analyze: merge_histogram_analyze::<64>,
        execute: merge_histogram_execute::<64>,
    },
    Builtin {
        name: "histogram256Kernel",
        param_count: 3,
        analyze: histogram_analyze::<256>,
        execute: histogram_execute::<256, 0>,
    },
    Builtin {
        name: "mergeHistogram256Kernel",
        param_count: 3,
        analyze: merge_histogram_analyze::<256>,
        execute: merge_histogram_execute::<256>,
    },
    Builtin {
        name: "saxpy",
        param_count: 4,
        analyze: saxpy_analyze,
        execute: saxpy_execute,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{bytes_to_u32, f32_to_bytes, f64_to_bytes};

    impl Params<'_> {
        /// Parameter `i` as i32.
        fn i32(&self, i: usize) -> VgpuResult<i32> {
            Ok(self.u32(i)? as i32)
        }

        /// Parameter `i` as f64.
        fn f64(&self, i: usize) -> VgpuResult<f64> {
            Ok(f64::from_bits(u64::from_le_bytes(self.slot(i)?)))
        }
    }

    impl ParamBuilder {
        /// Append an i32 scalar.
        fn i32(self, v: i32) -> Self {
            self.u32(v as u32)
        }

        /// Append an f64 scalar.
        fn f64(mut self, v: f64) -> Self {
            self.blob.extend_from_slice(&v.to_bits().to_le_bytes());
            self
        }
    }

    fn mem() -> MemoryManager {
        MemoryManager::new(64 << 20)
    }

    fn cfg(grid: Dim3, block: Dim3) -> LaunchConfig {
        LaunchConfig {
            grid,
            block,
            shared_mem: 0,
            stream: 0,
        }
    }

    #[test]
    fn registry_lookup() {
        assert!(lookup("matrixMulCUDA").is_some());
        assert!(lookup("histogram256Kernel").is_some());
        assert!(lookup("no_such_kernel").is_none());
        assert_eq!(lookup("vectorAdd").unwrap().param_count, 4);
    }

    #[test]
    fn param_builder_roundtrip() {
        let blob = ParamBuilder::new()
            .ptr(0xdead_beef)
            .u32(42)
            .f32(1.5)
            .f64(-2.25)
            .i32(-7)
            .build();
        let p = Params::new(&blob).unwrap();
        assert_eq!(p.len(), 5);
        assert_eq!(p.ptr(0).unwrap(), 0xdead_beef);
        assert_eq!(p.u32(1).unwrap(), 42);
        assert_eq!(p.f32(2).unwrap(), 1.5);
        assert_eq!(p.f64(3).unwrap(), -2.25);
        assert_eq!(p.i32(4).unwrap(), -7);
        assert!(p.ptr(5).is_err());
        let _ = f64_to_bytes(&[]); // silence unused import on some cfgs
    }

    #[test]
    fn unaligned_params_rejected() {
        assert!(Params::new(&[0u8; 7]).is_err());
        assert!(Params::new(&[]).unwrap().is_empty());
    }

    #[test]
    fn vector_add_computes() {
        let mut m = mem();
        let n = 1000u64;
        let a = m.alloc(n * 4).unwrap();
        let b = m.alloc(n * 4).unwrap();
        let c = m.alloc(n * 4).unwrap();
        let av: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let bv: Vec<f32> = (0..n).map(|i| 2.0 * i as f32).collect();
        m.write(a, &f32_to_bytes(&av)).unwrap();
        m.write(b, &f32_to_bytes(&bv)).unwrap();
        let blob = ParamBuilder::new()
            .ptr(c)
            .ptr(a)
            .ptr(b)
            .u32(n as u32)
            .build();
        let k = lookup("vectorAdd").unwrap();
        (k.execute)(
            &mut m,
            &cfg(Dim3::linear(4), Dim3::linear(256)),
            Params::new(&blob).unwrap(),
        )
        .unwrap();
        let cv = bytes_to_f32(m.read(c, n * 4).unwrap());
        for (i, v) in cv.iter().enumerate().take(n as usize) {
            assert_eq!(*v, 3.0 * i as f32);
        }
    }

    #[test]
    fn vector_add_underprovisioned_launch_fails() {
        let mut m = mem();
        let a = m.alloc(4096).unwrap();
        let blob = ParamBuilder::new().ptr(a).ptr(a).ptr(a).u32(1024).build();
        let k = lookup("vectorAdd").unwrap();
        let err = (k.execute)(
            &mut m,
            &cfg(Dim3::linear(1), Dim3::linear(256)),
            Params::new(&blob).unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, VgpuError::LaunchFailure(_)));
    }

    #[test]
    fn matrix_mul_matches_reference() {
        let mut m = mem();
        let (ha, wa, wb) = (64usize, 32usize, 96usize);
        let a = m.alloc((ha * wa * 4) as u64).unwrap();
        let b = m.alloc((wa * wb * 4) as u64).unwrap();
        let c = m.alloc((ha * wb * 4) as u64).unwrap();
        let av: Vec<f32> = (0..ha * wa).map(|i| (i % 7) as f32 * 0.5).collect();
        let bv: Vec<f32> = (0..wa * wb).map(|i| (i % 5) as f32 - 2.0).collect();
        m.write(a, &f32_to_bytes(&av)).unwrap();
        m.write(b, &f32_to_bytes(&bv)).unwrap();
        let blob = ParamBuilder::new()
            .ptr(c)
            .ptr(a)
            .ptr(b)
            .u32(wa as u32)
            .u32(wb as u32)
            .build();
        let k = lookup("matrixMulCUDA").unwrap();
        let launch = cfg(
            Dim3 {
                x: (wb / 32) as u32,
                y: (ha / 32) as u32,
                z: 1,
            },
            Dim3 { x: 32, y: 32, z: 1 },
        );
        (k.execute)(&mut m, &launch, Params::new(&blob).unwrap()).unwrap();
        let cv = bytes_to_f32(m.read(c, (ha * wb * 4) as u64).unwrap());
        // Reference: naive triple loop.
        for i in [0usize, 5, 63] {
            for j in [0usize, 17, 95] {
                let mut acc = 0f32;
                for k in 0..wa {
                    acc += av[i * wa + k] * bv[k * wb + j];
                }
                assert!(
                    (cv[i * wb + j] - acc).abs() <= 1e-3 * acc.abs().max(1.0),
                    "C[{i},{j}] = {} expected {acc}",
                    cv[i * wb + j]
                );
            }
        }
    }

    #[test]
    fn histogram_roundtrip_64_and_256() {
        let mut m = mem();
        let bytes: Vec<u8> = (0..10_000u32).map(|i| (i * 37 % 256) as u8).collect();
        let data = m.alloc(bytes.len() as u64).unwrap();
        m.write(data, &bytes).unwrap();
        for (bins, shift, hist, merge) in [
            (64usize, 2u32, "histogram64Kernel", "mergeHistogram64Kernel"),
            (256, 0, "histogram256Kernel", "mergeHistogram256Kernel"),
        ] {
            let blocks = 24u32;
            let partial = m.alloc((blocks as usize * bins * 4) as u64).unwrap();
            let out = m.alloc((bins * 4) as u64).unwrap();
            let blob = ParamBuilder::new()
                .ptr(partial)
                .ptr(data)
                .u32(bytes.len() as u32)
                .build();
            (lookup(hist).unwrap().execute)(
                &mut m,
                &cfg(Dim3::linear(blocks), Dim3::linear(64)),
                Params::new(&blob).unwrap(),
            )
            .unwrap();
            let blob = ParamBuilder::new()
                .ptr(out)
                .ptr(partial)
                .u32(blocks)
                .build();
            (lookup(merge).unwrap().execute)(
                &mut m,
                &cfg(Dim3::linear(bins as u32), Dim3::linear(64)),
                Params::new(&blob).unwrap(),
            )
            .unwrap();
            let result = bytes_to_u32(m.read(out, (bins * 4) as u64).unwrap());
            let mut expected = vec![0u32; bins];
            for &b in &bytes {
                expected[(b >> shift) as usize] += 1;
            }
            assert_eq!(result, expected, "{bins}-bin histogram");
            assert_eq!(result.iter().sum::<u32>() as usize, bytes.len());
            m.free(partial).unwrap();
            m.free(out).unwrap();
        }
    }

    #[test]
    fn saxpy_updates_in_place() {
        let mut m = mem();
        let n = 128u64;
        let x = m.alloc(n * 4).unwrap();
        let y = m.alloc(n * 4).unwrap();
        m.write(x, &f32_to_bytes(&vec![2.0; n as usize])).unwrap();
        m.write(y, &f32_to_bytes(&vec![1.0; n as usize])).unwrap();
        let blob = ParamBuilder::new()
            .ptr(y)
            .ptr(x)
            .f32(3.0)
            .u32(n as u32)
            .build();
        (lookup("saxpy").unwrap().execute)(
            &mut m,
            &cfg(Dim3::linear(1), Dim3::linear(128)),
            Params::new(&blob).unwrap(),
        )
        .unwrap();
        let yv = bytes_to_f32(m.read(y, n * 4).unwrap());
        assert!(yv.iter().all(|&v| v == 7.0));
    }

    #[test]
    fn analyze_reports_sane_access_sets() {
        let blob = ParamBuilder::new()
            .ptr(0x100)
            .ptr(0x200)
            .ptr(0x300)
            .u32(64)
            .u32(32)
            .build();
        let k = lookup("matrixMulCUDA").unwrap();
        let launch = cfg(Dim3 { x: 1, y: 2, z: 1 }, Dim3 { x: 32, y: 32, z: 1 });
        let acc = (k.analyze)(&launch, Params::new(&blob).unwrap()).unwrap();
        // hA = 64, wA = 64, wB = 32.
        assert_eq!(acc.reads[0], (0x200, 64 * 64 * 4));
        assert_eq!(acc.reads[1], (0x300, 64 * 32 * 4));
        assert_eq!(acc.writes[0], (0x100, 64 * 32 * 4));
        assert!(acc.workload.flops > 0.0);
    }
}
