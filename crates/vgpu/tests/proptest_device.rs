//! Property tests for the simulated GPU: allocator invariants under random
//! operation sequences, fatbin codec round-trips, module container fuzzing,
//! and every builtin kernel bit-identical to a naive loop.

use proptest::prelude::*;
use vgpu::kernels::{self, Dim3, LaunchConfig, ParamBuilder, Params};
use vgpu::memory::{bytes_to_u32, f32_to_bytes, u32_to_bytes, MemoryManager, ALLOC_ALIGN};
use vgpu::module::{Cubin, CubinBuilder};
use vgpu::{fatbin, VgpuError};

/// Random alloc/free program against the allocator; checks the core
/// invariants after every step: alignment, no overlap between live blocks,
/// exact free-byte accounting.
#[derive(Debug, Clone)]
enum Op {
    Alloc(u64),
    FreeIdx(usize),
    Write(usize, u8, u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..100_000).prop_map(Op::Alloc),
        any::<usize>().prop_map(Op::FreeIdx),
        (any::<usize>(), any::<u8>(), 1u16..512).prop_map(|(i, v, n)| Op::Write(i, v, n)),
    ]
}

proptest! {
    #[test]
    fn allocator_invariants_hold_under_random_programs(
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let total = 16u64 << 20;
        let mut mm = MemoryManager::new(total);
        let mut live: Vec<(u64, u64)> = Vec::new(); // (ptr, rounded size)

        for op in ops {
            match op {
                Op::Alloc(size) => {
                    if let Ok(ptr) = mm.alloc(size) {
                        prop_assert_eq!(ptr % ALLOC_ALIGN, 0);
                        let rounded = size.max(1).div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
                        // No overlap with any live block.
                        for &(p, s) in &live {
                            prop_assert!(
                                ptr + rounded <= p || p + s <= ptr,
                                "overlap: new {ptr:#x}+{rounded} with {p:#x}+{s}"
                            );
                        }
                        live.push((ptr, rounded));
                    }
                }
                Op::FreeIdx(i) => {
                    if !live.is_empty() {
                        let (ptr, _) = live.swap_remove(i % live.len());
                        mm.free(ptr).unwrap();
                        // Double free must fail.
                        prop_assert_eq!(mm.free(ptr), Err(VgpuError::InvalidFree(ptr)));
                    }
                }
                Op::Write(i, v, n) => {
                    if !live.is_empty() {
                        let (ptr, size) = live[i % live.len()];
                        let n = (n as u64).min(size);
                        mm.write(ptr, &vec![v; n as usize]).unwrap();
                        prop_assert_eq!(mm.read(ptr, n).unwrap(), &vec![v; n as usize][..]);
                    }
                }
            }
            // Accounting: free + live == total.
            let live_bytes: u64 = live.iter().map(|&(_, s)| s).sum();
            prop_assert_eq!(mm.free_bytes() + live_bytes, total);
        }
    }

    #[test]
    fn fatbin_roundtrip_arbitrary_data(
        data in proptest::collection::vec(any::<u8>(), 0..20_000),
    ) {
        let c = fatbin::compress(&data);
        prop_assert_eq!(fatbin::decompress(&c).unwrap(), data);
    }

    #[test]
    fn fatbin_roundtrip_compressible_data(
        word in proptest::collection::vec(any::<u8>(), 1..32),
        repeats in 1usize..2_000,
    ) {
        let data: Vec<u8> = word.iter().cycle().take(word.len() * repeats).copied().collect();
        let c = fatbin::compress(&data);
        prop_assert_eq!(fatbin::decompress(&c).unwrap(), data);
    }

    #[test]
    fn fatbin_decompress_never_panics_on_garbage(
        data in proptest::collection::vec(any::<u8>(), 0..4_096),
    ) {
        let _ = fatbin::decompress(&data);
    }

    #[test]
    fn cubin_parse_never_panics_on_garbage(
        mut data in proptest::collection::vec(any::<u8>(), 0..4_096),
    ) {
        let _ = Cubin::parse(&data);
        // Also with a valid magic prepended.
        let mut with_magic = b"VCUB".to_vec();
        with_magic.append(&mut data);
        let _ = Cubin::parse(&with_magic);
    }

    #[test]
    fn cubin_roundtrip_arbitrary_metadata(
        kernels in proptest::collection::vec(
            ("[a-zA-Z][a-zA-Z0-9_]{0,24}", proptest::collection::vec(1u32..64, 0..8)),
            0..6),
        code in proptest::collection::vec(any::<u8>(), 0..2_000),
        compressed: bool,
    ) {
        let mut b = CubinBuilder::new().code(&code);
        for (name, params) in &kernels {
            b = b.kernel(name, params);
        }
        let image = b.build(compressed);
        let cubin = Cubin::parse(&image).unwrap();
        prop_assert_eq!(cubin.kernels.len(), kernels.len());
        for ((name, params), meta) in kernels.iter().zip(&cubin.kernels) {
            prop_assert_eq!(&meta.name, name);
            prop_assert_eq!(&meta.param_sizes, params);
        }
        prop_assert_eq!(cubin.code, code);
    }
}

// ---------------------------------------------------------------------------
// Bit-identity oracle: every builtin kernel against the obvious loop.
// ---------------------------------------------------------------------------

/// The builtins as plain loops over host vectors. The device's bodies may
/// tile, chunk and skip copies, but must produce these bytes exactly: the
/// inputs are random finite floats, so any reassociation changes bits.
mod naive {
    pub fn vector_add(a: &[f32], b: &[f32]) -> Vec<f32> {
        a.iter().zip(b).map(|(x, y)| x + y).collect()
    }

    /// ikj order: each C element sums its k terms in order, from 0.0.
    pub fn matrix_mul(a: &[f32], b: &[f32], ha: usize, wa: usize, wb: usize) -> Vec<f32> {
        let mut c = vec![0f32; ha * wb];
        for i in 0..ha {
            for k in 0..wa {
                let aik = a[i * wa + k];
                for j in 0..wb {
                    c[i * wb + j] += aik * b[k * wb + j];
                }
            }
        }
        c
    }

    /// Block `idx % blocks` counts byte `idx`.
    pub fn histogram(input: &[u8], blocks: usize, bins: usize, shift: u32) -> Vec<u32> {
        let mut partials = vec![0u32; blocks * bins];
        for (idx, &byte) in input.iter().enumerate() {
            partials[idx % blocks * bins + (byte >> shift) as usize] += 1;
        }
        partials
    }

    pub fn merge(partials: &[u32], count: usize, bins: usize) -> Vec<u32> {
        let mut merged = vec![0u32; bins];
        for block in 0..count {
            for bin in 0..bins {
                merged[bin] = merged[bin].wrapping_add(partials[block * bins + bin]);
            }
        }
        merged
    }

    pub fn saxpy(y: &[f32], x: &[f32], alpha: f32) -> Vec<f32> {
        y.iter().zip(x).map(|(yi, xi)| yi + alpha * xi).collect()
    }
}

/// Deterministic filler for kernel inputs (xorshift64).
struct Fill(u64);

impl Fill {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Finite f32s in [-1000, 1000) with full random mantissas.
    fn floats(&mut self, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| (self.next() >> 11) as f32 / (1u64 << 53) as f32 * 2000.0 - 1000.0)
            .collect()
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

fn launch_cfg(grid: Dim3, block: Dim3) -> LaunchConfig {
    LaunchConfig {
        grid,
        block,
        shared_mem: 0,
        stream: 0,
    }
}

/// Run builtin `name` directly against `m`.
fn run(m: &mut MemoryManager, name: &str, grid: Dim3, block: Dim3, params: &[u8]) {
    let k = kernels::lookup(name).unwrap();
    (k.execute)(m, &launch_cfg(grid, block), Params::new(params).unwrap()).unwrap();
}

/// Allocate and fill a device buffer with `bytes`.
fn upload(m: &mut MemoryManager, bytes: &[u8]) -> u64 {
    let p = m.alloc(bytes.len() as u64).unwrap();
    m.write(p, bytes).unwrap();
    p
}

/// The builtins the properties below cover; a new one must join them.
const ORACLED: [&str; 8] = [
    "empty",
    "vectorAdd",
    "matrixMulCUDA",
    "histogram64Kernel",
    "mergeHistogram64Kernel",
    "histogram256Kernel",
    "mergeHistogram256Kernel",
    "saxpy",
];

#[test]
fn every_builtin_has_a_bit_identity_oracle() {
    for b in kernels::registry() {
        assert!(ORACLED.contains(&b.name), "no oracle for `{}`", b.name);
    }
}

proptest! {
    /// Ragged tiles included: hA runs 1..=16 through every remainder of a
    /// row tile, wB 1..=40 through every remainder of a column tile.
    #[test]
    fn matrix_mul_is_bit_identical_to_the_naive_loop(
        grid_y in 1u32..5,
        block_y in 1u32..5,
        wa in 1usize..48,
        wb in 1usize..41,
        seed in 1u64..u64::MAX,
    ) {
        let ha = (grid_y * block_y) as usize;
        let mut fill = Fill(seed);
        let (a, b) = (fill.floats(ha * wa), fill.floats(wa * wb));
        let mut m = MemoryManager::new(16 << 20);
        let (pa, pb) = (upload(&mut m, &f32_to_bytes(&a)), upload(&mut m, &f32_to_bytes(&b)));
        let pc = m.alloc((ha * wb * 4) as u64).unwrap();
        let params = ParamBuilder::new().ptr(pc).ptr(pa).ptr(pb).u32(wa as u32).u32(wb as u32).build();
        let grid = Dim3 { x: 1, y: grid_y, z: 1 };
        let block = Dim3 { x: 1, y: block_y, z: 1 };
        run(&mut m, "matrixMulCUDA", grid, block, &params);
        let want = f32_to_bytes(&naive::matrix_mul(&a, &b, ha, wa, wb));
        prop_assert_eq!(m.read(pc, (ha * wb * 4) as u64).unwrap(), &want[..]);
    }

    /// Byte counts that are not a multiple of the block count, one block,
    /// and more blocks than bytes; then the merge over those partials.
    #[test]
    fn histograms_are_bit_identical_to_the_naive_loop(
        byte_count in 0usize..3000,
        blocks in prop_oneof![Just(1u32), 2u32..64, 3000u32..3100],
        seed in 1u64..u64::MAX,
    ) {
        let input = Fill(seed).bytes(byte_count);
        let mut m = MemoryManager::new(16 << 20);
        let data = upload(&mut m, &input);
        for (bins, shift, hist, merge) in [
            (64usize, 2u32, "histogram64Kernel", "mergeHistogram64Kernel"),
            (256, 0, "histogram256Kernel", "mergeHistogram256Kernel"),
        ] {
            let len = (blocks as usize * bins * 4) as u64;
            let partial = m.alloc(len).unwrap();
            let params = ParamBuilder::new().ptr(partial).ptr(data).u32(byte_count as u32).build();
            run(&mut m, hist, Dim3::linear(blocks), Dim3::linear(64), &params);
            let partials = naive::histogram(&input, blocks as usize, bins, shift);
            prop_assert_eq!(bytes_to_u32(m.read(partial, len).unwrap()), partials.clone());

            let out = m.alloc((bins * 4) as u64).unwrap();
            let params = ParamBuilder::new().ptr(out).ptr(partial).u32(blocks).build();
            run(&mut m, merge, Dim3::linear(bins as u32), Dim3::linear(64), &params);
            prop_assert_eq!(
                bytes_to_u32(m.read(out, (bins * 4) as u64).unwrap()),
                naive::merge(&partials, blocks as usize, bins)
            );
        }
    }

    /// The merge over arbitrary partials, whose sums may wrap.
    #[test]
    fn merges_of_arbitrary_partials_are_bit_identical(
        count in 0usize..40,
        seed in 1u64..u64::MAX,
    ) {
        let mut fill = Fill(seed);
        let mut m = MemoryManager::new(16 << 20);
        for (bins, merge) in [(64usize, "mergeHistogram64Kernel"), (256, "mergeHistogram256Kernel")] {
            let partials: Vec<u32> = (0..count * bins).map(|_| fill.next() as u32).collect();
            let partial = m.alloc((count * bins * 4).max(1) as u64).unwrap();
            m.write(partial, &u32_to_bytes(&partials)).unwrap();
            let out = m.alloc((bins * 4) as u64).unwrap();
            let params = ParamBuilder::new().ptr(out).ptr(partial).u32(count as u32).build();
            run(&mut m, merge, Dim3::linear(bins as u32), Dim3::linear(64), &params);
            prop_assert_eq!(
                bytes_to_u32(m.read(out, (bins * 4) as u64).unwrap()),
                naive::merge(&partials, count, bins)
            );
        }
    }

    /// vectorAdd and saxpy (in place, and with X aliasing Y); `empty`
    /// touches nothing.
    #[test]
    fn elementwise_kernels_are_bit_identical_to_the_naive_loop(
        n in 0usize..600,
        seed in 1u64..u64::MAX,
    ) {
        let mut fill = Fill(seed);
        let (a, b) = (fill.floats(n), fill.floats(n));
        let alpha = fill.floats(1)[0];
        let mut m = MemoryManager::new(16 << 20);
        let (pa, pb) = (upload(&mut m, &f32_to_bytes(&a)), upload(&mut m, &f32_to_bytes(&b)));
        let pc = m.alloc((n * 4).max(1) as u64).unwrap();
        let len = (n * 4) as u64;
        let grid = Dim3::linear((n as u32).div_ceil(64).max(1));
        let params = ParamBuilder::new().ptr(pc).ptr(pa).ptr(pb).u32(n as u32).build();
        run(&mut m, "vectorAdd", grid, Dim3::linear(64), &params);
        prop_assert_eq!(m.read(pc, len).unwrap(), &f32_to_bytes(&naive::vector_add(&a, &b))[..]);

        let params = ParamBuilder::new().ptr(pb).ptr(pa).f32(alpha).u32(n as u32).build();
        run(&mut m, "saxpy", grid, Dim3::linear(64), &params);
        let y = naive::saxpy(&b, &a, alpha);
        prop_assert_eq!(m.read(pb, len).unwrap(), &f32_to_bytes(&y)[..]);
        let params = ParamBuilder::new().ptr(pb).ptr(pb).f32(alpha).u32(n as u32).build();
        run(&mut m, "saxpy", grid, Dim3::linear(64), &params);
        prop_assert_eq!(m.read(pb, len).unwrap(), &f32_to_bytes(&naive::saxpy(&y, &y, alpha))[..]);

        let before = m.read(pc, len).unwrap().to_vec();
        run(&mut m, "empty", Dim3::one(), Dim3::one(), &[]);
        prop_assert_eq!(m.read(pc, len).unwrap(), &before[..]);
    }
}
