//! Port of the CUDA sample `histogram` (paper Fig. 5c).
//!
//! Computes 64-bin and 256-bin histograms of a randomly initialized 64 MiB
//! byte array, each phase iterated many times (kernel + merge per
//! iteration, like the sample's benchmark loop). With the paper's
//! configuration (20 000 iterations per phase) the client issues exactly
//! **80 033** API calls and the dominant transfer is the **64 MiB** input.
//!
//! This is the application where the paper found the C implementation
//! 37.6 % slower overall (27.3 % excluding initialization): the C variant
//! initializes with `rand()` per byte and pays the `<<<...>>>` launch
//! marshalling on every one of the 80 000 launches. Both effects are
//! reproduced via the context's client flavor.

use crate::fill_random;
use cricket_client::{ApiStats, ClientResult, Context, CubinBuilder, Dim3, ParamBuilder};

/// Number of partial-histogram blocks (the sample's 240).
pub(crate) const PARTIAL_COUNT: u32 = 240;

/// Workload configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramConfig {
    /// Input size in bytes.
    pub byte_count: usize,
    /// Iterations of each phase (64-bin and 256-bin).
    pub iterations: usize,
}

impl HistogramConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Self {
            byte_count: 64 << 20,
            iterations: 20_000,
        }
    }

    /// Fixed (non-launch) API calls of [`run`], enumerated inline.
    pub(crate) const FIXED_CALLS: u64 = 33;

    /// Expected total API calls: two launches (histogram + merge) per
    /// iteration per phase.
    pub fn expected_api_calls(&self) -> u64 {
        Self::FIXED_CALLS + 4 * self.iterations as u64
    }
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct HistogramReport {
    /// Both phases validated against host references.
    pub valid: bool,
    /// Device milliseconds of the 64-bin phase.
    pub ms64: f32,
    /// Device milliseconds of the 256-bin phase.
    pub ms256: f32,
    /// Client-side accounting.
    pub stats: ApiStats,
}

struct Phase<'a> {
    hist_kernel: &'a str,
    merge_kernel: &'a str,
    bins: usize,
    shift: u32,
}

/// Run the proxy app on `ctx`.
pub fn run(ctx: &Context, cfg: &HistogramConfig) -> ClientResult<HistogramReport> {
    ctx.with_raw(|r| r.stats.reset());

    // ---- init (calls 1..=9) ----
    ctx.with_raw(|r| r.free(0))?; //        1 cudaFree(0)
    let _ = ctx.device_count()?; //         2 cudaGetDeviceCount
    ctx.with_raw(|r| r.set_device(0))?; //  3 cudaSetDevice
    let _ = ctx.device_properties(0)?; //   4 cudaGetDeviceProperties
    let image = CubinBuilder::new()
        .kernel("histogram64Kernel", &[8, 8, 4])
        .kernel("mergeHistogram64Kernel", &[8, 8, 4])
        .kernel("histogram256Kernel", &[8, 8, 4])
        .kernel("mergeHistogram256Kernel", &[8, 8, 4])
        .code(b"histogram SASS")
        .build(true);
    let module = ctx.load_module(&image)?; // 5 cuModuleLoadData
    let f_h64 = module.function("histogram64Kernel")?; //       6
    let f_m64 = module.function("mergeHistogram64Kernel")?; //  7
    let f_h256 = module.function("histogram256Kernel")?; //     8
    let f_m256 = module.function("mergeHistogram256Kernel")?; //9

    // ---- input data (10, 11): flavor-specific init then one 64 MiB H2D ----
    let mut host = vec![0u8; cfg.byte_count];
    fill_random(ctx, 0x5eed, &mut host);
    let d_data = ctx.upload(&host)?; // cudaMalloc + cudaMemcpy H2D

    // ---- timing events (12, 13) ----
    let ev_start = ctx.event()?;
    let ev_stop = ctx.event()?;

    let phases = [
        Phase {
            hist_kernel: "h64",
            merge_kernel: "m64",
            bins: 64,
            shift: 2,
        },
        Phase {
            hist_kernel: "h256",
            merge_kernel: "m256",
            bins: 256,
            shift: 0,
        },
    ];

    let mut valid = true;
    let mut phase_ms = [0f32; 2];
    // Each phase: malloc partial, malloc out, record, loop, record,
    // elapsed, D2H out, free partial, free out = 10 fixed calls... the
    // event records/elapsed are 3 of them; 2 mallocs + D2H + 2 frees = 5;
    // 2 records = 2 → (14..=21) and (22..=29).
    for (idx, phase) in phases.iter().enumerate() {
        let d_partial = ctx.alloc::<u32>(PARTIAL_COUNT as usize * phase.bins)?;
        let d_out = ctx.alloc::<u32>(phase.bins)?;
        let (f_hist, f_merge) = if idx == 0 {
            (&f_h64, &f_m64)
        } else {
            (&f_h256, &f_m256)
        };
        let _ = (phase.hist_kernel, phase.merge_kernel);

        let hist_params = ParamBuilder::new()
            .ptr(d_partial.ptr())
            .ptr(d_data.ptr())
            .u32(cfg.byte_count as u32)
            .build();
        let merge_params = ParamBuilder::new()
            .ptr(d_out.ptr())
            .ptr(d_partial.ptr())
            .u32(PARTIAL_COUNT)
            .build();
        let hist_grid: Dim3 = (PARTIAL_COUNT, 1, 1).into();
        let block: Dim3 = (64, 1, 1).into();
        let merge_grid: Dim3 = (phase.bins as u32, 1, 1).into();

        ev_start.record(None)?;
        for _ in 0..cfg.iterations {
            ctx.launch(f_hist, hist_grid, block, 0, None, &hist_params)?;
            ctx.launch(f_merge, merge_grid, block, 0, None, &merge_params)?;
        }
        ev_stop.record(None)?;
        phase_ms[idx] = ev_start.elapsed_ms(&ev_stop)?;

        let result = d_out.copy_to_vec()?;
        let mut expected = vec![0u32; phase.bins];
        for &b in &host {
            expected[(b >> phase.shift) as usize] += 1;
        }
        valid &= result == expected;
        // d_partial and d_out drop here: 2 cudaFree.
    }

    // ---- teardown (30..=33): free data, destroy 2 events, unload ----
    drop(d_data);
    drop(ev_start);
    drop(ev_stop);
    drop(module);

    Ok(HistogramReport {
        valid,
        ms64: phase_ms[0],
        ms256: phase_ms[1],
        stats: ctx.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cricket_client::sim::simulated;
    use cricket_client::EnvConfig;

    impl HistogramConfig {
        /// A small configuration for tests.
        pub(crate) fn small() -> Self {
            Self {
                byte_count: 64 << 10,
                iterations: 4,
            }
        }
    }

    #[test]
    fn small_run_validates_and_counts() {
        let (ctx, _setup) = simulated(EnvConfig::RustNative);
        let cfg = HistogramConfig::small();
        let report = run(&ctx, &cfg).unwrap();
        assert!(report.valid);
        assert_eq!(report.stats.api_calls, cfg.expected_api_calls());
        assert_eq!(report.stats.launches as usize, 4 * cfg.iterations);
        assert!(report.ms64 > 0.0 && report.ms256 > 0.0);
    }

    #[test]
    fn paper_config_projects_published_numbers() {
        let cfg = HistogramConfig::paper();
        assert_eq!(cfg.expected_api_calls(), 80_033);
        assert_eq!(cfg.byte_count, 64 << 20);
    }

    #[test]
    fn c_flavor_also_validates() {
        // The C variant uses a different RNG; the histogram must still be
        // exact (it is validated against the same host data).
        let (ctx, _setup) = simulated(EnvConfig::CNative);
        let report = run(&ctx, &HistogramConfig::small()).unwrap();
        assert!(report.valid);
    }
}
