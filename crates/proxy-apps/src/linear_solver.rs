//! Port of the CUDA sample `cuSolverDn_LinearSolver` (paper Fig. 5b).
//!
//! Each iteration uploads the system, LU-factorizes it with partial
//! pivoting (`cusolverDnDgetrf`), solves (`cusolverDnDgetrs`) and
//! downloads the solution — 20 CUDA API calls per iteration, enumerated
//! below. With the paper's configuration (900×900, 1000 iterations, plus
//! two warm-up solves) the client issues exactly **20 047** API calls and
//! moves **≈6.07 GiB**.

use cricket_client::{ApiStats, ClientResult, Context};

/// Workload configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearSolverConfig {
    /// Matrix dimension (n×n system).
    pub n: usize,
    /// Timed solve iterations.
    pub iterations: usize,
    /// Warm-up solves (the paper's 20 047-call total implies two).
    pub warmups: usize,
}

impl LinearSolverConfig {
    /// The paper's configuration: "LU with 900x900 matrix, 1000 Iterations".
    pub fn paper() -> Self {
        Self {
            n: 900,
            iterations: 1000,
            warmups: 2,
        }
    }

    /// Small configuration for tests.
    pub fn small() -> Self {
        Self {
            n: 48,
            iterations: 3,
            warmups: 2,
        }
    }

    /// API calls per solve iteration (enumerated in `solve_once`).
    pub const CALLS_PER_SOLVE: u64 = 20;

    /// Fixed calls outside the solves (init 5 + teardown 2).
    pub const FIXED_CALLS: u64 = 7;

    /// Expected total API calls.
    pub fn expected_api_calls(&self) -> u64 {
        Self::FIXED_CALLS + Self::CALLS_PER_SOLVE * (self.iterations + self.warmups) as u64
    }

    /// Expected transferred bytes (per-solve A, b, x, info words).
    pub fn expected_bytes(&self) -> u64 {
        let per_solve = (self.n * self.n * 8 + 2 * self.n * 8 + 8) as u64;
        per_solve * (self.iterations + self.warmups) as u64
    }
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct LinearSolverReport {
    /// Residual-based validation of the last solution.
    pub valid: bool,
    /// LAPACK `info` of the last factorization (0 = success).
    pub last_info: i32,
    /// Client-side accounting.
    pub stats: ApiStats,
}

/// Build the deterministic, diagonally dominant test system
/// (column-major A, right-hand side b = A·x_true).
fn build_system(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut a = vec![0f64; n * n];
    for j in 0..n {
        for i in 0..n {
            a[j * n + i] = if i == j {
                n as f64 + 2.0
            } else {
                (((i * 13 + j * 7) % 11) as f64) * 0.125
            };
        }
    }
    let x_true: Vec<f64> = (0..n).map(|i| ((i % 17) as f64) - 8.0).collect();
    let mut b = vec![0f64; n];
    for j in 0..n {
        let xj = x_true[j];
        for i in 0..n {
            b[i] += a[j * n + i] * xj;
        }
    }
    (a, b, x_true)
}

/// One solve: exactly [`LinearSolverConfig::CALLS_PER_SOLVE`] API calls.
fn solve_once(
    ctx: &Context,
    solver: u64,
    n: usize,
    a_host: &[u8],
    b_host: &[u8],
) -> ClientResult<(Vec<f64>, i32)> {
    let n_i = n as i32;
    ctx.with_raw(|r| -> ClientResult<(Vec<f64>, i32)> {
        let da = r.malloc((n * n * 8) as u64)?; //  1 cudaMalloc(A)
        let db = r.malloc((n * 8) as u64)?; //      2 cudaMalloc(b)
        r.memcpy_htod(da, a_host)?; //              3 cudaMemcpy H2D (A)
        r.memcpy_htod(db, b_host)?; //              4 cudaMemcpy H2D (b)
        let lwork = r.dgetrf_buffer_size(solver, n_i, n_i, da, n_i)?; // 5
        let dwork = r.malloc((lwork as u64) * 8)?; // 6 cudaMalloc(work)
        let dipiv = r.malloc((n * 4) as u64)?; //     7 cudaMalloc(ipiv)
        let dinfo = r.malloc(4)?; //                  8 cudaMalloc(info)
        r.dgetrf(solver, n_i, n_i, da, n_i, dwork, dipiv, dinfo)?; // 9
        let info1 = r.memcpy_dtoh(dinfo, 4)?; //     10 cudaMemcpy D2H (info)
        r.dgetrs(solver, 0, n_i, 1, da, n_i, dipiv, db, n_i, dinfo)?; // 11
        let info2 = r.memcpy_dtoh(dinfo, 4)?; //     12 cudaMemcpy D2H (info)
        let x_bytes = r.memcpy_dtoh(db, (n * 8) as u64)?; // 13 D2H (x)
        r.device_synchronize()?; //                  14 cudaDeviceSynchronize
        r.free(dwork)?; //                           15 cudaFree(work)
        r.free(dipiv)?; //                           16 cudaFree(ipiv)
        r.free(dinfo)?; //                           17 cudaFree(info)
        r.free(da)?; //                              18 cudaFree(A)
        r.free(db)?; //                              19 cudaFree(b)
        r.get_last_error()?; //                      20 cudaGetLastError

        let info1 = i32::from_le_bytes(info1.try_into().expect("4 bytes"));
        let info2 = i32::from_le_bytes(info2.try_into().expect("4 bytes"));
        let x: Vec<f64> = x_bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok((x, info1.max(info2)))
    })
}

/// Run the proxy app on `ctx`.
pub fn run(ctx: &Context, cfg: &LinearSolverConfig) -> ClientResult<LinearSolverReport> {
    ctx.with_raw(|r| r.stats.reset());
    let (a, b, x_true) = build_system(cfg.n);
    let a_bytes: Vec<u8> = a.iter().flat_map(|v| v.to_le_bytes()).collect();
    let b_bytes: Vec<u8> = b.iter().flat_map(|v| v.to_le_bytes()).collect();

    // ---- init (5 calls) ----
    ctx.with_raw(|r| r.free(0))?; //           1 cudaFree(0)
    let _ = ctx.device_count()?; //            2 cudaGetDeviceCount
    ctx.with_raw(|r| r.set_device(0))?; //     3 cudaSetDevice
    let _ = ctx.device_properties(0)?; //      4 cudaGetDeviceProperties
    let solver = ctx.with_raw(|r| r.solver_create())?; // 5 cusolverDnCreate

    let mut last = (Vec::new(), 0);
    for _ in 0..cfg.warmups + cfg.iterations {
        last = solve_once(ctx, solver, cfg.n, &a_bytes, &b_bytes)?;
    }

    // ---- teardown (2 calls) ----
    ctx.with_raw(|r| r.solver_destroy(solver))?; // cusolverDnDestroy
    ctx.synchronize()?; //                          cudaDeviceSynchronize

    let (x, last_info) = last;
    let valid = last_info == 0
        && x.len() == cfg.n
        && x.iter()
            .zip(&x_true)
            .all(|(xi, ti)| (xi - ti).abs() < 1e-8 * (1.0 + ti.abs()));

    Ok(LinearSolverReport {
        valid,
        last_info,
        stats: ctx.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cricket_client::sim::simulated;
    use cricket_client::EnvConfig;

    #[test]
    fn small_run_validates_and_counts() {
        let (ctx, _setup) = simulated(EnvConfig::RustNative);
        let cfg = LinearSolverConfig::small();
        let report = run(&ctx, &cfg).unwrap();
        assert!(
            report.valid,
            "info={}, stats={:?}",
            report.last_info, report.stats
        );
        assert_eq!(report.stats.api_calls, cfg.expected_api_calls());
        assert_eq!(report.stats.per_api["cusolverDnDgetrf"] as usize, 5);
    }

    #[test]
    fn paper_config_projects_published_numbers() {
        let cfg = LinearSolverConfig::paper();
        assert_eq!(cfg.expected_api_calls(), 20_047);
        let gib = cfg.expected_bytes() as f64 / (1024.0 * 1024.0 * 1024.0);
        assert!((gib - 6.07).abs() < 0.03, "{gib} GiB");
    }

    #[test]
    fn bytes_accounting_matches_projection() {
        let (ctx, _setup) = simulated(EnvConfig::Unikraft);
        let cfg = LinearSolverConfig::small();
        let report = run(&ctx, &cfg).unwrap();
        assert_eq!(
            report.stats.bytes_h2d + report.stats.bytes_d2h,
            cfg.expected_bytes()
        );
    }

    #[test]
    fn solver_memoizes_identical_systems_but_stays_correct() {
        // Two runs with different n must both validate (no stale cache).
        let (ctx, _setup) = simulated(EnvConfig::RustNative);
        for n in [32usize, 48] {
            let cfg = LinearSolverConfig {
                n,
                iterations: 2,
                warmups: 1,
            };
            assert!(run(&ctx, &cfg).unwrap().valid, "n={n}");
        }
    }
}
