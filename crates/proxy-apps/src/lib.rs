//! Proxy applications (paper §4.1).
//!
//! Ports of the CUDA Samples the paper evaluates, driving the Cricket
//! client API exactly as the originals drive CUDA:
//!
//! * [`matrix_mul`] — `matrixMul`: repeated tiled multiplications of two
//!   constant matrices (A 320×320, B 320×640, 100 000 iterations →
//!   **100 041 API calls, 1.95 MiB** moved).
//! * [`linear_solver`] — `cuSolverDn_LinearSolver`: LU factorization +
//!   solve of a 900×900 system, 1000 iterations (**20 047 calls,
//!   6.07 GiB**).
//! * [`histogram`] — 64-bin and 256-bin histograms of a 64 MiB random
//!   array (**80 033 calls, 64 MiB**).
//! * [`bandwidth`] — `bandwidthTest`: H2D/D2H streaming bandwidth.
//!
//! Every app validates its results against a host reference (as the CUDA
//! samples do) and reports its client-side [`cricket_client::ApiStats`],
//! which the `table_calls` harness checks against the paper's numbers.
//!
//! Where an app's behavior depends on the client flavor (the C variants'
//! slower `rand()` initialization and `<<<...>>>` launch marshalling), the
//! flavor is read from the [`cricket_client::Context`].

pub mod bandwidth;
pub mod histogram;
pub mod linear_solver;
pub mod matrix_mul;

use cricket_client::env::ClientFlavor;
use cricket_client::{ccompat, Context};

/// Fill `buf` with deterministic pseudo-random bytes using the
/// flavor-appropriate generator, charging its host cost to the simulated
/// clock (if any). This is the initialization-path difference the paper
/// measures on `histogram` (§4.1).
pub(crate) fn fill_random(ctx: &Context, seed: u64, buf: &mut [u8]) {
    ctx.with_raw(|raw| {
        let clock = raw.clock().cloned();
        match raw.flavor() {
            ClientFlavor::CTirpc => {
                ccompat::CRand::new(seed as u32).fill_bytes(buf, clock.as_deref())
            }
            ClientFlavor::RustRpcLib => {
                ccompat::RustRand::new(seed).fill_bytes(buf, clock.as_deref())
            }
        }
    });
}

/// Virtual seconds elapsed on the context's clock while running `f`
/// (0.0 when not simulated — e.g. over real TCP).
pub(crate) fn timed_virtual<R>(ctx: &Context, f: impl FnOnce() -> R) -> (R, f64) {
    let clock = ctx.with_raw(|raw| raw.clock().cloned());
    let t0 = clock.as_ref().map(|c| c.now_ns()).unwrap_or(0);
    let r = f();
    let t1 = clock.as_ref().map(|c| c.now_ns()).unwrap_or(0);
    (r, (t1 - t0) as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cricket_client::sim::simulated;
    use cricket_client::EnvConfig;

    #[test]
    fn fill_random_is_deterministic_per_flavor() {
        let (rust_ctx, _s1) = simulated(EnvConfig::RustNative);
        let (c_ctx, _s2) = simulated(EnvConfig::CNative);
        let mut a = vec![0u8; 256];
        let mut b = vec![0u8; 256];
        fill_random(&rust_ctx, 7, &mut a);
        fill_random(&rust_ctx, 7, &mut b);
        assert_eq!(a, b);
        let mut c = vec![0u8; 256];
        fill_random(&c_ctx, 7, &mut c);
        assert_ne!(a, c, "flavors use different generators");
    }

    #[test]
    fn c_flavor_init_charges_more_time() {
        let (rust_ctx, s1) = simulated(EnvConfig::RustNative);
        let (c_ctx, s2) = simulated(EnvConfig::CNative);
        let mut buf = vec![0u8; 1 << 20];
        let (_, t_rust) = timed_virtual(&rust_ctx, || fill_random(&rust_ctx, 1, &mut buf));
        let (_, t_c) = timed_virtual(&c_ctx, || fill_random(&c_ctx, 1, &mut buf));
        assert!(t_c > 5.0 * t_rust, "C init {t_c}s vs Rust {t_rust}s");
        let _ = (s1, s2);
    }
}
