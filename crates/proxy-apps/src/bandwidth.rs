//! Port of the CUDA sample `bandwidthTest` (paper Fig. 7).
//!
//! Measures host→device and device→host streaming bandwidth for pageable
//! transfers via RPC arguments — the only transfer method available to the
//! unikernels (paper §4.2). Times are read from the virtual clock, so the
//! reported bandwidth is the modeled one for the context's environment.

use crate::timed_virtual;
use cricket_client::{ClientResult, Context};

/// Workload configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandwidthConfig {
    /// Transfer size in bytes per iteration.
    pub bytes: usize,
    /// Iterations per direction (the sample's MEMCOPY_ITERATIONS).
    pub iterations: usize,
}

impl BandwidthConfig {
    /// The paper's configuration: 512 MiB transfers.
    pub fn paper() -> Self {
        Self {
            bytes: 512 << 20,
            iterations: 1,
        }
    }
}

/// Result of one run.
#[derive(Debug, Clone, Copy)]
pub struct BandwidthReport {
    /// Host→device bandwidth in MiB/s (virtual time).
    pub h2d_mib_s: f64,
    /// Device→host bandwidth in MiB/s (virtual time).
    pub d2h_mib_s: f64,
}

/// Run the proxy app on `ctx`.
pub fn run(ctx: &Context, cfg: &BandwidthConfig) -> ClientResult<BandwidthReport> {
    let data = vec![0xabu8; cfg.bytes];
    let buf = ctx.alloc::<u8>(cfg.bytes)?;

    // Host → device.
    let (h2d_result, h2d_secs) = timed_virtual(ctx, || -> ClientResult<()> {
        for _ in 0..cfg.iterations {
            buf.copy_from_slice(&data)?;
        }
        Ok(())
    });
    h2d_result?;

    // Device → host.
    let (d2h_result, d2h_secs) = timed_virtual(ctx, || -> ClientResult<()> {
        for _ in 0..cfg.iterations {
            let back = buf.copy_to_vec()?;
            debug_assert_eq!(back.len(), cfg.bytes);
        }
        Ok(())
    });
    d2h_result?;

    let mib = (cfg.bytes * cfg.iterations) as f64 / (1024.0 * 1024.0);
    Ok(BandwidthReport {
        h2d_mib_s: mib / h2d_secs.max(1e-12),
        d2h_mib_s: mib / d2h_secs.max(1e-12),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cricket_client::sim::simulated;
    use cricket_client::EnvConfig;

    impl BandwidthConfig {
        /// A small configuration for tests.
        pub(crate) fn small() -> Self {
            Self {
                bytes: 1 << 20,
                iterations: 2,
            }
        }
    }

    #[test]
    fn native_beats_hermit_substantially() {
        let (native, _s1) = simulated(EnvConfig::RustNative);
        let (hermit, _s2) = simulated(EnvConfig::RustyHermit);
        let cfg = BandwidthConfig {
            bytes: 16 << 20,
            iterations: 1,
        };
        let rn = run(&native, &cfg).unwrap();
        let rh = run(&hermit, &cfg).unwrap();
        assert!(
            rn.h2d_mib_s > 4.0 * rh.h2d_mib_s,
            "native {:.0} vs hermit {:.0} MiB/s",
            rn.h2d_mib_s,
            rh.h2d_mib_s
        );
    }

    #[test]
    fn bandwidth_is_positive_and_finite() {
        let (ctx, _s) = simulated(EnvConfig::LinuxVm);
        let r = run(&ctx, &BandwidthConfig::small()).unwrap();
        assert!(r.h2d_mib_s.is_finite() && r.h2d_mib_s > 0.0);
        assert!(r.d2h_mib_s.is_finite() && r.d2h_mib_s > 0.0);
    }

    #[test]
    fn larger_transfers_reach_higher_bandwidth() {
        // Fixed per-RPC overhead amortizes with size.
        let (ctx, _s) = simulated(EnvConfig::RustNative);
        let small = run(
            &ctx,
            &BandwidthConfig {
                bytes: 64 << 10,
                iterations: 1,
            },
        )
        .unwrap();
        let large = run(
            &ctx,
            &BandwidthConfig {
                bytes: 32 << 20,
                iterations: 1,
            },
        )
        .unwrap();
        assert!(large.h2d_mib_s > small.h2d_mib_s);
    }
}
