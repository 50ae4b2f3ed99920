//! Analytic kernel-duration model.
//!
//! Kernel execution time is estimated with a roofline: the longer of the
//! compute time (FLOPs at a fraction of peak) and the memory time (bytes at
//! a fraction of peak bandwidth), plus a fixed on-device launch overhead.
//! The paper's phenomena do not depend on exact kernel times — its proxy
//! apps are I/O-bound with "many kernels with small execution times" — but
//! plausible durations make the cuSolver experiment (where device time does
//! matter) come out at the right scale.

use crate::properties::DeviceProperties;

/// Achievable fraction of peak FLOP/s for a tuned kernel.
pub(crate) const FLOPS_EFFICIENCY: f64 = 0.60;
/// Achievable fraction of peak memory bandwidth.
pub(crate) const BW_EFFICIENCY: f64 = 0.80;

/// Floating-point precision of a kernel's arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Precision {
    /// fp32 arithmetic.
    F32,
    /// fp64 arithmetic.
    F64,
}

/// Workload descriptor of one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Workload {
    /// Floating-point operations performed.
    pub flops: f64,
    /// Bytes moved to/from device memory.
    pub bytes: f64,
    /// Arithmetic precision.
    pub precision: Precision,
}

impl Workload {
    /// A pure memory-bound workload.
    pub(crate) fn memory(bytes: f64) -> Self {
        Self {
            flops: 0.0,
            bytes,
            precision: Precision::F32,
        }
    }
}

/// Estimated duration of `work` on `props`, in nanoseconds.
pub(crate) fn kernel_duration_ns(props: &DeviceProperties, work: &Workload) -> u64 {
    let peak_flops = match work.precision {
        Precision::F32 => props.fp32_flops as f64,
        Precision::F64 => props.fp64_flops as f64,
    } * FLOPS_EFFICIENCY;
    let peak_bw = props.memory_bandwidth_bps as f64 * BW_EFFICIENCY;
    let compute_ns = work.flops / peak_flops * 1e9;
    let memory_ns = work.bytes / peak_bw * 1e9;
    props.launch_overhead_ns + compute_ns.max(memory_ns) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_kernel_is_pure_overhead() {
        let p = DeviceProperties::a100();
        let d = kernel_duration_ns(
            &p,
            &Workload {
                flops: 0.0,
                bytes: 0.0,
                precision: Precision::F32,
            },
        );
        assert_eq!(d, p.launch_overhead_ns);
    }

    #[test]
    fn compute_bound_scales_with_flops() {
        let p = DeviceProperties::a100();
        let w1 = Workload {
            flops: 1e9,
            bytes: 0.0,
            precision: Precision::F32,
        };
        let w2 = Workload { flops: 2e9, ..w1 };
        let d1 = kernel_duration_ns(&p, &w1) - p.launch_overhead_ns;
        let d2 = kernel_duration_ns(&p, &w2) - p.launch_overhead_ns;
        assert!((d2 as f64 / d1 as f64 - 2.0).abs() < 0.05);
    }

    #[test]
    fn fp64_slower_than_fp32_on_a100() {
        let p = DeviceProperties::a100();
        let f32w = Workload {
            flops: 1e12,
            bytes: 0.0,
            precision: Precision::F32,
        };
        let f64w = Workload {
            precision: Precision::F64,
            ..f32w
        };
        assert!(kernel_duration_ns(&p, &f64w) > kernel_duration_ns(&p, &f32w));
    }

    #[test]
    fn roofline_picks_the_bottleneck() {
        let p = DeviceProperties::a100();
        // Memory-bound: 1 GiB moved, trivial flops.
        let mem = Workload::memory(1e9);
        let d = kernel_duration_ns(&p, &mem) - p.launch_overhead_ns;
        let expected = 1e9 / (p.memory_bandwidth_bps as f64 * BW_EFFICIENCY) * 1e9;
        assert!((d as f64 - expected).abs() / expected < 0.05);
    }

    #[test]
    fn matrix_mul_sample_scale() {
        // The CUDA-sample matrixMul config (320x320 by 320x640 fp32):
        // 2*320*320*640 = 131 MFLOP → ~11 µs on an A100 at 60% of peak.
        let p = DeviceProperties::a100();
        let w = Workload {
            flops: 2.0 * 320.0 * 320.0 * 640.0,
            bytes: (320.0 * 320.0 + 320.0 * 640.0 + 320.0 * 640.0) * 4.0,
            precision: Precision::F32,
        };
        let d = kernel_duration_ns(&p, &w);
        assert!((8_000..25_000).contains(&d), "duration {d} ns");
    }
}
