//! cuFFT-like 1D complex FFT on device memory.
//!
//! The paper lists cuFFT among the CUDA libraries applications use through
//! Cricket (§3.3). This module provides the server-side implementation for
//! the `CUFFT_*` procedures: plan management and batched 1D complex-to-
//! complex transforms in fp32 (`C2C`) and fp64 (`Z2Z`), with cuFFT
//! conventions — interleaved complex layout, `FORWARD = -1` / `INVERSE = 1`,
//! and **no normalization** on the inverse transform.
//!
//! Adding this library required **no change to the client runtime**: the
//! procedures were added to `cricket.x`, the stubs regenerated themselves at
//! build time, and only the server gained an implementation — exactly the
//! workflow the paper describes in §3.5.

use crate::device::Device;
use crate::error::{span, VgpuError, VgpuResult};
use crate::memory::{bytes_to_f32, bytes_to_f64, f32_to_bytes, f64_to_bytes};
use crate::timemodel::{kernel_duration_ns, Precision, Workload};

/// cufftType value for complex-to-complex single precision.
pub const CUFFT_C2C: i32 = 0x29;
/// cufftType value for complex-to-complex double precision.
pub const CUFFT_Z2Z: i32 = 0x69;
/// Transform direction: forward.
pub const CUFFT_FORWARD: i32 = -1;
/// Transform direction: inverse (unnormalized, like cuFFT).
pub const CUFFT_INVERSE: i32 = 1;

/// A 1D FFT plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FftPlan {
    /// Transform length (must be a power of two in this implementation,
    /// like cuFFT's fast path).
    pub n: usize,
    /// Number of independent transforms per execution.
    pub batch: usize,
    /// `CUFFT_C2C` or `CUFFT_Z2Z`.
    pub kind: i32,
}

impl FftPlan {
    /// Validate and create a plan (cufftPlan1d).
    pub fn plan_1d(n: i32, kind: i32, batch: i32) -> VgpuResult<Self> {
        if n <= 0 || batch <= 0 {
            return Err(VgpuError::InvalidValue(format!(
                "cufftPlan1d(n={n}, batch={batch})"
            )));
        }
        let n = n as usize;
        if !n.is_power_of_two() {
            return Err(VgpuError::InvalidValue(format!(
                "transform length {n} is not a power of two"
            )));
        }
        if kind != CUFFT_C2C && kind != CUFFT_Z2Z {
            return Err(VgpuError::InvalidValue(format!("cufftType {kind:#x}")));
        }
        let plan = Self {
            n,
            batch: batch as usize,
            kind,
        };
        span(
            "cufftPlan1d buffer",
            &[n as u64, batch as u64, plan.elem_bytes() as u64],
        )?;
        Ok(plan)
    }

    /// Bytes per batch element (interleaved complex).
    pub(crate) fn elem_bytes(&self) -> usize {
        match self.kind {
            CUFFT_C2C => 8,
            _ => 16,
        }
    }

    /// Total buffer size in bytes ([`Self::plan_1d`] refuses a plan whose
    /// size overflows).
    pub(crate) fn buffer_bytes(&self) -> u64 {
        (self.n * self.batch * self.elem_bytes()) as u64
    }
}

/// In-place iterative radix-2 Cooley-Tukey over interleaved complex data.
fn fft_radix2(re: &mut [f64], im: &mut [f64], inverse: bool) {
    let n = re.len();
    debug_assert!(n.is_power_of_two());
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let (mut cur_r, mut cur_i) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let (ur, ui) = (re[i + k], im[i + k]);
                let (vr0, vi0) = (re[i + k + len / 2], im[i + k + len / 2]);
                let vr = vr0 * cur_r - vi0 * cur_i;
                let vi = vr0 * cur_i + vi0 * cur_r;
                re[i + k] = ur + vr;
                im[i + k] = ui + vi;
                re[i + k + len / 2] = ur - vr;
                im[i + k + len / 2] = ui - vi;
                let next_r = cur_r * wr - cur_i * wi;
                cur_i = cur_r * wi + cur_i * wr;
                cur_r = next_r;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Execute a transform: `idata` → `odata` (may alias), per cuFFT exec
/// semantics. Returns device time.
pub fn exec(
    dev: &mut Device,
    plan: &FftPlan,
    idata: u64,
    odata: u64,
    direction: i32,
) -> VgpuResult<u64> {
    if direction != CUFFT_FORWARD && direction != CUFFT_INVERSE {
        return Err(VgpuError::InvalidValue(format!(
            "cufft direction {direction}"
        )));
    }
    let inverse = direction == CUFFT_INVERSE;
    let bytes = plan.buffer_bytes();
    let input = dev.mem.read(idata, bytes)?.to_vec();

    let output = match plan.kind {
        CUFFT_C2C => {
            let vals = bytes_to_f32(&input);
            let mut out = Vec::with_capacity(vals.len());
            for b in 0..plan.batch {
                let base = b * plan.n * 2;
                let mut re: Vec<f64> = (0..plan.n).map(|i| vals[base + 2 * i] as f64).collect();
                let mut im: Vec<f64> = (0..plan.n).map(|i| vals[base + 2 * i + 1] as f64).collect();
                fft_radix2(&mut re, &mut im, inverse);
                for i in 0..plan.n {
                    out.push(re[i] as f32);
                    out.push(im[i] as f32);
                }
            }
            f32_to_bytes(&out)
        }
        _ => {
            let vals = bytes_to_f64(&input);
            let mut out = Vec::with_capacity(vals.len());
            for b in 0..plan.batch {
                let base = b * plan.n * 2;
                let mut re: Vec<f64> = (0..plan.n).map(|i| vals[base + 2 * i]).collect();
                let mut im: Vec<f64> = (0..plan.n).map(|i| vals[base + 2 * i + 1]).collect();
                fft_radix2(&mut re, &mut im, inverse);
                for i in 0..plan.n {
                    out.push(re[i]);
                    out.push(im[i]);
                }
            }
            f64_to_bytes(&out)
        }
    };
    dev.mem.write(odata, &output)?;

    let n = plan.n as f64;
    let work = Workload {
        // 5 n log2 n real FLOPs per complex FFT (the classic count).
        flops: 5.0 * n * n.log2() * plan.batch as f64,
        bytes: 2.0 * bytes as f64,
        precision: if plan.kind == CUFFT_C2C {
            Precision::F32
        } else {
            Precision::F64
        },
    };
    Ok(kernel_duration_ns(dev.properties(), &work))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive DFT reference.
    fn dft(re: &[f64], im: &[f64], inverse: bool) -> (Vec<f64>, Vec<f64>) {
        let n = re.len();
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut out_r = vec![0.0; n];
        let mut out_i = vec![0.0; n];
        for k in 0..n {
            for t in 0..n {
                let ang = sign * 2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                out_r[k] += re[t] * ang.cos() - im[t] * ang.sin();
                out_i[k] += re[t] * ang.sin() + im[t] * ang.cos();
            }
        }
        (out_r, out_i)
    }

    #[test]
    fn plan_validation() {
        assert!(FftPlan::plan_1d(1024, CUFFT_C2C, 4).is_ok());
        assert!(
            FftPlan::plan_1d(1000, CUFFT_C2C, 1).is_err(),
            "non power of two"
        );
        assert!(FftPlan::plan_1d(0, CUFFT_C2C, 1).is_err());
        assert!(FftPlan::plan_1d(64, 0x12, 1).is_err(), "bad type");
        assert!(FftPlan::plan_1d(64, CUFFT_Z2Z, 0).is_err());
        assert_eq!(
            FftPlan::plan_1d(64, CUFFT_Z2Z, 2).unwrap().buffer_bytes(),
            64 * 2 * 16
        );
    }

    #[test]
    fn radix2_matches_naive_dft() {
        let n = 32;
        let re0: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let im0: Vec<f64> = (0..n).map(|i| ((i * 3) % 4) as f64 * 0.5).collect();
        let (dr, di) = dft(&re0, &im0, false);
        let mut re = re0.clone();
        let mut im = im0.clone();
        fft_radix2(&mut re, &mut im, false);
        for k in 0..n {
            assert!((re[k] - dr[k]).abs() < 1e-9, "re[{k}]");
            assert!((im[k] - di[k]).abs() < 1e-9, "im[{k}]");
        }
    }

    #[test]
    fn forward_then_inverse_scales_by_n() {
        // cuFFT convention: IFFT(FFT(x)) = n * x.
        let mut dev = Device::a100();
        let plan = FftPlan::plan_1d(256, CUFFT_Z2Z, 1).unwrap();
        let data: Vec<f64> = (0..512).map(|i| ((i * 13) % 17) as f64 * 0.25).collect();
        let (buf, _) = dev.malloc(plan.buffer_bytes()).unwrap();
        dev.memcpy_htod(buf, &f64_to_bytes(&data)).unwrap();
        exec(&mut dev, &plan, buf, buf, CUFFT_FORWARD).unwrap();
        exec(&mut dev, &plan, buf, buf, CUFFT_INVERSE).unwrap();
        let (out, _) = dev.memcpy_dtoh(buf, plan.buffer_bytes()).unwrap();
        let out = bytes_to_f64(&out);
        for i in 0..data.len() {
            assert!(
                (out[i] - 256.0 * data[i]).abs() < 1e-6 * (1.0 + data[i].abs()) * 256.0,
                "out[{i}] = {}, expected {}",
                out[i],
                256.0 * data[i]
            );
        }
    }

    #[test]
    fn c2c_single_precision_roundtrip() {
        let mut dev = Device::a100();
        let plan = FftPlan::plan_1d(128, CUFFT_C2C, 2).unwrap();
        let data: Vec<f32> = (0..128 * 2 * 2).map(|i| (i % 11) as f32 - 5.0).collect();
        let (src, _) = dev.malloc(plan.buffer_bytes()).unwrap();
        let (dst, _) = dev.malloc(plan.buffer_bytes()).unwrap();
        dev.memcpy_htod(src, &f32_to_bytes(&data)).unwrap();
        exec(&mut dev, &plan, src, dst, CUFFT_FORWARD).unwrap();
        exec(&mut dev, &plan, dst, dst, CUFFT_INVERSE).unwrap();
        let (out, _) = dev.memcpy_dtoh(dst, plan.buffer_bytes()).unwrap();
        let out = bytes_to_f32(&out);
        for i in 0..data.len() {
            assert!(
                (out[i] - 128.0 * data[i]).abs() < 0.05 * (1.0 + 128.0 * data[i].abs()),
                "out[{i}] = {} expected {}",
                out[i],
                128.0 * data[i]
            );
        }
    }

    #[test]
    fn parsevals_theorem_holds() {
        // Energy in time domain == energy in frequency domain / n.
        let mut dev = Device::a100();
        let n = 512;
        let plan = FftPlan::plan_1d(n, CUFFT_Z2Z, 1).unwrap();
        let data: Vec<f64> = (0..n as usize * 2)
            .map(|i| ((i * 31) % 23) as f64 * 0.1 - 1.0)
            .collect();
        let energy_time: f64 = data.chunks(2).map(|c| c[0] * c[0] + c[1] * c[1]).sum();
        let (buf, _) = dev.malloc(plan.buffer_bytes()).unwrap();
        dev.memcpy_htod(buf, &f64_to_bytes(&data)).unwrap();
        exec(&mut dev, &plan, buf, buf, CUFFT_FORWARD).unwrap();
        let (out, _) = dev.memcpy_dtoh(buf, plan.buffer_bytes()).unwrap();
        let out = bytes_to_f64(&out);
        let energy_freq: f64 = out.chunks(2).map(|c| c[0] * c[0] + c[1] * c[1]).sum();
        let ratio = energy_freq / (n as f64) / energy_time;
        assert!((ratio - 1.0).abs() < 1e-9, "Parseval ratio {ratio}");
    }

    #[test]
    fn invalid_direction_rejected() {
        let mut dev = Device::a100();
        let plan = FftPlan::plan_1d(64, CUFFT_C2C, 1).unwrap();
        let (buf, _) = dev.malloc(plan.buffer_bytes()).unwrap();
        assert!(exec(&mut dev, &plan, buf, buf, 0).is_err());
    }

    #[test]
    fn duration_scales_superlinearly_with_n() {
        let mut dev = Device::a100();
        let small = FftPlan::plan_1d(1 << 10, CUFFT_C2C, 1).unwrap();
        let large = FftPlan::plan_1d(1 << 14, CUFFT_C2C, 1).unwrap();
        let (b1, _) = dev.malloc(small.buffer_bytes()).unwrap();
        let (b2, _) = dev.malloc(large.buffer_bytes()).unwrap();
        let t1 = exec(&mut dev, &small, b1, b1, CUFFT_FORWARD).unwrap();
        let t2 = exec(&mut dev, &large, b2, b2, CUFFT_FORWARD).unwrap();
        assert!(t2 > t1);
    }
}
