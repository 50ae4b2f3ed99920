//! cuBLAS-like dense linear algebra on device memory.
//!
//! Cricket forwards cuBLAS calls as single RPCs executed host-side on the
//! GPU node (the library lives next to the driver); correspondingly this
//! module runs on the server against [`Device`] memory. Layout follows
//! cuBLAS: **column-major** with explicit leading dimensions.

use crate::device::Device;
use crate::error::{host_work, span, VgpuError, VgpuResult};
use crate::memory::{bytes_to_f32, bytes_to_f64, f32_to_bytes, f64_to_bytes};
use crate::timemodel::{kernel_duration_ns, Precision, Workload};

/// Transpose operation selector (cublasOperation_t).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// No transpose.
    N,
    /// Transpose.
    T,
}

impl Op {
    /// Parse the wire integer (0 = N, 1 = T).
    pub fn from_i32(v: i32) -> VgpuResult<Self> {
        match v {
            0 => Ok(Op::N),
            1 => Ok(Op::T),
            other => Err(VgpuError::InvalidValue(format!(
                "invalid cublasOperation_t {other}"
            ))),
        }
    }
}

/// Element index of column-major (i, j) under `ld`.
#[inline]
fn at(i: usize, j: usize, ld: usize) -> usize {
    j * ld + i
}

/// op(A)(i,j) for a column-major matrix with leading dimension `ld`.
#[inline]
fn op_at<T: Copy>(a: &[T], op: Op, i: usize, j: usize, ld: usize) -> T {
    match op {
        Op::N => a[at(i, j, ld)],
        Op::T => a[at(j, i, ld)],
    }
}

macro_rules! gemm_impl {
    ($name:ident, $ty:ty, $reader:ident, $writer:ident, $precision:expr) => {
        /// GEMM: C = alpha·op(A)·op(B) + beta·C (column-major).
        /// Returns the device time consumed.
        #[allow(clippy::too_many_arguments)]
        pub fn $name(
            dev: &mut Device,
            transa: Op,
            transb: Op,
            m: usize,
            n: usize,
            k: usize,
            alpha: $ty,
            a_ptr: u64,
            lda: usize,
            b_ptr: u64,
            ldb: usize,
            beta: $ty,
            c_ptr: u64,
            ldc: usize,
        ) -> VgpuResult<u64> {
            if m == 0 || n == 0 || k == 0 {
                return Err(VgpuError::InvalidValue("gemm with zero dimension".into()));
            }
            let (a_rows, a_cols) = match transa {
                Op::N => (m, k),
                Op::T => (k, m),
            };
            let (b_rows, b_cols) = match transb {
                Op::N => (k, n),
                Op::T => (n, k),
            };
            if lda < a_rows || ldb < b_rows || ldc < m {
                return Err(VgpuError::InvalidValue(
                    "leading dimension smaller than rows".into(),
                ));
            }
            host_work("gemm", &[m as u64, n as u64, k as u64])?;
            let elem = std::mem::size_of::<$ty>() as u64;
            let bytes =
                |ld: usize, cols: usize| span("gemm operand", &[ld as u64, cols as u64, elem]);
            let a = $reader(dev.mem.read(a_ptr, bytes(lda, a_cols)?)?);
            let b = $reader(dev.mem.read(b_ptr, bytes(ldb, b_cols)?)?);
            let mut c = $reader(dev.mem.read(c_ptr, bytes(ldc, n)?)?);

            for j in 0..n {
                for i in 0..m {
                    let mut acc: $ty = 0.0;
                    for p in 0..k {
                        acc += op_at(&a, transa, i, p, lda) * op_at(&b, transb, p, j, ldb);
                    }
                    let idx = at(i, j, ldc);
                    c[idx] = alpha * acc + beta * c[idx];
                }
            }
            dev.mem.write(c_ptr, &$writer(&c))?;

            let work = Workload {
                flops: 2.0 * m as f64 * n as f64 * k as f64,
                bytes: ((m * k + k * n + 2 * m * n) as u64 * elem) as f64,
                precision: $precision,
            };
            Ok(kernel_duration_ns(dev.properties(), &work))
        }
    };
}

gemm_impl!(sgemm, f32, bytes_to_f32, f32_to_bytes, Precision::F32);
gemm_impl!(dgemm, f64, bytes_to_f64, f64_to_bytes, Precision::F64);

#[cfg(test)]
mod tests {
    use super::*;

    fn upload_f64(dev: &mut Device, vals: &[f64]) -> u64 {
        let (p, _) = dev.malloc(vals.len() as u64 * 8).unwrap();
        dev.memcpy_htod(p, &f64_to_bytes(vals)).unwrap();
        p
    }

    fn upload_f32(dev: &mut Device, vals: &[f32]) -> u64 {
        let (p, _) = dev.malloc(vals.len() as u64 * 4).unwrap();
        dev.memcpy_htod(p, &f32_to_bytes(vals)).unwrap();
        p
    }

    #[test]
    fn dgemm_identity() {
        let mut dev = Device::a100();
        let n = 4;
        // Column-major identity.
        let mut ident = vec![0f64; n * n];
        for i in 0..n {
            ident[i * n + i] = 1.0;
        }
        let a: Vec<f64> = (0..n * n).map(|i| i as f64).collect();
        let pa = upload_f64(&mut dev, &a);
        let pi = upload_f64(&mut dev, &ident);
        let pc = upload_f64(&mut dev, &vec![0f64; n * n]);
        dgemm(
            &mut dev,
            Op::N,
            Op::N,
            n,
            n,
            n,
            1.0,
            pa,
            n,
            pi,
            n,
            0.0,
            pc,
            n,
        )
        .unwrap();
        let c = bytes_to_f64(dev.mem.read(pc, (n * n * 8) as u64).unwrap());
        assert_eq!(c, a);
    }

    #[test]
    fn sgemm_small_reference() {
        let mut dev = Device::a100();
        // A = [[1,2],[3,4]] col-major: [1,3,2,4]; B = [[5,6],[7,8]] col-major [5,7,6,8].
        let pa = upload_f32(&mut dev, &[1.0, 3.0, 2.0, 4.0]);
        let pb = upload_f32(&mut dev, &[5.0, 7.0, 6.0, 8.0]);
        let pc = upload_f32(&mut dev, &[0.0; 4]);
        sgemm(
            &mut dev,
            Op::N,
            Op::N,
            2,
            2,
            2,
            1.0,
            pa,
            2,
            pb,
            2,
            0.0,
            pc,
            2,
        )
        .unwrap();
        let c = bytes_to_f32(dev.mem.read(pc, 16).unwrap());
        // C = A*B = [[19,22],[43,50]] col-major [19,43,22,50].
        assert_eq!(c, vec![19.0, 43.0, 22.0, 50.0]);
    }

    #[test]
    fn transpose_paths() {
        let mut dev = Device::a100();
        // A 2x3 col-major (rows=2, cols=3): [[1,2,3],[4,5,6]] → [1,4,2,5,3,6].
        let pa = upload_f64(&mut dev, &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        let pc = upload_f64(&mut dev, &[0f64; 9]);
        // C (3x3) = A^T * A.
        dgemm(
            &mut dev,
            Op::T,
            Op::N,
            3,
            3,
            2,
            1.0,
            pa,
            2,
            pa,
            2,
            0.0,
            pc,
            3,
        )
        .unwrap();
        let c = bytes_to_f64(dev.mem.read(pc, 72).unwrap());
        // A^T A = [[17,22,27],[22,29,36],[27,36,45]] (symmetric).
        assert_eq!(c[0], 17.0);
        assert_eq!(c[at(1, 0, 3)], 22.0);
        assert_eq!(c[at(2, 2, 3)], 45.0);
        assert_eq!(c[at(1, 2, 3)], c[at(2, 1, 3)]);
    }

    #[test]
    fn beta_accumulates() {
        let mut dev = Device::a100();
        let pa = upload_f64(&mut dev, &[1.0]);
        let pb = upload_f64(&mut dev, &[2.0]);
        let pc = upload_f64(&mut dev, &[10.0]);
        dgemm(
            &mut dev,
            Op::N,
            Op::N,
            1,
            1,
            1,
            3.0,
            pa,
            1,
            pb,
            1,
            0.5,
            pc,
            1,
        )
        .unwrap();
        let c = bytes_to_f64(dev.mem.read(pc, 8).unwrap());
        assert_eq!(c[0], 3.0 * 2.0 + 0.5 * 10.0);
    }

    #[test]
    fn invalid_arguments_rejected() {
        let mut dev = Device::a100();
        let pa = upload_f64(&mut dev, &[0.0; 4]);
        assert!(dgemm(
            &mut dev,
            Op::N,
            Op::N,
            0,
            1,
            1,
            1.0,
            pa,
            1,
            pa,
            1,
            0.0,
            pa,
            1
        )
        .is_err());
        // lda < rows.
        assert!(dgemm(
            &mut dev,
            Op::N,
            Op::N,
            2,
            2,
            2,
            1.0,
            pa,
            1,
            pa,
            2,
            0.0,
            pa,
            2
        )
        .is_err());
        assert!(Op::from_i32(7).is_err());
    }

    #[test]
    fn duration_scales_with_problem_size() {
        let mut dev = Device::a100();
        let small = upload_f64(&mut dev, &vec![1.0; 16 * 16]);
        let big = upload_f64(&mut dev, &vec![1.0; 64 * 64]);
        let t1 = dgemm(
            &mut dev,
            Op::N,
            Op::N,
            16,
            16,
            16,
            1.0,
            small,
            16,
            small,
            16,
            0.0,
            small,
            16,
        )
        .unwrap();
        let t2 = dgemm(
            &mut dev,
            Op::N,
            Op::N,
            64,
            64,
            64,
            1.0,
            big,
            64,
            big,
            64,
            0.0,
            big,
            64,
        )
        .unwrap();
        assert!(t2 > t1);
    }
}
