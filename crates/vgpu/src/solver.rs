//! cuSolverDn-like dense LU factorization and solve.
//!
//! Implements the three calls the `cuSolverDn_LinearSolver` proxy app uses:
//! `DnDgetrf_bufferSize`, `DnDgetrf` (LU with partial pivoting, LAPACK
//! conventions: column-major, in-place, 1-based `ipiv`, `info`), and
//! `DnDgetrs` (triangular solves). Like the real library, factorization
//! cost dominates (2/3·n³ fp64 FLOPs).
//!
//! Because the paper's benchmark solves the *same* system 1000 times, the
//! solver memoizes factorizations by content hash of the input matrix:
//! repeated identical calls replay the stored LU and pivots (the observable
//! memory state is identical to recomputation) while still charging full
//! device time.

use crate::device::Device;
use crate::error::{host_work, span, VgpuError, VgpuResult};
use crate::memory::{bytes_to_f64, f64_to_bytes};
use crate::timemodel::{kernel_duration_ns, Precision, Workload};
use std::collections::HashMap;

/// A cuSolverDn context (one per `cusolverDnCreate`).
#[derive(Default)]
pub struct SolverDn {
    /// content-hash → factorization result.
    memo: HashMap<u64, GetrfMemo>,
    /// Memoization hits (telemetry).
    pub memo_hits: u64,
    /// Factorizations computed.
    pub factorizations: u64,
}

struct GetrfMemo {
    lu: Vec<u8>,
    ipiv: Vec<i32>,
    info: i32,
    duration_ns: u64,
}

/// Device↔host round trip per pivot column inside `dgetrf` (PCIe latency +
/// stream synchronization), the latency term that dominates mid-sized LU.
pub(crate) const PIVOT_SYNC_NS: u64 = 25_000;

/// 8-byte-stride multiply-xor hash (fast enough for multi-MiB inputs).
fn hash_bytes(seed: u64, data: &[u8]) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().unwrap());
        h = (h ^ w).wrapping_mul(0x1000_0000_01b3).rotate_left(23);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut w = [0u8; 8];
        w[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(w)).wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl SolverDn {
    /// Create a context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Workspace size in f64 elements for an m×n factorization (mirrors the
    /// real API's bufferSize query; our implementation needs n scratch).
    pub fn dgetrf_buffer_size(&self, m: i32, n: i32) -> VgpuResult<i32> {
        if m <= 0 || n <= 0 {
            return Err(VgpuError::InvalidValue("nonpositive dimension".into()));
        }
        Ok(n.max(m))
    }

    /// LU factorization with partial pivoting, in place at `a_ptr`
    /// (column-major m×n, leading dimension `lda`). Writes `min(m,n)`
    /// 1-based pivot indices to `ipiv_ptr` (i32) and the LAPACK `info`
    /// to `info_ptr`. Returns device time.
    #[allow(clippy::too_many_arguments)]
    pub fn dgetrf(
        &mut self,
        dev: &mut Device,
        m: i32,
        n: i32,
        a_ptr: u64,
        lda: i32,
        _workspace_ptr: u64,
        ipiv_ptr: u64,
        info_ptr: u64,
    ) -> VgpuResult<u64> {
        if m <= 0 || n <= 0 || lda < m {
            return Err(VgpuError::InvalidValue(format!(
                "dgetrf(m={m}, n={n}, lda={lda})"
            )));
        }
        host_work("dgetrf", &[m as u64, n as u64, m.min(n) as u64])?;
        let a_in = dev
            .mem
            .read(a_ptr, span("dgetrf A", &[lda as u64, n as u64, 8])?)?;
        let (m, n, lda) = (m as usize, n as usize, lda as usize);

        let mut key = hash_bytes(0x9e37_79b9, a_in);
        key = hash_bytes(key, &(m as u64).to_le_bytes());
        key = hash_bytes(key, &(n as u64).to_le_bytes());
        key = hash_bytes(key, &(lda as u64).to_le_bytes());

        let (lu, ipiv, info, duration) = if let Some(memo) = self.memo.get(&key) {
            self.memo_hits += 1;
            (
                memo.lu.clone(),
                memo.ipiv.clone(),
                memo.info,
                memo.duration_ns,
            )
        } else {
            self.factorizations += 1;
            let mut a = bytes_to_f64(a_in);
            let (ipiv, info) = lu_factor(&mut a, m, n, lda);
            let lu = f64_to_bytes(&a);
            let work = Workload {
                flops: 2.0 / 3.0 * (m.min(n) as f64).powi(3) + (m as f64 * n as f64), // pivot search passes
                bytes: 3.0 * (m * n * 8) as f64,
                precision: Precision::F64,
            };
            // Partial pivoting reads each column's pivot back to the host
            // (a device→host sync per column) — the reason cuSolver LU is
            // latency-bound on mid-sized matrices. ~25 µs per column on
            // PCIe: for n=900 this is ~22.5 ms and dominates the roofline
            // term, matching the paper's observation that the Fig. 5b app
            // has the *smallest* relative network overhead.
            let pivot_sync = m.min(n) as u64 * PIVOT_SYNC_NS;
            let duration = kernel_duration_ns(dev.properties(), &work) + pivot_sync;
            self.memo.insert(
                key,
                GetrfMemo {
                    lu: lu.clone(),
                    ipiv: ipiv.clone(),
                    info,
                    duration_ns: duration,
                },
            );
            (lu, ipiv, info, duration)
        };

        dev.mem.write(a_ptr, &lu)?;
        let ipiv_bytes: Vec<u8> = ipiv.iter().flat_map(|v| v.to_le_bytes()).collect();
        dev.mem.write(ipiv_ptr, &ipiv_bytes)?;
        dev.mem.write(info_ptr, &info.to_le_bytes())?;
        Ok(duration)
    }

    /// Solve op(A)·X = B using a factorization produced by [`Self::dgetrf`].
    /// `trans`: 0 = N, 1 = T. B is n×nrhs column-major at `b_ptr`,
    /// overwritten with X. Returns device time.
    #[allow(clippy::too_many_arguments)]
    pub fn dgetrs(
        &mut self,
        dev: &mut Device,
        trans: i32,
        n: i32,
        nrhs: i32,
        a_ptr: u64,
        lda: i32,
        ipiv_ptr: u64,
        b_ptr: u64,
        ldb: i32,
        info_ptr: u64,
    ) -> VgpuResult<u64> {
        if n <= 0 || nrhs <= 0 || lda < n || ldb < n {
            return Err(VgpuError::InvalidValue(format!(
                "dgetrs(n={n}, nrhs={nrhs}, lda={lda}, ldb={ldb})"
            )));
        }
        if trans != 0 && trans != 1 {
            return Err(VgpuError::InvalidValue(format!("dgetrs trans={trans}")));
        }
        host_work("dgetrs", &[n as u64, n as u64, nrhs as u64])?;
        let a_len = span("dgetrs A", &[lda as u64, n as u64, 8])?;
        let b_len = span("dgetrs B", &[ldb as u64, nrhs as u64, 8])?;
        let (n, nrhs, lda, ldb) = (n as usize, nrhs as usize, lda as usize, ldb as usize);
        let lu = bytes_to_f64(dev.mem.read(a_ptr, a_len)?);
        let ipiv_raw = dev.mem.read(ipiv_ptr, (n * 4) as u64)?;
        let ipiv: Vec<i32> = ipiv_raw
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        for (k, &p) in ipiv.iter().enumerate() {
            if p < 1 || p as usize > n {
                return Err(VgpuError::InvalidValue(format!(
                    "ipiv[{k}] = {p} out of range 1..={n}"
                )));
            }
        }
        let mut b = bytes_to_f64(dev.mem.read(b_ptr, b_len)?);

        if trans == 0 {
            lu_solve_notrans(&lu, &ipiv, &mut b, n, nrhs, lda, ldb);
        } else {
            lu_solve_trans(&lu, &ipiv, &mut b, n, nrhs, lda, ldb);
        }

        dev.mem.write(b_ptr, &f64_to_bytes(&b))?;
        dev.mem.write(info_ptr, &0i32.to_le_bytes())?;
        let work = Workload {
            flops: 2.0 * (n * n * nrhs) as f64,
            bytes: ((n * n + 2 * n * nrhs) * 8) as f64,
            precision: Precision::F64,
        };
        Ok(kernel_duration_ns(dev.properties(), &work))
    }
}

/// Right-looking LU with partial pivoting. Returns (1-based ipiv, info).
fn lu_factor(a: &mut [f64], m: usize, n: usize, lda: usize) -> (Vec<i32>, i32) {
    let mn = m.min(n);
    let mut ipiv = vec![0i32; mn];
    let mut info = 0i32;
    for k in 0..mn {
        // Pivot: largest magnitude in column k at/below the diagonal.
        let mut piv = k;
        let mut max = a[k * lda + k].abs();
        for i in k + 1..m {
            let v = a[k * lda + i].abs();
            if v > max {
                max = v;
                piv = i;
            }
        }
        ipiv[k] = (piv + 1) as i32;
        if max == 0.0 {
            if info == 0 {
                info = (k + 1) as i32;
            }
            continue;
        }
        if piv != k {
            for j in 0..n {
                a.swap(j * lda + k, j * lda + piv);
            }
        }
        let diag = a[k * lda + k];
        for i in k + 1..m {
            a[k * lda + i] /= diag;
        }
        for j in k + 1..n {
            let akj = a[j * lda + k];
            if akj != 0.0 {
                for i in k + 1..m {
                    a[j * lda + i] -= a[k * lda + i] * akj;
                }
            }
        }
    }
    (ipiv, info)
}

fn lu_solve_notrans(
    lu: &[f64],
    ipiv: &[i32],
    b: &mut [f64],
    n: usize,
    nrhs: usize,
    lda: usize,
    ldb: usize,
) {
    for col in 0..nrhs {
        let x = &mut b[col * ldb..col * ldb + n];
        // Apply row interchanges.
        for (k, &piv) in ipiv.iter().enumerate().take(n) {
            let p = (piv - 1) as usize;
            if p != k {
                x.swap(k, p);
            }
        }
        // Ly = Pb (unit lower).
        for k in 0..n {
            let xk = x[k];
            if xk != 0.0 {
                for i in k + 1..n {
                    x[i] -= lu[k * lda + i] * xk;
                }
            }
        }
        // Ux = y.
        for k in (0..n).rev() {
            x[k] /= lu[k * lda + k];
            let xk = x[k];
            if xk != 0.0 {
                for i in 0..k {
                    x[i] -= lu[k * lda + i] * xk;
                }
            }
        }
    }
}

fn lu_solve_trans(
    lu: &[f64],
    ipiv: &[i32],
    b: &mut [f64],
    n: usize,
    nrhs: usize,
    lda: usize,
    ldb: usize,
) {
    for col in 0..nrhs {
        let x = &mut b[col * ldb..col * ldb + n];
        // U^T y = b (lower-triangular forward pass over U^T).
        for k in 0..n {
            let mut acc = x[k];
            for i in 0..k {
                acc -= lu[k * lda + i] * x[i];
            }
            x[k] = acc / lu[k * lda + k];
        }
        // L^T z = y (unit upper pass): L^T(k,i) = L(i,k) = lu[k*lda + i].
        for k in (0..n).rev() {
            let mut acc = x[k];
            for i in k + 1..n {
                acc -= lu[k * lda + i] * x[i];
            }
            x[k] = acc;
        }
        // x = P^T z: undo interchanges in reverse.
        for k in (0..n).rev() {
            let p = (ipiv[k] - 1) as usize;
            if p != k {
                x.swap(k, p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::bytes_to_f64 as b2f64;

    /// Build a well-conditioned test system and return
    /// (device, a_ptr, b_ptr, ipiv_ptr, info_ptr, work_ptr, a, x_true).
    fn setup(n: usize) -> (Device, u64, u64, u64, u64, u64, Vec<f64>, Vec<f64>) {
        let mut dev = Device::a100();
        // Diagonally dominant matrix (column-major).
        let mut a = vec![0f64; n * n];
        for j in 0..n {
            for i in 0..n {
                a[j * n + i] = if i == j {
                    n as f64 + 1.0
                } else {
                    ((i * 7 + j * 3) % 5) as f64 * 0.25
                };
            }
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - n as f64 / 2.0).collect();
        // b = A x.
        let mut b = vec![0f64; n];
        for j in 0..n {
            for i in 0..n {
                b[i] += a[j * n + i] * x_true[j];
            }
        }
        let (pa, _) = dev.malloc((n * n * 8) as u64).unwrap();
        let (pb, _) = dev.malloc((n * 8) as u64).unwrap();
        let (pipiv, _) = dev.malloc((n * 4) as u64).unwrap();
        let (pinfo, _) = dev.malloc(4).unwrap();
        let (pwork, _) = dev.malloc((n * 8) as u64).unwrap();
        dev.memcpy_htod(pa, &f64_to_bytes(&a)).unwrap();
        dev.memcpy_htod(pb, &f64_to_bytes(&b)).unwrap();
        (dev, pa, pb, pipiv, pinfo, pwork, a, x_true)
    }

    #[test]
    fn factor_and_solve_recovers_x() {
        let n = 24;
        let (mut dev, pa, pb, pipiv, pinfo, pwork, _a, x_true) = setup(n);
        let mut ctx = SolverDn::new();
        assert!(ctx.dgetrf_buffer_size(n as i32, n as i32).unwrap() >= n as i32);
        ctx.dgetrf(
            &mut dev, n as i32, n as i32, pa, n as i32, pwork, pipiv, pinfo,
        )
        .unwrap();
        let info = i32::from_le_bytes(dev.mem.read(pinfo, 4).unwrap().try_into().unwrap());
        assert_eq!(info, 0);
        ctx.dgetrs(
            &mut dev, 0, n as i32, 1, pa, n as i32, pipiv, pb, n as i32, pinfo,
        )
        .unwrap();
        let x = b2f64(dev.mem.read(pb, (n * 8) as u64).unwrap());
        for i in 0..n {
            assert!(
                (x[i] - x_true[i]).abs() < 1e-9 * (1.0 + x_true[i].abs()),
                "x[{i}] = {}, expected {}",
                x[i],
                x_true[i]
            );
        }
    }

    #[test]
    fn transposed_solve_recovers_x() {
        let n = 16;
        let (mut dev, pa, _pb, pipiv, pinfo, pwork, a, x_true) = setup(n);
        // b' = A^T x.
        let mut bt = vec![0f64; n];
        for j in 0..n {
            for i in 0..n {
                bt[j] += a[j * n + i] * x_true[i];
            }
        }
        let (pbt, _) = dev.malloc((n * 8) as u64).unwrap();
        dev.memcpy_htod(pbt, &f64_to_bytes(&bt)).unwrap();
        let mut ctx = SolverDn::new();
        ctx.dgetrf(
            &mut dev, n as i32, n as i32, pa, n as i32, pwork, pipiv, pinfo,
        )
        .unwrap();
        ctx.dgetrs(
            &mut dev, 1, n as i32, 1, pa, n as i32, pipiv, pbt, n as i32, pinfo,
        )
        .unwrap();
        let x = b2f64(dev.mem.read(pbt, (n * 8) as u64).unwrap());
        for i in 0..n {
            assert!(
                (x[i] - x_true[i]).abs() < 1e-8 * (1.0 + x_true[i].abs()),
                "x[{i}] = {}, expected {}",
                x[i],
                x_true[i]
            );
        }
    }

    #[test]
    fn memoization_replays_identical_factorizations() {
        let n = 12;
        let (mut dev, pa, _pb, pipiv, pinfo, pwork, a, _x) = setup(n);
        let mut ctx = SolverDn::new();
        ctx.dgetrf(
            &mut dev, n as i32, n as i32, pa, n as i32, pwork, pipiv, pinfo,
        )
        .unwrap();
        let lu1 = dev.mem.read(pa, (n * n * 8) as u64).unwrap().to_vec();
        // Re-upload the same A (as the benchmark does each iteration).
        dev.memcpy_htod(pa, &f64_to_bytes(&a)).unwrap();
        ctx.dgetrf(
            &mut dev, n as i32, n as i32, pa, n as i32, pwork, pipiv, pinfo,
        )
        .unwrap();
        let lu2 = dev.mem.read(pa, (n * n * 8) as u64).unwrap().to_vec();
        assert_eq!(lu1, lu2);
        assert_eq!(ctx.factorizations, 1);
        assert_eq!(ctx.memo_hits, 1);
    }

    #[test]
    fn singular_matrix_sets_info() {
        let mut dev = Device::a100();
        let n = 3usize;
        let a = vec![0f64; n * n]; // all-zero: singular at step 1
        let (pa, _) = dev.malloc(72).unwrap();
        let (pipiv, _) = dev.malloc(12).unwrap();
        let (pinfo, _) = dev.malloc(4).unwrap();
        let (pwork, _) = dev.malloc(24).unwrap();
        dev.memcpy_htod(pa, &f64_to_bytes(&a)).unwrap();
        let mut ctx = SolverDn::new();
        ctx.dgetrf(&mut dev, 3, 3, pa, 3, pwork, pipiv, pinfo)
            .unwrap();
        let info = i32::from_le_bytes(dev.mem.read(pinfo, 4).unwrap().try_into().unwrap());
        assert_eq!(info, 1);
    }

    #[test]
    fn invalid_arguments_rejected() {
        let mut dev = Device::a100();
        let mut ctx = SolverDn::new();
        assert!(ctx.dgetrf_buffer_size(0, 5).is_err());
        assert!(ctx
            .dgetrf(&mut dev, 4, 4, 0x1000, 2 /* lda < m */, 0, 0, 0)
            .is_err());
        assert!(ctx
            .dgetrs(
                &mut dev, 7, /* bad trans */
                4, 1, 0x1000, 4, 0x2000, 0x3000, 4, 0x4000
            )
            .is_err());
    }

    #[test]
    fn corrupt_ipiv_rejected() {
        let n = 4;
        let (mut dev, pa, pb, pipiv, pinfo, pwork, _a, _x) = setup(n);
        let mut ctx = SolverDn::new();
        ctx.dgetrf(
            &mut dev, n as i32, n as i32, pa, n as i32, pwork, pipiv, pinfo,
        )
        .unwrap();
        dev.memcpy_htod(pipiv, &99i32.to_le_bytes()).unwrap();
        assert!(ctx
            .dgetrs(&mut dev, 0, n as i32, 1, pa, n as i32, pipiv, pb, n as i32, pinfo)
            .is_err());
    }

    #[test]
    fn hash_discriminates() {
        assert_ne!(hash_bytes(0, b"aaaa"), hash_bytes(0, b"aaab"));
        assert_ne!(hash_bytes(0, b"12345678"), hash_bytes(0, b"123456789"));
        assert_eq!(hash_bytes(7, b"same"), hash_bytes(7, b"same"));
        assert_ne!(hash_bytes(7, b"same"), hash_bytes(8, b"same"));
    }
}
