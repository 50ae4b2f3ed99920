//! C/libtirpc client compatibility behavior.
//!
//! The paper compares its Rust clients against the original C applications
//! using libtirpc and finds two systematic differences (§4.1, §4.2):
//!
//! 1. **Kernel launches**: "the Rust implementations perform approx. 6.3 %
//!    better than the C implementation because the Rust implementations
//!    omit some logic required in the C implementation to ensure
//!    compatibility with launching CUDA kernels using the `<<<...>>>`
//!    operator." The C launch path stages the argument array through the
//!    generic `void* args[]` ABI; `launch_compat_marshal` reproduces that
//!    work and its cost.
//! 2. **Initialization**: "the C applications use a slower random number
//!    generator" — glibc `rand()` called per byte vs. a Rust PRNG filling
//!    words. Both generators are implemented here so the histogram proxy
//!    app can show the paper's init-time gap.

use simnet::SimClock;

/// Extra host time of one C-style launch (the `<<<...>>>` compatibility
/// marshalling), charged on top of the regular path.
pub(crate) const LAUNCH_COMPAT_NS: u64 = 1_800;

/// Per-call overhead of libtirpc's argument handling relative to RPC-Lib
/// (XDR through function-pointer dispatch, extra malloc per call).
pub(crate) const TIRPC_CALL_NS: u64 = 300;

/// glibc `rand()` cost per call (one output byte per call, as the CUDA
/// sample's init loop uses it). ~21 ns per `rand()` call matches glibc's
/// TYPE_3 generator through the PLT on EPYC-class cores, and makes the
/// full-scale histogram app reproduce the paper's 37.6 % overall C-vs-Rust
/// gap (§4.1).
pub(crate) const C_RAND_NS_PER_BYTE: f64 = 21.0;

/// Rust PRNG fill cost per byte (xorshift filling 8 bytes per step).
pub(crate) const RUST_RAND_NS_PER_BYTE: f64 = 0.6;

/// Reproduce the C launch path's staging work: copy every parameter slot
/// through a `void* args[]`-style indirection table. Returns the staged
/// blob (identical content — the work is the point).
pub(crate) fn launch_compat_marshal(params: &[u8]) -> Vec<u8> {
    let slots: Vec<&[u8]> = params.chunks(8).collect(); // build void* args[]
    let mut staged = Vec::with_capacity(params.len());
    for slot in slots {
        let mut word = [0u8; 8];
        word[..slot.len()].copy_from_slice(slot);
        staged.extend_from_slice(&word[..slot.len()]);
    }
    staged
}

/// glibc-style `rand()`: the classic TYPE_3 additive generator is
/// approximated by the POSIX example LCG, producing 31-bit values.
#[derive(Debug, Clone)]
pub struct CRand {
    state: u64,
}

impl CRand {
    /// `srand(seed)`.
    pub fn new(seed: u32) -> Self {
        Self { state: seed as u64 }
    }

    /// `rand()`: next value in `0..=RAND_MAX` (2^31-1).
    #[allow(clippy::should_implement_trait)] // mirrors libc `rand()`, not an Iterator
    pub fn next(&mut self) -> u32 {
        self.state = self.state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((self.state >> 33) & 0x7fff_ffff) as u32
    }

    /// Fill `out` one `rand()` call per byte (as the CUDA samples do),
    /// charging `clock` the per-byte cost.
    pub fn fill_bytes(&mut self, out: &mut [u8], clock: Option<&SimClock>) {
        for b in out.iter_mut() {
            *b = (self.next() & 0xff) as u8;
        }
        if let Some(c) = clock {
            c.advance((out.len() as f64 * C_RAND_NS_PER_BYTE) as u64);
        }
    }
}

/// Rust-side PRNG (xorshift64*), filling eight bytes per step.
#[derive(Debug, Clone)]
pub struct RustRand {
    state: u64,
}

impl RustRand {
    /// Seeded constructor (deterministic across runs).
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed | 1, // xorshift state must be non-zero
        }
    }

    /// Next 64-bit value.
    #[allow(clippy::should_implement_trait)] // RNG step, not an Iterator
    pub fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Fill `out`, charging `clock` the per-byte cost.
    pub fn fill_bytes(&mut self, out: &mut [u8], clock: Option<&SimClock>) {
        let mut chunks = out.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let w = self.next().to_le_bytes();
            rem.copy_from_slice(&w[..rem.len()]);
        }
        if let Some(c) = clock {
            c.advance((out.len() as f64 * RUST_RAND_NS_PER_BYTE) as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compat_marshal_preserves_contents() {
        let params: Vec<u8> = (0..40).collect();
        assert_eq!(launch_compat_marshal(&params), params);
        assert_eq!(launch_compat_marshal(&[]), Vec::<u8>::new());
    }

    #[test]
    fn c_rand_is_deterministic_and_in_range() {
        let mut a = CRand::new(1);
        let mut b = CRand::new(1);
        for _ in 0..100 {
            let v = a.next();
            assert_eq!(v, b.next());
            assert!(v <= 0x7fff_ffff);
        }
        let mut c = CRand::new(2);
        assert_ne!(a.next(), c.next());
    }

    #[test]
    fn rust_rand_fills_any_length() {
        let mut r = RustRand::new(42);
        for len in [0usize, 1, 7, 8, 9, 64, 1000] {
            let mut buf = vec![0u8; len];
            r.fill_bytes(&mut buf, None);
            if len >= 16 {
                assert!(buf.iter().any(|&b| b != 0), "len {len} produced zeros");
            }
        }
    }

    #[test]
    fn generators_charge_different_costs() {
        let clock = SimClock::new();
        let mut c = CRand::new(1);
        let mut buf = vec![0u8; 100_000];
        c.fill_bytes(&mut buf, Some(&clock));
        let c_time = clock.now_ns();
        clock.reset();
        let mut r = RustRand::new(1);
        r.fill_bytes(&mut buf, Some(&clock));
        let r_time = clock.now_ns();
        assert!(
            c_time > 10 * r_time,
            "C rand ({c_time} ns) must be much slower than Rust ({r_time} ns)"
        );
    }

    #[test]
    fn byte_distribution_is_not_degenerate() {
        let mut r = CRand::new(7);
        let mut buf = vec![0u8; 65536];
        r.fill_bytes(&mut buf, None);
        let mut hist = [0u32; 256];
        for &b in &buf {
            hist[b as usize] += 1;
        }
        let nonzero = hist.iter().filter(|&&h| h > 0).count();
        assert!(nonzero > 250, "only {nonzero} byte values seen");
    }
}
