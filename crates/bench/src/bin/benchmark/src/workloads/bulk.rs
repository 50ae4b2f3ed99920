//! `bulk_h2d_sim` and `bulk_d2h_sim` — the paper's Fig. 7 shape on the
//! simulated RustyHermit path: one dense copy of about 16 MiB per op.
//!
//! Per-byte work does all the work here: the XDR opaque, record
//! fragmentation, the guest's TCP segmentation with real checksums, the
//! device memory copy. Per-call fixed cost is lost in the noise. The two
//! directions are workloads of their own, so that each has its own bounded
//! end-to-end metrics and a gain for one that costs the other shows:
//! `virt_ns_per_op` and `wall_ops_per_s` are the direction's bandwidth
//! (MiB/s = copy MiB × ops/s; the traced suite prints it as
//! `core.bulk.*_mib_per_s`).

use super::{sim_client, virt_clock, ENV};
use crate::harness::{Check, Checks, Class, Observer, Size, Unobserved, Window, Workload};
use crate::meter::{Meter, VirtClock};
use crate::rng::Rng;
use crate::sys::Reference;
use cricket_client::sim::SimSetup;
use cricket_client::{CricketClient, EnvConfig};
use std::sync::Arc;

pub const MIB: f64 = 1024.0 * 1024.0;

/// Copy size for `seed`: 16 MiB less up to 32 KiB, in pages, so that two
/// seeds differ in more than payload bytes.
pub fn copy_len(seed: u64) -> usize {
    (16 << 20) - 4096 * Rng::new(seed, 2).below(9) as usize
}

pub struct Bulk<const D2H: bool> {
    _sim: SimSetup,
    client: CricketClient,
    meter: Arc<Meter>,
    virt: VirtClock,
    dptr: u64,
    /// Two payloads for the write direction, so that every copy changes
    /// device memory; the read direction reads back the first.
    payloads: [Vec<u8>; 2],
    ops_per_pass: usize,
    /// Which payload the device holds.
    on_device: usize,
}

pub type BulkH2d = Bulk<false>;
pub type BulkD2h = Bulk<true>;

impl<const D2H: bool> Bulk<D2H> {
    /// The workload in another of the paper's configurations (the traced
    /// suite compares the five).
    pub fn set_up_in(env: EnvConfig, seed: u64, size: Size, tracing: bool) -> Self {
        let sim = SimSetup::new();
        let meter = Meter::new(tracing);
        let mut client = sim_client(&sim, env, &meter);
        let len = copy_len(seed);
        let mut rng = Rng::new(seed, 3);
        let payloads = [0, 1].map(|_| {
            let mut p = vec![0u8; len];
            rng.fill(&mut p);
            p
        });
        let dptr = client.malloc(len as u64).expect("allocate the copy buffer");
        let mut w = Self {
            virt: virt_clock(&sim),
            _sim: sim,
            client,
            meter,
            dptr,
            payloads,
            ops_per_pass: size.pick(8, 3, 2),
            on_device: 0,
        };
        // Warm-up: one copy each way sizes every pooled buffer on the path
        // and leaves payload 0 on the device for the read direction.
        let mut warm = Checks::default();
        w.write(0, &mut Unobserved, None, &mut warm);
        w.read_and_compare(&mut Unobserved, None, &mut warm);
        assert_eq!(warm.failed, 0, "warm-up failed: {:?}", warm.first_failure);
        w
    }

    pub fn copy_mib(&self) -> f64 {
        self.payloads[0].len() as f64 / MIB
    }

    /// One copy each way on the virtual clock: (H2D, D2H) MiB/s.
    pub fn virt_bandwidths(&mut self, checks: &mut Checks) -> (f64, f64) {
        let v0 = (self.virt)();
        self.write(1, &mut Unobserved, None, checks);
        let v1 = (self.virt)();
        self.read_and_compare(&mut Unobserved, None, checks);
        let v2 = (self.virt)();
        let mib_s = |ns: u64| self.copy_mib() / (ns.max(1) as f64 / 1e9);
        (mib_s(v1 - v0), mib_s(v2 - v1))
    }

    fn write(
        &mut self,
        which: usize,
        obs: &mut impl Observer,
        win: Option<&mut Window>,
        checks: &mut Checks,
    ) {
        let Self {
            client,
            payloads,
            dptr,
            ..
        } = self;
        let r = timed(obs, win, Class::H2d, || {
            client.memcpy_htod(*dptr, &payloads[which])
        });
        if checks.op("cudaMemcpy(H2D)", r).is_some() {
            self.on_device = which;
        }
    }

    fn read_and_compare(
        &mut self,
        obs: &mut impl Observer,
        win: Option<&mut Window>,
        checks: &mut Checks,
    ) {
        let Self {
            client,
            payloads,
            dptr,
            on_device,
            ..
        } = self;
        let want = &payloads[*on_device];
        let r = timed(obs, win, Class::D2h, || {
            client.memcpy_dtoh(*dptr, want.len() as u64)
        });
        if let Some(back) = checks.op("cudaMemcpy(D2H)", r) {
            checks.verify(Check::Bytes, back == *want, || {
                format!(
                    "read back {} bytes that differ from the {} written",
                    back.len(),
                    want.len()
                )
            });
        }
    }
}

/// Run `op` inside the window (when given) and the observer's span.
fn timed<T>(
    obs: &mut impl Observer,
    win: Option<&mut Window>,
    class: Class,
    op: impl FnOnce() -> T,
) -> T {
    match win {
        Some(win) => {
            win.resume();
            obs.begin(class);
            let r = op();
            obs.end(class);
            win.pause();
            r
        }
        None => op(),
    }
}

impl<const D2H: bool> Workload for Bulk<D2H> {
    const NAME: &'static str = if D2H { "bulk_d2h_sim" } else { "bulk_h2d_sim" };
    const LINK: &'static str = "none (in-process simulated network, virtual time)";
    const DETERMINISTIC: bool = true;
    const REFERENCE: Reference = Reference::Memory;

    fn set_up(seed: u64, size: Size, tracing: bool) -> Self {
        Self::set_up_in(ENV, seed, size, tracing)
    }

    fn meter(&self) -> &Arc<Meter> {
        &self.meter
    }

    fn virt(&self) -> Option<&VirtClock> {
        Some(&self.virt)
    }

    fn pass<O: Observer>(&mut self, obs: &mut O, win: &mut Window, checks: &mut Checks) -> u64 {
        let before = checks.attempted;
        for i in 0..self.ops_per_pass {
            if D2H {
                self.read_and_compare(obs, Some(win), checks);
            } else {
                self.write(i % 2, obs, Some(win), checks);
            }
        }
        let ops = checks.attempted - before;
        if !D2H {
            // Untimed and not an op of the workload: the last copy must
            // have landed, byte for byte.
            self.read_and_compare(&mut Unobserved, None, checks);
        }
        ops
    }

    fn verify(&mut self, _checks: &mut Checks) {}

    fn ops_hint(&self) -> usize {
        self.ops_per_pass
    }
}
