//! `smallcall_sim` — the paper's Fig. 6 mix on the simulated RustyHermit
//! path: `cudaGetDeviceCount`, `cudaMalloc`/`cudaFree` and empty-kernel
//! launches with a `cudaDeviceSynchronize` after every 64th.
//!
//! Every op is a few dozen bytes each way, so per-call fixed cost does all
//! the work: the client wrappers, the generated stubs and XDR, the RPC
//! client, record marking, the guest's per-segment path, the RPC server,
//! the service and its scheduler turn, the device allocator. Bulk paths,
//! the reactor and the poller do none of it.

use super::{load_empty_kernel, sim_client, virt_clock, ENV};
use crate::harness::{Check, Checks, Class, Observer, Size, Unobserved, Window, Workload};
use crate::meter::{Meter, VirtClock};
use crate::rng::Rng;
use crate::sys::Reference;
use cricket_client::sim::SimSetup;
use cricket_client::{CricketClient, EnvConfig};
use std::sync::Arc;

/// Allocations alive at once, at most: enough for "distinct from every live
/// pointer" to mean something, few enough to check by scanning.
const MAX_LIVE: usize = 8;
const SYNC_EVERY: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Count,
    Malloc(u64),
    /// Free the live allocation at this index.
    Free(usize),
    Launch,
    Sync,
}

/// The seeded op cycle. The seed sets the order of the ops and of the
/// allocation sizes (256 B to 1 MiB, log-spaced), which allocation each free
/// releases and, within half a percent, how many ops of each kind there are.
/// Every allocation made in the cycle is freed in it, so a cycle can repeat.
pub fn build_cycle(seed: u64) -> Vec<Op> {
    #[derive(Clone, Copy)]
    enum Slot {
        Count,
        Mem,
        Launch,
    }
    let mut rng = Rng::new(seed, 1);
    let mut slots = Vec::new();
    slots.resize(rng.jitter(1024, 5) as usize, Slot::Count);
    let mem = 2 * rng.jitter(512, 3) as usize;
    slots.resize(slots.len() + mem, Slot::Mem);
    slots.resize(slots.len() + rng.jitter(2048, 10) as usize, Slot::Launch);
    rng.shuffle(&mut slots);
    let mut sizes = rng.size_ladder(mem / 2).into_iter();

    let mut ops = Vec::with_capacity(slots.len() + slots.len() / SYNC_EVERY as usize);
    let (mut live, mut mem_left, mut launches) = (0usize, mem, 0u64);
    for slot in slots {
        match slot {
            Slot::Count => ops.push(Op::Count),
            Slot::Launch => {
                ops.push(Op::Launch);
                launches += 1;
                if launches % SYNC_EVERY == 0 {
                    ops.push(Op::Sync);
                }
            }
            Slot::Mem => {
                // Free when the remaining slots are all needed to drain,
                // allocate when nothing is live, otherwise toss a coin.
                let free = live == mem_left || live == MAX_LIVE || (live > 0 && rng.below(2) == 0);
                if free {
                    ops.push(Op::Free(rng.below(live as u64) as usize));
                    live -= 1;
                } else {
                    ops.push(Op::Malloc(sizes.next().expect("one size per pair")));
                    live += 1;
                }
                mem_left -= 1;
            }
        }
    }
    debug_assert_eq!(live, 0);
    ops
}

pub struct Smallcall {
    // Keeps the in-process server alive.
    _sim: SimSetup,
    client: CricketClient,
    meter: Arc<Meter>,
    virt: VirtClock,
    func: u64,
    cycle: Vec<Op>,
    reps: usize,
    live: Vec<u64>,
}

impl Smallcall {
    /// The workload in another of the paper's configurations (the traced
    /// suite compares the five).
    pub fn set_up_in(env: EnvConfig, seed: u64, size: Size, tracing: bool) -> Self {
        let sim = SimSetup::new();
        let meter = Meter::new(tracing);
        let mut client = sim_client(&sim, env, &meter);
        let func = load_empty_kernel(&mut client);
        let mut w = Self {
            virt: virt_clock(&sim),
            _sim: sim,
            client,
            meter,
            func,
            cycle: build_cycle(seed),
            reps: size.pick(10, 2, 1),
            live: Vec::with_capacity(MAX_LIVE),
        };
        // Warm-up: the first cycle fills every pooled buffer along the path;
        // three more make set-up long enough to time.
        let mut warm = Checks::default();
        for _ in 0..4 {
            w.cycle_once(&mut Unobserved, &mut warm);
        }
        assert_eq!(warm.failed, 0, "warm-up failed: {:?}", warm.first_failure);
        w
    }

    /// One cycle's ops, each reported to `obs`.
    fn cycle_once<O: Observer>(&mut self, obs: &mut O, checks: &mut Checks) {
        let Self {
            client,
            cycle,
            live,
            func,
            ..
        } = self;
        for op in cycle.iter() {
            match *op {
                Op::Count => {
                    obs.begin(Class::Count);
                    let r = client.device_count();
                    obs.end(Class::Count);
                    if let Some(n) = checks.op("cudaGetDeviceCount", r) {
                        checks.verify(Check::DeviceCount, n == 4, || {
                            format!("device count {n}, expected 4")
                        });
                    }
                }
                Op::Malloc(size) => {
                    obs.begin(Class::Malloc);
                    let r = client.malloc(size);
                    obs.end(Class::Malloc);
                    if let Some(ptr) = checks.op("cudaMalloc", r) {
                        checks.verify(Check::Pointer, ptr != 0 && !live.contains(&ptr), || {
                            format!("cudaMalloc returned {ptr:#x}, null or already live")
                        });
                        live.push(ptr);
                    }
                }
                Op::Free(which) => {
                    // A failed malloc leaves fewer live than planned.
                    if live.is_empty() {
                        continue;
                    }
                    let ptr = live.swap_remove(which.min(live.len() - 1));
                    obs.begin(Class::Free);
                    let r = client.free(ptr);
                    obs.end(Class::Free);
                    checks.op("cudaFree", r);
                }
                Op::Launch => {
                    obs.begin(Class::Launch);
                    let r =
                        client.launch_kernel(*func, (1, 1, 1).into(), (1, 1, 1).into(), 0, 0, &[]);
                    obs.end(Class::Launch);
                    checks.op("cuLaunchKernel", r);
                }
                Op::Sync => {
                    obs.begin(Class::Other);
                    let r = client.device_synchronize();
                    obs.end(Class::Other);
                    checks.op("cudaDeviceSynchronize", r);
                }
            }
        }
    }
}

impl Workload for Smallcall {
    const NAME: &'static str = "smallcall_sim";
    const LINK: &'static str = "none (in-process simulated network, virtual time)";
    const DETERMINISTIC: bool = true;
    const REFERENCE: Reference = Reference::Cpu;

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
        win.resume();
        for _ in 0..self.reps {
            self.cycle_once(obs, checks);
        }
        win.pause();
        checks.attempted - before
    }

    fn verify(&mut self, checks: &mut Checks) {
        // Every cycle frees what it allocated; anything left is a lost free.
        checks.verify(Check::Pointer, self.live.is_empty(), || {
            format!("{} allocations never freed", self.live.len())
        });
    }

    fn ops_hint(&self) -> usize {
        self.reps * self.cycle.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_is_seeded_and_balanced() {
        let a = build_cycle(1);
        assert_eq!(a, build_cycle(1));
        assert_ne!(a, build_cycle(2));
        let mut live = 0usize;
        let (mut mallocs, mut frees) = (0, 0);
        for op in &a {
            match *op {
                Op::Malloc(size) => {
                    assert!((256..=1 << 20).contains(&size), "size {size}");
                    live += 1;
                    mallocs += 1;
                    assert!(live <= MAX_LIVE);
                }
                Op::Free(which) => {
                    assert!(which < live, "free of nothing");
                    live -= 1;
                    frees += 1;
                }
                _ => {}
            }
        }
        assert_eq!(live, 0);
        assert_eq!(mallocs, frees);
        let launches = a.iter().filter(|o| **o == Op::Launch).count() as u64;
        let syncs = a.iter().filter(|o| **o == Op::Sync).count() as u64;
        assert_eq!(syncs, launches / SYNC_EVERY);
    }
}
