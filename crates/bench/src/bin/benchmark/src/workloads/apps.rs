//! `apps_sim` — the paper's Fig. 5 proxy applications (`matrixMul`, the
//! cuSolver LU solver, `histogram`) on the simulated RustyHermit path, at a
//! fixed reduced scale, each validating its own result.
//!
//! This is the realistic mix of calls, bytes and kernels. Device execution
//! in `vgpu` and the apps' own input generation and validation carry most
//! of the wall time and the RPC layers little: a wall-clock optimisation of
//! an RPC layer predicts *no change* here, while `virt_ns_per_op` still
//! moves with modelled per-call cost. The apps issue the calls themselves,
//! so ops are not timed one by one: `wall_ns_per_op_p50` is a pass's wall
//! time over its API calls.

use super::{sim_client, virt_clock, ENV};
use crate::harness::{Check, Checks, Observer, Size, Unobserved, Window, Workload};
use crate::meter::{Meter, VirtClock};
use crate::rng::Rng;
use crate::sys::Reference;
use cricket_client::sim::SimSetup;
use cricket_client::{ApiStats, ClientResult, Context};
use proxy_apps::{histogram, linear_solver, matrix_mul};
use std::sync::Arc;

/// What one app run cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct AppRun {
    pub virt_s: f64,
    pub wall_s: f64,
    pub api_calls: u64,
}

pub struct Apps {
    sim: SimSetup,
    ctx: Context,
    meter: Arc<Meter>,
    virt: VirtClock,
    mm: matrix_mul::MatrixMulConfig,
    ls: linear_solver::LinearSolverConfig,
    hg: histogram::HistogramConfig,
    /// The last pass's runs, in `catalogue::APPS` order.
    pub last: [AppRun; 3],
}

impl Apps {
    /// Run one app inside the window; returns its API-call count.
    fn run_app<R>(
        &mut self,
        slot: usize,
        win: &mut Window,
        checks: &mut Checks,
        expected_calls: u64,
        run: impl FnOnce(&Context) -> ClientResult<R>,
        outcome: impl FnOnce(&R) -> (bool, &ApiStats),
    ) -> u64 {
        let (v0, w0) = (self.sim.clock.now_ns(), win.wall_ns);
        win.resume();
        let r = run(&self.ctx);
        win.pause();
        let calls = match &r {
            Ok(report) => {
                let (valid, stats) = outcome(report);
                checks.ops_ok(stats.api_calls);
                checks.verify(Check::AppValid, valid, || {
                    format!("{} did not validate", crate::catalogue::APPS[slot])
                });
                stats.api_calls
            }
            Err(e) => {
                // The app stops at its first failed call.
                checks.ops_ok(expected_calls - 1);
                checks.failed_op(format!("{}: {e}", crate::catalogue::APPS[slot]));
                expected_calls
            }
        };
        self.last[slot] = AppRun {
            virt_s: (self.sim.clock.now_ns() - v0) as f64 / 1e9,
            wall_s: (win.wall_ns - w0) as f64 / 1e9,
            api_calls: calls,
        };
        calls
    }

    fn run_all(&mut self, obs: &mut impl Observer, win: &mut Window, checks: &mut Checks) -> u64 {
        let (mm, ls, hg) = (self.mm, self.ls, self.hg);
        let a = self.run_app(
            0,
            win,
            checks,
            mm.expected_api_calls(),
            |ctx| matrix_mul::run(ctx, &mm),
            |r| (r.valid, &r.stats),
        );
        obs.boundary();
        let b = self.run_app(
            1,
            win,
            checks,
            ls.expected_api_calls(),
            |ctx| linear_solver::run(ctx, &ls),
            |r| (r.valid, &r.stats),
        );
        obs.boundary();
        let c = self.run_app(
            2,
            win,
            checks,
            hg.expected_api_calls(),
            |ctx| histogram::run(ctx, &hg),
            |r| (r.valid, &r.stats),
        );
        obs.boundary();
        a + b + c
    }
}

impl Workload for Apps {
    const NAME: &'static str = "apps_sim";
    const LINK: &'static str = "none (in-process simulated network, virtual time)";
    const DETERMINISTIC: bool = true;
    const REFERENCE: Reference = Reference::Cpu;

    fn set_up(seed: u64, size: Size, tracing: bool) -> Self {
        let sim = SimSetup::new();
        let meter = Meter::new(tracing);
        let ctx = Context::from_client(sim_client(&sim, ENV, &meter));
        // The seed moves two iteration counts by a third of a percent: the
        // apps' inputs are fixed by the samples they port, their length is
        // ours. (Not the solver's: each of its iterations moves 290 KiB.)
        let mut rng = Rng::new(seed, 4);
        let div = size.pick(1, 4, 16);
        let mut w = Self {
            virt: virt_clock(&sim),
            sim,
            ctx,
            meter,
            mm: matrix_mul::MatrixMulConfig {
                iterations: rng.jitter(3000, 10) as usize / div,
                ..matrix_mul::MatrixMulConfig::paper()
            },
            ls: linear_solver::LinearSolverConfig {
                n: 192,
                iterations: 50 / div,
                warmups: 2,
            },
            hg: histogram::HistogramConfig {
                byte_count: 4 << 20,
                iterations: rng.jitter(600, 2) as usize / div,
            },
            last: [AppRun::default(); 3],
        };
        // Warm-up: one run of each app (the device memoises kernel results
        // by input version, as for the samples' repeated launches).
        let mut warm = Checks::default();
        let mut win = Window::new(&w.meter, Some(&w.virt));
        w.run_all(&mut Unobserved, &mut win, &mut warm);
        assert_eq!(warm.failed, 0, "warm-up failed: {:?}", warm.first_failure);
        w
    }

    fn meter(&self) -> &Arc<Meter> {
        &self.meter
    }

    fn virt(&self) -> Option<&VirtClock> {
        Some(&self.virt)
    }

    fn pass<O: Observer>(&mut self, obs: &mut O, win: &mut Window, checks: &mut Checks) -> u64 {
        self.run_all(obs, win, checks)
    }

    fn verify(&mut self, _checks: &mut Checks) {}

    fn ops_hint(&self) -> usize {
        0
    }
}
