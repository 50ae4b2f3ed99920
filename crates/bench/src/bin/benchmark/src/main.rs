//! The repository's benchmark. See `README.md` next to `Cargo.toml` for
//! what is measured and why; `BENCHMARK.json` at the repository root is
//! the contract with the driver.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! benchmark --all [--seed <n>] [--seconds <s>] --out <file>   # every workload, both ways
//! benchmark --quick                                           # self-check, ≤15 s
//! benchmark --compare <a.json> <b.json>
//! benchmark --print-contract                                  # BENCHMARK.json
//! ```

mod alloc;
mod catalogue;
mod compare;
mod harness;
mod json;
mod meter;
mod probes;
mod quick;
mod report;
mod rng;
mod stats;
mod suite;
mod sys;
mod workloads;

use harness::{Size, Workload};
use report::Report;
use std::process::{Command, ExitCode};
use workloads::{apps::Apps, bulk::BulkD2h, bulk::BulkH2d, smallcall::Smallcall, tcp::Tcp};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Serialises the unit tests that touch process-wide state (the allocation
/// window, CPU time).
#[cfg(test)]
pub static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Cold set-ups per run, each a process of its own: `setup_s` is their median.
const SETUPS: usize = 7;
/// Timed trials per run, at least.
const MIN_TRIALS: usize = 5;

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    size: Size,
    /// This process is one `setup_s` sample of the run that started it.
    setup_child: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Mode::Run(run)) => {
            let pin = sys::pin_to_one_cpu();
            if run.setup_child {
                return match ready_stamp_ns(&run) {
                    Ok(ready) => {
                        println!("{ready}");
                        ExitCode::SUCCESS
                    }
                    Err(e) => fail(&e),
                };
            }
            match run_one(&run, &pin) {
                Ok(report) => finish(&report, run.out.as_deref()),
                Err(e) => fail(&e),
            }
        }
        Ok(Mode::All { seed, seconds, out }) => match run_all(seed, seconds, &out) {
            Ok(correct) if correct => ExitCode::SUCCESS,
            Ok(_) => fail("a run reported failures"),
            Err(e) => fail(&e),
        },
        Ok(Mode::Quick) => match quick::run() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        },
        Ok(Mode::Compare(a, b)) => match compare::run(&a, &b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => fail(&e),
        },
        Ok(Mode::PrintContract) => {
            print!("{}", catalogue::contract().to_pretty());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}\n\nusage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]\n       benchmark --all --out <file> | --quick | --compare <a> <b> | --print-contract\nworkloads: {}",
                catalogue::WORKLOADS.map(|(n, _)| n).join(", "));
            ExitCode::from(2)
        }
    }
}

fn fail(why: &str) -> ExitCode {
    eprintln!("benchmark: {why}");
    ExitCode::FAILURE
}

enum Mode {
    Run(RunArgs),
    All {
        seed: u64,
        seconds: f64,
        out: String,
    },
    Quick,
    Compare(String, String),
    PrintContract,
}

fn parse(args: &[String]) -> Result<Mode, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(catalogue::RUN_SECONDS),
        trace: false,
        out: None,
        size: Size::Full,
        setup_child: false,
    };
    let mut all = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => run.workload = value()?,
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(run.seconds > 0.0 && run.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => run.out = Some(value()?),
            // Used by `--quick` on its children: everything at minimum length.
            "--quick-child" => run.size = Size::Quick,
            // Used by every untraced run on its children: set up, say when
            // ready, exit.
            "--setup-child" => run.setup_child = true,
            "--all" => all = true,
            "--quick" => return Ok(Mode::Quick),
            "--compare" => return Ok(Mode::Compare(value()?, value()?)),
            "--print-contract" => return Ok(Mode::PrintContract),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if all {
        let out = run.out.ok_or("--all needs --out <file>")?;
        return Ok(Mode::All {
            seed: run.seed,
            seconds: run.seconds,
            out,
        });
    }
    if !catalogue::WORKLOADS.iter().any(|(n, _)| *n == run.workload) {
        return Err(format!("unknown or missing --workload `{}`", run.workload));
    }
    Ok(Mode::Run(run))
}

/// `$body` with `$W` naming the workload type called `$name`.
macro_rules! with_workload {
    ($name:expr, $W:ident => $body:expr) => {
        match $name {
            Smallcall::NAME => {
                type $W = Smallcall;
                $body
            }
            BulkH2d::NAME => {
                type $W = BulkH2d;
                $body
            }
            BulkD2h::NAME => {
                type $W = BulkD2h;
                $body
            }
            Apps::NAME => {
                type $W = Apps;
                $body
            }
            Tcp::NAME => {
                type $W = Tcp;
                $body
            }
            other => return Err(format!("unknown workload {other}")),
        }
    };
}

/// One workload, one way, in this process.
fn run_one(run: &RunArgs, pin: &sys::Pin) -> Result<Report, String> {
    if run.trace {
        return suite::run(&run.workload, run.seed, run.seconds, run.size, pin);
    }
    with_workload!(run.workload.as_str(), W => untraced::<W>(run, pin))
}

fn ready_stamp_ns(run: &RunArgs) -> Result<u64, String> {
    Ok(with_workload!(run.workload.as_str(), W => harness::ready_stamp_ns::<W>(run.seed, run.size)))
}

/// The `setup_s` samples: this program again, `n` times one after the other,
/// each setting the workload up cold and reporting when it was ready. A
/// sample runs from just before the process is started to that moment, and
/// is normalised by `reference` work done just before and just after.
/// Returns the samples as measured and normalised.
fn cold_setups(
    run: &RunArgs,
    n: usize,
    reference: sys::Reference,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut child = Command::new(exe);
    child.args(["--workload", &run.workload, "--setup-child"]);
    child.args(["--seed", &run.seed.to_string()]);
    if run.size == Size::Quick {
        child.arg("--quick-child");
    }
    (0..n)
        .map(|_| {
            let before = reference.scale();
            let started = sys::now_ns();
            let out = child
                .output()
                .map_err(|e| format!("cannot start a set-up process: {e}"))?;
            let after = reference.scale();
            let said = String::from_utf8_lossy(&out.stdout);
            let ready: u64 = said.trim().parse().map_err(|_| {
                format!(
                    "set-up process ({}) said `{}`: {}",
                    out.status,
                    said.trim(),
                    String::from_utf8_lossy(&out.stderr).trim()
                )
            })?;
            let measured_s = ready.saturating_sub(started) as f64 / 1e9;
            Ok((measured_s, measured_s * (before + after) / 2.0))
        })
        .collect()
}

fn untraced<W: Workload>(run: &RunArgs, pin: &sys::Pin) -> Result<Report, String> {
    let quick = run.size == Size::Quick;
    let (setup_measured_s, setup_s) =
        cold_setups(run, if quick { 1 } else { SETUPS }, W::REFERENCE)?;
    let measured = harness::measure::<W>(
        run.seed,
        run.size,
        run.seconds,
        setup_s,
        if quick { 2 } else { MIN_TRIALS },
    );
    let ops: u64 = measured.trials.iter().map(|t| t.ops).sum();
    let mut notes = vec![format!(
        "{} trials of {} ops; each metric is the median over trials (setup_s: over {} cold set-ups, peak_rss_mib: read after trial {})",
        measured.trials.len(),
        ops / measured.trials.len().max(1) as u64,
        measured.setup_s.len(),
        if quick { 2 } else { MIN_TRIALS },
    )];
    notes.push(format!(
        "as measured (medians): setup {:.4} s, op p50 {:.0} ns, {:.1} ops/s, cpu {:.0} ns/op; machine speed during the trials {:.3} (1 = the reference work takes its nominal time)",
        stats::median(&setup_measured_s),
        measured.summary(|t| t.p50_ns).median,
        measured.summary(|t| t.ops as f64 * 1e9 / t.wall_ns.max(1) as f64).median,
        measured.summary(|t| t.cpu_ns as f64 / t.ops.max(1) as f64).median,
        measured.summary(|t| t.scale).median,
    ));
    let tails: Vec<(f64, f64)> = measured.trials.iter().filter_map(|t| t.tail).collect();
    if let Some((p, _)) = tails.first() {
        let v: Vec<f64> = tails.iter().map(|(_, ns)| *ns).collect();
        notes.push(format!(
            "highest percentile with ten samples beyond it per trial: p{p} = {:.0} ns (median over trials)",
            stats::median(&v)
        ));
    }
    Ok(Report {
        workload: W::NAME,
        traced: false,
        seconds: run.seconds,
        provenance: sys::Provenance::collect(pin, run.seed, W::LINK),
        metrics: report::end_to_end_values(&measured),
        faults: measured
            .nondeterminism
            .iter()
            .map(|why| format!("{}: {why}", W::NAME))
            .collect(),
        checks: measured.checks,
        notes,
    })
}

/// Print, write the result file if asked, and end with the driver's line.
fn finish(report: &Report, out: Option<&str>) -> ExitCode {
    report.print();
    if let Some(path) = out {
        let file = json::obj([("runs", json::Value::Arr(vec![report.to_json()]))]);
        if let Err(e) = std::fs::write(path, file.to_pretty()) {
            return fail(&format!("cannot write {path}: {e}"));
        }
    }
    println!("{}", report.driver_line());
    ExitCode::SUCCESS
}

/// Every workload untraced, then traced, each in a process of its own
/// (this program again), merged into one result file.
fn run_all(seed: u64, seconds: f64, out: &str) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let part = format!("{out}.part");
    let mut runs = Vec::new();
    let mut correct = true;
    for trace in ["0", "1"] {
        for (workload, _) in catalogue::WORKLOADS {
            eprintln!("== {workload} --trace {trace}");
            let status = Command::new(&exe)
                .args(["--workload", workload, "--trace", trace, "--out", &part])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .status()
                .map_err(|e| format!("cannot start {workload}: {e}"))?;
            if !status.success() {
                return Err(format!("{workload} --trace {trace} exited with {status}"));
            }
            let text = std::fs::read_to_string(&part).map_err(|e| format!("{part}: {e}"))?;
            let file = json::parse(&text)?;
            for run in file.get("runs").map_or(&[][..], |r| r.as_arr()) {
                correct &= run.get("correct") == Some(&json::Value::Bool(true));
                runs.push(run.clone());
            }
        }
    }
    let _ = std::fs::remove_file(&part);
    std::fs::write(
        out,
        json::obj([("runs", json::Value::Arr(runs))]).to_pretty(),
    )
    .map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(correct)
}
