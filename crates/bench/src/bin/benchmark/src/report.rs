//! One run's results: the table people read, the result file, and the one
//! line the driver reads.

use crate::catalogue::MetricDef;
use crate::harness::{Check, Checks, Measured};
use crate::json::{self, Value};
use crate::stats::{self, Summary};
use crate::sys::Provenance;

#[derive(Debug, Clone)]
pub struct MetricValue {
    pub def: MetricDef,
    pub summary: Summary,
}

pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    pub seconds: f64,
    pub provenance: Provenance,
    pub checks: Checks,
    pub metrics: Vec<MetricValue>,
    /// Reasons the run is not correct beyond failed ops (a deterministic
    /// quantity that did not repeat, a layer sum that does not add up).
    pub faults: Vec<String>,
    pub notes: Vec<String>,
}

/// The end-to-end metrics of an untraced run, in catalogue order.
pub fn end_to_end_values(m: &Measured) -> Vec<MetricValue> {
    let per_op = |num: fn(&crate::harness::Trial) -> u64| {
        m.summary(move |t| num(t) as f64 / t.ops.max(1) as f64)
    };
    crate::catalogue::end_to_end()
        .into_iter()
        .map(|def| {
            let summary = match def.name.as_str() {
                "setup_s" => stats::summarize(&m.setup_s),
                "virt_ns_per_op" => per_op(|t| t.virt_ns),
                // Durations normalised trial by trial, then the median taken.
                "norm_ns_per_op_p50" => m.summary(|t| t.p50_ns * t.scale),
                "norm_ops_per_s" => {
                    m.summary(|t| t.ops as f64 * 1e9 / (t.wall_ns.max(1) as f64 * t.scale))
                }
                "norm_cpu_ns_per_op" => {
                    m.summary(|t| t.cpu_ns as f64 * t.scale / t.ops.max(1) as f64)
                }
                "allocs_per_op" => per_op(|t| t.allocs),
                "wire_bytes_per_op" => per_op(|t| t.wire_bytes),
                "peak_rss_mib" => stats::summarize(&[m.peak_rss_mib]),
                other => unreachable!("end-to-end metric {other} has no measurement"),
            };
            MetricValue { def, summary }
        })
        .collect()
}

impl Report {
    pub fn correct(&self) -> bool {
        self.checks.failed == 0 && self.faults.is_empty()
    }

    /// The human-readable report.
    pub fn print(&self) {
        let p = &self.provenance;
        println!(
            "# {} — {} run, seed {}, {} s",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            p.seed,
            self.seconds
        );
        println!("# link: {}", p.link);
        println!(
            "# git {} · {} CPUs · pinned: {} · profile {} · {}",
            p.git_rev, p.nproc, p.pinned, p.profile, p.kernel
        );
        println!(
            "{:<48} {:>16} {:>8} {:>10} {:>7} {:>7} {:>6}  iqr",
            "metric", "median", "unit", "clock", "better", "bound", "n"
        );
        for m in &self.metrics {
            println!(
                "{:<48} {:>16.4} {:>8} {:>10} {:>7} {:>7} {:>6}  {:.4}",
                m.def.name,
                m.summary.median,
                m.def.unit,
                m.def.clock.name(),
                m.def.better,
                m.def
                    .bound
                    .map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
                m.summary.n,
                m.summary.iqr,
            );
        }
        let c = &self.checks;
        println!(
            "ops attempted {} · failed {} · fail_ratio {} · checks: {}",
            c.attempted,
            c.failed,
            c.failed as f64 / c.attempted.max(1) as f64,
            Check::NAMES
                .iter()
                .zip(c.performed)
                .map(|(k, n)| format!("{k} {n}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        if let Some(why) = &c.first_failure {
            println!("first failure: {why}");
        }
        for f in &self.faults {
            println!("FAULT: {f}");
        }
        for n in &self.notes {
            println!("note: {n}");
        }
    }

    /// The result-file form: provenance header, then everything printed.
    pub fn to_json(&self) -> Value {
        let p = &self.provenance;
        json::obj([
            (
                "provenance",
                json::obj([
                    ("git_rev", json::s(p.git_rev.as_str())),
                    ("nproc", json::num(p.nproc as f64)),
                    ("pinned_cpu", json::s(p.pinned.as_str())),
                    ("cargo_profile", json::s(p.profile)),
                    ("seed", json::num(p.seed as f64)),
                    ("kernel", json::s(p.kernel.as_str())),
                    ("link", json::s(p.link)),
                ]),
            ),
            ("workload", json::s(self.workload)),
            ("traced", Value::Bool(self.traced)),
            ("seconds", json::num(self.seconds)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", json::num(self.checks.attempted as f64)),
            ("failed", json::num(self.checks.failed as f64)),
            (
                "checks",
                Value::Obj(
                    Check::NAMES
                        .iter()
                        .zip(self.checks.performed)
                        .map(|(k, n)| (k.to_string(), json::num(n as f64)))
                        .collect(),
                ),
            ),
            (
                "faults",
                Value::Arr(self.faults.iter().map(|f| json::s(f.as_str())).collect()),
            ),
            (
                "metrics",
                Value::Arr(
                    self.metrics
                        .iter()
                        .map(|m| {
                            json::obj([
                                ("name", json::s(m.def.name.as_str())),
                                ("median", json::num(m.summary.median)),
                                ("iqr", json::num(m.summary.iqr)),
                                ("n", json::num(m.summary.n as f64)),
                                ("unit", json::s(m.def.unit)),
                                ("clock", json::s(m.def.clock.name())),
                                ("better", json::s(m.def.better)),
                                ("bound", m.def.bound.map_or(Value::Null, json::num)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn driver_line(&self) -> String {
        json::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", json::num(self.checks.attempted.max(1) as f64)),
            ("failed", json::num(self.checks.failed as f64)),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.def.name.clone(),
                                json::obj([
                                    ("value", json::num(m.summary.median)),
                                    ("unit", json::s(m.def.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .to_line()
    }
}
