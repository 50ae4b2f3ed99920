//! `--compare a.json b.json`: two result files, metric by metric.
//!
//! For every workload × metric in both files: both medians, `b`'s ratio to
//! its base `a`, the bound, and a verdict for the bounded (end-to-end)
//! ones — `worse` when `b` is worse than `a` by more than the bound,
//! `unresolved` when either side's interquartile range is itself wider
//! than the bound (so nothing can be said either way), else `same`.
//! Per-layer metrics have no bound and get no verdict.

use crate::json::{self, Value};

#[derive(Debug, Clone, PartialEq)]
struct Metric {
    median: f64,
    iqr: f64,
    better: String,
    bound: Option<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Same,
    Worse,
    Unresolved,
    Unbounded,
}

fn verdict(a: &Metric, b: &Metric) -> Verdict {
    let Some(bound) = a.bound else {
        return Verdict::Unbounded;
    };
    let spread = |m: &Metric| {
        if m.median == 0.0 {
            0.0
        } else {
            (m.iqr / m.median).abs()
        }
    };
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let worsening = match a.better.as_str() {
        "higher" => (a.median - b.median) / a.median.abs(),
        _ => (b.median - a.median) / a.median.abs(),
    };
    if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

struct Run {
    key: String,
    fail_ratio: f64,
    metrics: Vec<(String, Metric)>,
}

fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = file
        .get("runs")
        .ok_or_else(|| format!("{path}: no `runs`"))?;
    runs.as_arr()
        .iter()
        .map(|run| {
            let field = |k: &str| {
                run.get(k)
                    .ok_or_else(|| format!("{path}: run without `{k}`"))
            };
            let num = |k: &str| {
                field(k)?
                    .as_f64()
                    .ok_or_else(|| format!("{path}: `{k}` is not a number"))
            };
            let traced = field("traced")? == &Value::Bool(true);
            let workload = field("workload")?.as_str().unwrap_or("?");
            let metrics = field("metrics")?
                .as_arr()
                .iter()
                .map(|m| {
                    let get = |k: &str| m.get(k).and_then(Value::as_f64);
                    Ok((
                        m.get("name")
                            .and_then(Value::as_str)
                            .ok_or("metric without name")?
                            .to_string(),
                        Metric {
                            median: get("median").ok_or("metric without median")?,
                            iqr: get("iqr").unwrap_or(0.0),
                            better: m
                                .get("better")
                                .and_then(Value::as_str)
                                .unwrap_or("lower")
                                .to_string(),
                            bound: get("bound"),
                        },
                    ))
                })
                .collect::<Result<Vec<_>, &str>>()
                .map_err(|e| format!("{path}: {e}"))?;
            Ok(Run {
                key: format!("{workload}{}", if traced { " (traced)" } else { "" }),
                fail_ratio: num("failed")? / num("attempted")?.max(1.0),
                metrics,
            })
        })
        .collect()
}

/// Print the comparison; `Ok(false)` if `b` is worse anywhere.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut ok = true;
    let mut counts = [0usize; 4];
    println!("base a = {path_a}\n     b = {path_b}");
    for ra in &a {
        let Some(rb) = b.iter().find(|r| r.key == ra.key) else {
            println!("\n## {} — only in a", ra.key);
            continue;
        };
        println!("\n## {}", ra.key);
        println!(
            "{:<48} {:>16} {:>16} {:>9} {:>7}  verdict",
            "metric", "a", "b", "b/a", "bound"
        );
        for (name, ma) in &ra.metrics {
            let Some((_, mb)) = rb.metrics.iter().find(|(n, _)| n == name) else {
                continue;
            };
            let v = verdict(ma, mb);
            counts[v as usize] += 1;
            ok &= v != Verdict::Worse;
            println!(
                "{:<48} {:>16.4} {:>16.4} {:>9.4} {:>7}  {}",
                name,
                ma.median,
                mb.median,
                mb.median / ma.median,
                ma.bound
                    .map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
                match v {
                    Verdict::Same => "same",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Unbounded => "-",
                }
            );
        }
        if rb.fail_ratio > ra.fail_ratio {
            println!(
                "fail_ratio rose from {} to {}: WORSE",
                ra.fail_ratio, rb.fail_ratio
            );
            ok = false;
        }
    }
    println!(
        "\n{} same, {} worse, {} unresolved (spread wider than the bound), {} without a bound",
        counts[0], counts[1], counts[2], counts[3]
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(median: f64, iqr: f64, better: &str, bound: Option<f64>) -> Metric {
        Metric {
            median,
            iqr,
            better: better.into(),
            bound,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = m(100.0, 1.0, "lower", Some(0.10));
        assert_eq!(
            verdict(&base, &m(109.0, 1.0, "lower", Some(0.10))),
            Verdict::Same
        );
        assert_eq!(
            verdict(&base, &m(111.0, 1.0, "lower", Some(0.10))),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &m(50.0, 1.0, "lower", Some(0.10))),
            Verdict::Same
        );
        let up = m(100.0, 1.0, "higher", Some(0.10));
        assert_eq!(
            verdict(&up, &m(89.0, 1.0, "higher", Some(0.10))),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&up, &m(150.0, 1.0, "higher", Some(0.10))),
            Verdict::Same
        );
        // A spread wider than the bound settles nothing, either way.
        assert_eq!(
            verdict(&base, &m(130.0, 20.0, "lower", Some(0.10))),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&m(100.0, 11.0, "lower", Some(0.10)), &base),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&m(1.0, 0.0, "lower", None), &m(9.0, 0.0, "lower", None)),
            Verdict::Unbounded
        );
    }
}
