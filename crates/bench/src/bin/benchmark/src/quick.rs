//! `--quick`: the benchmark checking itself, in about ten seconds.
//!
//! Runs every workload untraced and the traced suite once, at minimum
//! length, each in a process of its own as the driver would, and fails
//! unless: `BENCHMARK.json` is what the catalogue prints; every run's last
//! line has exactly the driver's keys; every metric the contract lists is
//! printed exactly once with its unit, clock, direction and bound; every
//! kind of correctness check a workload owes was performed and none failed.

use crate::catalogue::{self, MetricDef};
use crate::harness::Check;
use crate::json::{self, Value};
use std::time::Instant;

/// The checks each workload must have performed at least once.
fn owed(workload: &str) -> &'static [Check] {
    match workload {
        "smallcall_sim" => &[Check::DeviceCount, Check::Pointer],
        "bulk_h2d_sim" | "bulk_d2h_sim" => &[Check::Bytes],
        "apps_sim" => &[Check::AppValid],
        "tcp_sessions" => &[Check::DeviceCount, Check::Pointer, Check::Bytes],
        _ => &[],
    }
}

pub fn run() -> Result<(), String> {
    let started = Instant::now();
    let committed = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run --quick from the repository root)"))?;
    if json::parse(&committed)? != catalogue::contract() {
        return Err(
            "BENCHMARK.json differs from the catalogue; regenerate it with --print-contract".into(),
        );
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    // Next to the executable: inside the build directory, nowhere else.
    let out = exe.with_file_name(format!("quick-{}.json", std::process::id()));
    let child = |workload: &str, trace: &str| -> Result<(Value, Value), String> {
        let output = std::process::Command::new(&exe)
            .args([
                "--workload",
                workload,
                "--trace",
                trace,
                "--seed",
                "1",
                "--seconds",
                "0.3",
            ])
            .arg("--quick-child")
            .arg("--out")
            .arg(&out)
            .output()
            .map_err(|e| format!("cannot start {workload}: {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "{workload} --trace {trace} exited with {}: {}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().ok_or("no output")?;
        let line =
            json::parse(last).map_err(|e| format!("{workload}: last line is not JSON: {e}"))?;
        let file = std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        let _ = std::fs::remove_file(&out);
        let run = json::parse(&file)?
            .get("runs")
            .and_then(|r| r.as_arr().first().cloned())
            .ok_or("result file without a run")?;
        Ok((line, run))
    };

    for (workload, _) in catalogue::WORKLOADS {
        let (line, run) = child(workload, "0")?;
        check_run(workload, &line, &run, &catalogue::end_to_end())?;
        for kind in owed(workload) {
            let name = Check::NAMES[*kind as usize];
            let n = run
                .get("checks")
                .and_then(|c| c.get(name))
                .and_then(Value::as_f64);
            if n.unwrap_or(0.0) < 1.0 {
                return Err(format!("{workload}: no `{name}` check was performed"));
            }
        }
        println!(
            "ok  {workload}: {} end-to-end metrics, checks performed, none failed",
            catalogue::end_to_end().len()
        );
    }
    let (line, run) = child("smallcall_sim", "1")?;
    check_run("traced suite", &line, &run, &catalogue::per_layer())?;
    println!(
        "ok  traced suite: {} per-layer metrics",
        catalogue::per_layer().len()
    );
    let took = started.elapsed().as_secs_f64();
    println!("ok  BENCHMARK.json matches the catalogue; {took:.1} s");
    // The budget is 15 s. How long the memory-heavy passes take depends on
    // the host's mood (page faults cost anything from 0.25 µs to several);
    // only a run far beyond it says something about the benchmark.
    if took > 15.0 {
        println!("warning: over the 15 s budget");
    }
    if took > 30.0 {
        return Err(format!("--quick took {took:.1} s, twice its 15 s budget"));
    }
    Ok(())
}

/// One run against the metrics it owes.
fn check_run(what: &str, line: &Value, run: &Value, owed: &[MetricDef]) -> Result<(), String> {
    let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("{what}: last line has keys {keys:?}"));
    }
    if line.get("correct") != Some(&Value::Bool(true))
        || line.get("failed").and_then(Value::as_f64) != Some(0.0)
    {
        return Err(format!(
            "{what}: not correct: {}",
            run.get("faults").map_or(String::new(), Value::to_line)
        ));
    }
    if line.get("attempted").and_then(Value::as_f64).unwrap_or(0.0) < 1.0 {
        return Err(format!("{what}: nothing attempted"));
    }
    let printed = line.get("metrics").map_or(&[][..], Value::as_obj);
    let detailed = run.get("metrics").map_or(&[][..], Value::as_arr);
    for def in owed {
        let hits: Vec<_> = printed.iter().filter(|(k, _)| *k == def.name).collect();
        let [(_, m)] = hits.as_slice() else {
            return Err(format!("{what}: {} printed {} times", def.name, hits.len()));
        };
        if m.get("unit").and_then(Value::as_str) != Some(def.unit) {
            return Err(format!("{what}: {} has the wrong unit", def.name));
        }
        let v = m.get("value").and_then(Value::as_f64);
        if !v.is_some_and(f64::is_finite) {
            return Err(format!("{what}: {} has no finite value", def.name));
        }
        let d = detailed
            .iter()
            .find(|d| d.get("name").and_then(Value::as_str) == Some(&def.name))
            .ok_or_else(|| format!("{what}: {} missing from the result file", def.name))?;
        let text = |k: &str| d.get(k).and_then(Value::as_str);
        if text("unit") != Some(def.unit)
            || text("clock") != Some(def.clock.name())
            || text("better") != Some(def.better)
            || d.get("bound").and_then(Value::as_f64) != def.bound
        {
            return Err(format!(
                "{what}: {} lacks its unit, clock, direction or bound",
                def.name
            ));
        }
    }
    if printed.len() != owed.len() {
        return Err(format!(
            "{what}: {} metrics printed, {} owed",
            printed.len(),
            owed.len()
        ));
    }
    Ok(())
}
