//! Running the benchmark from the benchmark: `all` runs every workload
//! once untraced and once traced and prints one merged table; `check`
//! runs everything twice back to back (A/A) and fails when the two sets
//! disagree by more than the bounds `BENCHMARK.json` fixes — the same
//! code on both sides, so any difference is the benchmark's own noise.

use crate::json::{self, Value};
use crate::spec::{MetricDef, Registry};
use std::process::{Command, Stdio};

/// The parsed last line of one `run`.
pub struct RunResult {
    pub correct: bool,
    pub metrics: Vec<(String, f64)>,
}

impl RunResult {
    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }
}

/// Each workload runs in a process of its own, so that peak memory and
/// allocator state of one never reach the next.
fn spawn_run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    let v = json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    let metrics = v
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or(format!("{workload}: result without metrics"))?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            (name.clone(), value)
        })
        .collect();
    Ok(RunResult {
        correct: v.get("correct") == Some(&Value::Bool(true)) && out.status.success(),
        metrics,
    })
}

/// One table: a row per metric, a column per workload.
fn print_table(title: &str, defs: &[MetricDef], columns: &[(String, RunResult)]) {
    println!("\n{title}");
    print!("{:<36}", "metric");
    for (name, _) in columns {
        print!(" {name:>16}");
    }
    println!("  unit");
    for d in defs {
        print!("{:<36}", d.name);
        for (_, r) in columns {
            print!(" {:>16.6}", r.get(&d.name));
        }
        println!("  {}", d.unit);
    }
}

fn run_set(
    reg: &Registry,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Vec<(String, RunResult)>, String> {
    reg.workloads
        .iter()
        .map(|w| {
            eprintln!("running {w} (trace {})", trace as u8);
            let r = spawn_run(w, seed, seconds, trace)?;
            if !r.correct {
                return Err(format!("{w}: the run reported failed ops"));
            }
            Ok((w.clone(), r))
        })
        .collect()
}

pub fn all(reg: &Registry, seed: u64, seconds: f64) -> Result<(), String> {
    let plain = run_set(reg, seed, seconds, false)?;
    let traced = run_set(reg, seed, seconds, true)?;
    print_table("end to end (tracing off)", &reg.end_to_end, &plain);
    print_table("per layer (traced run)", &reg.per_layer, &traced);
    Ok(())
}

/// A count or a modeled time: computed, not measured, so it must repeat
/// bit for bit between two runs on the same seed.
fn is_exact(d: &MetricDef) -> bool {
    d.unit == "count" || d.unit == "modeled_s"
}

pub fn check(reg: &Registry, seed: u64, seconds: f64) -> Result<(), String> {
    let mut findings = Vec::new();
    for trace in [false, true] {
        let a = run_set(reg, seed, seconds, trace)?;
        let b = run_set(reg, seed, seconds, trace)?;
        println!(
            "\nA/A, tracing {}\n{:<12} {:<36} {:>16} {:>16} {:>9}  bound",
            if trace { "on" } else { "off" },
            "workload",
            "metric",
            "first",
            "second",
            "diff"
        );
        for ((w, ra), (_, rb)) in a.iter().zip(&b) {
            for d in reg.metrics(trace) {
                let (x, y) = (ra.get(&d.name), rb.get(&d.name));
                let diff = if x == y { 0.0 } else { (y - x) / x };
                let verdict = match d.bound {
                    Some(bound) if diff.is_nan() || diff.abs() > bound => "  <-- beyond the bound",
                    None if is_exact(d) && x.to_bits() != y.to_bits() => {
                        "  <-- must repeat exactly"
                    }
                    _ => "",
                };
                if d.bound.is_some() || is_exact(d) {
                    println!(
                        "{w:<12} {:<36} {x:>16.6} {y:>16.6} {:>8.2}%  {}{verdict}",
                        d.name,
                        100.0 * diff,
                        d.bound
                            .map_or("exact".to_string(), |b| format!("{:.0}%", 100.0 * b)),
                    );
                }
                if !verdict.is_empty() {
                    findings.push(format!("{w} {}: {x} vs {y}", d.name));
                }
            }
        }
    }
    if findings.is_empty() {
        println!("\nA/A check passed: both sets agree within every bound, counts repeat exactly");
        Ok(())
    } else {
        Err(format!("A/A check failed:\n  {}", findings.join("\n  ")))
    }
}
