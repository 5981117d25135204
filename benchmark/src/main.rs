//! The KaMSTa wall-clock benchmark: five workloads at p = physical
//! cores, verified forests, and a per-layer budget measured from
//! outside the program. See `README.md` beside this crate.

mod check;
mod json;
mod probes;
mod report;
mod service;
mod spec;
mod statics;
mod stats;
mod sys;
mod trace;

use report::Report;
use spec::{Kind, Registry, RunOpts, Workload};
use std::process::ExitCode;
use trace::Trace;

const USAGE: &str = "usage:
  kamsta-benchmark run --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>]
  kamsta-benchmark all   [--seed <u64>] [--seconds <s>]   every workload, untraced then traced
  kamsta-benchmark check [--seed <u64>] [--seconds <s>]   A/A: everything twice, compared to the bounds";

/// Run one workload in this process.
fn run_workload(w: &Workload, o: &RunOpts) -> (Report, Trace) {
    let mut report = Report::default();
    let mut trace = Trace::new();
    match w.kind {
        Kind::Static(algo) => statics::run(w, algo, o, &mut report, &mut trace),
        Kind::Service => service::run(w, o, &mut report, &mut trace),
    }
    (report, trace)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(rest: &[String], reg: &Registry) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: reg.run_seconds,
        trace: false,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn run(args: &Args, reg: &Registry) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("run needs --workload")?;
    let w = Workload::by_name(name).ok_or(format!(
        "unknown workload {name}; known: {}",
        reg.workloads.join(", ")
    ))?;
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        min_ops: if args.trace { 4 } else { 3 },
        smoke: false,
        corrupt_msf: false,
    };
    let (report, trace) = run_workload(&w, &opts);
    let defs = reg.metrics(args.trace);
    println!(
        "workload {name}  seed {}  window {} s  tracing {}  p = {} x t = 1 (host offers {} cores)",
        args.seed,
        args.seconds,
        if args.trace { "on" } else { "off" },
        spec::PES,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    print!("{}", report.table(defs)?);
    if args.trace {
        let path = Trace::path_for(name);
        trace
            .write(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("trace: {} spans in {}", trace.spans.len(), path.display());
    }
    println!("{}", report.result_json(defs)?.render());
    Ok(report.correct())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let reg = Registry::load();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if cmd == "host-cores" {
        // The child of `sys::probe_host_cores`.
        println!("{}", sys::host_cores(spec::PES));
        return ExitCode::SUCCESS;
    }
    let outcome = parse_args(rest, &reg).and_then(|args| match cmd.as_str() {
        "run" => run(&args, &reg),
        "all" => check::all(&reg, args.seed, args.seconds).map(|()| true),
        "check" => check::check(&reg, args.seed, args.seconds).map(|()| true),
        _ => Err(USAGE.to_string()),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("{why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod smoke {
    //! Every workload at 2^8-vertex scale, two ops each: the metrics a
    //! run emits are exactly the ones `BENCHMARK.json` names, and a
    //! wrong forest is counted as failed.

    use super::*;
    use spec::WORKLOADS;

    fn opts(trace: bool, corrupt_msf: bool) -> RunOpts {
        RunOpts {
            seed: 7,
            seconds: 0.0,
            trace,
            min_ops: 2,
            smoke: true,
            corrupt_msf,
        }
    }

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
    }

    #[test]
    fn benchmark_json_keeps_to_the_contract() {
        let reg = Registry::load();
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(reg.workloads, names, "BENCHMARK.json lists the workloads");
        let mut seen = std::collections::BTreeSet::new();
        for d in reg.end_to_end.iter().chain(&reg.per_layer) {
            assert!(is_name(&d.name), "metric name {}", d.name);
            assert!(seen.insert(&d.name), "metric {} is named twice", d.name);
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                d.unit.len() <= 16 && d.unit.chars().all(unit_ok),
                "{}",
                d.unit
            );
        }
        for d in &reg.end_to_end {
            let bound = d.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", d.name);
        }
        assert!(reg.per_layer.iter().all(|d| d.bound.is_none()));
        let setup = reg.end_to_end.iter().find(|d| d.name == "setup_s");
        let setup = setup.expect("setup_s is an end-to-end metric");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!((1.0..=60.0).contains(&reg.run_seconds) && reg.run_seconds.fract() == 0.0);
    }

    #[test]
    fn every_workload_emits_exactly_the_named_metrics() {
        let reg = Registry::load();
        for w in WORKLOADS {
            for trace in [false, true] {
                let (report, spans) = run_workload(&w.smoke(), &opts(trace, false));
                let defs = reg.metrics(trace);
                let values = report
                    .checked(defs)
                    .unwrap_or_else(|e| panic!("{} trace {trace}: {e}", w.name));
                assert_eq!(values.len(), defs.len());
                assert!(report.correct(), "{}: {:?}", w.name, report.notes);
                assert!(report.attempted >= 3, "ops and their verification");
                assert!(report.result_json(defs).is_ok() && report.table(defs).is_ok());
                assert_eq!(spans.spans.is_empty(), !trace, "spans only when traced");
                if !trace {
                    for (d, v) in values {
                        assert!(v.is_finite() && v > 0.0, "{} {} = {v}", w.name, d.name);
                    }
                }
            }
        }
    }

    #[test]
    fn a_corrupted_forest_edge_is_a_failed_op() {
        for w in [WORKLOADS[0], WORKLOADS[4]] {
            let (report, _) = run_workload(&w.smoke(), &opts(false, true));
            assert!(report.failed > 0 && !report.correct(), "{}", w.name);
            // Every op that produced the unverifiable forest failed with it.
            assert_eq!(report.failed, report.attempted, "{}", w.name);
            assert!(report.notes.iter().any(|n| n.contains("verification")));
        }
    }
}
