//! Launcher integration: `kamsta_launch` spawning real OS processes
//! over loopback TCP must reproduce, byte for byte, the digests of the
//! same rank programs run in-process on the cells transport — results
//! *and* modeled cost counters — and a dying worker must fail the whole
//! launch with a typed transport error within the io timeout.

use kamsta::{launchprog, Machine, MachineConfig, TransportKind};
use std::process::Command;
use std::time::{Duration, Instant};

/// The in-process cells oracle for one (program, p, seed).
fn cells_digest(program: &'static str, pes: usize, seed: u64) -> String {
    let out = Machine::run(
        MachineConfig::new(pes).with_transport(TransportKind::Cells),
        move |comm| launchprog::run(program, comm, seed),
    );
    out.results[0].clone().expect("rank 0 digest")
}

fn launch(args: &[&str]) -> std::process::Output {
    launch_env(args, &[])
}

fn launch_env(args: &[&str], env: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_kamsta_launch"));
    cmd.args(args)
        .env_remove("KAMSTA_LAUNCH_RENDEZVOUS")
        .env_remove("KAMSTA_TRANSPORT")
        .env_remove("KAMSTA_FAULTS");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn kamsta_launch")
}

fn digest_of(out: &std::process::Output) -> String {
    assert!(
        out.status.success(),
        "launch failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).trim().to_string()
}

#[test]
fn mst_across_processes_matches_in_process_cells_bit_for_bit() {
    let out = launch(&["--pes", "4", "--program", "mst", "--seed", "7"]);
    assert_eq!(digest_of(&out), cells_digest("mst", 4, 7));
}

#[test]
fn filter_boruvka_across_processes_matches_in_process_cells_bit_for_bit() {
    // The program itself fails the launch unless Filter-Borůvka's forest
    // is Borůvka's; the digest adds the recursion statistics and the
    // modeled counters of base-case rounds, hooks and `compress`.
    let out = launch(&["--pes", "4", "--program", "filter", "--seed", "7"]);
    let digest = digest_of(&out);
    assert_eq!(digest, cells_digest("filter", 4, 7));
    assert!(!digest.contains("\"base_case_calls\":0,"), "{digest}");
}

#[test]
fn dyn_differential_across_processes() {
    let out = launch(&["--pes", "3", "--program", "dyn", "--seed", "19"]);
    assert_eq!(digest_of(&out), cells_digest("dyn", 3, 19));
}

#[test]
fn staggered_out_of_order_connects_still_form_the_mesh() {
    // Worker r sleeps r*120ms before contacting the rendezvous: later
    // ranks dial earlier ones that are already waiting, earlier ranks
    // see accepts arrive out of order.
    let out = launch(&[
        "--pes",
        "4",
        "--program",
        "sum",
        "--seed",
        "3",
        "--stagger-ms",
        "120",
    ]);
    assert_eq!(digest_of(&out), cells_digest("sum", 4, 3));
}

#[test]
fn dying_worker_fails_the_launch_with_a_typed_error_not_a_hang() {
    let start = Instant::now();
    let out = launch(&[
        "--pes",
        "3",
        "--program",
        "die",
        "--seed",
        "1",
        "--timeout-ms",
        "5000",
    ]);
    let elapsed = start.elapsed();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a dead PE must fail the launch");
    assert!(
        stderr.contains("transport-error"),
        "survivors must report the typed transport error, got:\n{stderr}"
    );
    // The supervisor names the failure in a structured report: which
    // PE, which phase, which exit status.
    assert!(
        stderr.contains("\"event\":\"worker-failure\"") && stderr.contains("\"pe\":2"),
        "supervisor must emit a structured failure report, got:\n{stderr}"
    );
    // Detection is prompt: survivors see the dead peer's socket close
    // (or a liveness probe fail) and the supervisor reaps the exit —
    // well inside the 5s io deadline, nowhere near a hang.
    assert!(elapsed < Duration::from_secs(10), "took {elapsed:?}");
}

#[test]
fn relaunch_retries_the_job_and_still_fails_deterministic_deaths() {
    // `--relaunch 1` re-runs the whole job once after a failure; a
    // deterministically dying program must fail both attempts and the
    // events must show the retry happened.
    let start = Instant::now();
    let out = launch(&[
        "--pes",
        "2",
        "--program",
        "die",
        "--seed",
        "1",
        "--timeout-ms",
        "4000",
        "--relaunch",
        "1",
    ]);
    let elapsed = start.elapsed();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "both attempts must fail");
    assert!(
        stderr.contains("\"event\":\"relaunch\"") && stderr.contains("\"attempt\":1"),
        "the retry must be visible in the event stream, got:\n{stderr}"
    );
    assert!(elapsed < Duration::from_secs(20), "took {elapsed:?}");
}

#[test]
fn transient_fault_plan_via_env_is_digest_invisible_across_processes() {
    // The `KAMSTA_FAULTS` plan reaches every worker through the
    // inherited environment; a transient plan over real sockets between
    // real processes must reproduce the cells oracle byte for byte.
    let out = launch_env(
        &["--pes", "3", "--program", "sum", "--seed", "3"],
        &[(
            "KAMSTA_FAULTS",
            "seed=9,delay=0.1,delay_us=80,short_write=0.3,short_read=0.3,dup=0.2,retry=0.2",
        )],
    );
    assert_eq!(digest_of(&out), cells_digest("sum", 3, 3));
}

#[test]
fn lethal_fault_plan_via_env_fails_the_launch_promptly() {
    // An unrecoverable injected fault behaves exactly like a real one:
    // typed error, structured supervisor report, prompt exit.
    let start = Instant::now();
    let out = launch_env(
        &[
            "--pes",
            "3",
            "--program",
            "sum",
            "--seed",
            "3",
            "--timeout-ms",
            "5000",
        ],
        &[("KAMSTA_FAULTS", "seed=3,lethal=disconnect@1:2")],
    );
    let elapsed = start.elapsed();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a lethal fault must fail the launch");
    assert!(
        stderr.contains("transport-error") && stderr.contains("\"event\":\"worker-failure\""),
        "typed error plus structured report expected, got:\n{stderr}"
    );
    assert!(elapsed < Duration::from_secs(10), "took {elapsed:?}");
}
