//! Every figure binary reads its flags through `kamsta::cli`: a typo or
//! a zero core count is a usage error with exit status 2, decided before
//! any machine runs, never a silent default or a panic.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("spawn the binary")
}

fn assert_usage_error(bin: &str, args: &[&str], names: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(
        stderr.contains(names) && stderr.contains("usage: "),
        "{stderr}"
    );
}

const BINS: [&str; 9] = [
    env!("CARGO_BIN_EXE_dyn_throughput"),
    env!("CARGO_BIN_EXE_fig2_two_level_alltoall"),
    env!("CARGO_BIN_EXE_fig3_weak_scaling"),
    env!("CARGO_BIN_EXE_fig4_preprocessing"),
    env!("CARGO_BIN_EXE_fig5_strong_scaling"),
    env!("CARGO_BIN_EXE_fig6_phase_breakdown"),
    env!("CARGO_BIN_EXE_sec7c_shared_memory"),
    env!("CARGO_BIN_EXE_table1_instances"),
    env!("CARGO_BIN_EXE_thm1_filter_work"),
];

#[test]
fn a_misspelled_flag_is_a_usage_error_in_every_binary() {
    for bin in BINS {
        assert_usage_error(bin, &["--max-core", "4"], "unknown flag --max-core");
    }
}

#[test]
fn zero_cores_is_a_usage_error_where_it_used_to_panic() {
    for bin in [
        env!("CARGO_BIN_EXE_thm1_filter_work"),
        env!("CARGO_BIN_EXE_dyn_throughput"),
    ] {
        assert_usage_error(bin, &["--max-cores", "0"], "\"0\" for --max-cores");
    }
    let dyn_bin = env!("CARGO_BIN_EXE_dyn_throughput");
    assert_usage_error(dyn_bin, &["--batches", "16,0"], "\"0\" for --batches");
    let sec7c = env!("CARGO_BIN_EXE_sec7c_shared_memory");
    assert_usage_error(sec7c, &["--reps", "0"], "\"0\" for --reps");
}

#[test]
fn unparsable_and_repeated_values_are_usage_errors() {
    let fig3 = env!("CARGO_BIN_EXE_fig3_weak_scaling");
    assert_usage_error(fig3, &["--v-per-core", "l7"], "\"l7\" for --v-per-core");
    let fig6 = env!("CARGO_BIN_EXE_fig6_phase_breakdown");
    assert_usage_error(
        fig6,
        &["--max-cores", "4", "--max-cores", "8"],
        "--max-cores is given twice",
    );
    let table1 = env!("CARGO_BIN_EXE_table1_instances");
    assert_usage_error(table1, &["--scale"], "--scale needs a value");
}

#[test]
fn fig4_defaults_to_two_more_edges_per_core_than_fig3() {
    // At zero cores the figure binaries print their header and empty
    // tables; the header names the per-core sizes in force.
    let header = |bin: &str, args: &[&str]| {
        let out = run(bin, args);
        assert!(out.status.success(), "{bin} {args:?}");
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or_default()
            .to_string()
    };
    let fig3 = header(
        env!("CARGO_BIN_EXE_fig3_weak_scaling"),
        &["--max-cores", "0"],
    );
    assert!(
        fig3.contains("2^10 vertices and 2^14 directed edges"),
        "{fig3}"
    );
    let fig4 = env!("CARGO_BIN_EXE_fig4_preprocessing");
    let default = header(fig4, &["--max-cores", "0"]);
    assert!(default.contains("2^10 vertices / 2^16 edges"), "{default}");
    let given = header(fig4, &["--max-cores", "0", "--m-per-core", "12"]);
    assert!(given.contains("2^10 vertices / 2^12 edges"), "{given}");
}
