//! **Theorem 1** (empirical): Filter-Borůvka performs `O(m)` expected
//! work and makes `O(log(m/n))` base-case Borůvka calls for random edge
//! weights. We fix `n`, sweep the density `m/n`, and report the number
//! of base-case calls (should grow like `log(m/n)`) and the total edges
//! fed into base cases (should stay `O(n)`-ish, i.e. grow far slower
//! than `m`).

use kamsta::{cli, Algorithm, GraphConfig};
use kamsta_bench::{bench_mst_config, Table, Variant};
use std::num::NonZeroUsize;

const USAGE: &str = "usage: thm1_filter_work [--log-n LOG2] [--max-cores N]";

fn main() {
    let (log_n, cores) = cli::parse_or_exit(USAGE, |f| {
        let cores: NonZeroUsize = f.get("--max-cores", NonZeroUsize::new(16).expect("16 > 0"))?;
        Ok((f.get("--log-n", 13)?, cores.get().min(16)))
    });
    let n = 1u64 << log_n;
    println!("# Theorem 1 — Filter-Borůvka work/span scaling on GNM(n = {n}), {cores} PEs\n");

    let mut table = Table::new(&[
        "avg degree",
        "m",
        "log2(m/n)",
        "base-case calls",
        "base-case edges",
        "bc-edges / n",
        "filtered edges",
        "partition steps",
    ]);
    let variant = Variant {
        algo: Algorithm::FilterBoruvka,
        threads: 1,
    };
    for log_deg in [3u32, 4, 5, 6, 7] {
        let m = n << log_deg;
        let cfg = GraphConfig::Gnm { n, m };
        let s = variant
            .run(cores, cfg, bench_mst_config(), 42)
            .expect("enough cores");
        let stats = s.filter_stats.expect("filter reports stats");
        table.row(vec![
            (1u64 << log_deg).to_string(),
            s.input_edges.to_string(),
            format!("{log_deg}"),
            stats.base_case_calls.to_string(),
            stats.base_case_edges.to_string(),
            format!("{:.2}", stats.base_case_edges as f64 / n as f64),
            stats.filtered_edges.to_string(),
            stats.partition_steps.to_string(),
        ]);
    }
    table.print();
    println!("\n# expected: base-case calls grow ~ log(m/n); base-case edges stay a small");
    println!("# multiple of n while m grows 16x — the linear-work, polylog-span claim");
}
