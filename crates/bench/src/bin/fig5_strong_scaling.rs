//! **Fig. 5**: strong scaling on the six real-world graphs. The original
//! instances (friendster, twitter, uk-2007, it-2004, US-road, wdc-14)
//! are unavailable offline, so structure-matched stand-ins are used
//! (DESIGN.md S5): social → RMAT, web → RHG, road → perturbed grid. A
//! DIMACS loader exists for running the real US-road instance when
//! available (`kamsta_graph::io::load_dimacs`).

use kamsta::cli;
use kamsta_bench::{bench_mst_config, core_series, paper_variants, standin_instances, Table};

const USAGE: &str = "usage: fig5_strong_scaling [--max-cores N] [--scale LOG2]";

fn main() {
    // Instance size: fixed (strong scaling). Default 2^14 vertices-ish.
    let (max_cores, scale) = cli::parse_or_exit(USAGE, |f| {
        Ok((f.get("--max-cores", 64)?, f.get("--scale", 14)?))
    });
    println!("# Fig. 5 — strong scaling on real-world stand-ins (scale 2^{scale}; * = synthetic stand-in)");
    println!("# cells: modeled seconds (lower is better)\n");

    let variants = paper_variants();
    for (name, original, config) in standin_instances(scale) {
        println!("## {name} (paper original: {original})");
        let mut headers: Vec<String> = vec!["cores".into()];
        headers.extend(variants.iter().map(|v| v.label()));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut table = Table::new(&header_refs);
        for cores in core_series(max_cores) {
            let mut cells = vec![cores.to_string()];
            for v in &variants {
                match v.run(cores, config, bench_mst_config(), 42) {
                    Some(s) => cells.push(format!("{:.4}", s.modeled_time)),
                    None => cells.push("-".into()),
                }
            }
            table.row(cells);
        }
        table.print();
        println!();
    }
    println!("# paper shape: our algorithms scale to the largest core counts and beat");
    println!("# competitors 4-40x; filter wins on social graphs, plain boruvka elsewhere");
}
