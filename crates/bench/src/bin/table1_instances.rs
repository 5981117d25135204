//! **Table I**: the real-world instance inventory. We print the paper's
//! originals next to the structure-matched stand-ins this reproduction
//! uses (DESIGN.md S5), with the stand-ins' actual generated sizes.

use kamsta::{cli, GraphConfig, Machine, MachineConfig};
use kamsta_bench::{standin_instances, Table};
use kamsta_graph::InputGraph;

const USAGE: &str = "usage: table1_instances [--scale LOG2]";

fn measure(config: GraphConfig) -> (u64, u64) {
    let out = Machine::run(MachineConfig::new(4), move |comm| {
        let input = InputGraph::generate(comm, config, 42);
        (input.graph.n_global, input.graph.m_global)
    });
    out.results[0]
}

fn main() {
    let scale = cli::parse_or_exit(USAGE, |f| f.get("--scale", 14));
    println!("# Table I — strong-scaling instances (paper originals vs. generated stand-ins)\n");
    let mut table = Table::new(&[
        "instance",
        "paper original",
        "stand-in family",
        "n (generated)",
        "m (generated)",
        "avg degree",
    ]);
    for (name, original, config) in standin_instances(scale) {
        let (gn, gm) = measure(config);
        table.row(vec![
            name.to_string(),
            original.to_string(),
            config.family().to_string(),
            gn.to_string(),
            gm.to_string(),
            format!("{:.1}", gm as f64 / gn as f64),
        ]);
    }
    table.print();
    println!("\n# sizes scaled down ~2^10-2^13x (DESIGN.md S3); n/m ratios and structure class preserved");
    println!("# the real US-road instance can be used verbatim via kamsta_graph::io::load_dimacs");
}
