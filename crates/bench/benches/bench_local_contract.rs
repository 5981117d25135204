//! The Sec. IV-A local contraction kernel alone, the number below the
//! end-to-end benchmark's `core.local_contract_probe_s`: the pass
//! (`contract_local_subtrees`) at p = 2 on the three locality regimes —
//! 2D-RGG (almost everything contracts), 2D-grid (low degree, long
//! Borůvka chains) and GNM (half the edges cross, most components sit
//! out early, the live list stays long). The ratio says how much more
//! the pass costs where locality is absent. `gnm_gate_ms` is what the
//! pipeline pays on GNM instead: `local_contract`, whose gate skips the
//! pass there. Each PE's slice is generated once per row; the calls run
//! in lockstep on it.

use kamsta::{GraphConfig, MstConfig};
use kamsta_bench::{lockstep_ms, lockstep_row, ms_cell, ratio_cell, Table, BENCH_PES, SAMPLES};
use kamsta_core::dist::{contract_local_subtrees, local_contract};
use kamsta_graph::InputGraph;

const FAMILIES: [&str; 3] = ["2D-RGG", "2D-GRID", "GNM"];

/// The family at `2^log_m` directed edges per PE: degree 16, or the
/// grid's 4.
fn family(name: &str, log_m: u32) -> GraphConfig {
    let log_degree = if name == "2D-GRID" { 2 } else { 4 };
    GraphConfig::weak_scaled(name, log_m - log_degree, log_m, BENCH_PES)
}

fn main() {
    println!(
        "bench_local_contract: contract_local_subtrees, p = {BENCH_PES}, ms, median of {SAMPLES} (slowest PE)"
    );
    let cfg = MstConfig::default();
    let mut table = Table::new(&[
        "edges/PE",
        "rgg_ms",
        "grid_ms",
        "gnm_ms",
        "gnm/rgg",
        "gnm_gate_ms",
    ]);
    for log_m in [16u32, 19, 21] {
        let ms = lockstep_row(|comm| {
            let mut ms = Vec::new();
            for name in FAMILIES {
                let graph = InputGraph::generate(comm, family(name, log_m), 42).graph;
                ms.push(lockstep_ms(
                    comm,
                    || (),
                    |()| contract_local_subtrees(comm, &graph),
                ));
                if name == "GNM" {
                    ms.push(lockstep_ms(
                        comm,
                        || (),
                        |()| {
                            let pre = local_contract(comm, &graph, &cfg);
                            assert!(!pre.applied, "the locality gate skips GNM at p = 2");
                            pre
                        },
                    ));
                }
            }
            ms
        });
        table.row(vec![
            format!("2^{log_m}"),
            ms_cell(ms[0]),
            ms_cell(ms[1]),
            ms_cell(ms[2]),
            ratio_cell(ms[2] / ms[0]),
            ms_cell(ms[3]),
        ]);
    }
    table.print();
}
