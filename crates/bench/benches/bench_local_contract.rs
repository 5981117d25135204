//! The Sec. IV-A local contraction kernel alone, the number below the
//! end-to-end benchmark's `core.local_contract_probe_s`: the pass
//! (`contract_local_subtrees`) at p = 2 on the three locality regimes —
//! 2D-RGG (almost everything contracts), 2D-grid (low degree, long
//! Borůvka chains) and GNM (half the edges cross, most components sit
//! out early). The live list holds one copy of each internal edge, so
//! where almost nothing contracts, as on GNM, most internal edges
//! survive and the pass writes their back copies from a walk of the
//! segments they enter: the ratio says how much more the pass costs
//! where locality is absent. `gnm_gate_ms` is what the pipeline pays on
//! GNM instead: `local_contract`, whose gate skips the pass there. Each
//! PE's slice is generated once per row; the calls run in lockstep on
//! it. Each `_ms` cell has the interquartile range of its calls beside it
//! (`iqr`): a row cannot resolve a gap within it.

use kamsta::{GraphConfig, MstConfig};
use kamsta_bench::{
    iqr_of_slowest, lockstep_ms, median_of_slowest, ms_cell, ratio_cell, Table, BENCH_PES, SAMPLES,
};
use kamsta_comm::{Machine, MachineConfig};
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
        "iqr",
        "grid_ms",
        "iqr",
        "gnm_ms",
        "iqr",
        "gnm/rgg",
        "gnm_gate_ms",
        "iqr",
    ]);
    for log_m in [16u32, 19, 21] {
        let per_pe = Machine::run(MachineConfig::new(BENCH_PES), |comm| {
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
        })
        .results;
        let (mut row, mut ms) = (vec![format!("2^{log_m}")], Vec::new());
        for v in 0..per_pe[0].len() {
            let times: Vec<Vec<f64>> = per_pe.iter().map(|pe| pe[v].clone()).collect();
            ms.push(median_of_slowest(&times));
            row.extend([ms_cell(ms[v]), ms_cell(iqr_of_slowest(&times))]);
            if v == 2 {
                row.push(ratio_cell(ms[2] / ms[0]));
            }
        }
        table.row(row);
    }
    table.print();
}
