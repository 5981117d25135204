//! The Sec. VI-B parallel-edge elimination ablation, the row ROADMAP
//! item 10 asks of `DedupStrategy::Sort`: `REDISTRIBUTE` with the local
//! prefilter (`DedupStrategy::HashFilter`) against pure sorting
//! (`DedupStrategy::Sort`), at p = 2, on one slice shape per path of the
//! prefilter (DESIGN.md §14). The paper's prefilter is a per-PE hash
//! table ("outperforms the pure sorting approach by up to a factor of
//! 2.5 if the hash table remains small enough to fit into the cache").
//! `HashFilter` keeps the paper's name and is a table filter where a
//! Borůvka round allows one:
//!
//! * the copies rows — few distinct endpoint pairs, 4 … 64 parallel
//!   copies each, sources in runs of one edge, handed to `redistribute`
//!   — take the plain slice's one path: order the slice by its `(u, v)`
//!   pair key, keep each pair's `(w, id)`-minimal copy;
//! * the relabelled-GNM row — round 1 of a GNM solve, its labels from a
//!   real contraction, through the round's own calls (`relabel_or_defer`
//!   then `redistribute_relabelled`) on the input graph's borrowed edges
//!   — times what rounds run: under `HashFilter` the label walk, one
//!   label at a time, the lightest copy per destination in a table over
//!   the id span, relabelling as it reads; under `Sort`, `relabel` and
//!   the distributed sort of the full key.
//!
//! Either way parallel copies never enter the distributed sort. The
//! kernel is the one below `core.redistribute_probe_s`; EXPERIMENTS.md
//! records the table.

use kamsta::{DedupStrategy, MstConfig};
use kamsta_bench::{lockstep_ms, lockstep_row, ms_cell, ratio_cell, Table, BENCH_PES, SAMPLES};
use kamsta_core::dist::{
    contract_components, exchange_labels, min_edges, redistribute, redistribute_relabelled,
    relabel_or_defer,
};
use kamsta_graph::hash::mix64;
use kamsta_graph::{CEdge, GraphConfig, InputGraph};
use std::borrow::Cow;

const PAIRS: u64 = 1 << 13;

/// Post-contraction-like edge set: few distinct endpoint pairs, each
/// with `copies` parallel copies spread over the slice — the shape
/// local preprocessing leaves behind. Both PEs hold the same pairs.
fn parallel_heavy_edges(rank: usize, copies: u64) -> Vec<CEdge> {
    let salt = rank as u64 * 1_000_003;
    (0..copies)
        .flat_map(|c| {
            (0..PAIRS).map(move |k| {
                let w = ((salt + k * 31 + c * 97) % 254 + 1) as u32;
                CEdge::new(k, PAIRS + mix64(k) % PAIRS, w, salt + c * PAIRS + k)
            })
        })
        .collect()
}

/// The GNM graph of the relabelled row: 2^15 vertices, 16 edges each.
const GNM: GraphConfig = GraphConfig::Gnm {
    n: 1 << 15,
    m: 1 << 19,
};

fn main() {
    println!(
        "bench_dedup: redistribute per PE of {PAIRS} pairs × copies, and round 1 of a GNM \
         solve ({GNM:?}) from relabel on; p = {BENCH_PES}, ms, median of {SAMPLES} (slowest PE)"
    );
    let mut table = Table::new(&["slice", "pure_sort_ms", "hash_filter_ms", "sort/filter"]);
    for copies in [Some(4u64), Some(16), Some(64), None] {
        let ms = lockstep_row(|comm| {
            let strategies = [DedupStrategy::Sort, DedupStrategy::HashFilter];
            let configs = strategies.map(|dedup| MstConfig {
                dedup,
                ..MstConfig::default()
            });
            let Some(copies) = copies else {
                let input = InputGraph::generate(comm, GNM, 42);
                let g = &input.graph;
                let labels = contract_components(comm, g, &min_edges(comm, g)).labels;
                let table = exchange_labels(comm, g, &labels);
                return configs
                    .iter()
                    .map(|cfg| {
                        let round = |table| {
                            let edges = Cow::Borrowed(&g.edges[..]);
                            let offsets = g.segment_offsets();
                            let staged =
                                relabel_or_defer(comm, g, edges, offsets, &labels, table, cfg);
                            redistribute_relabelled(comm, staged, cfg)
                        };
                        lockstep_ms(comm, || table.clone(), round)
                    })
                    .collect();
            };
            let edges = parallel_heavy_edges(comm.rank(), copies);
            configs
                .iter()
                .map(|cfg| lockstep_ms(comm, || edges.clone(), |e| redistribute(comm, e, cfg)))
                .collect()
        });
        table.row(vec![
            copies.map_or("relabelled GNM".to_string(), |c| format!("{c} copies")),
            ms_cell(ms[0]),
            ms_cell(ms[1]),
            ratio_cell(ms[0] / ms[1]),
        ]);
    }
    table.print();
}
