//! The Sec. VI-B parallel-edge elimination ablation, the row ROADMAP
//! item 10 asks of `DedupStrategy::Sort`: `redistribute` with the local
//! prefilter (`DedupStrategy::HashFilter`) against pure sorting
//! (`DedupStrategy::Sort`), at p = 2 on a post-contraction-like slice —
//! few distinct endpoint pairs, 4 … 64 parallel copies each. The paper's
//! prefilter is a per-PE hash table ("outperforms the pure sorting
//! approach by up to a factor of 2.5 if the hash table remains small
//! enough to fit into the cache"); `HashFilter` keeps the paper's name
//! but is a sort-and-reduce: order the slice by its `(u, v)` pair key,
//! keep each pair's `(w, id)`-minimal copy. Either way parallel copies
//! never enter the distributed sort. The kernel is the one below
//! `core.redistribute_probe_s`; EXPERIMENTS.md records the table.

use kamsta::{DedupStrategy, MstConfig};
use kamsta_bench::{lockstep_ms, lockstep_row, ms_cell, ratio_cell, Table, BENCH_PES, SAMPLES};
use kamsta_core::dist::redistribute;
use kamsta_graph::hash::mix64;
use kamsta_graph::CEdge;

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

fn main() {
    println!(
        "bench_dedup: redistribute of {PAIRS} pairs × copies per PE, p = {BENCH_PES}, ms, \
         median of {SAMPLES} (slowest PE)"
    );
    let mut table = Table::new(&["copies", "pure_sort_ms", "hash_filter_ms", "sort/filter"]);
    for copies in [4u64, 16, 64] {
        let ms = lockstep_row(|comm| {
            let edges = parallel_heavy_edges(comm.rank(), copies);
            [DedupStrategy::Sort, DedupStrategy::HashFilter]
                .into_iter()
                .map(|dedup| {
                    let cfg = MstConfig {
                        dedup,
                        ..MstConfig::default()
                    };
                    lockstep_ms(comm, || edges.clone(), |e| redistribute(comm, e, &cfg))
                })
                .collect()
        });
        table.row(vec![
            copies.to_string(),
            ms_cell(ms[0]),
            ms_cell(ms[1]),
            ratio_cell(ms[0] / ms[1]),
        ]);
    }
    table.print();
}
