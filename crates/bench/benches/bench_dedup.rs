//! The Sec. VI-B parallel-edge elimination ablation, the row ROADMAP
//! item 10 asks of `DedupStrategy::Sort`: `redistribute` with the local
//! prefilter (`DedupStrategy::HashFilter`) against pure sorting
//! (`DedupStrategy::Sort`), at p = 2, on one slice shape per side of
//! the prefilter's selection (DESIGN.md §14). The paper's prefilter is
//! a per-PE hash table ("outperforms the pure sorting approach by up to
//! a factor of 2.5 if the hash table remains small enough to fit into
//! the cache"). `HashFilter` keeps the paper's name and is a table
//! filter again where a slice allows one:
//!
//! * the post-contraction-like rows — few distinct endpoint pairs, 4 …
//!   64 parallel copies each, sources in runs of one edge — take the
//!   radix side: order the slice by its `(u, v)` pair key, keep each
//!   pair's `(w, id)`-minimal copy;
//! * the relabelled-GNM row — a Borůvka round's slice after `relabel`,
//!   still in the old `(u, v)` order, so each source's edges lie in a
//!   few long runs over a dense label span — takes the group side: one
//!   source at a time, the lightest copy per destination in a table
//!   over the span.
//!
//! Either way parallel copies never enter the distributed sort. The
//! kernel is the one below `core.redistribute_probe_s`; EXPERIMENTS.md
//! records the table.

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

/// Vertices of the relabelled GNM slice, each with `DEGREE` edges.
const GNM_VERTICES: u64 = 1 << 15;
const DEGREE: u64 = 16;
/// Components the vertices are relabelled to.
const LABELS: u64 = 1 << 13;

/// A PE's slice of a GNM round after `relabel`: its block of vertices'
/// edges sorted by `(u, v)`, then both endpoints replaced by their
/// component's label (`LABELS` labels, hashed). A label's edges lie in
/// runs of about `DEGREE` apart in the slice; edges inside a component
/// became self-loops and are gone, as `relabel` drops them.
fn relabelled_gnm_edges(rank: usize) -> Vec<CEdge> {
    let block = GNM_VERTICES / BENCH_PES as u64;
    let label = |x: u64| mix64(x ^ 0x1abe1) % LABELS;
    let mut edges: Vec<CEdge> = (rank as u64 * block..(rank as u64 + 1) * block)
        .flat_map(|u| {
            (0..DEGREE).map(move |k| {
                let id = u * DEGREE + k;
                let v = mix64(id) % GNM_VERTICES;
                CEdge::new(u, v, (mix64(!id) % 254 + 1) as u32, id)
            })
        })
        .collect();
    edges.sort_unstable();
    edges.retain_mut(|e| {
        (e.u, e.v) = (label(e.u), label(e.v));
        e.u != e.v
    });
    edges
}

fn main() {
    println!(
        "bench_dedup: redistribute per PE of {PAIRS} pairs × copies, and of a GNM slice \
         ({GNM_VERTICES} vertices, degree {DEGREE}) relabelled to {LABELS} labels; \
         p = {BENCH_PES}, ms, median of {SAMPLES} (slowest PE)"
    );
    let mut table = Table::new(&["slice", "pure_sort_ms", "hash_filter_ms", "sort/filter"]);
    for copies in [Some(4u64), Some(16), Some(64), None] {
        let ms = lockstep_row(|comm| {
            let edges = match copies {
                Some(copies) => parallel_heavy_edges(comm.rank(), copies),
                None => relabelled_gnm_edges(comm.rank()),
            };
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
            copies.map_or("relabelled GNM".to_string(), |c| format!("{c} copies")),
            ms_cell(ms[0]),
            ms_cell(ms[1]),
            ratio_cell(ms[0] / ms[1]),
        ]);
    }
    table.print();
}
