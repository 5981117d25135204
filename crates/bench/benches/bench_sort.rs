//! The sample sort's receive-side merge, single-thread: `merge_runs`
//! (two-finger at k = 2, a tournament tree above) beside a binary-heap
//! merge (DESIGN.md §14, "The merge and its tie rule"), on the k sorted
//! runs one PE of a k-PE machine receives in `REDISTRIBUTE`, each in its
//! own allocation as the exchange hands them over — a part of
//! `core.redistribute_probe_s`. The distributed sorters themselves are
//! `benchmark/`'s `sort.dist_sort_s` row.

use kamsta_bench::{median_ms, ms_cell, ratio_cell, Table, SAMPLES};
use kamsta_graph::CEdge;
use kamsta_sort::merge_runs;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The receive-side merge before the merge tree: a binary heap of run heads,
/// ties broken by run index. Kept here as the `heap_ms` baseline.
fn heap_merge<T: Ord + Clone>(runs: &[&[T]]) -> Vec<T> {
    let mut heads: Vec<std::slice::Iter<'_, T>> = runs.iter().map(|r| r.iter()).collect();
    let mut heap: BinaryHeap<Reverse<(&T, usize)>> = BinaryHeap::with_capacity(runs.len());
    for (i, it) in heads.iter_mut().enumerate() {
        if let Some(v) = it.next() {
            heap.push(Reverse((v, i)));
        }
    }
    let mut out = Vec::with_capacity(runs.iter().map(|r| r.len()).sum());
    while let Some(Reverse((v, i))) = heap.pop() {
        out.push(v.clone());
        if let Some(next) = heads[i].next() {
            heap.push(Reverse((next, i)));
        }
    }
    out
}

/// `k` sorted runs of 2^19 post-relabel-shaped GNM edges in total: what
/// one PE of a `k`-PE machine receives in `REDISTRIBUTE`'s sample sort,
/// one allocation per run.
fn edge_runs(k: usize) -> Vec<Vec<CEdge>> {
    let mut state = 0x5eed_0fa6_e0e5_c0deu64;
    let mut rng = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        state >> 16
    };
    let per_run = (1usize << 19) / k;
    (0..k)
        .map(|_| {
            let mut run: Vec<CEdge> = (0..per_run)
                .map(|_| {
                    CEdge::new(
                        rng() % (1 << 16),
                        rng() % (1 << 16),
                        (rng() % 254 + 1) as u32,
                        rng() % (1 << 21),
                    )
                })
                .collect();
            run.sort_unstable();
            run
        })
        .collect()
}

fn main() {
    println!("bench_sort: receive merge of 2^19 edges in k runs, ms, median of {SAMPLES}");
    let mut table = Table::new(&["k", "heap_ms", "tree_ms", "heap/tree"]);
    for k in [2usize, 4, 16, 64] {
        let owned = edge_runs(k);
        let runs: Vec<&[CEdge]> = owned.iter().map(Vec::as_slice).collect();
        assert_eq!(heap_merge(&runs), merge_runs(&runs));
        let heap = median_ms(|| (), |()| heap_merge(&runs));
        let tree = median_ms(|| (), |()| merge_runs(&runs));
        table.row(vec![
            k.to_string(),
            ms_cell(heap),
            ms_cell(tree),
            ratio_cell(heap / tree),
        ]);
    }
    table.print();
}
