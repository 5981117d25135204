//! LSD radix sort against the comparison sort, single-thread, behind two
//! numbers of the end-to-end benchmark.
//!
//! * `sort.local_radix_mkeys_per_s` and the radix gate (DESIGN.md §14):
//!   the sorter engages only when its pass count undercuts `log n`
//!   comparison levels. The first table sorts three key shapes — narrow
//!   vertex ids (the pull protocol's sorts, where radix engages), the
//!   full `lex_key` of first-round edges and the `(w, id)` weight key
//!   (full entropy, where it falls back, so those rows bound the gate's
//!   overhead).
//! * `core.redistribute_probe_s`: the second table is `REDISTRIBUTE`'s
//!   local kernel on a GNM round's labels, drawn at random — the
//!   in-place sort on the full `lex_key` (8 active bytes: what
//!   `DedupStrategy::Sort` and `kamsta-dyn`'s maintainer run) beside the
//!   bare order on the `(u, v)` pair key (4 active bytes) that the
//!   prefilter walks on its radix side. Random sources make runs of one
//!   edge, which is that side's shape (Filter-Borůvka's light
//!   subgraphs); a slice in the old `(u, v)` order after `relabel` takes
//!   the prefilter's group side instead, which orders runs, not edges
//!   (DESIGN.md §14; `bench_dedup`'s relabelled-GNM row).

use kamsta_bench::{median_ms, ms_cell, ratio_cell, sort_ms, Table, SAMPLES};
use kamsta_graph::hash::mix64;
use kamsta_graph::CEdge;
use kamsta_sort::{radix_order_by_key, radix_sort_by_key, radix_sort_keys};

/// `n` directed edges with endpoints below `2^log_v`, weights in
/// [1, 255) and ids below `2^log_id`, no locality; `salt` picks the
/// stream.
fn edges(n: u64, log_v: u32, log_id: u32, salt: u64) -> Vec<CEdge> {
    (0..n)
        .map(|k| {
            let r = |i: u64| mix64(salt ^ (k << 2) ^ i);
            CEdge::new(
                r(0) % (1 << log_v),
                r(1) % (1 << log_v),
                (r(2) % 254 + 1) as u32,
                r(3) % (1 << log_id),
            )
        })
        .collect()
}

fn main() {
    println!("bench_radix: single-thread sorts, ms, median of {SAMPLES}");
    let mut sorts = Table::new(&["key", "n", "comparison_ms", "radix_ms", "cmp/radix"]);
    for shift in [12u32, 16, 19] {
        let n = 1u64 << shift;
        let ids: Vec<u64> = (0..n).map(|k| mix64(k) % (1 << 20)).collect();
        let first_round = edges(n, 20, shift, 1);
        let weight_key = |e: &CEdge| ((e.w as u128) << 64) | e.id as u128;
        let rows = [
            (
                "vertex id",
                sort_ms(&ids, |v| v.sort_unstable()),
                sort_ms(&ids, |v| radix_sort_keys(v)),
            ),
            (
                "lex_key",
                sort_ms(&first_round, |v| v.sort_unstable()),
                sort_ms(&first_round, |v| radix_sort_by_key(v, CEdge::lex_key)),
            ),
            (
                "(w, id)",
                sort_ms(&first_round, |v| v.sort_unstable_by_key(|e| (e.w, e.id))),
                sort_ms(&first_round, |v| radix_sort_by_key(v, weight_key)),
            ),
        ];
        for (key, cmp, radix) in rows {
            sorts.row(vec![
                key.to_string(),
                format!("2^{shift}"),
                ms_cell(cmp),
                ms_cell(radix),
                ratio_cell(cmp / radix),
            ]);
        }
    }
    sorts.print();
    println!();

    let mut prefilter = Table::new(&["edges", "lex_sort_ms", "pair_order_ms", "sort/order"]);
    for shift in [16u32, 19, 20] {
        // Component labels below 2^16, original edge ids below 2^21.
        let relabelled = edges(1 << shift, 16, 21, 2);
        let sort = sort_ms(&relabelled, |v| radix_sort_by_key(v, CEdge::lex_key));
        let order = median_ms(
            || (),
            |()| radix_order_by_key(&relabelled, |e| Some(e.pair_key())),
        );
        prefilter.row(vec![
            format!("2^{shift}"),
            ms_cell(sort),
            ms_cell(order),
            ratio_cell(sort / order),
        ]);
    }
    prefilter.print();
}
