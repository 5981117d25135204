//! The intra-PE thread pool (vendor/rayon, DESIGN.md §11) against the
//! sequential code it stands beside: recursive `join` fan-out against
//! straight-line recursion, and `par_sort_unstable` against
//! `sort_unstable` across 2^14 … 2^22 keys — the crossover behind
//! §11's profitability cutoffs (`PAR_RADIX_CUTOFF`, `PAR_BUILD_CUTOFF`
//! and the merge sort's 2^15 are all near 2^16). The pool is as wide as
//! the host's cores, so on a one-core host the pool columns bound its
//! overhead; what building and entering a pool costs a PE run is inside
//! `benchmark/`'s `comm.machine_start_ms`.

use kamsta_bench::{median_ms, ms_cell, ratio_cell, sort_ms, Table, SAMPLES};
use kamsta_graph::hash::mix64;
use rayon::prelude::*;

fn fib_join(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = rayon::join(|| fib_join(n - 1), || fib_join(n - 2));
    a + b
}

fn fib_seq(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    fib_seq(n - 1) + fib_seq(n - 2)
}

fn main() {
    let width = std::thread::available_parallelism().map_or(1, |w| w.get());
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("a pool as wide as the host");
    println!("bench_pool: pool width {width}, ms, median of {SAMPLES}");

    let mut join = Table::new(&["fib", "sequential_ms", "join_ms", "seq/join"]);
    for n in [14u64, 18, 22] {
        let seq = median_ms(|| n, fib_seq);
        let par = median_ms(|| n, |n| pool.install(|| fib_join(n)));
        join.row(vec![
            n.to_string(),
            ms_cell(seq),
            ms_cell(par),
            ratio_cell(seq / par),
        ]);
    }
    join.print();
    println!();

    let mut sort = Table::new(&["keys", "sort_unstable_ms", "par_sort_ms", "seq/par"]);
    for shift in [14u32, 16, 18, 22] {
        let keys: Vec<u64> = (0..1u64 << shift).map(mix64).collect();
        let seq = sort_ms(&keys, |v| v.sort_unstable());
        let par = sort_ms(&keys, |v| pool.install(|| v.par_sort_unstable()));
        sort.row(vec![
            format!("2^{shift}"),
            ms_cell(seq),
            ms_cell(par),
            ratio_cell(seq / par),
        ]);
    }
    sort.print();
}
