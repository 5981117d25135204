//! The table behind `kamsta_core::dist`'s density rule (DESIGN.md §15): one
//! `DistArray::bulk_get` plus one lookup per queried id — what
//! `filter_rec`, the base case and `relabel` do with a pull — at p = 2,
//! once through the dense table and once through the sort-and-hash
//! fallback (`bulk_get_forced`), for 2^12 … 2^18 queried ids per PE and
//! an id space 1 … 64 times as wide. The rule serves a pull from the
//! table when `width ≤ K × ids`; K is read off the `dense/sparse` column
//! (EXPERIMENTS.md records the table).
//!
//! One machine run per row builds the array once (the widest row's is
//! 64 MiB per PE) and times the calls from inside, every PE in lockstep
//! ([`kamsta_bench::lockstep_ms`]); a call costs what its slowest PE took.

use kamsta_bench::{lockstep_ms, lockstep_row, ms_cell, ratio_cell, Table, BENCH_PES, SAMPLES};
use kamsta_core::dist::DistArray;
use kamsta_graph::hash::mix64;

/// `count` ids below `n`, uniform with repetitions, different per PE.
fn queries(count: usize, n: u64, rank: usize) -> Vec<u64> {
    (0..count as u64)
        .map(|k| mix64(k ^ ((rank as u64 + 1) << 40)) % n)
        .collect()
}

fn main() {
    println!(
        "bench_pull: bulk_get + one lookup per id, p = {BENCH_PES}, ms, median of {SAMPLES} calls \
         (slowest PE)"
    );
    let mut table = Table::new(&["ids", "width/ids", "dense_ms", "sparse_ms", "dense/sparse"]);
    for log_ids in [12u32, 14, 16, 18] {
        for ratio in [1u64, 2, 4, 8, 16, 64] {
            let count = 1usize << log_ids;
            let n = ratio << log_ids;
            let ms = lockstep_row(|comm| {
                let array = DistArray::new(comm, n);
                let ids = queries(count, n, comm.rank());
                [true, false]
                    .map(|dense| {
                        lockstep_ms(
                            comm,
                            || ids.to_vec(),
                            |asked| {
                                let table = array.bulk_get_forced(comm, asked, dense);
                                let sum = ids.iter().fold(0u64, |sum, &id| {
                                    sum.wrapping_add(table.get(id).expect("the id was queried"))
                                });
                                (table, sum)
                            },
                        )
                    })
                    .to_vec()
            });
            table.row(vec![
                format!("2^{log_ids}"),
                ratio.to_string(),
                ms_cell(ms[0]),
                ms_cell(ms[1]),
                ratio_cell(ms[0] / ms[1]),
            ]);
        }
    }
    table.print();
}
