//! Micro-bench behind `kamsta_core::dist`'s density rule: one
//! `DistArray::bulk_get` plus one lookup per queried id — what
//! `filter_rec`, the base case and `relabel` do with a pull — at p = 2,
//! once through the dense table and once through the sort-and-hash
//! fallback (`bulk_get_forced`), for 2^12 … 2^18 queried ids per PE and
//! an id space 1 … 64 times as wide. The rule serves a pull from the
//! table when `width ≤ K × ids`; K is read off the `dense/sparse` column
//! (EXPERIMENTS.md records the table).
//!
//! Not a criterion group: the array of the widest row is 64 MiB per PE,
//! and building it inside a timed `Machine::run` would drown the call it
//! is there to serve. One machine run per row builds the array once and
//! times the calls from inside, every PE in lockstep; a call costs what
//! its slowest PE took.

use kamsta_comm::{Comm, Machine, MachineConfig};
use kamsta_core::dist::DistArray;
use kamsta_graph::hash::mix64;
use std::hint::black_box;
use std::time::Instant;

const PES: usize = 2;
const WARM_UP: usize = 2;
const SAMPLES: usize = 9;

/// `count` ids below `n`, uniform with repetitions, different per PE.
fn queries(count: usize, n: u64, rank: usize) -> Vec<u64> {
    (0..count as u64)
        .map(|k| mix64(k ^ ((rank as u64 + 1) << 40)) % n)
        .collect()
}

/// Milliseconds of each timed pull-and-look-up on this PE.
fn time_calls(comm: &Comm, array: &DistArray, ids: &[u64], dense: bool) -> Vec<f64> {
    let mut times = Vec::with_capacity(SAMPLES);
    for call in 0..WARM_UP + SAMPLES {
        let asked = ids.to_vec();
        comm.barrier();
        let start = Instant::now();
        let table = array.bulk_get_forced(comm, asked, dense);
        let mut sum = 0u64;
        for &id in ids {
            sum = sum.wrapping_add(table.get(id).expect("the id was queried"));
        }
        black_box(sum);
        if call >= WARM_UP {
            times.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    times
}

/// Median over the calls of the slowest PE's time.
fn median_of_slowest(per_pe: &[Vec<f64>]) -> f64 {
    let mut calls: Vec<f64> = (0..SAMPLES)
        .map(|k| per_pe.iter().map(|t| t[k]).fold(0.0, f64::max))
        .collect();
    calls.sort_by(f64::total_cmp);
    calls[SAMPLES / 2]
}

fn main() {
    println!(
        "bench_pull: bulk_get + one lookup per id, p = {PES}, median of {SAMPLES} calls (slowest PE)"
    );
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>13}",
        "ids", "width/ids", "dense_ms", "sparse_ms", "dense/sparse"
    );
    for log_ids in [12u32, 14, 16, 18] {
        for ratio in [1u64, 2, 4, 8, 16, 64] {
            let count = 1usize << log_ids;
            let n = ratio << log_ids;
            let out = Machine::run(MachineConfig::new(PES), move |comm| {
                let array = DistArray::new(comm, n);
                let ids = queries(count, n, comm.rank());
                let dense = time_calls(comm, &array, &ids, true);
                let sparse = time_calls(comm, &array, &ids, false);
                (dense, sparse)
            });
            let (dense, sparse): (Vec<_>, Vec<_>) = out.results.into_iter().unzip();
            let (dense, sparse) = (median_of_slowest(&dense), median_of_slowest(&sparse));
            println!(
                "{:>6} {:>10} {:>10.3} {:>10.3} {:>13.2}",
                format!("2^{log_ids}"),
                ratio,
                dense,
                sparse,
                dense / sparse
            );
        }
    }
}
