//! Criterion micro-bench: the two distributed sorters across the
//! small/large regimes behind the paper's selection rule (Sec. VI-C),
//! and the sample sort's receive-side merge — the merge tree of
//! `multiway_merge_flat` beside the binary-heap merge it replaced.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kamsta_comm::{FlatBuckets, Machine, MachineConfig};
use kamsta_graph::CEdge;
use kamsta_sort::{hypercube_quicksort, multiway_merge_flat, sample_sort_by_key};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

fn run_sort(p: usize, per_pe: usize, hypercube: bool) {
    Machine::run(MachineConfig::new(p), move |comm| {
        let base = comm.rank() as u64;
        let data: Vec<u64> = (0..per_pe as u64)
            .map(|i| (base * 2_654_435_761).wrapping_add(i * 40_503) % 1_000_000)
            .collect();
        if hypercube {
            hypercube_quicksort(comm, data, 42)
        } else {
            sample_sort_by_key(comm, data, 42, |&x| x)
        }
    });
}

fn bench_sort(c: &mut Criterion) {
    // The paper's threshold is 512 elements/PE: hypercube below, sample
    // sort above.
    let mut group = c.benchmark_group("distributed_sort_p16");
    group.sample_size(10);
    for per_pe in [256usize, 4096, 65536] {
        group.bench_with_input(BenchmarkId::new("hypercube", per_pe), &per_pe, |b, &n| {
            b.iter(|| run_sort(16, n, true))
        });
        group.bench_with_input(
            BenchmarkId::new("sample_sort_by_key", per_pe),
            &per_pe,
            |b, &n| b.iter(|| run_sort(16, n, false)),
        );
    }
    group.finish();
}

/// The receive-side merge before the merge tree: a binary heap of run
/// heads, ties broken by run index. Kept here as the baseline the
/// `receive_merge` rows compare against.
fn heap_merge<T: Ord + Clone>(runs: &FlatBuckets<T>) -> Vec<T> {
    let mut heads: Vec<std::slice::Iter<'_, T>> = runs.iter_buckets().map(<[T]>::iter).collect();
    let mut heap: BinaryHeap<Reverse<(&T, usize)>> = BinaryHeap::with_capacity(runs.buckets());
    for (i, it) in heads.iter_mut().enumerate() {
        if let Some(v) = it.next() {
            heap.push(Reverse((v, i)));
        }
    }
    let mut out = Vec::with_capacity(runs.total_len());
    while let Some(Reverse((v, i))) = heap.pop() {
        out.push(v.clone());
        if let Some(next) = heads[i].next() {
            heap.push(Reverse((next, i)));
        }
    }
    out
}

/// `k` sorted runs of 2^19 post-relabel-shaped GNM edges in total: what
/// one PE of a `k`-PE machine receives in `REDISTRIBUTE`'s sample sort.
fn edge_runs(k: usize) -> FlatBuckets<CEdge> {
    let mut state = 0x5eed_0fa6_e0e5_c0deu64;
    let mut rng = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        state >> 16
    };
    let per_run = (1usize << 19) / k;
    let runs = (0..k)
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
        .collect();
    FlatBuckets::from_nested(runs)
}

fn bench_receive_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("receive_merge_2e19_edges");
    group.sample_size(10);
    for k in [2usize, 4, 16, 64] {
        let runs = edge_runs(k);
        assert_eq!(heap_merge(&runs), multiway_merge_flat(&runs));
        group.bench_with_input(BenchmarkId::new("heap", k), &k, |b, _| {
            b.iter(|| heap_merge(&runs))
        });
        group.bench_with_input(BenchmarkId::new("tree", k), &k, |b, _| {
            b.iter(|| multiway_merge_flat(&runs))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sort, bench_receive_merge);
criterion_main!(benches);
