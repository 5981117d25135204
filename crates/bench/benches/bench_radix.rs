//! Criterion micro-bench: LSD radix sort on packed edge keys vs the
//! comparison sort it replaces, and flat vs nested bucket construction —
//! the two substrate changes of the data plane.
//!
//! The radix sorter gates itself on profitability (active key bytes vs
//! `log n`): the `id_sort` group shows the regime it engages in (narrow
//! vertex/edge-id keys — the pull protocol's sorts), the `edge_sort`
//! group the full-entropy first-round keys where it falls back to the
//! comparison sort, so those rows bound the gate's overhead. The
//! `prefilter_order` group is `REDISTRIBUTE`'s local kernel on the
//! post-relabel shape of a GNM round: the in-place sort on the full
//! `lex_key` (8 active bytes — what `DedupStrategy::Sort`, `kamsta-dyn`'s
//! maintainer and the `sort.local_radix_mkeys_per_s` probe run) beside
//! the bare order on the `(u, v)` pair key (4 active bytes) that the
//! prefilter walks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kamsta_comm::FlatBuckets;
use kamsta_graph::CEdge;
use kamsta_sort::{radix_order_by_key, radix_sort_by_key, radix_sort_keys};

fn make_edges(n: usize) -> Vec<CEdge> {
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut rng = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        state >> 16
    };
    (0..n)
        .map(|k| {
            CEdge::new(
                rng() % (1 << 20),
                rng() % (1 << 20),
                (rng() % 254 + 1) as u32,
                k as u64,
            )
        })
        .collect()
}

fn bench_id_sorts(c: &mut Criterion) {
    let mut group = c.benchmark_group("id_sort");
    group.sample_size(10);
    let mut state = 0xfeed_f00d_dead_beefu64;
    let mut rng = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        state >> 16
    };
    for n in [1usize << 12, 1 << 16, 1 << 19] {
        let ids: Vec<u64> = (0..n).map(|_| rng() % (1 << 20)).collect();
        group.bench_with_input(BenchmarkId::new("comparison", n), &n, |b, _| {
            b.iter(|| {
                let mut v = ids.clone();
                v.sort_unstable();
                v
            })
        });
        group.bench_with_input(BenchmarkId::new("radix", n), &n, |b, _| {
            b.iter(|| {
                let mut v = ids.clone();
                radix_sort_keys(&mut v);
                v
            })
        });
    }
    group.finish();
}

fn bench_sorts(c: &mut Criterion) {
    let mut group = c.benchmark_group("edge_sort");
    group.sample_size(10);
    for n in [1usize << 12, 1 << 16, 1 << 19] {
        let edges = make_edges(n);
        group.bench_with_input(BenchmarkId::new("comparison_lex", n), &n, |b, _| {
            b.iter(|| {
                let mut v = edges.clone();
                v.sort_unstable();
                v
            })
        });
        group.bench_with_input(BenchmarkId::new("radix_lex", n), &n, |b, _| {
            b.iter(|| {
                let mut v = edges.clone();
                radix_sort_by_key(&mut v, CEdge::lex_key);
                v
            })
        });
        group.bench_with_input(BenchmarkId::new("comparison_weight", n), &n, |b, _| {
            b.iter(|| {
                let mut v = edges.clone();
                v.sort_unstable_by_key(|e| (e.w, e.id));
                v
            })
        });
        group.bench_with_input(BenchmarkId::new("radix_weight", n), &n, |b, _| {
            b.iter(|| {
                let mut v = edges.clone();
                radix_sort_by_key(&mut v, |e: &CEdge| ((e.w as u128) << 64) | e.id as u128);
                v
            })
        });
    }
    group.finish();
}

/// Directed edges as `relabel` leaves them after the first round of a
/// 2^16-vertex GNM solve: component labels below 2^16, weights in
/// [1, 255), original edge ids below 2^21, no locality.
fn post_relabel_edges(n: usize) -> Vec<CEdge> {
    let mut state = 0x0dd_ba11_5eed_cafeu64;
    let mut rng = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        state >> 16
    };
    (0..n)
        .map(|_| {
            CEdge::new(
                rng() % (1 << 16),
                rng() % (1 << 16),
                (rng() % 254 + 1) as u32,
                rng() % (1 << 21),
            )
        })
        .collect()
}

fn bench_prefilter_order(c: &mut Criterion) {
    let mut group = c.benchmark_group("prefilter_order");
    group.sample_size(10);
    for n in [1usize << 16, 1 << 19, 1 << 20] {
        let edges = post_relabel_edges(n);
        group.bench_with_input(BenchmarkId::new("lex_key", n), &n, |b, _| {
            b.iter(|| {
                let mut v = edges.clone();
                radix_sort_by_key(&mut v, CEdge::lex_key);
                v
            })
        });
        group.bench_with_input(BenchmarkId::new("pair_key_order", n), &n, |b, _| {
            b.iter(|| radix_order_by_key(&edges, |e| Some(e.pair_key())))
        });
    }
    group.finish();
}

fn bench_bucket_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("bucket_construction_p64");
    group.sample_size(10);
    let p = 64usize;
    for n in [1usize << 12, 1 << 16, 1 << 19] {
        let edges = make_edges(n);
        group.bench_with_input(BenchmarkId::new("nested_push", n), &n, |b, _| {
            b.iter(|| {
                let mut bufs: Vec<Vec<CEdge>> = (0..p).map(|_| Vec::new()).collect();
                for e in &edges {
                    bufs[(e.u as usize) % p].push(*e);
                }
                bufs
            })
        });
        group.bench_with_input(BenchmarkId::new("flat_count_scatter", n), &n, |b, _| {
            b.iter(|| FlatBuckets::from_dest_fn(p, edges.clone(), |e| (e.u as usize) % p))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_id_sorts,
    bench_sorts,
    bench_prefilter_order,
    bench_bucket_construction
);
criterion_main!(benches);
