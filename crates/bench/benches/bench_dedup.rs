//! Criterion micro-bench: the Sec. VI-B parallel-edge elimination
//! ablation — local prefilter + sort vs. pure sorting. The paper's
//! prefilter is a per-PE hash table ("outperforms the pure sorting
//! approach by up to a factor of 2.5 if the hash table remains small
//! enough to fit into the cache"); `DedupStrategy::HashFilter` keeps the
//! paper's name but is a sort-and-reduce: order the slice by its
//! `(u, v)` pair key, keep each pair's `(w, id)`-minimal copy. Either
//! way the point is the same — parallel copies never enter the
//! distributed sort.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kamsta::{DedupStrategy, MstConfig};
use kamsta_comm::{Machine, MachineConfig};
use kamsta_core::dist::redistribute;
use kamsta_graph::CEdge;

/// Post-contraction-like edge set: few distinct endpoint pairs, many
/// parallel copies — exactly the shape local preprocessing leaves behind.
fn parallel_heavy_edges(rank: usize, pairs: u64, copies: u64) -> Vec<CEdge> {
    let mut edges = Vec::with_capacity((pairs * copies) as usize);
    let salt = rank as u64 * 1_000_003;
    for k in 0..pairs {
        let u = k * 7 % 1000;
        let v = 1000 + (k * 13) % 1000;
        for c in 0..copies {
            let w = ((salt + k * 31 + c * 97) % 254 + 1) as u32;
            edges.push(CEdge::new(u, v, w, salt + k * copies + c));
        }
    }
    edges
}

fn run_dedup(strategy: DedupStrategy, pairs: u64, copies: u64) {
    Machine::run(MachineConfig::new(8), move |comm| {
        let edges = parallel_heavy_edges(comm.rank(), pairs, copies);
        let cfg = MstConfig {
            dedup: strategy,
            ..MstConfig::default()
        };
        let g = redistribute(comm, edges, &cfg);
        assert!(g.m_global > 0);
    });
}

fn bench_dedup(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_edge_dedup_p8");
    group.sample_size(10);
    for copies in [4u64, 16, 64] {
        group.bench_with_input(BenchmarkId::new("pure_sort", copies), &copies, |b, &cp| {
            b.iter(|| run_dedup(DedupStrategy::Sort, 2000, cp))
        });
        group.bench_with_input(
            BenchmarkId::new("hash_filter", copies),
            &copies,
            |b, &cp| b.iter(|| run_dedup(DedupStrategy::HashFilter, 2000, cp)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_dedup);
criterion_main!(benches);
