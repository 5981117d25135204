//! Criterion micro-bench: all-to-all strategies (Sec. VI-A / Fig. 2
//! building block). Measures real execution of the simulated exchange —
//! the per-partner overheads that motivate the grid variant are physical
//! here too.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kamsta_comm::{AlltoallKind, FlatBuckets, Machine, MachineConfig};

fn exchange(p: usize, kind: AlltoallKind, words_per_dest: usize) {
    Machine::run(MachineConfig::new(p).with_alltoall(kind), move |comm| {
        let bufs =
            FlatBuckets::from_nested((0..p).map(|d| vec![d as u64; words_per_dest]).collect());
        let recv = match kind {
            AlltoallKind::Direct => comm.alltoallv_direct(bufs),
            AlltoallKind::Grid => comm.alltoallv_grid(bufs),
            AlltoallKind::Auto => comm.sparse_alltoallv(bufs),
        };
        assert_eq!(recv.buckets(), p);
    });
}

fn bench_alltoall(c: &mut Criterion) {
    let mut group = c.benchmark_group("alltoall_small_messages_p64");
    group.sample_size(10);
    for (name, kind) in [
        ("one-level", AlltoallKind::Direct),
        ("two-level", AlltoallKind::Grid),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &kind, |b, &kind| {
            b.iter(|| exchange(64, kind, 4));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("alltoall_large_messages_p16");
    group.sample_size(10);
    for (name, kind) in [
        ("one-level", AlltoallKind::Direct),
        ("two-level", AlltoallKind::Grid),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &kind, |b, &kind| {
            b.iter(|| exchange(16, kind, 4096));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_alltoall);
criterion_main!(benches);
