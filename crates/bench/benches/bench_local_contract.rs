//! Criterion micro-bench: the Sec. IV-A local contraction kernel
//! (`local_contract`) alone, at p = 2, on the three locality regimes —
//! 2D-RGG (almost everything contracts), 2D-grid (low degree, long
//! Borůvka chains) and GNM (half the edges cross, most components sit
//! out early, the live list stays long). Inputs are prepared once per
//! size; an iteration is one machine run that calls the kernel on each
//! PE's slice, so the number sits below the end-to-end benchmark's
//! `core.local_contract_probe_s`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kamsta::{GraphConfig, MstConfig};
use kamsta_comm::{Machine, MachineConfig};
use kamsta_core::dist::local_contract;
use kamsta_graph::{DistGraph, InputGraph};

const PES: usize = 2;

/// The family at `2^log_m` directed edges per PE: degree 16, or the
/// grid's 4.
fn family(name: &str, log_m: u32) -> GraphConfig {
    let log_degree = if name == "2D-GRID" { 2 } else { 4 };
    GraphConfig::weak_scaled(name, log_m - log_degree, log_m, PES)
}

fn bench_local_contract(c: &mut Criterion) {
    let cfg = MstConfig::default();
    for name in ["2D-RGG", "2D-GRID", "GNM"] {
        let mut group = c.benchmark_group(format!("local_contract_{name}_p{PES}"));
        group.sample_size(10);
        for log_m in [16u32, 19, 21] {
            let config = family(name, log_m);
            let slices: Vec<DistGraph> = Machine::run(MachineConfig::new(PES), move |comm| {
                InputGraph::generate(comm, config, 42).graph
            })
            .results;
            group.bench_with_input(
                BenchmarkId::new("edges_per_pe_log2", log_m),
                &slices,
                |b, slices| {
                    b.iter(|| {
                        Machine::run(MachineConfig::new(PES), |comm| {
                            let pre = local_contract(comm, &slices[comm.rank()], &cfg);
                            assert!(pre.applied, "the locality gate accepts at p = 2");
                            pre.edges.len()
                        })
                        .results
                    })
                },
            );
        }
        group.finish();
    }
}

criterion_group!(benches, bench_local_contract);
criterion_main!(benches);
