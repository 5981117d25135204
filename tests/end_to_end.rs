//! Cross-crate integration: every algorithm, every graph family, one
//! verified answer.

use kamsta::{Algorithm, GraphConfig, MstConfig, Runner};

fn families() -> Vec<GraphConfig> {
    vec![
        GraphConfig::Grid2D { rows: 16, cols: 16 },
        GraphConfig::Rgg2D { n: 400, m: 3200 },
        GraphConfig::Rgg3D { n: 400, m: 3200 },
        GraphConfig::Gnm { n: 300, m: 2400 },
        GraphConfig::Rhg {
            n: 300,
            m: 2400,
            gamma: 3.0,
        },
        GraphConfig::Rmat { scale: 8, m: 2000 },
        GraphConfig::RoadLike { rows: 16, cols: 16 },
    ]
}

fn small_cfg() -> MstConfig {
    MstConfig {
        base_case_constant: 32,
        ..MstConfig::default()
    }
}

#[test]
fn all_algorithms_agree_on_all_families() {
    for config in families() {
        let runner = Runner::new(4, 1).with_mst_config(small_cfg());
        let reference = runner.run_generated(config, Algorithm::Boruvka, 42);
        for (algo, cfg) in [
            (Algorithm::FilterBoruvka, small_cfg()),
            (Algorithm::Boruvka, small_cfg().without_preprocessing()),
            (Algorithm::SparseMatrix, small_cfg()),
            (Algorithm::MndMst, small_cfg()),
        ] {
            let s = runner
                .clone()
                .with_mst_config(cfg)
                .run_generated(config, algo, 42);
            assert_eq!(
                s.msf_weight, reference.msf_weight,
                "{algo:?} on {config:?}: weight mismatch"
            );
            assert_eq!(
                s.msf_edges, reference.msf_edges,
                "{algo:?} on {config:?}: edge count mismatch"
            );
        }
    }
}

#[test]
fn results_are_independent_of_pe_count() {
    for config in [
        GraphConfig::Gnm { n: 200, m: 1600 },
        GraphConfig::Rgg2D { n: 300, m: 2400 },
    ] {
        let reference = Runner::new(1, 1)
            .with_mst_config(small_cfg())
            .run_generated(config, Algorithm::Boruvka, 7);
        for p in [2, 3, 5, 8, 13] {
            let s = Runner::new(p, 1)
                .with_mst_config(small_cfg())
                .run_generated(config, Algorithm::Boruvka, 7);
            assert_eq!(s.msf_weight, reference.msf_weight, "p={p}");
            assert_eq!(s.msf_edges, reference.msf_edges, "p={p}");
        }
    }
}

#[test]
fn hybrid_threads_and_dedup_strategies_are_transparent() {
    let config = GraphConfig::Rhg {
        n: 400,
        m: 3200,
        gamma: 3.0,
    };
    let reference = Runner::new(4, 1)
        .with_mst_config(small_cfg())
        .run_generated(config, Algorithm::Boruvka, 11);
    // 8 hybrid threads.
    let hybrid = Runner::new(4, 8)
        .with_mst_config(small_cfg())
        .run_generated(config, Algorithm::Boruvka, 11);
    assert_eq!(hybrid.msf_weight, reference.msf_weight);
    // Sort-only dedup.
    let sort_cfg = MstConfig {
        dedup: kamsta::DedupStrategy::Sort,
        ..small_cfg()
    };
    let sorted =
        Runner::new(4, 1)
            .with_mst_config(sort_cfg)
            .run_generated(config, Algorithm::Boruvka, 11);
    assert_eq!(sorted.msf_weight, reference.msf_weight);
}

#[test]
fn deterministic_across_repeated_runs() {
    let config = GraphConfig::Rmat { scale: 7, m: 1200 };
    let run = || {
        Runner::new(5, 1)
            .with_mst_config(small_cfg())
            .run_generated(config, Algorithm::FilterBoruvka, 3)
    };
    let a = run();
    let b = run();
    assert_eq!(a.msf_weight, b.msf_weight);
    assert_eq!(a.msf_edges, b.msf_edges);
    assert_eq!(
        a.modeled_time, b.modeled_time,
        "modeled clock is deterministic"
    );
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.bytes, b.bytes);
}

#[test]
fn alltoall_strategies_do_not_change_results() {
    let config = GraphConfig::Gnm { n: 256, m: 2000 };
    let mut weights = Vec::new();
    for kind in [
        kamsta::AlltoallKind::Auto,
        kamsta::AlltoallKind::Direct,
        kamsta::AlltoallKind::Grid,
    ] {
        let s = Runner::new(8, 1)
            .with_mst_config(small_cfg())
            .with_alltoall(kind)
            .run_generated(config, Algorithm::Boruvka, 5);
        weights.push(s.msf_weight);
    }
    weights.dedup();
    assert_eq!(weights.len(), 1, "all delivery strategies agree");
}

#[test]
fn shared_memory_matches_distributed() {
    let config = GraphConfig::Rgg2D { n: 500, m: 4000 };
    let distributed = Runner::new(4, 1)
        .with_mst_config(small_cfg())
        .run_generated(config, Algorithm::Boruvka, 9);
    // Materialise the same graph and run the shared-memory Borůvka.
    let out = kamsta::Machine::run(kamsta::MachineConfig::new(4), move |comm| {
        let input = kamsta::InputGraph::generate(comm, config, 9);
        input
            .graph
            .edges
            .iter()
            .map(|e| e.wedge())
            .collect::<Vec<kamsta::WEdge>>()
    });
    let full: Vec<kamsta::WEdge> = out.results.into_iter().flatten().collect();
    let msf = kamsta::minimum_spanning_forest(&full);
    let weight: u64 = msf.iter().map(|e| e.w as u64).sum();
    assert_eq!(weight, distributed.msf_weight);
}
