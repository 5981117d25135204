//! Diagnostic: walk Algorithm 1's pipeline stage by stage and verify the
//! symmetric-closure invariant (every dst appears as a src somewhere)
//! after every stage.

use kamsta_comm::{Machine, MachineConfig};
use kamsta_graph::{CEdge, DistGraph, GraphConfig, InputGraph, WEdge};
use std::collections::HashSet;

fn check_closure(stage: &str, all_edges: &[CEdge]) {
    let srcs: HashSet<u64> = all_edges.iter().map(|e| e.u).collect();
    for e in all_edges {
        assert!(
            srcs.contains(&e.v),
            "{stage}: dst {} of edge {:?} is not a source anywhere",
            e.v,
            e
        );
    }
    // Direction symmetry with equal weights.
    let dir: HashSet<(u64, u64, u32)> = all_edges.iter().map(|e| (e.u, e.v, e.w)).collect();
    for e in all_edges {
        assert!(
            dir.contains(&(e.v, e.u, e.w)),
            "{stage}: edge {:?} lacks its reverse with equal weight",
            e
        );
    }
}

#[test]
fn pipeline_stages_preserve_symmetric_closure() {
    let p = 3;
    let out = Machine::run(MachineConfig::new(p), move |comm| {
        use kamsta_core::dist::*;
        use kamsta_core::{Phase, Phased};

        let input = InputGraph::generate(comm, GraphConfig::Grid2D { rows: 8, cols: 8 }, 7);
        let cfg = MstConfig {
            base_case_constant: 8,
            preprocessing: false,
            ..MstConfig::default()
        };
        let mut stages: Vec<(String, Vec<CEdge>)> = Vec::new();
        stages.push(("input".into(), input.graph.edges.clone()));

        let mut ph = Phased::new(comm);
        let mut g = input.graph.clone();
        for round in 0..6 {
            if g.n_global <= cfg.base_threshold(comm.size()) || g.m_global == 0 {
                break;
            }
            let sels = min_edges(comm, &g);
            let outcome = contract_components(comm, &g, &sels);
            let ghost = exchange_labels(comm, &g, &outcome.labels);
            let relabeled = relabel(comm, &g, &g.edges, &outcome.labels, &ghost);
            stages.push((format!("relabel round {round}"), relabeled.clone()));
            g = ph.measure(Phase::Redistribute, |c| redistribute(c, relabeled, &cfg));
            stages.push((format!("redistribute round {round}"), g.edges.clone()));
        }
        stages
    });

    // Merge per-PE stage snapshots and check closure at each stage.
    let n_stages = out.results[0].len();
    for s in 0..n_stages {
        let name = &out.results[0][s].0;
        let mut all = Vec::new();
        for pe in &out.results {
            all.extend(pe[s].1.iter().copied());
        }
        check_closure(name, &all);
    }
}

#[test]
fn preprocessing_preserves_consistency() {
    let p = 2;
    let out = Machine::run(MachineConfig::new(p), move |comm| {
        use kamsta_core::dist::*;

        let input = InputGraph::generate(comm, GraphConfig::Grid2D { rows: 6, cols: 6 }, 3);
        let cfg = MstConfig::default();
        let g = input.graph.clone();
        let pre = local_contract(comm, &g, &cfg);
        let ghost = exchange_labels(comm, &g, &pre.labels);
        let relabeled = relabel(comm, &g, &pre.edges, &pre.labels, &ghost);
        let g2 = redistribute(comm, relabeled.clone(), &cfg);
        (relabeled, g2.edges.clone(), pre.applied)
    });
    assert!(out.results.iter().any(|(_, _, a)| *a), "gate should pass");
    let relabeled: Vec<CEdge> = out.results.iter().flat_map(|(r, _, _)| r.clone()).collect();
    check_closure("preprocess+relabel", &relabeled);
    let redist: Vec<CEdge> = out.results.iter().flat_map(|(_, r, _)| r.clone()).collect();
    check_closure("preprocess+redistribute", &redist);
}

#[test]
fn full_driver_on_tiny_grid() {
    let p = 2;
    let out = Machine::run(MachineConfig::new(p), move |comm| {
        use kamsta_core::dist::*;
        let input = InputGraph::generate(comm, GraphConfig::Grid2D { rows: 4, cols: 4 }, 1);
        let cfg = MstConfig {
            base_case_constant: 2,
            preprocessing: false,
            ..MstConfig::default()
        };
        let all: Vec<WEdge> = input.graph.edges.iter().map(|e| e.wedge()).collect();
        let res = boruvka_mst(comm, &input, &cfg);
        (all, res.edges.iter().map(|e| e.wedge()).collect::<Vec<_>>())
    });
    let graph: Vec<WEdge> = out.results.iter().flat_map(|(g, _)| g.clone()).collect();
    let msf: Vec<WEdge> = out.results.iter().flat_map(|(_, m)| m.clone()).collect();
    kamsta_core::verify_msf(&graph, &msf).unwrap();
}

// Re-export needed for the diagnostic to compile when DistGraph is used.
#[allow(dead_code)]
fn _touch(g: &DistGraph) -> usize {
    g.edges.len()
}
