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

/// `relabel` against a reference built from allgathered labels, on a
/// slice layout whose boundary vertices are shared: a shared last vertex
/// is local *and* a ghost. Its copy on the PE that is not its home gets a
/// poisoned label here, so a destination relabelled from the local array
/// instead of the home's answer shows. Vertex ids are `k * stride`.
fn check_relabel_against_allgathered_labels(stride: u64, expect_dense: bool) {
    use kamsta_core::dist::{exchange_labels, relabel};
    use std::collections::HashMap;

    const N: u64 = 14;
    const HOLE: u64 = 6; // a destination that is a source nowhere
    const POISON: u64 = u64::MAX - 1;
    let p = 3;
    let out = Machine::run(MachineConfig::new(p), move |comm| {
        // Every vertex but the hole points at the seven ids around it and
        // at the hole; sorted, cut into three equal runs of edges — the
        // cuts fall inside vertices 4 and 9.
        let mut all: Vec<(u64, u64)> = Vec::new();
        for u in (0..N).filter(|&u| u != HOLE) {
            all.extend(
                (0..N)
                    .filter(|&v| v != u && (u.abs_diff(v) <= 3 || v == HOLE))
                    .map(|v| (u, v)),
            );
        }
        all.sort_unstable();
        let chunk = all.len().div_ceil(p);
        let lo = (comm.rank() * chunk).min(all.len());
        let hi = ((comm.rank() + 1) * chunk).min(all.len());
        let edges: Vec<CEdge> = all[lo..hi]
            .iter()
            .enumerate()
            .map(|(k, &(u, v))| {
                CEdge::new(u * stride, v * stride, 1 + (u + v) as u32, (lo + k) as u64)
            })
            .collect();
        let g = DistGraph::establish(comm, edges);
        let verts = g.local_vertices().to_vec();

        // Triples contract to their smallest member; a copy held away from
        // the vertex's home is poisoned.
        let labels: Vec<u64> = verts
            .iter()
            .map(|&v| match g.home_of_vertex(v) == comm.rank() {
                true => v / stride / 3 * 3 * stride,
                false => POISON,
            })
            .collect();
        let at_home: HashMap<u64, u64> = comm
            .allgatherv(
                verts
                    .iter()
                    .copied()
                    .zip(labels.iter().copied())
                    .collect::<Vec<_>>(),
            )
            .into_iter()
            .filter(|&(_, label)| label != POISON)
            .collect();

        let table = exchange_labels(comm, &g, &labels);
        let got = relabel(comm, &g, &g.edges, &labels, &table);
        let want: Vec<CEdge> = g
            .edges
            .iter()
            .filter_map(|&(mut e)| {
                // Sources are this PE's own entries, as ever.
                e.u = labels[verts.iter().position(|&v| v == e.u).unwrap()];
                e.v = at_home.get(&e.v).copied().unwrap_or(e.v);
                (e.u != e.v).then_some(e)
            })
            .collect();
        assert_eq!(got, want, "stride {stride}, rank {}", comm.rank());
        assert!(got.iter().all(|e| e.v != POISON));
        assert!(
            got.iter().any(|e| e.v == HOLE * stride),
            "the hole keeps its id"
        );
        assert_eq!(table.is_dense(), expect_dense, "stride {stride}");
        (g.last_shared, got.len())
    });
    assert!(
        out.results.iter().any(|&(shared, _)| shared),
        "a last vertex is shared"
    );
    assert!(out.results.iter().all(|&(_, kept)| kept > 0));
}

#[test]
fn relabel_matches_allgathered_labels_on_dense_ids() {
    check_relabel_against_allgathered_labels(1, true);
}

#[test]
fn relabel_matches_allgathered_labels_on_ids_2_pow_40_apart() {
    check_relabel_against_allgathered_labels(1 << 40, false);
}
