//! Cross-algorithm parity: the distributed algorithms, the Kruskal
//! reference and the shared-memory Borůvka must report the identical MSF
//! weight (the unique-weight total order makes the forest itself unique),
//! and the two distributed algorithms the identical edges.

use kamsta::core::seq::{kruskal, msf_weight};
use kamsta::{Algorithm, GraphConfig, Machine, MachineConfig, MstConfig, Runner, WEdge};

fn materialize(config: GraphConfig, seed: u64) -> Vec<WEdge> {
    Machine::run(MachineConfig::new(4), move |comm| {
        let input = kamsta::InputGraph::generate(comm, config, seed);
        input
            .graph
            .edges
            .iter()
            .map(|e| e.wedge())
            .collect::<Vec<WEdge>>()
    })
    .results
    .into_iter()
    .flatten()
    .collect()
}

fn check_parity(config: GraphConfig, seed: u64, expected_edges: Option<u64>) {
    let runner = Runner::new(4, 1).with_mst_config(MstConfig {
        base_case_constant: 16,
        ..MstConfig::default()
    });

    let dist_b = runner.run_generated(config, Algorithm::Boruvka, seed);
    let dist_f = runner.run_generated(config, Algorithm::FilterBoruvka, seed);
    assert_eq!(
        dist_b.msf_weight, dist_f.msf_weight,
        "{config:?}: Boruvka vs FilterBoruvka"
    );
    assert_eq!(
        dist_b.msf_edges, dist_f.msf_edges,
        "{config:?}: edge-count parity"
    );
    if let Some(n) = expected_edges {
        assert_eq!(dist_b.msf_edges, n, "{config:?}: spanning-tree size");
    }

    // The same graph, materialised for the sequential references.
    let edges = materialize(config, seed);
    // The forests themselves, edge for edge: the unique-weight order
    // leaves one MSF, and both algorithms report its canonical copies.
    let forest = |algo| {
        let (mut msf, _) = runner.msf_edges(edges.clone(), algo);
        msf.sort_unstable();
        msf
    };
    assert_eq!(
        forest(Algorithm::FilterBoruvka),
        forest(Algorithm::Boruvka),
        "{config:?}: Filter-Borůvka's forest against Borůvka's"
    );
    let reference = msf_weight(&kruskal(&edges));
    assert_eq!(dist_b.msf_weight, reference, "{config:?}: vs Kruskal");
    assert_eq!(
        msf_weight(&kamsta::minimum_spanning_forest(&edges)),
        reference,
        "{config:?}: shared-memory Boruvka weight parity"
    );
}

#[test]
fn gnm_instance_parity() {
    check_parity(GraphConfig::Gnm { n: 250, m: 2000 }, 42, None);
}

#[test]
fn grid_instance_parity() {
    check_parity(
        GraphConfig::Grid2D { rows: 14, cols: 14 },
        7,
        Some(14 * 14 - 1),
    );
}
