//! Property-based cross-crate tests: for arbitrary random graphs and PE
//! counts, the distributed algorithms must produce a verified MSF
//! matching the sequential Kruskal reference.

use kamsta::core::seq::{kruskal, msf_weight};
use kamsta::{verify_msf, Algorithm, MstConfig, Runner, WEdge};
use proptest::prelude::*;

/// An arbitrary undirected weighted graph as (n, edge list).
fn arb_graph() -> impl Strategy<Value = Vec<WEdge>> {
    (
        2u64..60,
        prop::collection::vec((0u64..60, 0u64..60, 1u32..255), 1..250),
    )
        .prop_map(|(n, raw)| {
            let mut edges = Vec::new();
            for (u, v, w) in raw {
                let (u, v) = (u % n, v % n);
                if u != v {
                    edges.push(WEdge::new(u, v, w));
                    edges.push(WEdge::new(v, u, w));
                }
            }
            edges.sort_unstable();
            edges.dedup_by(|a, b| a.u == b.u && a.v == b.v);
            // Re-symmetrise after dedup kept the first weight per pair:
            // rebuild from canonical pairs so directions agree.
            let mut canon: Vec<WEdge> = edges.iter().filter(|e| e.u < e.v).copied().collect();
            canon.dedup_by(|a, b| a.u == b.u && a.v == b.v);
            let mut out = Vec::with_capacity(canon.len() * 2);
            for e in canon {
                out.push(e);
                out.push(e.reversed());
            }
            out.sort_unstable();
            out
        })
}

fn cfg() -> MstConfig {
    MstConfig {
        base_case_constant: 8,
        ..MstConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn distributed_boruvka_matches_kruskal(
        edges in arb_graph(),
        p in 1usize..7,
    ) {
        prop_assume!(!edges.is_empty());
        let (msf, summary) = Runner::new(p, 1)
            .with_mst_config(cfg())
            .msf_edges(edges.clone(), Algorithm::Boruvka);
        prop_assert!(verify_msf(&edges, &msf).is_ok(), "{:?}", verify_msf(&edges, &msf));
        prop_assert_eq!(summary.msf_weight, msf_weight(&kruskal(&edges)));
    }

    #[test]
    fn filter_boruvka_matches_kruskal(
        edges in arb_graph(),
        p in 1usize..7,
    ) {
        prop_assume!(!edges.is_empty());
        let (mut msf, summary) = Runner::new(p, 1)
            .with_mst_config(cfg())
            .msf_edges(edges.clone(), Algorithm::FilterBoruvka);
        prop_assert!(verify_msf(&edges, &msf).is_ok(), "{:?}", verify_msf(&edges, &msf));
        prop_assert_eq!(summary.msf_weight, msf_weight(&kruskal(&edges)));
        // Edge for edge what Borůvka reports, not only the same weight.
        let (mut by_boruvka, _) = Runner::new(p, 1)
            .with_mst_config(cfg())
            .msf_edges(edges.clone(), Algorithm::Boruvka);
        msf.sort_unstable();
        by_boruvka.sort_unstable();
        prop_assert_eq!(msf, by_boruvka);
    }

    #[test]
    fn baselines_match_kruskal(
        edges in arb_graph(),
        p in 1usize..6,
    ) {
        prop_assume!(!edges.is_empty());
        let reference = msf_weight(&kruskal(&edges));
        for algo in [Algorithm::SparseMatrix, Algorithm::MndMst] {
            let (msf, summary) = Runner::new(p, 1)
                .with_mst_config(cfg())
                .msf_edges(edges.clone(), algo);
            prop_assert!(verify_msf(&edges, &msf).is_ok(), "{algo:?}");
            prop_assert_eq!(summary.msf_weight, reference, "{:?}", algo);
        }
    }
}
