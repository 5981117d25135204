//! Cross-family generator properties: every family must produce a
//! symmetric, self-loop-free, globally sorted distributed edge list whose
//! content does not depend on how many PEs generated it (the invariant
//! that makes the paper's `-1` vs `-8` thread comparisons meaningful).

use kamsta_comm::{Machine, MachineConfig};
use kamsta_graph::{GraphConfig, WEdge};
use proptest::prelude::*;
use std::collections::HashSet;

fn families(seed: u64) -> Vec<GraphConfig> {
    let _ = seed;
    vec![
        GraphConfig::Grid2D { rows: 9, cols: 7 },
        GraphConfig::Rgg2D { n: 250, m: 1800 },
        GraphConfig::Rgg3D { n: 250, m: 1800 },
        GraphConfig::Gnm { n: 180, m: 1500 },
        GraphConfig::Rhg {
            n: 220,
            m: 1700,
            gamma: 3.0,
        },
        GraphConfig::Rmat { scale: 7, m: 900 },
        GraphConfig::RoadLike { rows: 10, cols: 9 },
    ]
}

/// The slices concatenated in rank order, checked to be sorted as
/// emitted: strictly, except for RMAT, which may repeat an edge.
fn generate(p: usize, config: GraphConfig, seed: u64) -> Vec<WEdge> {
    let all: Vec<WEdge> = Machine::run(MachineConfig::new(p), move |comm| {
        config.generate(comm, seed)
    })
    .results
    .into_iter()
    .flatten()
    .collect();
    let sorted = match config {
        GraphConfig::Rmat { .. } => all.windows(2).all(|w| w[0] <= w[1]),
        _ => all.windows(2).all(|w| w[0] < w[1]),
    };
    assert!(
        sorted,
        "{config:?} seed={seed} p={p}: not sorted as emitted"
    );
    all
}

/// Degenerate corpus: m = 0, fewer than two vertices and zero grid sides
/// must produce valid — sorted, symmetric, loop-free, partition-invariant
/// — and, where the family can honour it exactly, *empty* edge lists.
#[test]
fn degenerate_configs_generate_cleanly() {
    let rhg = |n, m| GraphConfig::Rhg { n, m, gamma: 3.0 };
    // No edge budget or no vertex pair to draw from: these generate the
    // empty graph.
    let empty = [
        GraphConfig::Gnm { n: 0, m: 10 },
        GraphConfig::Gnm { n: 1, m: 10 },
        GraphConfig::Gnm { n: 2, m: 0 },
        GraphConfig::Gnm { n: 50, m: 0 },
        GraphConfig::Grid2D { rows: 1, cols: 1 },
        GraphConfig::Grid2D { rows: 0, cols: 5 },
        GraphConfig::Grid2D { rows: 5, cols: 0 },
        GraphConfig::RoadLike { rows: 1, cols: 1 },
        GraphConfig::RoadLike { rows: 0, cols: 5 },
        GraphConfig::Rmat { scale: 0, m: 0 },
        GraphConfig::Rmat { scale: 0, m: 10 },
        GraphConfig::Rmat { scale: 5, m: 0 },
        GraphConfig::Rgg2D { n: 0, m: 10 },
        GraphConfig::Rgg2D { n: 1, m: 0 },
        GraphConfig::Rgg2D { n: 1, m: 10 },
        GraphConfig::Rgg3D { n: 0, m: 10 },
        GraphConfig::Rgg3D { n: 1, m: 0 },
        rhg(0, 10),
        rhg(1, 10),
    ];
    // RHG's calibration floors the target degree at 1, so m = 0 need not
    // be empty there.
    for config in empty.into_iter().chain([rhg(8, 0)]) {
        let a = generate(1, config, 7);
        let b = generate(4, config, 7);
        assert_eq!(a, b, "{config:?}: degenerate output must not depend on p");
        let set: HashSet<(u64, u64, u32)> = a.iter().map(|e| (e.u, e.v, e.w)).collect();
        for e in &a {
            assert!(!e.is_self_loop(), "{config:?}: self-loop {e:?}");
            assert!(
                set.contains(&(e.v, e.u, e.w)),
                "{config:?}: missing back edge of {e:?}"
            );
        }
    }
    for config in empty {
        assert!(
            generate(3, config, 1).is_empty(),
            "{config:?} must generate no edges"
        );
    }
}

/// More PEs than RGG cells, GNM buckets or grid vertices: the PEs left
/// without any emit nothing, and the rest still emit exactly their part
/// of the p = 1 graph.
#[test]
fn more_pes_than_cells_buckets_or_vertices() {
    for config in [
        GraphConfig::Rgg2D { n: 9, m: 40 },
        GraphConfig::Gnm { n: 5, m: 12 },
        GraphConfig::Grid2D { rows: 2, cols: 2 },
    ] {
        let reference = generate(1, config, 11);
        assert!(!reference.is_empty(), "{config:?} generated nothing");
        for p in [7usize, 16] {
            assert_eq!(
                generate(p, config, 11),
                reference,
                "{config:?}: p={p} differs from p=1"
            );
        }
    }
}

#[test]
fn all_families_symmetric_and_loop_free() {
    for config in families(3) {
        let all = generate(4, config, 3);
        assert!(!all.is_empty(), "{config:?} generated nothing");
        let set: HashSet<(u64, u64, u32)> = all.iter().map(|e| (e.u, e.v, e.w)).collect();
        for e in &all {
            assert!(!e.is_self_loop(), "{config:?}: self-loop {e:?}");
            assert!(
                set.contains(&(e.v, e.u, e.w)),
                "{config:?}: missing back edge of {e:?}"
            );
        }
    }
}

/// The RHG sweep visits each cell pair from several angular spans (and,
/// since PR 8, from both orientations of the symmetric-pair rule); a
/// bookkeeping slip there shows up as the same directed {u,v} emitted
/// twice. Duplicates are a hard invariant violation — `InputGraph`
/// assumes a duplicate-free sorted list — so pin it across PE counts
/// and seeds.
#[test]
fn rhg_emits_no_duplicate_pairs() {
    for seed in [1u64, 7, 13, 42] {
        for p in [1usize, 4, 16] {
            let all = generate(
                p,
                GraphConfig::Rhg {
                    n: 400,
                    m: 3000,
                    gamma: 3.0,
                },
                seed,
            );
            let mut pairs: HashSet<(u64, u64)> = HashSet::with_capacity(all.len());
            for e in &all {
                assert!(
                    pairs.insert((e.u, e.v)),
                    "p={p} seed={seed}: duplicate directed edge ({}, {})",
                    e.u,
                    e.v
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn rhg_no_duplicate_pairs_random_seeds(seed in 0u64..10_000) {
        for p in [1usize, 4, 16] {
            let all = generate(
                p,
                GraphConfig::Rhg { n: 220, m: 1700, gamma: 3.0 },
                seed,
            );
            let pairs: HashSet<(u64, u64)> = all.iter().map(|e| (e.u, e.v)).collect();
            prop_assert_eq!(
                pairs.len(),
                all.len(),
                "p={} seed={}: RHG emitted duplicate directed edges",
                p,
                seed
            );
        }
    }

    #[test]
    fn partition_invariance_for_every_family(
        seed in 0u64..1000,
        pa in 1usize..6,
        pb in 6usize..10,
    ) {
        for config in families(seed) {
            let a = generate(pa, config, seed);
            let b = generate(pb, config, seed);
            prop_assert_eq!(
                &a, &b,
                "{:?} differs between p={} and p={}", config, pa, pb
            );
        }
    }

    #[test]
    fn different_seeds_give_different_random_graphs(seed in 0u64..500) {
        for config in [
            GraphConfig::Gnm { n: 200, m: 1600 },
            GraphConfig::Rmat { scale: 7, m: 900 },
        ] {
            let a = generate(3, config, seed);
            let b = generate(3, config, seed + 1);
            prop_assert_ne!(a, b, "{:?}: seed must matter", config);
        }
    }
}
