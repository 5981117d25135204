//! Differential testing of the batch-dynamic maintainer: random
//! insert/delete sequences over every generator family, at 1, 4 and 16
//! PEs, asserting after **every** batch that [`DynMst`]'s forest weight
//! and canonical edge set equal a from-scratch [`boruvka_mst`] over the
//! current live edge set — and that the sharded store tracks the live
//! set exactly.
//!
//! Case counts scale with the `PROPTEST_CASES` environment variable
//! (the CI nightly job raises it; see `.github/workflows/ci.yml`).

use kamsta_comm::{Machine, MachineConfig, TransportKind};
use kamsta_core::dist::{boruvka_mst, MstConfig};
use kamsta_core::seq::kruskal;
use kamsta_dyn::{DynConfig, DynMst, Update, WorkloadGen};
use kamsta_graph::io::distribute_from_root;
use kamsta_graph::{GraphConfig, InputGraph, WEdge};
use proptest::prelude::*;

/// Every generator family at differential-test scale.
fn families() -> Vec<GraphConfig> {
    vec![
        GraphConfig::Gnm { n: 64, m: 400 },
        GraphConfig::Grid2D { rows: 7, cols: 8 },
        GraphConfig::RoadLike { rows: 7, cols: 7 },
        GraphConfig::Rgg2D { n: 60, m: 360 },
        GraphConfig::Rgg3D { n: 60, m: 360 },
        GraphConfig::Rhg {
            n: 60,
            m: 400,
            gamma: 3.0,
        },
        GraphConfig::Rmat { scale: 6, m: 300 },
    ]
}

fn mst_cfg() -> MstConfig {
    MstConfig {
        base_case_constant: 8,
        ..MstConfig::default()
    }
}

/// Bootstrap from the generated family, then drive `batches` random
/// batches, differentially checking the maintainer at every boundary.
fn run_sequence(p: usize, config: GraphConfig, seed: u64, batches: usize, batch_size: usize) {
    Machine::run(MachineConfig::new(p), move |comm| {
        let input = InputGraph::generate(comm, config, seed);
        let n = kamsta_dyn::vertex_bound(comm, &input);
        let cfg = DynConfig::new(n).with_mst(mst_cfg());
        let mut dynmst = DynMst::bootstrap(comm, cfg, &input);

        // Replicated workload: every PE draws the identical stream, so
        // rank 0 can submit the whole batch while all PEs know the live
        // set for the from-scratch reference.
        let initial = dynmst.collect_edges(comm);
        let mut workload = WorkloadGen::new(n, seed ^ 0x0DD5_EED5, &initial);
        for b in 0..batches {
            let batch = workload.next_batch(batch_size);
            let slice: &[_] = if comm.rank() == 0 { &batch } else { &[] };
            let outcome = dynmst.apply_batch(comm, slice);

            // The sharded store must track the live set exactly.
            assert_eq!(
                dynmst.collect_edges(comm),
                workload.live_edges(),
                "store drift: {config:?} p={p} seed={seed} batch {b}"
            );

            // From-scratch reference over the live set.
            let reference = workload.symmetric_edges();
            let slice = distribute_from_root(comm, (comm.rank() == 0).then_some(reference));
            let ref_input = InputGraph::from_sorted_edges(comm, slice);
            let r = boruvka_mst(comm, &ref_input, &mst_cfg());
            let ref_weight = comm.allreduce_sum(r.edges.iter().map(|e| e.w as u64).sum::<u64>());
            assert_eq!(
                outcome.msf_weight, ref_weight,
                "weight mismatch: {config:?} p={p} seed={seed} batch {b}"
            );
            let mut ref_msf: Vec<WEdge> = comm.allgatherv(
                r.edges
                    .iter()
                    .map(|e| {
                        let e = e.wedge();
                        if e.u < e.v {
                            e
                        } else {
                            e.reversed()
                        }
                    })
                    .collect(),
            );
            ref_msf.sort_unstable();
            assert_eq!(
                dynmst.collect_msf(comm),
                ref_msf,
                "edge-set mismatch: {config:?} p={p} seed={seed} batch {b}"
            );
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn every_family_differentially_correct_p1(seed in 0u64..1 << 40) {
        for config in families() {
            run_sequence(1, config, seed, 4, 12);
        }
    }

    #[test]
    fn every_family_differentially_correct_p4(seed in 0u64..1 << 40) {
        for config in families() {
            run_sequence(4, config, seed, 4, 12);
        }
    }

    #[test]
    fn every_family_differentially_correct_p16(seed in 0u64..1 << 40) {
        for config in families() {
            run_sequence(16, config, seed, 3, 12);
        }
    }

    #[test]
    fn delete_heavy_sequences_force_replacements(seed in 0u64..1 << 40) {
        // 70% deletions drain the graph, so most batches hit the forest
        // and exercise the replacement-candidate path.
        Machine::run(MachineConfig::new(4), move |comm| {
            let input = InputGraph::generate(comm, GraphConfig::Gnm { n: 48, m: 280 }, seed);
            let n = 48;
            let cfg = DynConfig::new(n).with_mst(mst_cfg());
            let mut dynmst = DynMst::bootstrap(comm, cfg, &input);
            let initial = dynmst.collect_edges(comm);
            let mut workload =
                WorkloadGen::new(n, seed ^ 0x0DE1_E7E5, &initial).with_delete_pct(70);
            for _ in 0..6 {
                let batch = workload.next_batch(10);
                let slice: &[_] = if comm.rank() == 0 { &batch } else { &[] };
                let outcome = dynmst.apply_batch(comm, slice);
                let reference = workload.symmetric_edges();
                let slice = distribute_from_root(comm, (comm.rank() == 0).then_some(reference));
                let ref_input = InputGraph::from_sorted_edges(comm, slice);
                let r = boruvka_mst(comm, &ref_input, &mst_cfg());
                let ref_weight =
                    comm.allreduce_sum(r.edges.iter().map(|e| e.w as u64).sum::<u64>());
                assert_eq!(outcome.msf_weight, ref_weight);
            }
            assert!(
                dynmst.stats().tree_deletes > 0,
                "delete-heavy stream never hit the forest (seed {seed})"
            );
        });
    }
}

/// The acceptance workload: 1000 random operations on GNM at p = 16,
/// weight and edge set checked at every one of the 20 batch boundaries.
#[test]
fn dyn_pipeline_is_transport_invariant() {
    // The batch-dynamic pipeline as a cross-transport oracle: the same
    // update stream must yield identical forests (weight, edge set) and
    // bit-identical modeled cost counters under every backend, at every
    // acceptance p. (The full differential corpus additionally runs
    // under `KAMSTA_TRANSPORT={bytes,sockets}` in CI's matrix legs.)
    let run = |p: usize, t: TransportKind| {
        let config = GraphConfig::Gnm { n: 64, m: 400 };
        let out = Machine::run(MachineConfig::new(p).with_transport(t), move |comm| {
            let input = InputGraph::generate(comm, config, 23);
            let n = kamsta_dyn::vertex_bound(comm, &input);
            let mut dynmst = DynMst::bootstrap(comm, DynConfig::new(n).with_mst(mst_cfg()), &input);
            let initial = dynmst.collect_edges(comm);
            let mut workload = WorkloadGen::new(n, 0x7A57, &initial);
            for _ in 0..4 {
                let batch = workload.next_batch(16);
                let slice: &[_] = if comm.rank() == 0 { &batch } else { &[] };
                dynmst.apply_batch(comm, slice);
            }
            (dynmst.msf_weight(), dynmst.collect_msf(comm))
        });
        (out.results, out.stats)
    };
    for p in [1usize, 2, 4, 16] {
        let (res_c, stats_c) = run(p, TransportKind::Cells);
        let t = TransportKind::Sockets;
        let (res_b, stats_b) = run(p, t);
        assert_eq!(
            res_c, res_b,
            "p={p} {t:?}: dyn results diverge across transports"
        );
        assert_eq!(
            stats_c, stats_b,
            "p={p} {t:?}: dyn cost counters diverge across transports"
        );
    }
}

#[test]
fn gnm_p16_thousand_op_workload() {
    run_sequence(16, GraphConfig::Gnm { n: 96, m: 640 }, 42, 20, 50);
}

/// All weights equal: only the `(min, max)` tie-break decides the forest,
/// which the batch solve must order exactly as a from-scratch run does
/// (the random-weight families leave most ties to chance). A 7 × 8 grid
/// of weight-1 edges takes batches of deletes plus weight-1 inserts, and
/// after every batch the forest must equal a from-scratch solve over the
/// maintainer's own edge set.
#[test]
fn equal_weights_match_a_scratch_solve() {
    let (rows, cols) = (7u64, 8u64);
    let mut grid: Vec<WEdge> = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let x = r * cols + c;
            if c + 1 < cols {
                grid.extend([WEdge::new(x, x + 1, 1), WEdge::new(x + 1, x, 1)]);
            }
            if r + 1 < rows {
                grid.extend([WEdge::new(x, x + cols, 1), WEdge::new(x + cols, x, 1)]);
            }
        }
    }
    grid.sort_unstable();
    for p in [1usize, 2, 3, 5] {
        let grid = grid.clone();
        Machine::run(MachineConfig::new(p), move |comm| {
            let n = rows * cols;
            let slice = distribute_from_root(comm, (comm.rank() == 0).then(|| grid.clone()));
            let input = InputGraph::from_sorted_edges(comm, slice);
            let mut dynmst = DynMst::bootstrap(comm, DynConfig::new(n).with_mst(mst_cfg()), &input);
            let initial = dynmst.collect_edges(comm);
            let mut workload = WorkloadGen::new(n, 0x7135 + p as u64, &initial).with_delete_pct(50);
            for b in 0..8 {
                let batch: Vec<Update> = workload
                    .next_batch(12)
                    .into_iter()
                    .map(|up| match up {
                        Update::Insert(e) => Update::Insert(WEdge::new(e.u, e.v, 1)),
                        delete => delete,
                    })
                    .collect();
                let slice: &[_] = if comm.rank() == 0 { &batch } else { &[] };
                dynmst.apply_batch(comm, slice);

                let live = dynmst.collect_edges(comm);
                let symmetric = (comm.rank() == 0).then(|| {
                    let mut all: Vec<WEdge> =
                        live.iter().flat_map(|e| [*e, e.reversed()]).collect();
                    all.sort_unstable();
                    all
                });
                let ref_input =
                    InputGraph::from_sorted_edges(comm, distribute_from_root(comm, symmetric));
                let r = boruvka_mst(comm, &ref_input, &mst_cfg());
                let mut ref_msf: Vec<WEdge> = comm.allgatherv(
                    r.edges
                        .iter()
                        .map(|e| WEdge::new(e.u.min(e.v), e.u.max(e.v), e.w))
                        .collect(),
                );
                ref_msf.sort_unstable();
                assert_eq!(dynmst.collect_msf(comm), ref_msf, "p={p} batch {b}");
            }
        });
    }
}

/// Vertex ids `2^40` apart in the full id space `[0, u64::MAX)`: the
/// flush numbers vertices in its hash map, not in a table over the span
/// (the differential cases above, with `n` near the forest's size, take
/// the table). A random stream over 40 such vertices, and after every
/// batch the store and the forest must equal the live set and a scratch
/// Kruskal over it.
#[test]
fn strided_ids_match_a_scratch_solve() {
    let at = |k: u64| k << 40;
    let spread = |e: WEdge| WEdge::new(at(e.u), at(e.v), e.w);
    for p in [1usize, 2, 3] {
        Machine::run(MachineConfig::new(p), move |comm| {
            let mut workload =
                WorkloadGen::new(40, 0x5721_DE00 + p as u64, &[]).with_delete_pct(35);
            let mut dynmst = DynMst::new(comm, DynConfig::new(u64::MAX));
            for b in 0..10 {
                let batch: Vec<Update> = workload
                    .next_batch(if b == 0 { 120 } else { 16 })
                    .into_iter()
                    .map(|up| match up {
                        Update::Insert(e) => Update::Insert(spread(e)),
                        Update::Delete { u, v } => Update::Delete { u: at(u), v: at(v) },
                    })
                    .collect();
                let slice: &[_] = if comm.rank() == 0 { &batch } else { &[] };
                dynmst.apply_batch(comm, slice);
                let live: Vec<WEdge> = workload.live_edges().into_iter().map(spread).collect();
                assert_eq!(dynmst.collect_edges(comm), live, "p={p} batch {b}: store");
                let mut want = kruskal(&live);
                want.sort_unstable();
                assert_eq!(dynmst.collect_msf(comm), want, "p={p} batch {b}: forest");
            }
            assert!(
                dynmst.stats().tree_deletes > 0,
                "p={p}: the forest was never hit"
            );
        });
    }
}

/// Degenerate dynamic inputs: an empty maintainer accepts deletes and
/// duplicate inserts; draining everything leaves an empty forest.
#[test]
fn drain_to_empty_and_refill() {
    Machine::run(MachineConfig::new(4), |comm| {
        let cfg = DynConfig::new(8).with_mst(mst_cfg());
        let mut dynmst = DynMst::new(comm, cfg);
        let mk = |ops: Vec<kamsta_dyn::Update>, rank: usize| -> Vec<kamsta_dyn::Update> {
            if rank == 0 {
                ops
            } else {
                Vec::new()
            }
        };
        use kamsta_dyn::Update::*;
        // Deleting from an empty graph is a no-op.
        let o = dynmst.apply_batch(comm, &mk(vec![Delete { u: 0, v: 1 }], comm.rank()));
        assert!(!o.resolved);
        assert_eq!(o.msf_weight, 0);
        // Build a path, then delete every edge.
        let path: Vec<kamsta_dyn::Update> =
            (0..7).map(|k| Insert(WEdge::new(k, k + 1, 1))).collect();
        dynmst.apply_batch(comm, &mk(path, comm.rank()));
        assert_eq!(dynmst.msf_edge_count(), 7);
        let wipe: Vec<kamsta_dyn::Update> = (0..7).map(|k| Delete { u: k, v: k + 1 }).collect();
        let o = dynmst.apply_batch(comm, &mk(wipe, comm.rank()));
        assert_eq!(o.msf_weight, 0);
        assert_eq!(o.msf_edges, 0);
        assert_eq!(dynmst.collect_edges(comm), Vec::new());
        // Refill still works after the drain.
        let o = dynmst.apply_batch(
            comm,
            &mk(
                vec![Insert(WEdge::new(2, 5, 3)), Insert(WEdge::new(2, 5, 4))],
                comm.rank(),
            ),
        );
        assert_eq!(o.msf_weight, 4, "duplicate insert re-weights the pair");
    });
}
