//! Cross-p determinism: on fixed seeds, [`boruvka_mst`] must report the
//! *identical MSF edge-id set* — not just the same weight — for
//! p ∈ {1, 2, 4, 16}. The generators are partition-invariant and ids are
//! global sorted positions, so the input id space is the same at every
//! p; the canonicalisation in `REDISTRIBUTE MST` (minimal-id `u < v`
//! copy per claim) then makes the reported set a pure function of the
//! undirected MSF, which the unique-weight order `(w, min, max)` makes
//! unique.

use kamsta_comm::{Machine, MachineConfig, TransportKind};
use kamsta_core::dist::{boruvka_mst, filter_mst, MstConfig};
use kamsta_graph::{GraphConfig, InputGraph};

fn cfg() -> MstConfig {
    MstConfig {
        base_case_constant: 8,
        ..MstConfig::default()
    }
}

fn instances() -> Vec<(GraphConfig, u64)> {
    vec![
        (GraphConfig::Gnm { n: 90, m: 640 }, 3),
        (GraphConfig::Grid2D { rows: 9, cols: 9 }, 5),
        (GraphConfig::RoadLike { rows: 8, cols: 9 }, 7),
        (GraphConfig::Rgg2D { n: 80, m: 500 }, 9),
        (GraphConfig::Rgg3D { n: 80, m: 500 }, 11),
        (
            GraphConfig::Rhg {
                n: 80,
                m: 520,
                gamma: 3.0,
            },
            13,
        ),
        (GraphConfig::Rmat { scale: 6, m: 400 }, 17),
    ]
}

/// The globally sorted MSF edge-id set of one run.
fn boruvka_ids(p: usize, config: GraphConfig, seed: u64) -> Vec<u64> {
    let out = Machine::run(MachineConfig::new(p), move |comm| {
        let input = InputGraph::generate(comm, config, seed);
        let r = boruvka_mst(comm, &input, &cfg());
        r.edges.iter().map(|e| e.id).collect::<Vec<u64>>()
    });
    let mut ids: Vec<u64> = out.results.into_iter().flatten().collect();
    ids.sort_unstable();
    ids
}

fn filter_ids(p: usize, config: GraphConfig, seed: u64) -> Vec<u64> {
    let out = Machine::run(MachineConfig::new(p), move |comm| {
        let input = InputGraph::generate(comm, config, seed);
        let (r, _) = filter_mst(comm, &input, &cfg());
        r.edges.iter().map(|e| e.id).collect::<Vec<u64>>()
    });
    let mut ids: Vec<u64> = out.results.into_iter().flatten().collect();
    ids.sort_unstable();
    ids
}

#[test]
fn boruvka_msf_id_set_identical_across_p() {
    for (config, seed) in instances() {
        let base = boruvka_ids(1, config, seed);
        assert!(!base.is_empty(), "{config:?} produced an empty forest");
        for p in [2usize, 4, 16] {
            let ids = boruvka_ids(p, config, seed);
            assert_eq!(
                ids, base,
                "{config:?} seed {seed}: id set differs between p=1 and p={p}"
            );
        }
    }
}

#[test]
fn filter_and_boruvka_agree_on_the_id_set() {
    // Both algorithms walk the same unique-weight order, so after
    // canonicalisation they must claim the same input edges.
    for (config, seed) in instances().into_iter().take(3) {
        let b = boruvka_ids(4, config, seed);
        let f = filter_ids(4, config, seed);
        assert_eq!(b, f, "{config:?} seed {seed}");
    }
}

#[test]
fn transports_agree_on_id_sets_and_modeled_cost_counters() {
    // The cross-transport oracle at the pipeline level: the whole MST
    // run — generation, preparation, Borůvka — must produce the same
    // MSF edge-id set *and* bit-identical modeled cost counters under
    // the shared-cells, byte-stream and socket backends, at every p.
    // Charges sit above the transport boundary, so any divergence is a
    // transport bug, not a modeling choice.
    let run = |p: usize, config: GraphConfig, seed: u64, t: TransportKind| {
        let out = Machine::run(MachineConfig::new(p).with_transport(t), move |comm| {
            let input = InputGraph::generate(comm, config, seed);
            let r = boruvka_mst(comm, &input, &cfg());
            r.edges.iter().map(|e| e.id).collect::<Vec<u64>>()
        });
        let mut ids: Vec<u64> = out.results.iter().flatten().copied().collect();
        ids.sort_unstable();
        let (msgs, bytes) = (out.total_messages(), out.total_bytes());
        (ids, out.stats, msgs, bytes)
    };
    for (config, seed) in instances().into_iter().take(4) {
        for p in [1usize, 2, 4, 16] {
            let (ids_c, stats_c, msgs_c, bytes_c) = run(p, config, seed, TransportKind::Cells);
            let t = TransportKind::Sockets;
            let (ids_b, stats_b, msgs_b, bytes_b) = run(p, config, seed, t);
            assert_eq!(ids_c, ids_b, "{config:?} p={p} {t:?}: MSF id sets diverge");
            assert_eq!(
                msgs_c, msgs_b,
                "{config:?} p={p} {t:?}: total_messages diverge"
            );
            assert_eq!(
                bytes_c, bytes_b,
                "{config:?} p={p} {t:?}: total_bytes diverge"
            );
            for (rank, (c, b)) in stats_c.iter().zip(&stats_b).enumerate() {
                assert_eq!(c, b, "{config:?} p={p} rank={rank} {t:?}: PeStats diverge");
            }
        }
    }
}

#[test]
fn hybrid_threads_leave_ids_and_charge_counters_bit_identical() {
    // The t-axis oracle for the intra-PE thread pool: threads_per_pe
    // changes which OS threads execute the local kernels and how
    // modeled_time is scaled, but the MSF id set and the *counter*
    // charges (local_ops, messages, bytes) are logical quantities that
    // must be bit-identical across t — per rank, not just in aggregate.
    // The GNM instance is big enough (m = 40k, 80k directed edges) that
    // the one slice of p = 1 clears the parallel kernels' 65 536-element
    // cutoffs; the 20k-edge slices of p = 4 stay below them, so that
    // row checks the delegation to the sequential kernels instead.
    let run = |p: usize, t: usize, config: GraphConfig, seed: u64, tr: TransportKind| {
        let out = Machine::run(
            MachineConfig::new(p).with_threads(t).with_transport(tr),
            move |comm| {
                let input = InputGraph::generate(comm, config, seed);
                let r = boruvka_mst(comm, &input, &cfg());
                r.edges.iter().map(|e| e.id).collect::<Vec<u64>>()
            },
        );
        let mut ids: Vec<u64> = out.results.iter().flatten().copied().collect();
        ids.sort_unstable();
        let counters: Vec<(u64, u64, u64)> = out
            .stats
            .iter()
            .map(|s| (s.local_ops, s.messages, s.bytes))
            .collect();
        (ids, counters)
    };
    let big = (
        GraphConfig::Gnm {
            n: 5_000,
            m: 40_000,
        },
        41,
    );
    for (config, seed) in instances().into_iter().take(2).chain([big]) {
        let large = matches!(config, GraphConfig::Gnm { m, .. } if m > 1_000);
        let ps: &[usize] = if large { &[1, 4] } else { &[1, 4, 16] };
        for &p in ps {
            let (ids_1, counters_1) = run(p, 1, config, seed, TransportKind::Cells);
            assert!(!ids_1.is_empty());
            for t in [2usize, 8] {
                let (ids_t, counters_t) = run(p, t, config, seed, TransportKind::Cells);
                assert_eq!(ids_t, ids_1, "{config:?} p={p} t={t}: id set diverges");
                assert_eq!(
                    counters_t, counters_1,
                    "{config:?} p={p} t={t}: per-rank charge counters diverge"
                );
            }
        }
        if large {
            // Same oracle across the wire transports at p=4, t=8.
            let (ids_1, counters_1) = run(4, 1, config, seed, TransportKind::Cells);
            let tr = TransportKind::Sockets;
            let (ids_t, counters_t) = run(4, 8, config, seed, tr);
            assert_eq!(ids_t, ids_1, "{config:?} {tr:?} p=4 t=8: id set diverges");
            assert_eq!(
                counters_t, counters_1,
                "{config:?} {tr:?}: counters diverge"
            );
        }
    }
}

#[test]
fn preprocessing_does_not_change_the_id_set() {
    // The Fig. 4 ablation flips which stage claims each edge; the
    // canonical reporting must hide that.
    let config = GraphConfig::Grid2D { rows: 10, cols: 10 };
    let with = boruvka_ids(4, config, 21);
    let out = Machine::run(MachineConfig::new(4), move |comm| {
        let input = InputGraph::generate(comm, config, 21);
        let r = boruvka_mst(comm, &input, &cfg().without_preprocessing());
        r.edges.iter().map(|e| e.id).collect::<Vec<u64>>()
    });
    let mut without: Vec<u64> = out.results.into_iter().flatten().collect();
    without.sort_unstable();
    assert_eq!(with, without);
}
