//! Filter-Borůvka as Algorithm 2 wrote it (Sec. V): Theorem 1 asserted
//! rather than tabulated, the distributed base case on the shapes that
//! stress its seams — each compared edge id for edge id with
//! `boruvka_mst` — the representative array's hooks-then-compress step
//! against a sequential union-find, and the phases the shared round loop
//! books its time to.

use kamsta::core::dist::{boruvka_mst, filter_mst, DistArray, FilterStats};
use kamsta::core::seq::UnionFind;
use kamsta::graph::io::distribute_from_root;
use kamsta::{
    Algorithm, GraphConfig, InputGraph, Machine, MachineConfig, MstConfig, Phase, Runner,
    TransportKind, WEdge,
};
use proptest::prelude::*;

/// A base-case constant this small sends every graph below through the
/// distributed base case: rounds, hooks, `compress`.
fn cfg(base_case_constant: u64) -> MstConfig {
    MstConfig {
        base_case_constant,
        ..MstConfig::default()
    }
}

/// Both algorithms on one prepared input: Borůvka's and Filter-Borůvka's
/// sorted MSF edge-id sets, and every PE's copy of the statistics.
fn solve_both(
    machine: MachineConfig,
    cfg: MstConfig,
    make_edges: impl Fn(&kamsta::comm::Comm) -> Vec<WEdge> + Send + Sync,
) -> (Vec<u64>, Vec<u64>, Vec<FilterStats>, u64) {
    let out = Machine::run(machine, move |comm| {
        let input = InputGraph::from_sorted_edges(comm, make_edges(comm));
        let b = boruvka_mst(comm, &input, &cfg);
        let (f, stats) = filter_mst(comm, &input, &cfg);
        let ids = |edges: &[kamsta::graph::CEdge]| edges.iter().map(|e| e.id).collect::<Vec<_>>();
        (ids(&b.edges), ids(&f.edges), stats, input.graph.m_global)
    });
    let sorted = |mut ids: Vec<u64>| {
        ids.sort_unstable();
        ids
    };
    (
        sorted(out.results.iter().flat_map(|r| r.0.clone()).collect()),
        sorted(out.results.iter().flat_map(|r| r.1.clone()).collect()),
        out.results.iter().map(|r| r.2).collect(),
        out.results[0].3,
    )
}

/// Filter-Borůvka on a replicated edge list at `p` PEs: the forest must
/// be Borůvka's, id for id, and the statistics replicated.
fn check_edges(p: usize, base_case_constant: u64, edges: &[WEdge], what: &str) -> FilterStats {
    let edges = edges.to_vec();
    let (b, f, stats, _) = solve_both(
        MachineConfig::new(p),
        cfg(base_case_constant),
        move |comm| distribute_from_root(comm, (comm.rank() == 0).then(|| edges.clone())),
    );
    assert_eq!(
        f, b,
        "{what}, p = {p}: Filter-Borůvka's ids against Borůvka's"
    );
    assert!(
        stats.iter().all(|s| *s == stats[0]),
        "{what}, p = {p}: {stats:?}"
    );
    stats[0]
}

/// Both directions of every pair, sorted — what the algorithms take.
fn sym(pairs: impl IntoIterator<Item = (u64, u64, u32)>) -> Vec<WEdge> {
    let mut out = Vec::new();
    for (u, v, w) in pairs {
        out.push(WEdge::new(u, v, w));
        out.push(WEdge::new(v, u, w));
    }
    out.sort_unstable();
    out
}

/// A weight in `1..255` that is a function of the pair.
fn weight(u: u64, v: u64) -> u32 {
    (kamsta::graph::hash::mix64(u << 32 | v) % 254 + 1) as u32
}

// ---------------------------------------------------------------------
// (i) Theorem 1
// ---------------------------------------------------------------------

/// Theorem 1 on GNM, n = 2^12, the average degree going 8 → 128: the
/// number of base-case calls and of partition steps stays logarithmic in
/// m / n and the base cases together see O(n) edges while m grows 16×.
/// The statistics are global quantities: equal on every PE, and the same
/// at every thread count and on every transport.
#[test]
fn theorem_1_calls_are_logarithmic_and_base_case_volume_linear() {
    let n = 1u64 << 12;
    let run = |p: usize, t: usize, transport: TransportKind, log_degree: u32| {
        let config = GraphConfig::Gnm {
            n,
            m: n << log_degree,
        };
        let machine = MachineConfig::new(p)
            .with_threads(t)
            .with_transport(transport);
        let out = Machine::run(machine, move |comm| {
            let input = InputGraph::generate(comm, config, 42);
            let (f, stats) = filter_mst(comm, &input, &cfg(4));
            let ids: Vec<u64> = f.edges.iter().map(|e| e.id).collect();
            (ids, stats, input.graph.m_global)
        });
        let at = format!("p = {p}, t = {t}, {transport:?}, degree 2^{log_degree}");
        let stats = out.results[0].1;
        assert!(
            out.results.iter().all(|r| r.1 == stats),
            "{at}: per-PE copies"
        );
        let mut ids: Vec<u64> = out.results.iter().flat_map(|r| r.0.clone()).collect();
        ids.sort_unstable();
        (stats, ids, out.results[0].2, at)
    };
    for p in [2usize, 4] {
        // The forest itself, once per p: Borůvka's, id for id.
        let sparsest = GraphConfig::Gnm { n, m: n << 3 };
        let generate = move |comm: &kamsta::comm::Comm| sparsest.generate(comm, 42);
        let (b, f, _, _) = solve_both(MachineConfig::new(p), cfg(4), generate);
        assert_eq!(f, b, "p = {p}: Filter-Borůvka's ids against Borůvka's");
        assert_eq!(run(p, 1, TransportKind::Cells, 3).1, b);
        for log_degree in 3..=7 {
            let (stats, ids, m, at) = run(p, 1, TransportKind::Cells, log_degree);
            let bound = 2 * (m / n).ilog2() as u64 + 6;
            assert!(stats.base_case_calls <= bound, "{at}: {stats:?}");
            assert!(stats.partition_steps <= bound, "{at}: {stats:?}");
            assert!(stats.base_case_edges <= 4 * n, "{at}: {stats:?}");
            assert_eq!(
                stats.base_case_edges + stats.filtered_edges,
                m,
                "{at}: an edge is filtered or reaches one base case"
            );
            if log_degree == 3 || log_degree == 5 {
                for (t, transport) in [
                    (2, TransportKind::Cells),
                    (1, TransportKind::Sockets),
                    (2, TransportKind::Sockets),
                ] {
                    let (stats_v, ids_v, _, at_v) = run(p, t, transport, log_degree);
                    assert_eq!(
                        (stats_v, ids_v),
                        (stats, ids.clone()),
                        "{at_v} against {at}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// (ii) the distributed base case on the shapes that stress its seams
// ---------------------------------------------------------------------

#[test]
fn a_hub_shared_across_pes_inside_the_base_case_graph() {
    // One vertex holds a third of the edges: its range spans PE
    // boundaries in the input and in every redistributed graph, so its
    // hook is recorded by its home PE only and its label pulled by the
    // other holders.
    let hub = 7u64;
    let leaves = (0..300u64).filter(|&v| v != hub);
    let star = leaves.clone().map(|v| (hub, v, weight(hub, v)));
    let ring = leaves.map(|v| (v, (v + 1) % 300, weight(v, v + 1)));
    let edges = sym(star.chain(ring.filter(|&(u, v, _)| u != hub && v != hub)));
    for p in [2usize, 4, 5] {
        let stats = check_edges(p, 1, &edges, "hub");
        assert!(stats.base_case_calls >= 1);
    }
}

#[test]
fn pe_counts_that_do_not_divide_the_vertices_and_exceed_the_representatives() {
    let gnm = |n: u64, m: u64, seed: u64| {
        let pairs = (0..m).filter_map(move |k| {
            let r = kamsta::graph::hash::mix64(seed ^ k);
            let (u, v) = (r % n, (r >> 32) % n);
            (u < v).then(|| (u, v, weight(u, v)))
        });
        let mut edges = sym(pairs);
        edges.dedup_by(|a, b| (a.u, a.v) == (b.u, b.v));
        edges
    };
    // 101 vertices over 3, 6 and 7 PEs; dense enough to partition.
    let edges = gnm(101, 1500, 5);
    for p in [3usize, 6, 7] {
        let stats = check_edges(p, 2, &edges, "p does not divide n");
        assert!(stats.partition_steps >= 1, "{stats:?}");
    }
    // Five vertices on seven PEs, and a threshold of zero vertices: the
    // rounds run until no edge is left, on more PEs than representatives.
    let edges = gnm(5, 40, 6);
    for p in [6usize, 7] {
        check_edges(p, 0, &edges, "p > n'");
    }
}

#[test]
fn a_forest_of_many_components_is_one_base_case() {
    // 200 two-vertex components and 50 paths of four: m < 2 n, and no
    // base case can bring n′ below m / 2 — nothing to partition.
    let pairs = (0..200u64).map(|k| (2 * k, 2 * k + 1, weight(k, k)));
    let paths = (0..50u64).flat_map(|k| {
        let at = 400 + 4 * k;
        (0..3).map(move |i| (at + i, at + i + 1, weight(at, i)))
    });
    let edges = sym(pairs.chain(paths));
    for p in [1usize, 2, 4] {
        let stats = check_edges(p, 1, &edges, "forest");
        assert_eq!(
            (
                stats.base_case_calls,
                stats.partition_steps,
                stats.filtered_edges
            ),
            (1, 0, 0),
            "p = {p}"
        );
        assert_eq!(stats.base_case_edges, edges.len() as u64);
    }
}

#[test]
fn an_input_that_is_one_edge_per_pair_already() {
    // A spanning tree: every edge is an MSF edge, the filter has nothing
    // to drop, and the one base case contracts a path-heavy graph — the
    // longest chains the hooks can form.
    let n = 257u64;
    let path = (1..n).map(|v| (v - 1, v, weight(v, 0)));
    for p in [1usize, 2, 4] {
        let stats = check_edges(p, 1, &sym(path.clone()), "path");
        assert_eq!((stats.base_case_calls, stats.partition_steps), (1, 0));
    }
    // Duplicates of one pair: every key of the range is equal.
    let copies = vec![WEdge::new(0, 1, 9); 40]
        .into_iter()
        .chain(vec![WEdge::new(1, 0, 9); 40])
        .collect::<Vec<_>>();
    check_edges(3, 0, &copies, "copies of one edge");
}

// ---------------------------------------------------------------------
// (iii) hooks, then compress
// ---------------------------------------------------------------------

/// `rounds` rounds of Borůvka-shaped hooks over the ids `[0, n)`: in
/// each round some of the vertices still alive become roots and some
/// of the others hook to a root and retire — so a vertex is hooked at
/// most once, to a vertex that outlives the round.
fn hook_rounds(n: u64, rounds: usize, seed: u64) -> Vec<Vec<(u64, u64)>> {
    let mix = kamsta::graph::hash::mix64;
    let mut alive: Vec<u64> = (0..n).collect();
    let mut out = Vec::new();
    for r in 0..rounds as u64 {
        // The first survivor is always a root: there is one to hook to.
        let (roots, rest): (Vec<u64>, Vec<u64>) = alive
            .iter()
            .partition(|&&v| v == alive[0] || mix(seed ^ (r << 40) ^ v) & 1 == 0);
        let (hooked, idle): (Vec<u64>, Vec<u64>) = rest
            .iter()
            .partition(|&&v| mix(!seed ^ (r << 40) ^ v) & 3 != 0);
        out.push(
            hooked
                .iter()
                .map(|&v| (v, roots[(mix(seed ^ v) % roots.len() as u64) as usize]))
                .collect(),
        );
        alive = roots.into_iter().chain(idle).collect();
        alive.sort_unstable();
    }
    out
}

/// What Filter-Borůvka's base case does with its rounds' hooks — each
/// PE submits those of the vertices it owns (here: `v % p`), in one
/// `bulk_set` or in one per round, then `compress` — against a
/// sequential union-find over the same hooks: the same partition, and
/// every stored value a fixed point of the array.
fn assert_hooks_compress_to_components(p: usize, n: u64, rounds: &[Vec<(u64, u64)>], what: &str) {
    let mut uf = UnionFind::new(n as usize);
    for &(v, label) in rounds.iter().flatten() {
        uf.union(v as u32, label as u32);
    }
    for per_round in [false, true] {
        let rounds = rounds.to_vec();
        let out = Machine::run(MachineConfig::new(p), move |comm| {
            let mut a = DistArray::new(comm, n);
            let mine = |hooks: &[(u64, u64)]| -> Vec<(u64, u64)> {
                let owned = |h: &&(u64, u64)| h.0 as usize % p == comm.rank();
                hooks.iter().filter(owned).copied().collect()
            };
            if per_round {
                for hooks in &rounds {
                    a.bulk_set(comm, mine(hooks));
                }
            } else {
                a.bulk_set(comm, mine(&rounds.concat()));
            }
            a.compress(comm);
            let got = a.bulk_get(comm, (0..n).collect());
            (0..n).map(|i| got.get(i).unwrap()).collect::<Vec<u64>>()
        });
        for (rank, got) in out.results.iter().enumerate() {
            let at = format!("{what}: p = {p}, rank {rank}, per_round = {per_round}");
            for (i, &rep) in got.iter().enumerate() {
                assert_eq!(got[rep as usize], rep, "{at}: a[{i}] is a fixed point");
                assert_eq!(
                    uf.find(rep as u32),
                    uf.find(i as u32),
                    "{at}: a[{i}] = {rep} is in {i}'s component"
                );
            }
            let mut reps: Vec<u64> = got.clone();
            reps.sort_unstable();
            reps.dedup();
            let mut roots: Vec<u32> = (0..n as u32).map(|i| uf.find(i)).collect();
            roots.sort_unstable();
            roots.dedup();
            assert_eq!(reps.len(), roots.len(), "{at}: one value per component");
        }
    }
}

#[test]
fn hooks_then_compress_match_a_union_find_on_pinned_maps() {
    // A chain as long as the round count: round r retires vertex r.
    let chain: Vec<Vec<(u64, u64)>> = (0..10).map(|r| vec![(r, r + 1)]).collect();
    // Two stars whose centres merge in a later round, one bystander.
    let stars = vec![vec![(1, 0), (2, 0), (3, 0), (5, 4), (6, 4)], vec![(4, 0)]];
    for p in [1usize, 2, 3, 5] {
        assert_hooks_compress_to_components(p, 11, &chain, "chain of 10 rounds");
        assert_hooks_compress_to_components(p, 8, &stars, "two stars");
        assert_hooks_compress_to_components(p, 8, &[], "no round ran");
        assert_hooks_compress_to_components(p, 8, &[vec![], vec![]], "empty rounds");
    }
    // More PEs than entries: some blocks are empty.
    assert_hooks_compress_to_components(7, 3, &[vec![(0, 2)], vec![(2, 1)]], "n < p");
    for seed in 0..4 {
        let rounds = hook_rounds(64, 7, seed);
        assert_hooks_compress_to_components(4, 64, &rounds, "seeded rounds");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hooks_then_compress_match_a_union_find(
        p in 1usize..6,
        n in 1u64..80,
        rounds in 0usize..8,
        seed in any::<u64>(),
    ) {
        let rounds = hook_rounds(n, rounds, seed);
        assert_hooks_compress_to_components(p, n, &rounds, "random rounds");
    }
}

// ---------------------------------------------------------------------
// observability: the shared round loop books to Algorithm 1's phases
// ---------------------------------------------------------------------

#[test]
fn base_case_rounds_book_to_the_round_phases() {
    let modeled = |n: u64| {
        let config = GraphConfig::Gnm { n, m: 16 * n };
        let summary = Runner::new(4, 1).with_mst_config(cfg(64)).run_generated(
            config,
            Algorithm::FilterBoruvka,
            42,
        );
        let phases = summary.phases.expect("Filter-Borůvka reports phases");
        move |phase: Phase| {
            let i = Phase::ALL.iter().position(|p| *p == phase).unwrap();
            phases.modeled[i]
        }
    };
    let rounds = [
        Phase::GraphSetupMinEdges,
        Phase::ContractComponents,
        Phase::ExchangeLabelsRelabel,
        Phase::Redistribute,
    ];
    // 2^12 vertices against a threshold of 256: the base cases contract.
    let above = modeled(1 << 12);
    for phase in rounds {
        assert!(above(phase) > 0.0, "{phase:?} above the threshold");
    }
    // 2^7 vertices: every base case is the rooted solve.
    let below = modeled(1 << 7);
    for phase in rounds {
        assert_eq!(below(phase), 0.0, "{phase:?} below the threshold");
    }
    for phases in [&above, &below] {
        assert!(phases(Phase::PartitionFilter) > 0.0);
        assert!(phases(Phase::BaseCaseRedistributeMst) > 0.0);
        assert_eq!(phases(Phase::LocalPreprocessing), 0.0);
    }
}
