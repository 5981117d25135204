//! The Sec. IV-A pass (`contract_local_subtrees`, and `local_contract`
//! when its locality gate accepts) checked as properties of its outcome,
//! on every PE, against the global graph — not against a second
//! implementation:
//!
//! 1. every emitted id is an edge of the sequential Kruskal MSF;
//! 2. the labels are the connected components of the emitted edges, each
//!    named by its minimum member (shared vertices keep their own id);
//! 3. the surviving edges are exactly the input edges that do not lie
//!    inside one component, in input order;
//! 4. the result is the freeze rule's fixpoint: the lightest edge leaving
//!    any component leaves the contractible set.

use kamsta_comm::{Machine, MachineConfig};
use kamsta_core::dist::{contract_local_subtrees, local_contract, MstConfig, PreprocessOutcome};
use kamsta_core::seq::{kruskal, UnionFind};
use kamsta_graph::io::{distribute_from_root, symmetrize};
use kamsta_graph::{CEdge, GraphConfig, InputGraph, VertexId, WEdge, Weight};
use std::collections::{HashMap, HashSet};

/// What one PE held and what Sec. IV-A made of it.
struct Pe {
    edges: Vec<CEdge>,
    verts: Vec<VertexId>,
    first_shared: bool,
    last_shared: bool,
    pre: PreprocessOutcome,
}

impl Pe {
    fn contractible(&self, i: usize) -> bool {
        let shared = i == 0 && self.first_shared || i + 1 == self.verts.len() && self.last_shared;
        !shared
    }
}

enum Source {
    Edges(Vec<WEdge>),
    Generated(GraphConfig, u64),
}

/// How a test runs Sec. IV-A: behind the real locality gate, or the pass
/// alone, whatever the locality.
#[derive(Clone, Copy)]
enum Via {
    Gate,
    Pass,
}

/// Prepare the input on `p` PEs and contract it; returns the global
/// (symmetric, directed) edge list and every PE's view.
fn contract(p: usize, source: Source, via: Via) -> (Vec<WEdge>, Vec<Pe>) {
    let out = Machine::run(MachineConfig::new(p), move |comm| {
        let slice = match &source {
            Source::Edges(all) => {
                distribute_from_root(comm, (comm.rank() == 0).then(|| all.clone()))
            }
            Source::Generated(config, seed) => config.generate(comm, *seed),
        };
        let g = InputGraph::from_sorted_edges(comm, slice).graph;
        let pre = match via {
            Via::Gate => local_contract(comm, &g, &MstConfig::default()),
            Via::Pass => contract_local_subtrees(comm, &g),
        };
        Pe {
            verts: g.local_vertices().to_vec(),
            first_shared: g.first_shared,
            last_shared: g.last_shared,
            edges: g.edges,
            pre,
        }
    });
    let global = out
        .results
        .iter()
        .flat_map(|pe| pe.edges.iter().map(CEdge::wedge))
        .collect();
    (global, out.results)
}

/// Check properties 1–4 on every PE. Returns whether the locality gate
/// accepted (it is a global decision; a rejected pass must return nothing).
fn check(what: &str, global: &[WEdge], pes: &[Pe]) -> bool {
    let applied = pes[0].pre.applied;
    let msf: HashSet<(Weight, VertexId, VertexId)> =
        kruskal(global).iter().map(WEdge::weight_key).collect();
    for (rank, pe) in pes.iter().enumerate() {
        let what = format!("{what}, PE {rank} of {}", pes.len());
        let pre = &pe.pre;
        assert_eq!(pre.applied, applied, "{what}: the gate is global");
        if !applied {
            assert!(pre.edges.is_empty() && pre.labels.is_empty() && pre.mst_edge_ids.is_empty());
            continue;
        }
        let n = pe.verts.len();
        let index: HashMap<VertexId, usize> =
            pe.verts.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let contractible = |v: VertexId| index.get(&v).copied().filter(|&i| pe.contractible(i));

        // 1. Emitted ids are MSF edges between contractible vertices.
        let mut by_id: HashMap<u64, &CEdge> = HashMap::new();
        for e in &pe.edges {
            if contractible(e.u).is_some() && contractible(e.v).is_some() {
                by_id.entry(e.id).or_insert(e);
            }
        }
        let mut uf = UnionFind::new(n);
        let mut seen = HashSet::new();
        for id in &pre.mst_edge_ids {
            assert!(seen.insert(id), "{what}: id {id} emitted twice");
            let e = by_id
                .get(id)
                .unwrap_or_else(|| panic!("{what}: id {id} is no contractible local edge"));
            assert!(
                msf.contains(&e.weight_key()),
                "{what}: {e:?} not in the MSF"
            );
            assert!(
                uf.union(index[&e.u] as u32, index[&e.v] as u32),
                "{what}: {e:?} closes a cycle"
            );
        }

        // 2. Labels: components of the emitted edges, minimum member id.
        let mut min_member: HashMap<u32, VertexId> = HashMap::new();
        for i in 0..n {
            // Ascending walk: the first member met is the minimum.
            min_member.entry(uf.find(i as u32)).or_insert(pe.verts[i]);
        }
        let want: Vec<VertexId> = (0..n).map(|i| min_member[&uf.find(i as u32)]).collect();
        assert_eq!(pre.labels, want, "{what}: labels");
        for i in (0..n).filter(|&i| !pe.contractible(i)) {
            assert_eq!(pre.labels[i], pe.verts[i], "{what}: shared vertex merged");
        }

        // 3. Survivors: everything not inside one component, input order.
        let mut inside = |e: &CEdge| match (contractible(e.u), contractible(e.v)) {
            (Some(a), Some(b)) => uf.find(a as u32) == uf.find(b as u32),
            _ => false,
        };
        let want: Vec<CEdge> = pe.edges.iter().filter(|e| !inside(e)).copied().collect();
        assert_eq!(pre.edges, want, "{what}: surviving edges");

        // 4. Fixpoint: a component's lightest outgoing edge leaves the
        // contractible set.
        let mut lightest: HashMap<u32, &CEdge> = HashMap::new();
        for e in &pre.edges {
            if let Some(a) = contractible(e.u) {
                let slot = lightest.entry(uf.find(a as u32)).or_insert(e);
                if (e.w, e.id) < (slot.w, slot.id) {
                    *slot = e;
                }
            }
        }
        for e in lightest.values() {
            assert!(
                contractible(e.v).is_none(),
                "{what}: {e:?} is a component's lightest edge and still contractible"
            );
        }
    }
    applied
}

/// A tiny deterministic generator for the test graphs.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// `m` random undirected edges on `n` vertices with weights in `1..4`, so
/// almost every comparison is decided by the id tie-break. `band` bounds
/// `|u − v|`: a small band keeps edges inside a PE under the 1D
/// partition, so the gate also accepts at large `p`; with `band = n` the
/// graph has no locality beyond what the partition gives it.
fn tied_graph(n: u64, m: usize, band: u64, seed: u64) -> Vec<WEdge> {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let pairs = (0..m)
        .map(|_| {
            let u = rng.below(n);
            let v = (u + 1 + rng.below(band)).min(n - 1);
            WEdge::new(u, v, 1 + rng.below(3) as Weight)
        })
        .filter(|e| e.u != e.v)
        .collect();
    symmetrize(pairs)
}

const PES: [usize; 5] = [1, 2, 3, 5, 16];

#[test]
fn properties_hold_under_heavy_weight_ties() {
    let mut contracted = 0;
    for seed in 0..6 {
        for p in PES {
            // Unbanded: the gate takes it at p = 1 only; the pass itself
            // runs on it at every p.
            let edges = tied_graph(60, 240, 60, seed);
            let (global, pes) = contract(p, Source::Edges(edges.clone()), Via::Gate);
            assert_eq!(
                check(&format!("random seed {seed}, gated"), &global, &pes),
                p == 1,
                "the gate rejects the unbanded graphs at every p ≥ 2 (p = {p})"
            );
            let (global, pes) = contract(p, Source::Edges(edges), Via::Pass);
            assert!(check(&format!("random seed {seed}"), &global, &pes));
            contracted += usize::from(pes.iter().any(|pe| !pe.pre.mst_edge_ids.is_empty()));
            // Banded: local at every p.
            let edges = tied_graph(200, 700, 4, seed);
            let (global, pes) = contract(p, Source::Edges(edges), Via::Gate);
            assert!(
                check(&format!("banded seed {seed}"), &global, &pes),
                "banded graphs pass the gate at p = {p}"
            );
        }
    }
    assert!(
        contracted >= 12,
        "the pass contracts the unbanded graphs at small p: {contracted}"
    );
}

#[test]
fn properties_hold_on_the_generator_families() {
    let families = [
        GraphConfig::Grid2D { rows: 7, cols: 9 }, // 63 vertices: p ∤ n for every p > 1
        GraphConfig::Rgg2D { n: 256, m: 2048 },
        GraphConfig::Rgg3D { n: 256, m: 2048 },
        GraphConfig::RoadLike { rows: 9, cols: 11 },
        GraphConfig::Gnm { n: 64, m: 512 },
        GraphConfig::Rmat { scale: 6, m: 512 },
    ];
    for config in families {
        for p in PES {
            let (global, pes) = contract(p, Source::Generated(config, 11), Via::Gate);
            let applied = check(config.family(), &global, &pes);
            if p == 1 {
                assert!(applied, "{}: one PE holds every edge", config.family());
            }
            // The pass itself, also where the gate skips it (GNM and
            // RMAT at p ≥ 2).
            let (global, pes) = contract(p, Source::Generated(config, 11), Via::Pass);
            check(config.family(), &global, &pes);
        }
    }
}

#[test]
fn one_pe_contracts_the_whole_graph() {
    // No ghosts and no shared vertices: the pass is a complete Borůvka.
    let edges = tied_graph(80, 200, 80, 3);
    let vertices: HashSet<VertexId> = edges.iter().map(|e| e.u).collect();
    let (global, pes) = contract(1, Source::Edges(edges), Via::Gate);
    assert!(check("p = 1", &global, &pes));
    let pre = &pes[0].pre;
    assert!(pre.edges.is_empty(), "every edge ends inside a component");
    let components: HashSet<VertexId> = pre.labels.iter().copied().collect();
    assert_eq!(pre.mst_edge_ids.len(), vertices.len() - components.len());
    assert_eq!(pre.mst_edge_ids.len(), kruskal(&global).len());
}

#[test]
fn more_pes_than_vertices() {
    // A 3-vertex path over 8 PEs: 4 directed edges, so half the PEs are
    // empty and the rest hold one edge each — every vertex is shared or
    // alone with a ghost, and whatever the gate says, nothing may break.
    for via in [Via::Gate, Via::Pass] {
        let edges = symmetrize(vec![WEdge::new(0, 1, 2), WEdge::new(1, 2, 2)]);
        let (global, pes) = contract(8, Source::Edges(edges), via);
        check("p > n", &global, &pes);
        for pe in &pes {
            assert!(
                pe.pre.mst_edge_ids.is_empty(),
                "no vertex has its adjacency local"
            );
        }
        // A triangle plus an isolated edge over 16 PEs.
        let edges = symmetrize(vec![
            WEdge::new(0, 1, 1),
            WEdge::new(1, 2, 1),
            WEdge::new(0, 2, 1),
            WEdge::new(7, 9, 1),
        ]);
        let (global, pes) = contract(16, Source::Edges(edges), via);
        check("p > m", &global, &pes);
    }
}

#[test]
fn hub_spanning_several_pes_contracts_nothing_around_it() {
    // Vertex 0 has 300 spokes; at p = 16 (75 edges per PE) its segment
    // covers PEs 0–3, so PEs 1 and 2 hold nothing but the hub. The spoke
    // ends (PEs 4–7) see only their edge to the ghost hub. A banded
    // cluster on the remaining PEs supplies the locality the global gate
    // asks for.
    let mut pairs: Vec<WEdge> = (1..=300)
        .map(|k| WEdge::new(0, k, (k % 5 + 1) as Weight))
        .collect();
    for u in 1000..1100u64 {
        for d in 1..=3 {
            pairs.push(WEdge::new(u, u + d, ((u + d) % 3 + 1) as Weight));
        }
    }
    let (global, pes) = contract(16, Source::Edges(symmetrize(pairs)), Via::Gate);
    assert!(check("hub", &global, &pes), "the cluster carries the gate");
    for pe in &pes[1..3] {
        assert_eq!(pe.verts, vec![0]);
        assert!(pe.first_shared && pe.last_shared);
    }
    for pe in &pes[..8] {
        assert!(
            pe.pre.mst_edge_ids.is_empty(),
            "nothing contracts around the hub"
        );
        assert_eq!(pe.pre.edges, pe.edges);
        assert_eq!(pe.pre.labels, pe.verts);
    }
    assert!(pes[8..].iter().any(|pe| !pe.pre.mst_edge_ids.is_empty()));
}

#[test]
fn an_open_component_merging_into_one_that_sits_out() {
    // PE 0 holds A = {0, 1, 2, 3} and B = {4, 5}; PE 1 holds the ghosts.
    //
    //   round 1: the path 1 –1– 0 –2– 3 –3– 2 contracts in one round, and
    //            in index order its unions are (0,1), (2,3), then (3,0)
    //            between two rank-1 trees — A's root has rank 2.
    //            B = {4, 5} pairs up: rank 1.
    //   round 2: A's lightest edge is (1, 10), a ghost: A sits out.
    //            B's lightest edge is (5, 3), into A: B merges into the
    //            component that sits out, and union-by-rank keeps A's
    //            root. The merged component is open again by rule, not
    //            by which root won.
    //   round 3: its lightest edge is still (1, 10): it sits out, nothing
    //            merges, done.
    let pe0 = [
        (0, 1, 1),
        (0, 3, 2),
        (2, 3, 3),
        (4, 5, 4),
        (1, 10, 5),
        (3, 5, 7),
        (4, 11, 9),
    ];
    // Five more edges among the ghosts put the cut between 5 and 10.
    let pe1 = [
        (10, 11, 1),
        (11, 12, 1),
        (12, 13, 1),
        (13, 14, 1),
        (14, 15, 1),
    ];
    let pairs = pe0
        .iter()
        .chain(&pe1)
        .map(|&(u, v, w)| WEdge::new(u, v, w))
        .collect();
    let (global, pes) = contract(2, Source::Edges(symmetrize(pairs)), Via::Gate);
    assert!(check("sits-out merge", &global, &pes));
    let pe = &pes[0];
    assert_eq!(pe.verts, vec![0, 1, 2, 3, 4, 5]);
    assert!(!pe.first_shared && !pe.last_shared);
    assert_eq!(pe.pre.labels, vec![0; 6], "A and B end as one component");
    assert_eq!(pe.pre.mst_edge_ids.len(), 5);
    let survivors: Vec<WEdge> = pe.pre.edges.iter().map(CEdge::wedge).collect();
    assert_eq!(survivors, vec![WEdge::new(1, 10, 5), WEdge::new(4, 11, 9)]);
}
