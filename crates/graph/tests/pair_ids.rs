//! Pair-canonical ids against a sequential reference: after
//! `InputGraph::from_sorted_edges` every backward (`u > v`) copy carries
//! the global position of the first `u < v` copy of its content, and
//! every other edge its own position — for every PE count, every way the
//! sequence can be cut, and with nothing but the charged counters moving
//! between transports and thread counts. The prepared graph's structure
//! is what `DistGraph::establish` builds from the reference slice, and
//! prepare's own counters are pinned. The prepare pass widens the `Vec`
//! it is handed in place, so both oracles also run on slices with spare
//! capacity.

use kamsta_comm::{Machine, MachineConfig, PeStats, TransportKind};
use kamsta_graph::{CEdge, DistGraph, GraphConfig, InputGraph, VertexId, WEdge};
use proptest::prelude::*;
use std::collections::HashMap;
use std::fmt::Debug;

const PES: [usize; 5] = [1, 2, 3, 5, 16];

fn edges(raw: &[(u64, u64, u32)]) -> Vec<WEdge> {
    let mut all: Vec<WEdge> = raw.iter().map(|&(u, v, w)| WEdge::new(u, v, w)).collect();
    all.sort_unstable();
    all
}

/// Both directions of every `(u, v, w)`.
fn symmetric(raw: &[(u64, u64, u32)]) -> Vec<WEdge> {
    let both: Vec<_> = raw
        .iter()
        .flat_map(|&(u, v, w)| [(u, v, w), (v, u, w)])
        .collect();
    edges(&both)
}

/// The definition, sequentially: position ids, then every backward copy
/// takes the position of the first forward copy of its content, if any.
fn reference(all: &[WEdge]) -> Vec<CEdge> {
    let mut first_forward: HashMap<WEdge, u64> = HashMap::new();
    for (k, e) in all.iter().enumerate() {
        if e.u < e.v {
            first_forward.entry(*e).or_insert(k as u64);
        }
    }
    all.iter()
        .enumerate()
        .map(|(k, e)| {
            let twin = first_forward.get(&WEdge::new(e.v, e.u, e.w));
            let id = match twin {
                Some(&id) if e.u > e.v => id,
                _ => k as u64,
            };
            CEdge::from_wedge(*e, id)
        })
        .collect()
}

/// A PE slice's `Vec` capacity as a function of its length.
type Cap = fn(usize) -> usize;

/// What `to_vec` gives.
const EXACT: Cap = |len| len;

/// Capacities around the widening's boundary: `len` `WEdge`s of 24 bytes
/// become `CEdge`s of 32 in the same block, which is grown only where
/// `cap · 24 < len · 32`.
const SPARE: [(&str, Cap); 5] = [
    ("cap = len", |len| len),
    ("cap = len + 1", |len| len + 1),
    ("the largest cap with cap·24 < len·32", |len| {
        (4 * len).saturating_sub(1) / 3
    }),
    // The GNM generator reserves 2m/p.
    ("cap = 2·len", |len| 2 * len),
    ("cap·24 not a multiple of 32", |len| (len * 5 / 4) | 1),
];

/// `edges` in a `Vec` of capacity `cap(len)`.
fn with_cap(edges: &[WEdge], cap: Cap) -> Vec<WEdge> {
    let mut slice = Vec::with_capacity(cap(edges.len()));
    slice.extend_from_slice(edges);
    assert_eq!(slice.capacity(), cap(edges.len()));
    slice
}

/// Prepare the sorted sequence `all` with PE `i` holding
/// `all[cuts[i]..cuts[i + 1]]` in a `Vec` of capacity `cap`, and gather
/// the prepared edges in rank order.
fn prepare_cut(all: &[WEdge], cuts: &[usize], cap: Cap) -> Vec<CEdge> {
    let (all, cuts) = (all.to_vec(), cuts.to_vec());
    Machine::run(MachineConfig::new(cuts.len() - 1), move |comm| {
        let slice = with_cap(&all[cuts[comm.rank()]..cuts[comm.rank() + 1]], cap);
        InputGraph::from_sorted_edges(comm, slice).graph.edges
    })
    .results
    .into_iter()
    .flatten()
    .collect()
}

fn even_cuts(len: usize, p: usize) -> Vec<usize> {
    (0..=p).map(|i| i * len / p).collect()
}

fn assert_matches_reference(all: &[WEdge], cuts: &[usize]) {
    let want = reference(all);
    let got = prepare_cut(all, cuts, EXACT);
    assert_eq!(got.len(), want.len(), "cuts {cuts:?}");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "cuts {cuts:?}: prepared {g:?}, reference {w:?}");
    }
}

fn assert_matches_at_every_p(all: &[WEdge]) {
    for p in PES {
        assert_matches_reference(all, &even_cuts(all.len(), p));
    }
}

#[test]
fn exact_duplicates_share_the_first_copy() {
    let all = symmetric(&[(0, 1, 5), (0, 1, 5), (0, 1, 5), (1, 2, 5), (1, 2, 5)]);
    assert_matches_at_every_p(&all);
    // Every backward copy of (0, 1, 5) points at position 0; the two
    // surplus forward copies keep positions 1 and 2.
    let ids: Vec<u64> = prepare_cut(&all, &even_cuts(all.len(), 3), EXACT)
        .iter()
        .map(|e| e.id)
        .collect();
    assert_eq!(ids, vec![0, 1, 2, 0, 0, 0, 6, 7, 6, 6]);
}

#[test]
fn parallel_edges_of_different_weight_stay_apart() {
    let all = symmetric(&[(0, 1, 5), (0, 1, 7), (0, 1, 7), (0, 2, 5), (1, 2, 7)]);
    assert_matches_at_every_p(&all);
}

#[test]
fn asymmetric_inputs_keep_position_ids() {
    // (3, 1, 4) has no forward copy, (1, 2, 9) no backward copy, and
    // (4, 0, 2) meets a forward copy of another weight only.
    let all = edges(&[
        (0, 1, 3),
        (1, 0, 3),
        (1, 2, 9),
        (3, 1, 4),
        (0, 4, 1),
        (4, 0, 2),
        (2, 2, 6),
    ]);
    assert_matches_at_every_p(&all);
}

#[test]
fn duplicate_runs_straddling_pe_boundaries() {
    // Sorted: (0,5,1)×4 at 0..4, (0,6,2) (1,5,3) at 4..6, (5,0,1)×4 at
    // 6..10, (5,1,3) (6,0,2) at 10..12.
    let all = symmetric(&[
        (0, 5, 1),
        (0, 5, 1),
        (0, 5, 1),
        (0, 5, 1),
        (0, 6, 2),
        (1, 5, 3),
    ]);
    assert_eq!(all.len(), 12);
    // The forward run cut in two, the backward run cut in two, both cut,
    // each run spread over three PEs, and one PE per edge.
    for cuts in [
        vec![0, 2, 12],
        vec![0, 8, 12],
        vec![0, 2, 8, 12],
        vec![0, 1, 3, 7, 9, 12],
        (0..=12).collect(),
    ] {
        assert_matches_reference(&all, &cuts);
    }
}

#[test]
fn a_segment_split_over_three_pes() {
    // Vertex 9 is the far end of eight edges, two of them duplicated:
    // its segment is positions 10..20 of 20, cut so that PE 2 lies
    // wholly inside it and PEs 1 and 3 hold its two ends.
    let mut raw: Vec<(u64, u64, u32)> = (0..8).map(|a| (a, 9, 10 + a as u32)).collect();
    raw.extend([(3, 9, 13), (6, 9, 16)]);
    let all = symmetric(&raw);
    assert_eq!(all.len(), 20);
    for cuts in [vec![0, 5, 13, 17, 20], vec![0, 10, 12, 14, 20]] {
        assert_matches_reference(&all, &cuts);
    }
    assert_matches_at_every_p(&all);
}

#[test]
fn two_edges_over_sixteen_pes_and_the_empty_graph() {
    assert_matches_at_every_p(&symmetric(&[(0, 1, 5)]));
    assert_matches_at_every_p(&[]);
    // Holders in the middle of a run of empty PEs.
    let all = symmetric(&[(0, 1, 5), (2, 9, 3)]);
    assert_matches_reference(&all, &[0, 0, 0, 1, 1, 2, 2, 2, 4, 4]);
}

#[test]
fn adopt_re_bisects_on_a_non_monotone_push_order() {
    // One PE, vertex 7 with backward copies to 0..6 (weight 1, and a
    // duplicate of (7, 3, 1)) and two forward copies behind them.
    let mut slice: Vec<CEdge> = (0..7).map(|a| CEdge::new(7, a, 1, 100 + a)).collect();
    slice.insert(4, CEdge::new(7, 3, 1, 107));
    slice.extend([CEdge::new(7, 8, 1, 108), CEdge::new(7, 9, 1, 109)]);
    slice.sort_unstable();
    let pushes: Vec<CEdge> = [5u64, 2, 6, 0, 3, 3, 1, 4]
        .iter()
        .enumerate()
        .map(|(k, &a)| CEdge::new(7, a, 1, 10 * a + k as u64))
        .collect();
    let out = Machine::run(MachineConfig::new(1), move |comm| {
        let mut graph = DistGraph::establish(comm, slice.clone());
        let mut cursors = graph.segment_cursors();
        let held: Vec<bool> = pushes
            .iter()
            .map(|b| graph.adopt_pair_id(&mut cursors, b))
            .collect();
        // Not placeable here: an absent content between two present
        // ones, one past the segment's end, a weight nobody carries,
        // and a vertex that is no source on this PE.
        let absent = [
            CEdge::new(7, 3, 0, 0),
            CEdge::new(7, 11, 1, 0),
            CEdge::new(7, 2, 9, 0),
            CEdge::new(4, 7, 1, 0),
        ];
        let stray: Vec<bool> = absent
            .iter()
            .map(|b| graph.adopt_pair_id(&mut cursors, b))
            .collect();
        (graph.edges, held, stray)
    });
    let (after, held, stray) = &out.results[0];
    assert!(held.iter().all(|&h| h), "{held:?}");
    assert!(stray.iter().all(|&h| !h), "{stray:?}");
    // Content (7, a, 1) took the least id pushed for it — (7, 3, 1) was
    // pushed 34 and 35, both copies take 34 — and the forward copies
    // were never addressed.
    let ids: Vec<(u64, u64)> = after.iter().map(|e| (e.v, e.id)).collect();
    assert_eq!(
        ids,
        vec![
            (0, 3),
            (1, 16),
            (2, 21),
            (3, 34),
            (3, 34),
            (4, 47),
            (5, 50),
            (6, 62),
            (8, 108),
            (9, 109)
        ]
    );
}

#[test]
fn generated_families_match_the_reference() {
    for config in [
        GraphConfig::Gnm { n: 60, m: 700 },
        GraphConfig::Rgg2D { n: 200, m: 1500 },
        GraphConfig::Rmat { scale: 6, m: 600 },
    ] {
        for p in PES {
            let prepared: Vec<CEdge> = Machine::run(MachineConfig::new(p), move |comm| {
                InputGraph::generate(comm, config, 31).graph.edges
            })
            .results
            .into_iter()
            .flatten()
            .collect();
            let all: Vec<WEdge> = prepared.iter().map(|e| e.wedge()).collect();
            assert_eq!(prepared, reference(&all), "{config:?} at p = {p}");
        }
    }
}

/// `from_sorted_edges`' own charged counters on each rank.
fn prepare_stats(slices: &[Vec<WEdge>], machine: MachineConfig) -> Vec<(u64, u64, u64)> {
    let slices = slices.to_vec();
    Machine::run(machine, move |comm| {
        let before = comm.stats();
        drop(InputGraph::from_sorted_edges(
            comm,
            slices[comm.rank()].clone(),
        ));
        let PeStats {
            messages,
            bytes,
            local_ops,
            ..
        } = comm.stats().since(&before);
        (messages, bytes, local_ops)
    })
    .results
}

#[test]
fn prepare_charges_do_not_depend_on_transport_or_threads() {
    // Big enough that rank 0 pushes more than 2^16 ids to rank 1, the
    // size from which `FlatBuckets::from_dests` buckets in parallel.
    const P: usize = 2;
    let config = GraphConfig::Gnm {
        n: 1 << 13,
        m: 1 << 19,
    };
    let slices = Machine::run(MachineConfig::new(P), move |comm| config.generate(comm, 5)).results;
    let base = prepare_stats(&slices, MachineConfig::new(P).with_threads(1));
    assert!(base.iter().all(|&(messages, ..)| messages > 0));
    let transport = TransportKind::Sockets;
    let got = prepare_stats(&slices, MachineConfig::new(P).with_transport(transport));
    assert_eq!(got, base, "{transport:?}");
    for threads in [2, 8] {
        let got = prepare_stats(&slices, MachineConfig::new(P).with_threads(threads));
        assert_eq!(got, base, "threads_per_pe = {threads}");
    }
}

/// `from_sorted_edges`' charged counters on each rank of a generated
/// input, with the bits of its modeled seconds (one thread per PE: the
/// modeled clock divides local work among a PE's threads).
fn prepare_counters(config: GraphConfig, p: usize) -> Vec<(u64, u64, u64, u64)> {
    Machine::run(MachineConfig::new(p).with_threads(1), move |comm| {
        let edges = config.generate(comm, 5);
        let before = comm.stats();
        drop(InputGraph::from_sorted_edges(comm, edges));
        let s = comm.stats().since(&before);
        (s.messages, s.bytes, s.local_ops, s.modeled_time.to_bits())
    })
    .results
}

#[test]
fn prepare_charges_are_pinned() {
    // Prepare sits inside `kamsta_launch`'s counter window, so these move
    // the launcher's pinned `messages`, `bytes` and `modeled_bits` too.
    let gnm = GraphConfig::Gnm {
        n: 1 << 13,
        m: 1 << 19,
    };
    assert_eq!(
        prepare_counters(gnm, 2),
        vec![
            (7, 4155904, 780333, 4567867252697479558),
            (7, 4155904, 912192, 4568163643452040877),
        ]
    );
    let rgg = GraphConfig::Rgg2D {
        n: 1 << 12,
        m: 1 << 16,
    };
    assert_eq!(
        prepare_counters(rgg, 3),
        vec![
            (13, 14608, 53247, 4548936485889525746),
            (13, 17424, 56117, 4548857585475773676),
            (13, 17424, 54696, 4548971364993220316),
        ]
    );
}

/// What a PE's graph answers through its public accessors: the vertex
/// index, the replicated scalars, the local index of every id in `ids`
/// and the homes of every content in `probes`.
fn structure(g: &DistGraph, ids: &[VertexId], probes: &[WEdge]) -> impl PartialEq + Debug {
    (
        (g.local_vertices().to_vec(), g.segment_offsets().to_vec()),
        (g.n_global, g.m_global, g.same_pe_chance.to_bits()),
        (g.first_shared, g.last_shared, g.id_span()),
        ids.iter().map(|&v| g.local_index(v)).collect::<Vec<_>>(),
        probes
            .iter()
            .map(|e| g.content_homes(e))
            .collect::<Vec<_>>(),
    )
}

/// Prepare `all` cut at `cuts`, each PE's slice in a `Vec` of capacity
/// `cap`, and check on every PE that the prepared graph is what
/// `DistGraph::establish` builds from the PE's slice of the reference: the same edges and the same [`structure`], probed at every
/// id of the span ± 1 (at every source ± 1 where the span is too wide to
/// walk) and at every content of `all`, reversed, and one off in `v` or
/// `w`.
fn assert_structure_matches_establish(all: &[WEdge], cuts: &[usize], cap: Cap) {
    let want = reference(all);
    let (lo, hi) = (
        all.first().map_or(0, |e| e.u),
        all.last().map_or(0, |e| e.u),
    );
    let mut ids: Vec<VertexId> = if hi - lo <= 1 << 16 {
        (lo.saturating_sub(1)..=hi + 1).collect()
    } else {
        all.iter()
            .flat_map(|e| [e.u.saturating_sub(1), e.u, e.u + 1])
            .collect()
    };
    ids.dedup();
    let mut probes: Vec<WEdge> = all
        .iter()
        .flat_map(|e| {
            let off = [WEdge::new(e.u, e.v + 1, e.w), WEdge::new(e.u, e.v, e.w + 1)];
            [*e, e.reversed()].into_iter().chain(off)
        })
        .collect();
    probes.extend([
        WEdge::new(0, 0, 0),
        WEdge::new(u64::MAX, u64::MAX, u32::MAX),
    ]);
    let (all, at) = (all.to_vec(), cuts.to_vec());
    let out = Machine::run(MachineConfig::new(cuts.len() - 1), move |comm| {
        let (lo, hi) = (at[comm.rank()], at[comm.rank() + 1]);
        let prepared = InputGraph::from_sorted_edges(comm, with_cap(&all[lo..hi], cap)).graph;
        let established = DistGraph::establish(comm, want[lo..hi].to_vec());
        let got = structure(&prepared, &ids, &probes);
        let want = structure(&established, &ids, &probes);
        (
            prepared.edges == established.edges,
            got == want,
            format!("{got:?} vs {want:?}"),
        )
    });
    for (r, (edges_equal, equal, shown)) in out.results.into_iter().enumerate() {
        let c = cap(cuts[r + 1] - cuts[r]);
        assert!(
            edges_equal,
            "PE {r} of cuts {cuts:?}, capacity {c}: edges differ"
        );
        assert!(
            equal,
            "PE {r} of cuts {cuts:?}, capacity {c}: prepared vs established {shown}"
        );
    }
}

/// The pinned inputs above: duplicate runs straddling PEs, a segment
/// over three PEs, holders between empty PEs, asymmetric copies.
fn pinned_inputs() -> Vec<(Vec<WEdge>, Vec<Vec<usize>>)> {
    let runs = symmetric(&[
        (0, 5, 1),
        (0, 5, 1),
        (0, 5, 1),
        (0, 5, 1),
        (0, 6, 2),
        (1, 5, 3),
    ]);
    let mut raw: Vec<(u64, u64, u32)> = (0..8).map(|a| (a, 9, 10 + a as u32)).collect();
    raw.extend([(3, 9, 13), (6, 9, 16)]);
    let asymmetric = edges(&[
        (0, 1, 3),
        (1, 0, 3),
        (1, 2, 9),
        (3, 1, 4),
        (0, 4, 1),
        (4, 0, 2),
        (2, 2, 6),
    ]);
    vec![
        (
            runs,
            vec![
                vec![0, 2, 8, 12],
                vec![0, 1, 3, 7, 9, 12],
                (0..=12).collect(),
            ],
        ),
        (
            symmetric(&raw),
            vec![vec![0, 5, 13, 17, 20], vec![0, 10, 12, 14, 20]],
        ),
        (
            symmetric(&[(0, 1, 5), (2, 9, 3)]),
            vec![vec![0, 0, 0, 1, 1, 2, 2, 2, 4, 4]],
        ),
        (asymmetric, vec![]),
        (Vec::new(), vec![]),
    ]
}

#[test]
fn prepared_structure_matches_establish_on_the_reference() {
    for (all, cuts) in pinned_inputs() {
        for p in PES {
            assert_structure_matches_establish(&all, &even_cuts(all.len(), p), EXACT);
        }
        for cuts in cuts {
            assert_structure_matches_establish(&all, &cuts, EXACT);
        }
    }
}

#[test]
fn widening_is_indifferent_to_spare_capacity() {
    for (all, cuts) in pinned_inputs() {
        let want = reference(&all);
        for (name, cap) in SPARE {
            let cuts = PES
                .map(|p| even_cuts(all.len(), p))
                .into_iter()
                .chain(cuts.clone());
            for cuts in cuts {
                assert_eq!(prepare_cut(&all, &cuts, cap), want, "{name}, cuts {cuts:?}");
                assert_structure_matches_establish(&all, &cuts, cap);
            }
        }
    }
}

#[test]
fn widening_the_empty_slice_with_capacity_and_single_edges() {
    let extra: [(&str, Cap); 2] = [
        ("cap = len + 2", |len| len + 2),
        ("cap = len + 3", |len| len + 3),
    ];
    let inputs = [
        Vec::new(),
        edges(&[(0, 1, 5)]),
        edges(&[(1, 0, 5)]),
        symmetric(&[(0, 1, 5)]),
    ];
    for all in inputs {
        let want = reference(&all);
        for (name, cap) in SPARE.into_iter().chain(extra) {
            for p in PES {
                let cuts = even_cuts(all.len(), p);
                assert_eq!(prepare_cut(&all, &cuts, cap), want, "{name}, cuts {cuts:?}");
                assert_structure_matches_establish(&all, &cuts, cap);
            }
        }
    }
}

#[test]
fn prepared_structure_matches_establish_on_strided_ids() {
    // Sources k·1000 and k·2^40 are too sparse for the direct id table,
    // so every local-index lookup, the prepare's own included, bisects
    // the vertex list.
    for stride in [1000u64, 1 << 40] {
        for (all, cuts) in pinned_inputs() {
            let mut all: Vec<WEdge> = all
                .iter()
                .map(|e| WEdge::new(e.u * stride, e.v * stride, e.w))
                .collect();
            all.sort_unstable();
            assert_matches_at_every_p(&all);
            for p in PES {
                assert_structure_matches_establish(&all, &even_cuts(all.len(), p), EXACT);
            }
            for cuts in cuts {
                assert_matches_reference(&all, &cuts);
                assert_structure_matches_establish(&all, &cuts, EXACT);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The draws of `ids_equal_the_sequential_reference`, at stride 1,
    /// 1000 or 2^40 and with one of the `SPARE` capacities, against the
    /// structure `establish` builds.
    #[test]
    fn structure_equals_establish_on_drawn_cuts(
        raw in prop::collection::vec((0u64..12, 0u64..12, 0u32..3, 0u8..4), 0..120),
        cut_seeds in prop::collection::vec(0usize..1000, 15..16),
        stride_pick in 0usize..3,
        cap_pick in 0usize..SPARE.len(),
    ) {
        let stride = [1, 1000, 1 << 40][stride_pick];
        let cap = SPARE[cap_pick].1;
        let directed: Vec<(u64, u64, u32)> = raw
            .iter()
            .flat_map(|&(u, v, w, dirs)| {
                let fwd = (dirs != 1).then_some((u * stride, v * stride, w));
                let back = (dirs != 2).then_some((v * stride, u * stride, w));
                fwd.into_iter().chain(back)
            })
            .collect();
        let all = edges(&directed);
        for p in PES {
            assert_structure_matches_establish(&all, &even_cuts(all.len(), p), cap);
            let mut cuts: Vec<usize> = cut_seeds[..p - 1]
                .iter()
                .map(|s| s % (all.len() + 1))
                .collect();
            cuts.extend([0, all.len()]);
            cuts.sort_unstable();
            assert_structure_matches_establish(&all, &cuts, cap);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Few vertices and fewer weights, so contents repeat; directions are
    /// drawn independently, so some copies have no twin; cut points are
    /// drawn too, so runs and segments straddle PEs and PEs stay empty.
    #[test]
    fn ids_equal_the_sequential_reference(
        raw in prop::collection::vec((0u64..12, 0u64..12, 0u32..3, 0u8..4), 0..120),
        cut_seeds in prop::collection::vec(0usize..1000, 15..16),
    ) {
        let directed: Vec<(u64, u64, u32)> = raw
            .iter()
            .flat_map(|&(u, v, w, dirs)| {
                let fwd = (dirs != 1).then_some((u, v, w));
                let back = (dirs != 2).then_some((v, u, w));
                fwd.into_iter().chain(back)
            })
            .collect();
        let all = edges(&directed);
        let want = reference(&all);
        for p in PES {
            prop_assert_eq!(&prepare_cut(&all, &even_cuts(all.len(), p), EXACT), &want);
            let mut cuts: Vec<usize> = cut_seeds[..p - 1]
                .iter()
                .map(|s| s % (all.len() + 1))
                .collect();
            cuts.extend([0, all.len()]);
            cuts.sort_unstable();
            prop_assert_eq!(&prepare_cut(&all, &cuts, EXACT), &want);
        }
    }
}
