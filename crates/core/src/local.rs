//! Local preprocessing (Sec. IV-A): contract purely local subtrees before
//! the first communication round. The paper runs it on "partitioned
//! graphs with many local edges"; the gate reads the [`excess_locality`]
//! of the partition — the fraction of PE-internal edges beyond the
//! `Σᵢ (mᵢ/m)²` (about `1/p`) that the block partition gives a graph
//! without locality — against 0.25. GNM and RMAT read about 0 at every
//! `p ≥ 2` (|e| ≤ 0.05) and skip it; grids, road-like graphs, RGGs and
//! RHG read well above it and take it (3D-RGG is the lowest, 0.56 on 2^12
//! vertices at `p = 16`); on one PE every graph takes it.

use crate::dist::MstConfig;
use crate::seq::UnionFind;
use kamsta_comm::Comm;
use kamsta_graph::{CEdge, DistGraph, VertexId, Weight};

/// Output of the local preprocessing pass.
#[derive(Clone, Debug)]
pub struct PreprocessOutcome {
    /// Local edges surviving contraction (intra-component edges removed),
    /// in input order and still with original endpoints — the round that
    /// follows rewrites them
    /// ([`relabel_or_defer`](crate::dist::relabel_or_defer)). Empty when
    /// the gate rejects (`applied == false`): the caller keeps using its
    /// own graph, nothing is cloned.
    pub edges: Vec<CEdge>,
    /// The survivors' vertex segments: local vertex `i`'s surviving edges
    /// are `edges[offsets[i]..offsets[i + 1]]` (one entry more than the
    /// local vertices). Empty when the gate rejects.
    pub offsets: Vec<usize>,
    /// Local component label of every local vertex, by local index: the
    /// minimum member id of its component (the vertex itself when it is
    /// shared or was never merged). Empty when the gate rejects.
    pub labels: Vec<VertexId>,
    /// True when the locality gate accepted and contraction ran.
    pub applied: bool,
    /// Ids of local edges proven to be MST edges by the cut property.
    pub mst_edge_ids: Vec<u64>,
}

/// Excess locality ([`excess_locality`]) at or above which local
/// contraction runs: the high-locality gate of Sec. IV-A. Read off a
/// sweep of the seven families at `2 ≤ p ≤ 16` (EXPERIMENTS.md "The gate
/// reads locality beyond the partition's"): GNM and RMAT read |e| ≤ 0.05,
/// the geometric families 0.56 and more, so both sides clear it by 0.2
/// or more.
const PREPROCESS_MIN_EXCESS_LOCALITY: f64 = 0.25;

/// The local indices of the vertices that are local and not shared —
/// the *contractible* ones of [`local_contract`]. Only the slice's first
/// and last vertex can be shared, so they form one range.
fn contractible(g: &DistGraph) -> std::ops::Range<usize> {
    let n = g.local_vertices().len();
    let lo = usize::from(g.first_shared);
    lo..(n - usize::from(g.last_shared)).max(lo)
}

/// The edges of `g` whose source and destination are both contractible,
/// and the γ units their count reads. Under the symmetric closure every
/// destination between two sources of this slice is a source of it, so a
/// contractible vertex's internal edges are its destinations between the
/// first and the last contractible vertex. A segment (sorted by
/// destination) whose two ends lie in that range counts whole — the
/// common case on a local graph — and only a straddling one takes two
/// binary searches: one unit per contractible vertex, plus `⌈log₂ len⌉`
/// per straddling segment of `len` edges.
fn internal_edges(g: &DistGraph) -> (usize, u64) {
    let verts = g.local_vertices();
    let offsets = g.segment_offsets();
    let inner = contractible(g);
    let mut internal = 0usize;
    let mut ops = inner.len() as u64;
    if !inner.is_empty() {
        let (first, last) = (verts[inner.start], verts[inner.end - 1]);
        for a in inner {
            // Segments are non-empty and sorted by destination.
            let seg = &g.edges[offsets[a]..offsets[a + 1]];
            internal += if first <= seg[0].v && seg[seg.len() - 1].v <= last {
                seg.len()
            } else {
                ops += u64::from(kamsta_comm::ceil_log2(seg.len()));
                let from = seg.partition_point(|e| e.v < first);
                seg[from..].partition_point(|e| e.v <= last)
            };
        }
    }
    (internal, ops)
}

/// The locality of `g` beyond what its partition alone gives a graph —
/// the quantity the Sec. IV-A gate of [`local_contract`] reads. With `f`
/// the fraction of edges whose endpoints are both contractible on one PE
/// and `f₀ = Σᵢ (mᵢ/m)²` (`DistGraph::same_pe_chance`), it returns
/// `e = (f − f₀)/(1 − f₀)`. In a symmetric edge list a random edge's
/// destination lies on PE `i` with probability `mᵢ/m`, so a graph without
/// locality reads `f ≈ f₀` (`1/p` for equal slices; RMAT's unequal ones
/// need no vertex count) and `e ≈ 0` at every `p`; `e = 1` when no edge
/// leaves its PE's contractible vertices, and when one PE holds every
/// edge (always at `p = 1`). 0 for the empty graph. Collective (one
/// allreduce); the same value on every PE.
///
/// The count reads segment ends, not the slice (`internal_edges`), and
/// γ is what it reads.
pub fn excess_locality(comm: &Comm, g: &DistGraph) -> f64 {
    locality(comm, g).1
}

/// This PE's [`internal_edges`] and the [`excess_locality`] of `g`.
/// Collective.
fn locality(comm: &Comm, g: &DistGraph) -> (usize, f64) {
    let (internal, ops) = internal_edges(g);
    comm.charge_local(ops);
    let all = comm.allreduce_sum(internal as u64);
    let f0 = g.same_pe_chance;
    let excess = match g.m_global {
        0 => 0.0,
        _ if f0 >= 1.0 => 1.0,
        m => (all as f64 / m as f64 - f0) / (1.0 - f0),
    };
    (internal, excess)
}

/// A live edge of [`contract_local_subtrees`]: the current components of
/// its endpoints, its position in the slice and its weight (16 bytes).
/// An internal edge is live once, as its copy from the smaller local
/// index; an edge that leaves the contractible set, as its one copy here.
#[derive(Clone, Copy)]
struct LiveEdge {
    /// Component of the source, a contractible vertex's.
    a: u32,
    /// Component of the destination; the sentinel `n` (the number of
    /// local vertices) when the destination is not contractible here.
    b: u32,
    /// Index into `g.edges`.
    pos: u32,
    w: Weight,
}

/// A component's lightest live edge so far this round.
#[derive(Clone, Copy)]
struct Lightest {
    w: Weight,
    /// Index into `g.edges`: the id there breaks a weight tie and is the
    /// one emitted.
    pos: u32,
    /// The component across the edge (or the not-contractible sentinel).
    to: u32,
}

/// Keep the edge at `pos` of `edges`, of weight `w`, which leads to
/// component `to`, if it is lighter by `(w, id)` than what `slot` holds.
/// The ids are read only when the weights tie.
#[inline]
fn offer(slot: &mut Option<Lightest>, edges: &[CEdge], w: Weight, pos: u32, to: u32) {
    let lighter =
        |l: Lightest| w < l.w || (w == l.w && edges[pos as usize].id < edges[l.pos as usize].id);
    if slot.is_none_or(lighter) {
        *slot = Some(Lightest { w, pos, to });
    }
}

/// Local preprocessing (Sec. IV-A) behind its locality gate: the pass
/// [`contract_local_subtrees`] runs when the [`excess_locality`] of `g`
/// reaches 0.25 (and `cfg.preprocessing` is set); otherwise nothing is
/// built and the outcome is empty with `applied == false`. The gate is
/// global, so the PEs take or skip the pass together. Random graphs read
/// an excess near 0 and skip it at every `p ≥ 2`; grids, RGGs and RHG
/// take it (module doc). Collective.
pub fn local_contract(comm: &Comm, g: &DistGraph, cfg: &MstConfig) -> PreprocessOutcome {
    let (internal, excess) = locality(comm, g);
    if !(cfg.preprocessing && excess >= PREPROCESS_MIN_EXCESS_LOCALITY) {
        return PreprocessOutcome {
            edges: Vec::new(),
            offsets: Vec::new(),
            labels: Vec::new(),
            applied: false,
            mst_edge_ids: Vec::new(),
        };
    }
    contract_subtrees(comm, g, internal)
}

/// Contract purely local subtrees (Sec. IV-A), whatever the locality: the
/// pass [`local_contract`] runs once its gate accepts. A vertex is
/// *contractible* when it is local and not shared, so its full adjacency
/// is on this PE and its minimum edge is a valid global minimum (cut
/// property). Components grow only through contractible vertices. Always
/// `applied`. Local: it communicates nothing.
///
/// **The freeze rule.** Rounds are synchronous: every open component
/// takes the lightest edge leaving it, over the full adjacency of its
/// members. If that edge stays inside the contractible set the two
/// components merge and the edge is an MST edge; if it leaves the set
/// (ghost or shared destination) the component *sits out* — it is
/// skipped when minima are taken — until a merge absorbs it into a new
/// component, which is open again. The pass stops when a round merges
/// nothing. Every component's lightest outgoing edge then leaves the
/// contractible set (or it has none), and since edge weights are totally
/// ordered by `(w, id)` that fixpoint is unique: the outcome does not
/// depend on the order components are visited in or on how the
/// union-find picks its roots.
///
/// **Containers.** Everything is keyed by the local index of
/// [`DistGraph::local_vertices`]. One *resolve scan* reads the slice: it
/// resolves each destination to a local index, offers every copy to its
/// source — round 1's minima, since every vertex is a component and its
/// segment holds all its edges — and writes the *live* list, 16 bytes an
/// entry, reserved from the `internal_edges` count: one entry per
/// internal edge, its copy from the smaller local index, and one per edge
/// that leaves the contractible set. A later round reads only the live
/// list: it refreshes both endpoint labels from a flat array, drops the
/// edges that became internal (for good) and offers each remaining edge
/// to both its components while they are open. The weight rides in the
/// entry, so the slice is read again only for an id, to break a weight
/// tie or to emit it. The list that remains names every survivor once.
/// One walk writes them in input order: the live edges, and in each
/// segment that a surviving internal edge enters, the back copies whose
/// ends lie in different components.
///
/// γ is the resolve scan (one unit per edge of the slice), plus the live
/// edges each later round scans, plus the survivors written. The back
/// copies the walk reads in an entered segment lie in the slice the
/// resolve scan charged. The count of internal edges is the gate's,
/// charged by [`excess_locality`]; a call on its own counts them again,
/// uncharged.
pub fn contract_local_subtrees(comm: &Comm, g: &DistGraph) -> PreprocessOutcome {
    contract_subtrees(comm, g, internal_edges(g).0)
}

/// [`contract_local_subtrees`] with this PE's [`internal_edges`] counted
/// already: they size the live list.
fn contract_subtrees(comm: &Comm, g: &DistGraph, internal: usize) -> PreprocessOutcome {
    comm.charge_local(g.edges.len() as u64);
    let edges = &g.edges[..];
    let verts = g.local_vertices();
    let offsets = g.segment_offsets();
    let n = verts.len();
    assert!(edges.len() < u32::MAX as usize, "edge positions are u32");
    let std::ops::Range { start: lo, end: hi } = contractible(g);
    let none = n as u32;

    // Resolve every edge with a contractible source to local indices —
    // the source is the segment number, the destination one lookup. The
    // same pass is the first round's scan: every vertex is a component,
    // its segment holds all its edges, self-loops are internal already.
    // The sentinel exceeds every index, so `b > a` keeps the forward
    // copies and every edge that leaves the set: all copies less at least
    // half the internal ones.
    let mut live: Vec<LiveEdge> = Vec::with_capacity(offsets[hi] - offsets[lo] - internal / 2);
    let mut lightest: Vec<Option<Lightest>> = vec![None; n];
    for a in lo..hi {
        for pos in offsets[a]..offsets[a + 1] {
            let e = &edges[pos];
            let b = match g.local_index(e.v) {
                Some(b) if (lo..hi).contains(&b) => b as u32,
                _ => none,
            };
            if b == a as u32 {
                continue;
            }
            let pos = pos as u32;
            offer(&mut lightest[a], edges, e.w, pos, b);
            if b > a as u32 {
                live.push(LiveEdge {
                    a: a as u32,
                    b,
                    pos,
                    w: e.w,
                });
            }
        }
    }

    let mut uf = UnionFind::new(n);
    // Current component of every vertex that was a component root when
    // the previous round ended — the only indices live edges carry. The
    // extra slots map the not-contractible sentinel to itself and keep it
    // out of every round.
    let mut label: Vec<u32> = (0..=none).collect();
    let mut roots: Vec<u32> = (lo as u32..hi as u32).collect();
    let mut sits_out = vec![false; n + 1];
    sits_out[n] = true;
    let mut mst_edge_ids: Vec<u64> = Vec::new();
    loop {
        // Merge along the minima. The mutual minimum of two components is
        // one undirected edge: its second union fails and emits nothing.
        let emitted = mst_edge_ids.len();
        for &c in &roots {
            // Nothing recorded: the component sits out or has no edge left.
            let Some(best) = lightest[c as usize].take() else {
                continue;
            };
            if best.to == none {
                sits_out[c as usize] = true;
            } else if uf.union(c, best.to) {
                mst_edge_ids.push(edges[best.pos as usize].id);
            }
        }
        if mst_edge_ids.len() == emitted {
            break;
        }
        for &c in &roots {
            let root = uf.find(c);
            label[c as usize] = root;
            if root != c {
                // `root` absorbed `c`: a new component, open again.
                sits_out[root as usize] = false;
            }
        }
        roots.retain(|&c| label[c as usize] == c);

        // One pass over the live edges: refresh both labels, drop what
        // became internal, offer the rest to both open sides.
        comm.charge_local(live.len() as u64);
        let mut kept = 0usize;
        for k in 0..live.len() {
            let LiveEdge { a, b, pos, w } = live[k];
            let (a, b) = (label[a as usize], label[b as usize]);
            if a == b {
                continue;
            }
            live[kept] = LiveEdge { a, b, pos, w };
            kept += 1;
            if !sits_out[a as usize] {
                offer(&mut lightest[a as usize], edges, w, pos, b);
            }
            if !sits_out[b as usize] {
                offer(&mut lightest[b as usize], edges, w, pos, a);
            }
        }
        live.truncate(kept);
    }

    // The rounds' state is dead: release it before the outcome is built.
    drop((lightest, label, roots, sits_out));

    // Every vertex's component, and its representative: the minimum
    // member, which an ascending walk meets first.
    let comp: Vec<u32> = (0..n as u32).map(|i| uf.find(i)).collect();
    let mut rep: Vec<VertexId> = vec![VertexId::MAX; n];
    let labels: Vec<VertexId> = (0..n)
        .map(|i| {
            let r = comp[i] as usize;
            if rep[r] == VertexId::MAX {
                rep[r] = verts[i];
            }
            rep[r]
        })
        .collect();

    // Survivors in input order, one walk: a shared first vertex's edges,
    // then segment by segment the live edges and the surviving back
    // copies, a shared last vertex's edges. The back copy of `a → b`
    // (`a < b`) lies in the later segment `b`, among its destinations from
    // the first contractible vertex up to `verts[b]`: copying a surviving
    // forward edge marks `b`, and only a marked segment has that range
    // read, keeping the copies whose ends lie in different components.
    let back = live.iter().filter(|l| l.b != none).count();
    let survivors = offsets[lo] + live.len() + back + (edges.len() - offsets[hi]);
    comm.charge_local(survivors as u64);
    let mut out: Vec<CEdge> = Vec::with_capacity(survivors);
    let mut seg_offsets: Vec<usize> = Vec::with_capacity(n + 1);
    out.extend_from_slice(&edges[..offsets[lo]]);
    seg_offsets.extend_from_slice(&offsets[..=lo]);
    let mut entered = vec![false; n];
    let mut live = live.iter().peekable();
    let mut live_below = |bound: usize, out: &mut Vec<CEdge>, entered: &mut [bool]| {
        while let Some(l) = live.next_if(|l| (l.pos as usize) < bound) {
            let e = &edges[l.pos as usize];
            out.push(*e);
            if l.b != none {
                let b = g
                    .local_index(e.v)
                    .expect("an internal destination is local");
                entered[b] = true;
            }
        }
    };
    for x in lo..hi {
        let (mut from, end) = (offsets[x], offsets[x + 1]);
        if entered[x] {
            // The segment's destinations ascend: the ghosts below the
            // contractible range (live edges), then the back copies.
            while from < end && edges[from].v < verts[lo] {
                from += 1;
            }
            live_below(from, &mut out, &mut entered);
            for e in edges[from..end].iter().take_while(|e| e.v < verts[x]) {
                let y = g
                    .local_index(e.v)
                    .expect("a back copy leads to a local vertex");
                if comp[y] != comp[x] {
                    out.push(*e);
                }
            }
        }
        live_below(end, &mut out, &mut entered);
        seg_offsets.push(out.len());
    }
    debug_assert_eq!(out.len() + edges.len() - offsets[hi], survivors);
    let shift = out.len();
    out.extend_from_slice(&edges[offsets[hi]..]);
    seg_offsets.extend(offsets[hi + 1..].iter().map(|&o| shift + (o - offsets[hi])));

    PreprocessOutcome {
        edges: out,
        offsets: seg_offsets,
        labels,
        applied: true,
        mst_edge_ids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamsta_comm::{Machine, MachineConfig};
    use kamsta_graph::InputGraph;

    #[test]
    fn a_skipping_gate_charges_what_its_count_reads() {
        // GNM's gate skips at every p ≥ 2. Its count reads one segment's
        // ends per contractible vertex and binary-searches the segments
        // that reach past the contractible range: that, not the slice's
        // length, is its γ.
        for p in [2usize, 3] {
            let out = Machine::run(MachineConfig::new(p), |comm| {
                let gnm = kamsta_graph::GraphConfig::Gnm {
                    n: 1 << 10,
                    m: 1 << 14,
                };
                let input = InputGraph::generate(comm, gnm, 5);
                let g = &input.graph;
                let before = comm.stats().local_ops;
                let pre = local_contract(comm, g, &MstConfig::default());
                let charged = comm.stats().local_ops - before;
                let verts = g.local_vertices();
                let inner = usize::from(g.first_shared)..verts.len() - usize::from(g.last_shared);
                let (first, last) = (verts[inner.start], verts[inner.end - 1]);
                let searched: u64 = g
                    .vertex_segments()
                    .filter(|&(v, _)| first <= v && v <= last)
                    .map(|(_, range)| &g.edges[range])
                    .filter(|seg| seg.iter().any(|e| e.v < first || last < e.v))
                    .map(|seg| u64::from(kamsta_comm::ceil_log2(seg.len())))
                    .sum();
                (
                    pre.applied,
                    charged,
                    inner.len() as u64 + searched,
                    g.edges.len(),
                )
            });
            for (rank, (applied, charged, expect, len)) in out.results.into_iter().enumerate() {
                assert!(!applied, "p = {p}, rank {rank}: the gate skips");
                assert_eq!(charged, expect, "p = {p}, rank {rank}: the count's reads");
                assert!(
                    2 * charged < len as u64,
                    "p = {p}, rank {rank}: {charged} of {len}"
                );
            }
        }
    }

    /// The Sec. IV-A pass as it stood with both copies of every internal
    /// edge live, each visit reading its record from the slice: the
    /// reference [`contract_local_subtrees`] must reproduce exactly.
    mod local_contract_oracle {
        use super::super::*;
        use kamsta_comm::{Machine, MachineConfig};
        use kamsta_graph::io::{distribute_from_root, symmetrize};
        use kamsta_graph::{GraphConfig, InputGraph, WEdge};

        #[derive(Clone, Copy)]
        struct LiveEdge {
            a: u32,
            b: u32,
            pos: u32,
        }

        #[derive(Clone, Copy)]
        struct Lightest {
            w: Weight,
            id: u64,
            to: u32,
        }

        fn offer(slot: &mut Option<Lightest>, e: &CEdge, to: u32) {
            if slot.is_none_or(|l| (e.w, e.id) < (l.w, l.id)) {
                *slot = Some(Lightest {
                    w: e.w,
                    id: e.id,
                    to,
                });
            }
        }

        /// The two-copy pass, and for every round after the resolve scan
        /// how many of its live edges are a forward copy (source below
        /// destination by local index) or leave the contractible set —
        /// the one-copy live list of that round.
        fn reference(g: &DistGraph) -> (PreprocessOutcome, Vec<usize>) {
            let verts = g.local_vertices();
            let offsets = g.segment_offsets();
            let n = verts.len();
            let std::ops::Range { start: lo, end: hi } = contractible(g);
            let none = n as u32;

            let mut live: Vec<LiveEdge> = Vec::new();
            // Positions of the forward copies and of the edges that leave.
            let mut forward: Vec<u32> = Vec::new();
            let mut lightest: Vec<Option<Lightest>> = vec![None; n];
            for a in lo..hi {
                for pos in offsets[a]..offsets[a + 1] {
                    let e = &g.edges[pos];
                    let b = match g.local_index(e.v) {
                        Some(b) if (lo..hi).contains(&b) => b as u32,
                        _ => none,
                    };
                    if b == a as u32 {
                        continue;
                    }
                    if b > a as u32 {
                        forward.push(pos as u32);
                    }
                    live.push(LiveEdge {
                        a: a as u32,
                        b,
                        pos: pos as u32,
                    });
                    offer(&mut lightest[a], e, b);
                }
            }

            let mut uf = UnionFind::new(n);
            let mut label: Vec<u32> = (0..=none).collect();
            let mut roots: Vec<u32> = (lo as u32..hi as u32).collect();
            let mut sits_out = vec![false; n];
            let mut mst_edge_ids: Vec<u64> = Vec::new();
            let mut one_copy_live = Vec::new();
            loop {
                let emitted = mst_edge_ids.len();
                for &c in &roots {
                    let Some(best) = lightest[c as usize].take() else {
                        continue;
                    };
                    if best.to == none {
                        sits_out[c as usize] = true;
                    } else if uf.union(c, best.to) {
                        mst_edge_ids.push(best.id);
                    }
                }
                if mst_edge_ids.len() == emitted {
                    break;
                }
                for &c in &roots {
                    let root = uf.find(c);
                    label[c as usize] = root;
                    if root != c {
                        sits_out[root as usize] = false;
                    }
                }
                roots.retain(|&c| label[c as usize] == c);

                let one_copy = live
                    .iter()
                    .filter(|l| forward.binary_search(&l.pos).is_ok());
                one_copy_live.push(one_copy.count());
                let mut kept = 0usize;
                for k in 0..live.len() {
                    let LiveEdge { a, b, pos } = live[k];
                    let (a, b) = (label[a as usize], label[b as usize]);
                    if a == b {
                        continue;
                    }
                    live[kept] = LiveEdge { a, b, pos };
                    kept += 1;
                    if !sits_out[a as usize] {
                        offer(&mut lightest[a as usize], &g.edges[pos as usize], b);
                    }
                }
                live.truncate(kept);
            }

            let mut rep: Vec<VertexId> = vec![VertexId::MAX; n];
            let labels: Vec<VertexId> = (0..n)
                .map(|i| {
                    let r = uf.find(i as u32) as usize;
                    if rep[r] == VertexId::MAX {
                        rep[r] = verts[i];
                    }
                    rep[r]
                })
                .collect();

            let mut edges: Vec<CEdge> = Vec::new();
            let mut seg_offsets: Vec<usize> = Vec::new();
            edges.extend_from_slice(&g.edges[..offsets[lo]]);
            seg_offsets.extend_from_slice(&offsets[..=lo]);
            let mut live = live.iter().peekable();
            for &end in &offsets[lo + 1..=hi] {
                while let Some(l) = live.next_if(|l| (l.pos as usize) < end) {
                    edges.push(g.edges[l.pos as usize]);
                }
                seg_offsets.push(edges.len());
            }
            let shift = edges.len();
            edges.extend_from_slice(&g.edges[offsets[hi]..]);
            seg_offsets.extend(offsets[hi + 1..].iter().map(|&o| shift + (o - offsets[hi])));
            let outcome = PreprocessOutcome {
                edges,
                offsets: seg_offsets,
                labels,
                applied: true,
                mst_edge_ids,
            };
            (outcome, one_copy_live)
        }

        enum Source {
            Generated(GraphConfig),
            Edges(Vec<WEdge>),
        }

        /// One PE's run of both passes on the same prepared slice.
        struct Run {
            /// Where the run took place, for messages.
            at: String,
            pass: PreprocessOutcome,
            reference: PreprocessOutcome,
            /// The γ units the pass charged.
            charged: u64,
            /// The γ units it should charge: the resolve scan (the slice),
            /// the one-copy live list of every later round, the survivors.
            formula: u64,
            first_shared: bool,
            last_shared: bool,
            slice: usize,
        }

        fn run(what: &str, p: usize, source: &Source) -> Vec<Run> {
            let out = Machine::run(MachineConfig::new(p), |comm| {
                let slice = match source {
                    Source::Generated(config) => config.generate(comm, 11),
                    Source::Edges(all) => {
                        distribute_from_root(comm, (comm.rank() == 0).then(|| all.clone()))
                    }
                };
                let g = InputGraph::from_sorted_edges(comm, slice).graph;
                let before = comm.stats().local_ops;
                let pass = contract_local_subtrees(comm, &g);
                let charged = comm.stats().local_ops - before;
                let (reference, rounds) = reference(&g);
                let formula = g.edges.len() + rounds.iter().sum::<usize>() + reference.edges.len();
                Run {
                    at: format!("{what}, p = {p}, rank {}", comm.rank()),
                    pass,
                    reference,
                    charged,
                    formula: formula as u64,
                    first_shared: g.first_shared,
                    last_shared: g.last_shared,
                    slice: g.edges.len(),
                }
            });
            out.results
        }

        const PES: [usize; 4] = [1, 2, 3, 5];

        /// `m` random undirected edges on `n` vertices, all of weight 1,
        /// with `|u − v| ≤ band`: every comparison is an id tie-break.
        fn equal_weights(n: u64, m: u64, band: u64, seed: u64) -> Vec<WEdge> {
            let mix = |k: u64| kamsta_graph::hash::mix64(seed << 32 | k);
            let pairs = (0..m)
                .map(|k| {
                    let u = mix(2 * k) % n;
                    WEdge::new(u, (u + 1 + mix(2 * k + 1) % band).min(n - 1), 1)
                })
                .filter(|e| e.u != e.v)
                .collect();
            symmetrize(pairs)
        }

        /// Every input the oracle runs, at every `p` of [`PES`].
        fn every_run() -> Vec<Run> {
            let families = [
                GraphConfig::Grid2D { rows: 13, cols: 17 },
                GraphConfig::Rgg2D { n: 512, m: 4096 },
                GraphConfig::Rgg3D { n: 512, m: 4096 },
                GraphConfig::Rhg {
                    n: 512,
                    m: 4096,
                    gamma: 3.0,
                },
                GraphConfig::RoadLike { rows: 13, cols: 17 },
                GraphConfig::Gnm { n: 128, m: 1024 },
                GraphConfig::Rmat { scale: 7, m: 1024 },
            ];
            let mut sources: Vec<(String, Source)> = families
                .into_iter()
                .map(|config| (config.family().to_string(), Source::Generated(config)))
                .collect();
            for seed in 0..3 {
                let banded = equal_weights(300, 1200, 6, seed);
                sources.push((
                    format!("equal weights, banded, seed {seed}"),
                    Source::Edges(banded),
                ));
                let unbanded = equal_weights(80, 320, 80, seed);
                sources.push((
                    format!("equal weights, seed {seed}"),
                    Source::Edges(unbanded),
                ));
            }
            // Every edge joins {0..8} to {8..16}: at p = 2 each side is one
            // PE and no edge is internal.
            let bipartite = (0..8u64)
                .flat_map(|u| (8..16u64).map(move |v| WEdge::new(u, v, (u * v % 7 + 1) as Weight)))
                .collect();
            sources.push((
                "bipartite".to_string(),
                Source::Edges(symmetrize(bipartite)),
            ));
            let mut runs = Vec::new();
            for (what, source) in &sources {
                for p in PES {
                    runs.extend(run(what, p, source));
                }
            }
            runs
        }

        #[test]
        fn the_one_copy_pass_reproduces_the_two_copy_pass() {
            let runs = every_run();
            for r in &runs {
                let (pass, want) = (&r.pass, &r.reference);
                assert!(pass.applied, "{}", r.at);
                assert_eq!(pass.labels, want.labels, "{}: labels", r.at);
                assert_eq!(pass.edges, want.edges, "{}: survivors", r.at);
                assert_eq!(pass.offsets, want.offsets, "{}: segment offsets", r.at);
                let mut ids = pass.mst_edge_ids.clone();
                let mut want_ids = want.mst_edge_ids.clone();
                ids.sort_unstable();
                want_ids.sort_unstable();
                assert_eq!(ids, want_ids, "{}: MSF ids", r.at);
            }
            // The inputs reach every shape the pass distinguishes.
            let merged = |r: &&Run| !r.pass.mst_edge_ids.is_empty();
            assert!(runs.iter().filter(merged).any(|r| r.first_shared));
            assert!(runs.iter().filter(merged).any(|r| r.last_shared));
            let nothing: Vec<&Run> = runs
                .iter()
                .filter(|r| r.at.starts_with("bipartite, p = 2"))
                .collect();
            assert_eq!(nothing.len(), 2);
            for r in nothing {
                assert!(r.pass.mst_edge_ids.is_empty(), "{}: nothing merges", r.at);
                assert_eq!(r.pass.edges.len(), r.slice, "{}: everything survives", r.at);
            }
            let everything: Vec<&Run> = runs.iter().filter(|r| r.at.contains("p = 1,")).collect();
            assert_eq!(everything.len(), 14);
            for r in everything {
                assert!(r.pass.edges.is_empty(), "{}: nothing survives", r.at);
            }
        }

        #[test]
        fn the_pass_charges_its_scans_and_survivors() {
            for r in every_run() {
                assert_eq!(r.charged, r.formula, "{}: γ units", r.at);
            }
        }
    }
}
