//! A Borůvka round up to `REDISTRIBUTE` (Sec. IV): `MIN EDGES`, `CONTRACT
//! COMPONENTS` (Sec. IV-B) and the label exchange plus `RELABEL` (Sec.
//! IV-C). Where the label runs (adjacent segments of one component) are
//! long, nothing is rewritten here: the edges wait, with their labels and
//! the round's one label table, for `REDISTRIBUTE`'s prefilter. Elsewhere
//! [`relabel`] writes the relabelled slice.

use crate::dist::{DedupStrategy, MstConfig};
use crate::prefilter::{lightest_per_label_pair, prefilter_pairs, segment_table};
use crate::pull::{dense_width, local_or_self, pull, pull_sorted, pull_values, IdTable, Pulled};
use kamsta_comm::Comm;
use kamsta_graph::{CEdge, DistGraph, VertexId};
use kamsta_sort::Sorted;
use std::borrow::Cow;

/// A boundary vertex's locally lightest edge — the candidate `MIN EDGES`
/// allgathers so every holder of a shared vertex learns the same winner.
#[derive(Clone, Copy, Debug)]
pub struct MinEdge {
    /// The selecting vertex (a source on the sending PE).
    pub v: VertexId,
    /// Its lightest incident edge there, in the unique-weight order.
    pub edge: CEdge,
}

/// Wire format: fixed-width `v` then the `CEdge` field walk (36 bytes).
impl kamsta_comm::Wire for MinEdge {
    fn wire_write(&self, out: &mut Vec<u8>) {
        self.v.wire_write(out);
        self.edge.wire_write(out);
    }
    fn wire_read(r: &mut kamsta_comm::WireReader<'_>) -> Result<Self, kamsta_comm::WireError> {
        Ok(Self {
            v: VertexId::wire_read(r)?,
            edge: CEdge::wire_read(r)?,
        })
    }
    #[inline]
    fn wire_min_size() -> usize {
        8 + <CEdge as kamsta_comm::Wire>::wire_min_size()
    }
}

/// Output of one `CONTRACT COMPONENTS` round.
#[derive(Clone, Debug)]
pub struct ContractOutcome {
    /// Component label (root vertex) of every vertex local to this PE,
    /// by local index ([`DistGraph::local_vertices`] order).
    pub labels: Vec<VertexId>,
    /// Ids of the input edges this PE's owned vertices contributed to the
    /// MST this round (each undirected MST edge emitted exactly once
    /// machine-wide).
    pub mst_edge_ids: Vec<u64>,
}

/// Select each local vertex's globally lightest incident edge in the
/// unique-weight total order (Sec. IV: `MIN EDGES`), by local index;
/// `None` for a vertex with nothing but self-loops. For vertices whose
/// edge range spans a PE boundary, local candidates are merged through an
/// allgather so every holder learns the same winner. Collective.
pub fn min_edges(comm: &Comm, g: &DistGraph) -> Vec<Option<CEdge>> {
    comm.charge_local(g.edges.len() as u64);
    let mut sels: Vec<Option<CEdge>> = g
        .vertex_segments()
        .map(|(_, range)| {
            g.edges[range]
                .iter()
                .filter(|e| !e.is_self_loop())
                .min_by_key(|e| (e.w, e.id))
                .copied()
        })
        .collect();
    // Merge boundary-vertex candidates machine-wide (at most p − 1
    // distinct shared vertices exist, Sec. II-B). Only the slice's first
    // and last vertex can be shared.
    let verts = g.local_vertices();
    let boundary = [0, verts.len().saturating_sub(1)];
    let shared_cands: Vec<MinEdge> = boundary[..verts.len().min(2)]
        .iter()
        .filter_map(|&i| {
            let edge = sels[i].filter(|_| g.is_shared(verts[i]))?;
            Some(MinEdge { v: verts[i], edge })
        })
        .collect();
    for cand in comm.allgatherv(shared_cands) {
        if !g.is_shared(cand.v) {
            continue;
        }
        let i = g.local_index(cand.v).expect("a shared vertex is local");
        if sels[i].is_none_or(|cur| (cand.edge.w, cand.edge.id) < (cur.w, cur.id)) {
            sels[i] = Some(cand.edge);
        }
    }
    sels
}

// ---------------------------------------------------------------------
// pipeline stage 2: CONTRACT COMPONENTS
// ---------------------------------------------------------------------

/// Hook every owned vertex along its selected edge, elect the smaller
/// endpoint of each pseudo-tree's 2-cycle as root, and resolve component
/// labels by distributed pointer doubling over the vertex-home partition
/// (Sec. IV-B). `sels` is [`min_edges`]' per-local-vertex output. Emits
/// the round's MST edge ids (one per non-root owned vertex — exactly the
/// pseudo-tree edges). Collective.
pub fn contract_components(comm: &Comm, g: &DistGraph, sels: &[Option<CEdge>]) -> ContractOutcome {
    let verts = g.local_vertices();
    debug_assert_eq!(sels.len(), verts.len());
    // Owned vertices: the home PE (last holder) runs the hooking; other
    // holders of a shared vertex receive the label afterwards. Only the
    // slice's last vertex can be homed elsewhere.
    let owned = verts.len() - usize::from(g.last_shared);
    let hooked: Vec<usize> = (0..owned).filter(|&i| sels[i].is_some()).collect();
    // Pointer per local vertex; everything not hooked points at itself.
    let mut parent: Vec<VertexId> = verts.to_vec();
    for &i in &hooked {
        parent[i] = sels[i].expect("hooked vertices have a selection").v;
    }
    comm.charge_local(sels.iter().flatten().count() as u64);
    let targets =
        |parent: &[VertexId]| -> Vec<VertexId> { hooked.iter().map(|&i| parent[i]).collect() };

    // 2-cycle root election: the component minimum edge is selected from
    // both sides; the smaller endpoint becomes the root.
    let grand = pull(comm, g, targets(&parent), |x| local_or_self(g, &parent, x));
    for &i in &hooked {
        if grand.get(parent[i]) == Some(verts[i]) && verts[i] < parent[i] {
            parent[i] = verts[i];
        }
    }

    // Pointer doubling until every owned pointer reaches its root. The
    // round count is synchronised via the allreduced change counter.
    loop {
        let hop = pull(comm, g, targets(&parent), |x| local_or_self(g, &parent, x));
        let mut changed = 0u64;
        for &i in &hooked {
            let next = hop.get(parent[i]).expect("every hooked target was queried");
            if next != parent[i] {
                parent[i] = next;
                changed += 1;
            }
        }
        if comm.allreduce_sum(changed) == 0 {
            break;
        }
    }

    // Every owned non-root vertex contributes its selected edge.
    let mst_edge_ids: Vec<u64> = hooked
        .iter()
        .filter(|&&i| parent[i] != verts[i])
        .map(|&i| sels[i].expect("hooked vertices have a selection").id)
        .collect();

    // Labels for *all* local vertices (shared copies query the owner);
    // the vertex list is already the sorted query list.
    let labels = pull_sorted(
        comm,
        verts,
        |q| g.home_of_vertex(q),
        |x| local_or_self(g, &parent, x),
    );
    ContractOutcome {
        labels,
        mst_edge_ids,
    }
}

/// Fetch component labels for this PE's ghost vertices — destinations
/// homed on other PEs — with the pull protocol (Sec. IV-C). `labels` is
/// this PE's label per local vertex; a vertex that is a source nowhere
/// keeps its own id. Collective.
///
/// The result is the round's one label table: [`relabel_or_defer`]
/// reads a destination's label from it once per edge of the slice, so
/// the density rule counts those lookups, not the ghosts. It takes this
/// PE's own labels of the vertices it is home to as well — every
/// destination of the slice, ghost or not, is then one lookup in one
/// table, one slot of one array when it is dense.
pub fn exchange_labels(comm: &Comm, g: &DistGraph, labels: &[VertexId]) -> Pulled {
    exchange_labels_of(comm, g, &g.edges, labels)
}

/// [`exchange_labels`] for the edges a round relabels — `g.edges`, maybe
/// handed over already, or the survivors of
/// [`local_contract`](crate::dist::local_contract), which keep every edge
/// to a ghost — charged as the scan of `edges` it makes.
pub(crate) fn exchange_labels_of(
    comm: &Comm,
    g: &DistGraph,
    edges: &[CEdge],
    labels: &[VertexId],
) -> Pulled {
    comm.charge_local(edges.len() as u64);
    let ghosts = edges.iter().map(|e| e.v).filter(|&v| g.is_ghost(v));
    let table = dense_width(g.id_span(), edges.len());
    let mut table = pull_values(
        comm,
        ghosts.collect(),
        table,
        |q| g.home_of_vertex(q),
        |x| local_or_self(g, labels, x),
    );
    // Only the slice's last vertex can be homed elsewhere; its slot keeps
    // the home's answer.
    let verts = g.local_vertices();
    let homed = verts.len() - usize::from(g.last_shared);
    for (&v, &label) in verts[..homed].iter().zip(labels) {
        *table.0.slot(v) = label;
    }
    table
}

/// Rewrite edge endpoints to component labels and drop the self-loops
/// that contraction created. `table` is [`exchange_labels`]' output for
/// the same `g` and `labels`. Sources are read from `labels` (per local
/// vertex): `edges` is `g.edges` or a subsequence of it in the same order
/// (the survivors of [`local_contract`](crate::dist::local_contract)), so
/// one cursor over the vertex list resolves every source. Destinations
/// are one lookup in the table — ghost, local or a source nowhere (no
/// entry: the vertex keeps its id) alike. Preserves ids and weights, so
/// the symmetric closure of the distributed edge list is maintained.
///
/// An owned edge vector is rewritten in place and returned, so a caller
/// that is done with its edges never holds two slices of them; a
/// borrowed slice (an input graph the caller must keep) is copied into a
/// fresh vector. Both give the same edges in the same order.
///
/// A Borůvka round calls it through [`relabel_or_defer`], which writes
/// nothing where `REDISTRIBUTE`'s prefilter can rewrite the edges as it
/// reads them.
pub fn relabel<'e>(
    comm: &Comm,
    g: &DistGraph,
    edges: impl Into<Cow<'e, [CEdge]>>,
    labels: &[VertexId],
    table: &Pulled,
) -> Vec<CEdge> {
    debug_assert!(g.pes() == comm.size());
    let edges = edges.into();
    comm.charge_local(edges.len() as u64);
    let verts = g.local_vertices();
    let mut cursor = 0usize;
    // Rewrite one edge; false when it became a self-loop.
    let mut rewrite = |e: &mut CEdge| {
        while verts[cursor] != e.u {
            cursor += 1;
        }
        e.u = labels[cursor];
        e.v = table.get(e.v).unwrap_or(e.v);
        e.u != e.v
    };
    match edges {
        Cow::Owned(mut edges) => {
            edges.retain_mut(rewrite);
            edges
        }
        Cow::Borrowed(edges) => {
            // Few edges become self-loops in a round: sized once, never
            // regrown.
            let mut out = Vec::with_capacity(edges.len());
            for &(mut e) in edges {
                if rewrite(&mut e) {
                    out.push(e);
                }
            }
            out
        }
    }
}

/// A round's edges between `RELABEL` and `REDISTRIBUTE`
/// ([`relabel_or_defer`]): rewritten to component labels already, or
/// still with their old endpoints, for the prefilter to rewrite as it
/// reads them. Either way [`Relabelled::prefilter`] and
/// [`redistribute_relabelled`](crate::dist::redistribute_relabelled)
/// see what [`relabel`] makes of them.
pub struct Relabelled<'a>(pub(crate) Stage<'a>);

pub(crate) enum Stage<'a> {
    /// [`relabel`]'s output.
    Rewritten(Vec<CEdge>),
    /// What [`lightest_per_label_pair`] reads in its place: the edges with
    /// their vertex segments and labels, and the round's label table,
    /// dense over the id span.
    Deferred {
        edges: Cow<'a, [CEdge]>,
        offsets: &'a [usize],
        labels: &'a [VertexId],
        table: Pulled,
    },
}

/// `RELABEL` of one Borůvka round (Sec. IV-C), for `REDISTRIBUTE`.
/// `edges` is `g.edges` or a subsequence of it in input order (the
/// survivors of [`contract_local_subtrees`](crate::dist::contract_local_subtrees)),
/// `offsets[i]..offsets[i + 1]` is local vertex `i`'s segment of it, and `table` is
/// [`exchange_labels`]' output for `g` and `labels`.
///
/// Where the prefilter dedups ([`DedupStrategy::HashFilter`]), the
/// edges average 8 or more per *label run* — a maximal stretch of
/// adjacent non-empty segments with one label, which is what `relabel`
/// would make one source run of — and the id span is dense for the
/// slice — the rule that made `table` dense over it — nothing is
/// written: the edges wait, as they are, for `REDISTRIBUTE`'s walk over
/// label groups ([`Relabelled::prefilter`]), which reads `table`'s slots
/// in place, and γ for the rewrite is charged here, where [`relabel`]
/// charges it. The choice reads per-vertex offsets and labels and the
/// span, not the edges. Runs count labels, not vertices, so local
/// contraction's survivors — short segments, long runs of one component
/// — defer too. Short runs (Filter-Borůvka's light subgraphs and base
/// cases), sparse id spaces and a ghost outside the span (a source
/// nowhere, which the pull leaves in the map) take [`relabel`], and so
/// does the pure-sorting ablation.
pub fn relabel_or_defer<'a>(
    comm: &Comm,
    g: &'a DistGraph,
    edges: Cow<'a, [CEdge]>,
    offsets: &'a [usize],
    labels: &'a [VertexId],
    table: Pulled,
    cfg: &MstConfig,
) -> Relabelled<'a> {
    let span = match cfg.dedup {
        DedupStrategy::HashFilter => segment_table(edges.len(), offsets, labels, g.id_span()),
        DedupStrategy::Sort => None,
    };
    let Some(span) = span.filter(|_| table.is_dense()) else {
        return Relabelled(Stage::Rewritten(relabel(comm, g, edges, labels, &table)));
    };
    debug_assert!(matches!(&table.0, IdTable::Dense { lo, slots } if (*lo, slots.len()) == span));
    comm.charge_local(edges.len() as u64);
    Relabelled(Stage::Deferred {
        edges,
        offsets,
        labels,
        table,
    })
}

impl Relabelled<'_> {
    /// `REDISTRIBUTE`'s local prefilter on the relabelled edges: the
    /// output of `prefilter_pairs` on [`relabel`]'s output, charged as
    /// the path that runs. The edges and the label table are released
    /// before it returns.
    pub fn prefilter(self, comm: &Comm) -> Sorted<CEdge> {
        match self.0 {
            Stage::Rewritten(edges) => prefilter_pairs(comm, &edges),
            Stage::Deferred {
                edges,
                offsets,
                labels,
                table,
            } => {
                let IdTable::Dense { lo, slots } = &table.0 else {
                    unreachable!("a deferred round's label table is dense");
                };
                lightest_per_label_pair(comm, &edges, offsets, labels, slots, *lo)
            }
        }
    }
}

#[cfg(test)]
impl Relabelled<'_> {
    /// Whether the rewrite waits for the prefilter's walk.
    fn is_deferred(&self) -> bool {
        matches!(self.0, Stage::Deferred { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::{contract_local_subtrees, PreprocessOutcome};
    use crate::prefilter::tests::label_walk_ops;
    use kamsta_comm::{Machine, MachineConfig};
    use kamsta_graph::InputGraph;

    /// `relabel` rewrites an owned edge vector in place and copies a
    /// borrowed one; both must give the same edges in the same order and
    /// charge the same work, on the dense table (ids `0..N`) and on the
    /// sparse map (ids `2^40` apart, as in
    /// `density_rule_flips_at_k_ids_per_query`). The labels come from a
    /// real contraction round, so some edges become self-loops; the slices
    /// are cut inside vertices, so a vertex is one PE's last and the next
    /// PE's first.
    #[test]
    fn owned_and_borrowed_relabel_agree() {
        const N: u64 = 25;
        let mut paths_seen = [false; 2];
        for p in [1usize, 2, 3] {
            for stride in [1u64, 1 << 40] {
                let out = Machine::run(MachineConfig::new(p), move |comm| {
                    let mut all: Vec<(u64, u64)> = (0..N)
                        .flat_map(|u| (0..N).map(move |v| (u, v)))
                        .filter(|&(u, v)| u != v && u.abs_diff(v) <= 3)
                        .collect();
                    all.sort_unstable();
                    let chunk = all.len().div_ceil(p);
                    let lo = (comm.rank() * chunk).min(all.len());
                    let hi = ((comm.rank() + 1) * chunk).min(all.len());
                    let edges: Vec<CEdge> = all[lo..hi]
                        .iter()
                        .enumerate()
                        .map(|(k, &(u, v))| {
                            let w = 1 + kamsta_graph::hash::mix64(u.min(v) << 8 | u.max(v)) % 50;
                            CEdge::new(u * stride, v * stride, w as u32, (lo + k) as u64)
                        })
                        .collect();
                    let g = DistGraph::establish(comm, edges);
                    let sels = min_edges(comm, &g);
                    let labels = contract_components(comm, &g, &sels).labels;
                    let table = exchange_labels(comm, &g, &labels);

                    let before = comm.stats();
                    let borrowed = relabel(comm, &g, &g.edges, &labels, &table);
                    let between = comm.stats();
                    let owned = relabel(comm, &g, g.edges.clone(), &labels, &table);
                    let after = comm.stats();
                    assert_eq!(owned, borrowed, "p = {p}, stride {stride}");
                    assert_eq!(
                        between.since(&before).local_ops,
                        after.since(&between).local_ops,
                        "p = {p}, stride {stride}: the same charge"
                    );
                    let loops = g.edges.len() - owned.len();
                    (table.is_dense(), loops, g.last_shared)
                });
                let results = out.results;
                assert!(
                    results.iter().any(|&(_, loops, _)| loops > 0),
                    "p = {p}, stride {stride}: contraction made self-loops"
                );
                if p > 1 {
                    assert!(
                        results[..p - 1].iter().any(|&(_, _, shared)| shared),
                        "p = {p}: a vertex is shared by neighbouring slices"
                    );
                }
                for (dense, _, _) in results {
                    assert!(!dense || stride == 1, "strided ids take the map");
                    paths_seen[usize::from(dense)] = true;
                }
            }
        }
        assert_eq!(paths_seen, [true, true], "both Pulled paths ran");
    }

    /// The band graph on `n` vertices `stride` ids apart: every vertex's
    /// neighbours within `reach`, weights by unordered pair, the sorted
    /// edge list cut into `p` equal slices — inside vertices, so a vertex
    /// is one PE's last and the next PE's first.
    fn band_graph(comm: &Comm, n: u64, reach: u64, stride: u64) -> DistGraph {
        let mut all: Vec<(u64, u64)> = (0..n)
            .flat_map(|u| (0..n).map(move |v| (u, v)))
            .filter(|&(u, v)| u != v && u.abs_diff(v) <= reach)
            .collect();
        all.sort_unstable();
        let p = comm.size();
        let chunk = all.len().div_ceil(p);
        let lo = (comm.rank() * chunk).min(all.len());
        let hi = ((comm.rank() + 1) * chunk).min(all.len());
        let edges = all[lo..hi]
            .iter()
            .enumerate()
            .map(|(k, &(u, v))| {
                let w = 1 + kamsta_graph::hash::mix64(u.min(v) << 8 | u.max(v)) % 50;
                CEdge::new(u * stride, v * stride, w as u32, (lo + k) as u64)
            })
            .collect();
        DistGraph::establish(comm, edges)
    }

    /// What one PE saw of a round through both paths: the rewrite was
    /// deferred, the `Pulled` table dense, contraction made self-loops,
    /// the slice was cut inside a vertex.
    type RoundView = (bool, bool, bool, bool);

    /// A round's `RELABEL` + prefilter, deferred where
    /// [`relabel_or_defer`] defers it, against [`relabel`] then
    /// [`prefilter_pairs`]: the same edges, with the edges lent (an input
    /// graph) and handed over (an owned graph). A round that defers
    /// charges one unit per edge read plus [`label_walk_ops`]; one that
    /// does not charges what the reference charges.
    fn assert_round_paths_agree(
        comm: &Comm,
        g: &DistGraph,
        edges: &[CEdge],
        offsets: &[usize],
        labels: &[VertexId],
        what: &str,
    ) -> RoundView {
        let table = exchange_labels(comm, g, labels);
        let before = comm.stats().local_ops;
        let rewritten = relabel(comm, g, edges, labels, &table);
        let reference = prefilter_pairs(comm, &rewritten).into_inner();
        let reference_ops = comm.stats().local_ops - before;
        let walk_ops =
            edges.len() as u64 + label_walk_ops(comm, offsets, labels, rewritten.len(), &reference);
        let cfg = MstConfig::default();
        let mut deferred = Vec::new();
        for edges in [Cow::Borrowed(edges), Cow::Owned(edges.to_vec())] {
            let before = comm.stats().local_ops;
            let staged = relabel_or_defer(comm, g, edges, offsets, labels, table.clone(), &cfg);
            deferred.push(staged.is_deferred());
            let expect = if staged.is_deferred() {
                walk_ops
            } else {
                reference_ops
            };
            let out = staged.prefilter(comm).into_inner();
            assert_eq!(out, reference, "{what}: output");
            assert_eq!(comm.stats().local_ops - before, expect, "{what}: γ units");
        }
        assert_eq!(deferred[0], deferred[1], "{what}: one side for both");
        let loops = rewritten.len() < edges.len();
        (
            deferred[0],
            table.is_dense(),
            loops,
            g.first_shared || g.last_shared,
        )
    }

    #[test]
    fn deferred_relabel_matches_relabel_then_prefilter() {
        // Band graphs of 12 neighbours a vertex: 60 vertices pull a dense
        // table; 240 ask few ghosts for a wide span, yet the table serves
        // one lookup per edge, so it is dense where the walk's span is;
        // ids 2^40 apart take the map and `relabel`. GNM's local
        // contraction leaves long survivor segments.
        let mut views: Vec<(&str, RoundView)> = Vec::new();
        for p in [1usize, 2, 3] {
            for t in [1usize, 2, 8] {
                let out = Machine::run(MachineConfig::new(p).with_threads(t), move |comm| {
                    let mut views = Vec::new();
                    for (what, n, stride) in [
                        ("dense table", 60, 1),
                        ("few ghosts, dense span", 240, 1),
                        ("ids 2^40 apart", 60, 1 << 40),
                    ] {
                        let g = band_graph(comm, n, 6, stride);
                        let sels = min_edges(comm, &g);
                        let labels = contract_components(comm, &g, &sels).labels;
                        let offsets = g.segment_offsets();
                        let view =
                            assert_round_paths_agree(comm, &g, &g.edges, offsets, &labels, what);
                        views.push((what, view));
                    }
                    let gnm = kamsta_graph::GraphConfig::Gnm { n: 200, m: 2_400 };
                    let input = InputGraph::generate(comm, gnm, 5);
                    let pre = contract_local_subtrees(comm, &input.graph);
                    let what = "survivors of local contraction";
                    let view = assert_round_paths_agree(
                        comm,
                        &input.graph,
                        &pre.edges,
                        &pre.offsets,
                        &pre.labels,
                        what,
                    );
                    views.push((what, view));
                    views
                });
                views.extend(out.results.into_iter().flatten());
            }
        }
        let seen = |what: &str, pick: fn(&RoundView) -> bool| {
            views.iter().any(|(w, v)| *w == what && pick(v))
        };
        assert!(seen("dense table", |v| v.0 && v.1 && v.2 && v.3));
        assert!(seen("few ghosts, dense span", |v| v.0 && v.3));
        assert!(seen("ids 2^40 apart", |v| !v.0 && !v.1 && v.2));
        // Survivors join different components: they make no self-loops.
        assert!(seen("survivors of local contraction", |v| v.0));
        assert!(views.iter().all(|(w, v)| *w != "ids 2^40 apart" || !v.0));
        // The walk reads the round's one table in place.
        assert!(
            views.iter().all(|(_, v)| !v.0 || v.1),
            "every round that defers holds a dense table"
        );
    }

    /// What one PE saw of [`rgg_survivor_round`]: the rewrite was
    /// deferred, the label table dense, then the output, the round's γ
    /// units, the modeled-seconds bits, and the γ units the round should
    /// charge.
    type SurvivorRound = (bool, bool, Vec<CEdge>, u64, u64, u64);

    /// A round on the survivors of local contraction on an RGG-2D graph,
    /// per PE: whether [`relabel_or_defer`] deferred the rewrite, whether
    /// [`exchange_labels`]' table is dense, and the output, γ units and
    /// modeled-seconds bits of the deferred path (`defer`) or of
    /// [`relabel`] then [`prefilter_pairs`] — each on a machine of its
    /// own, so both clocks start from the same state. A deferred round
    /// should charge one unit per edge read plus [`label_walk_ops`], the
    /// other path what it charged.
    fn rgg_survivor_round(p: usize, t: usize, defer: bool) -> Vec<SurvivorRound> {
        let rgg = kamsta_graph::GraphConfig::Rgg2D {
            n: 1 << 12,
            m: 1 << 16,
        };
        let machine = MachineConfig::new(p).with_threads(t);
        let out = Machine::run(machine, move |comm| {
            let input = InputGraph::generate(comm, rgg, 7);
            let g = &input.graph;
            let PreprocessOutcome {
                edges,
                offsets,
                labels,
                ..
            } = contract_local_subtrees(comm, g);
            let table = exchange_labels(comm, g, &labels);
            let dense = table.is_dense();
            let (len, kept) = (edges.len(), relabel(comm, g, &edges, &labels, &table).len());
            let cfg = MstConfig::default();
            let before = comm.stats().local_ops;
            let (deferred, out) = if defer {
                let staged =
                    relabel_or_defer(comm, g, Cow::Owned(edges), &offsets, &labels, table, &cfg);
                (staged.is_deferred(), staged.prefilter(comm).into_inner())
            } else {
                let rewritten = relabel(comm, g, edges, &labels, &table);
                (false, prefilter_pairs(comm, &rewritten).into_inner())
            };
            let stats = comm.stats();
            let ops = stats.local_ops - before;
            let expect = match deferred {
                true => len as u64 + label_walk_ops(comm, &offsets, &labels, kept, &out),
                false => ops,
            };
            (
                deferred,
                dense,
                out,
                ops,
                stats.modeled_time.to_bits(),
                expect,
            )
        });
        out.results
    }

    #[test]
    fn survivors_of_local_contraction_take_the_label_walk() {
        // An RGG's survivors are the edges of frozen components near the
        // PE boundaries: segments of about 5 edges, but a component's
        // vertices are adjacent in id order, so its segments form label
        // runs of 8 or more. One PE contracts every edge.
        for p in [1usize, 2, 3] {
            let single = rgg_survivor_round(p, 1, true);
            for t in [1usize, 2, 8] {
                let walked = rgg_survivor_round(p, t, true);
                let rewritten = rgg_survivor_round(p, t, false);
                for (rank, (w, r)) in walked.iter().zip(&rewritten).enumerate() {
                    let at = format!("p = {p}, t = {t}, rank {rank}");
                    if p == 1 {
                        assert!(!w.0 && w.2.is_empty(), "{at}: nothing survives");
                    } else {
                        assert!(w.0, "{at}: the rewrite is deferred");
                        assert!(w.1, "{at}: the label table is dense");
                    }
                    assert_eq!(w.2, r.2, "{at}: output");
                    assert_eq!(w.3, w.5, "{at}: γ units");
                    let (out, ops) = (&single[rank].2, single[rank].3);
                    assert_eq!((&w.2, w.3), (out, ops), "{at}: against t = 1");
                }
            }
        }
    }

    #[test]
    fn a_destination_beyond_the_id_span_takes_relabel() {
        // One edge leads to an id that is a source nowhere, past the id
        // span: the pull takes the map, and the round rewrites with
        // `relabel`, which keeps that id, instead of walking a table the
        // id falls outside of.
        let out = Machine::run(MachineConfig::new(2), |comm| {
            let band = band_graph(comm, 60, 6, 1);
            let mut edges = band.edges.clone();
            if comm.rank() == 0 {
                edges.push(CEdge::new(edges[0].u, 10_000, 1, 1 << 30));
                edges.sort_unstable();
            }
            let g = DistGraph::establish(comm, edges);
            let sels = min_edges(comm, &g);
            let labels = contract_components(comm, &g, &sels).labels;
            let what = "a destination past the span";
            assert_round_paths_agree(comm, &g, &g.edges, g.segment_offsets(), &labels, what)
        });
        let (deferred, dense, _, _) = out.results[0];
        assert!(!deferred && !dense, "rank 0 rewrites with relabel");
    }
}
