//! The distributed MST algorithms of the paper: the scalable Borůvka
//! algorithm (Algorithm 1) here, Filter-Borůvka (Algorithm 2) and its
//! representative array in their own files, re-exported below.
//!
//! Algorithm 1 repeats four bulk-synchronous stages on the 1D-partitioned
//! edge list until the remaining contracted graph fits the replicated base
//! case (Sec. IV):
//!
//! 1. [`min_edges`] — per-vertex lightest incident edge, with the
//!    allgather-merge for vertices whose edge range spans PE boundaries;
//! 2. [`contract_components`] — hooking along the selected edges, 2-cycle
//!    root election and distributed pointer doubling over the vertex-home
//!    partition (Sec. IV-B), emitting the round's MST edge ids;
//! 3. [`exchange_labels`] + [`relabel_or_defer`] — the pull-based
//!    ghost-label protocol and endpoint rewriting (Sec. IV-C): the pulled
//!    labels come back as a [`Pulled`] — the round's one table, over the
//!    graph's id span whenever that is dense for the slice's edges; it
//!    then also holds this PE's own labels, so rewriting a destination is
//!    one array load. Where the label runs (adjacent segments of one
//!    component) are long, nothing is rewritten here: the edges wait,
//!    with their labels and the table, for stage 4's prefilter.
//!    Elsewhere [`relabel`] writes the relabelled slice;
//! 4. [`redistribute_relabelled`] — parallel-edge elimination (local
//!    per-pair prefilter or pure sorting, Sec. VI-B), distributed
//!    sorting, and re-establishing the distributed graph structure. The
//!    prefilter walks each label's runs and rewrites the
//!    copies it keeps as it reads them, so the relabelled slice of a
//!    deferred rewrite is never written ([`redistribute`] is the same
//!    stage on edges that are rewritten already).
//!
//! An optional [`local_contract`] pass (Sec. IV-A) contracts purely local
//! subtrees before the first communication round. The paper runs it on
//! "partitioned graphs with many local edges"; the gate reads the
//! [`excess_locality`] of the partition — the fraction of PE-internal
//! edges beyond the `Σᵢ (mᵢ/m)²` (about `1/p`) that the block partition
//! gives a graph without locality — against 0.25. GNM and RMAT read
//! about 0 at every `p ≥ 2` (|e| ≤ 0.05) and skip it; grids, road-like
//! graphs, RGGs and RHG read well above it and take it (3D-RGG is the
//! lowest, 0.56 on 2^12 vertices at `p = 16`); on one PE every graph
//! takes it.
//!
//! Algorithm 2 ([`filter_mst`]) partitions edges by the unique-weight
//! total order around sampled pivots, recursing on the light half first
//! and filtering heavy edges through the block-distributed representative
//! array [`DistArray`] before recursing on the survivors (Sec. V) — the
//! distributed analogue of Filter-Kruskal. Its lookups are the same
//! [`Pulled`], and its base case is the round loop of Algorithm 1
//! (`boruvka_rounds`), which both algorithms call.

pub use crate::dist_array::DistArray;
pub use crate::filter::{filter_mst, FilterStats};
use crate::instrument::{Phase, PhaseTimes, Phased};
pub use crate::numbering::{IdLabels, VertexNumbering};
use crate::prefilter::{
    lightest_per_label_pair, prefilter_pairs, prefilter_unordered, segment_table,
};
use crate::seq::UnionFind;
use kamsta_comm::{Comm, FlatBuckets};
use kamsta_graph::hash::FxHashMap;
use kamsta_graph::{CEdge, DistGraph, InputGraph, VertexId, Weight};
use kamsta_sort::Sorted;
use std::borrow::Cow;

/// Parallel-edge elimination strategy used by [`redistribute`]
/// (Sec. VI-B's ablation: a local prefilter "outperforms the pure
/// sorting approach by up to a factor of 2.5" because duplicates never
/// travel through the distributed sort).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DedupStrategy {
    /// Local per-`(u, v)`-pair prefilter before the distributed sort.
    /// The name is the paper's (Sec. VI-B keeps a hash table per PE).
    /// Where a Borůvka round's edges lie in long label runs over a dense
    /// id span it is a table filter that also rewrites the labels: one
    /// label at a time, the lightest copy per destination in a table over
    /// the span ([`relabel_or_defer`]). Every other slice takes the
    /// sort-and-reduce: the radix engine orders the slice by its `(u, v)`
    /// pair key and one walk keeps each pair's `(w, id)`-minimal copy
    /// (DESIGN.md §14).
    #[default]
    HashFilter,
    /// Pure sorting: global sort, then dedup — the ablation baseline.
    Sort,
}

/// Configuration of the distributed MST algorithms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MstConfig {
    /// The base-case switch constant: contraction rounds stop once the
    /// global vertex count drops to `base_case_constant × p` and the
    /// remaining graph is solved replicated (Sec. IV-D).
    pub base_case_constant: u64,
    /// Run local preprocessing before the first communication round
    /// (Sec. IV-A); the Fig. 4 ablation disables it.
    pub preprocessing: bool,
    /// Parallel-edge elimination strategy (Sec. VI-B).
    pub dedup: DedupStrategy,
}

impl Default for MstConfig {
    fn default() -> Self {
        Self {
            base_case_constant: 256,
            preprocessing: true,
            dedup: DedupStrategy::default(),
        }
    }
}

impl MstConfig {
    /// Vertex count below which the replicated base case takes over on a
    /// `p`-PE machine.
    pub fn base_threshold(&self, p: usize) -> u64 {
        self.base_case_constant.saturating_mul(p as u64)
    }

    /// This configuration with preprocessing disabled (Fig. 4 ablation).
    pub fn without_preprocessing(mut self) -> Self {
        self.preprocessing = false;
        self
    }
}

/// Result of a distributed MST run on one PE.
#[derive(Clone, Debug)]
pub struct MstResult {
    /// This PE's share of the MSF, as *original* input edges (one
    /// direction per undirected MSF edge, globally).
    pub edges: Vec<CEdge>,
    /// Per-phase modeled/wall time of this PE (Fig. 6 taxonomy).
    pub phases: PhaseTimes,
}

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

/// Output of the local preprocessing pass.
#[derive(Clone, Debug)]
pub struct PreprocessOutcome {
    /// Local edges surviving contraction (intra-component edges removed),
    /// in input order and still with original endpoints — the round that
    /// follows rewrites them ([`relabel_or_defer`]). Empty when the gate
    /// rejects (`applied == false`): the caller keeps using its own
    /// graph, nothing is cloned.
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

// ---------------------------------------------------------------------
// pull-based label/parent lookup
// ---------------------------------------------------------------------

/// Slot of a dense [`Pulled`] table whose id nobody asked for.
/// `VertexId::MAX` is reserved: no vertex, label or array entry has it.
pub(crate) const NOT_ASKED: u64 = u64::MAX;

/// The density rule's constant `K`: lookups are served from a table over
/// the whole id span when the span is at most `K` = 8 ids wide per
/// lookup. Read off `bench_pull`'s crossover (EXPERIMENTS.md); it also
/// bounds the table at 64 bytes per lookup (per edge, for a round's).
pub const DENSE_SPAN_PER_QUERY: u64 = 8;

/// The answers of one pull, by queried id: a table indexed by
/// `id − span.min` when the span is dense for the lookups the answers
/// serve, a hash map when it is not. Which one is decided per call, from
/// the width of the span and the number of lookups alone; readers see
/// [`Pulled::get`] (a round's label walk reads its slots in place).
#[derive(Clone, Debug)]
pub struct Pulled(Table);

#[derive(Clone, Debug)]
enum Table {
    /// `slots[id − lo]`; [`NOT_ASKED`] marks the ids never queried.
    Dense { lo: u64, slots: Vec<u64> },
    /// The fallback for sparse id spaces (component labels at large p,
    /// 48-bit ids).
    Sparse(FxHashMap<u64, u64>),
}

impl Pulled {
    /// The answer for `id`; `None` when `id` was not among the queries.
    #[inline]
    pub fn get(&self, id: u64) -> Option<u64> {
        match &self.0 {
            Table::Dense { lo, slots } => dense_get(*lo, slots, id),
            Table::Sparse(map) => map.get(&id).copied(),
        }
    }

    /// True when the answers sit in the table over the id span.
    pub fn is_dense(&self) -> bool {
        matches!(self.0, Table::Dense { .. })
    }

    /// Key replicated `(id, answer)` pairs, all inside `span`, for
    /// `lookups` reads, by the density rule.
    pub(crate) fn keyed(span: Option<(u64, u64)>, lookups: usize, pairs: &[(u64, u64)]) -> Self {
        match dense_width(span, lookups) {
            Some((lo, width)) => Self::dense(lo, width, pairs.iter().copied()),
            None => Self(Table::Sparse(pairs.iter().copied().collect())),
        }
    }

    /// The table over `[lo, lo + width)` holding `pairs`.
    fn dense(lo: u64, width: usize, pairs: impl Iterator<Item = (u64, u64)>) -> Self {
        let mut slots = vec![NOT_ASKED; width];
        for (id, answer) in pairs {
            debug_assert!(answer != NOT_ASKED, "u64::MAX is the reserved sentinel");
            slots[(id - lo) as usize] = answer;
        }
        Self(Table::Dense { lo, slots })
    }
}

/// `slots[id − lo]` unless the id is outside the table or its slot empty.
#[inline]
pub(crate) fn dense_get(lo: u64, slots: &[u64], id: u64) -> Option<u64> {
    let i = usize::try_from(id.wrapping_sub(lo)).ok()?;
    slots.get(i).copied().filter(|&x| x != NOT_ASKED)
}

/// The density rule: `Some((lo, width))` when a table over `span` pays
/// for `queries` lookups — the span is known and at most
/// [`DENSE_SPAN_PER_QUERY`] ids wide per lookup. It reads nothing but its
/// two arguments, so there is nothing to configure.
pub(crate) fn dense_width(span: Option<(u64, u64)>, queries: usize) -> Option<(u64, usize)> {
    let (lo, hi) = span?;
    let limit = DENSE_SPAN_PER_QUERY.saturating_mul(queries as u64);
    // `hi − lo + 1 ≤ limit` without the overflow at a full-range span.
    (hi.checked_sub(lo)? < limit).then(|| (lo, (hi - lo) as usize + 1))
}

/// Pull-protocol lookup: resolve `queries` at the *home PE* of each
/// queried vertex with that PE's `resolve` function; the answers come
/// back as a [`Pulled`] over the graph's id span. Collective.
///
/// Pull rather than push: the edge_cases regression showed that routing
/// answers by home-of-reverse-edge misses duplicate holders; serving
/// explicit requests delivers to every PE that asks.
fn pull<F>(comm: &Comm, g: &DistGraph, queries: Vec<VertexId>, resolve: F) -> Pulled
where
    F: Fn(VertexId) -> VertexId,
{
    let table = dense_width(g.id_span(), queries.len());
    pull_values(comm, queries, table, |q| g.home_of_vertex(q), resolve)
}

/// Resolve the queried ids (duplicates welcome) with [`pull_sorted`] and
/// return the answers as a [`Pulled`]. `table` is what [`dense_width`]
/// made of the caller's id span — a closed range known to hold every id
/// that can be asked for, replicated state, never communicated here —
/// and the query count: the `(lo, width)` of the dense table to fill, or
/// `None` for the fallback. Collective.
///
/// Dense: the distinct ascending request list is read off a bitmap
/// ([`distinct_in_span`]) and the answers are scattered into the table;
/// an id outside the table sends the call down the fallback instead.
/// Fallback: radix sort, dedup, hash the answers. Both hand
/// [`pull_sorted`] the same list, so requests, replies and every modeled
/// counter are the same either way — which also lets each PE choose on
/// its own.
pub(crate) fn pull_values(
    comm: &Comm,
    mut ids: Vec<u64>,
    table: Option<(u64, usize)>,
    home_of: impl Fn(u64) -> usize,
    resolve: impl Fn(u64) -> u64,
) -> Pulled {
    if let Some((lo, width)) = table {
        if let Some(distinct) = distinct_in_span(&ids, lo, width) {
            let values = pull_sorted(comm, &distinct, home_of, resolve);
            return Pulled::dense(lo, width, distinct.into_iter().zip(values));
        }
    }
    kamsta_sort::radix_sort_keys(&mut ids);
    ids.dedup();
    let values = pull_sorted(comm, &ids, home_of, resolve);
    Pulled(Table::Sparse(ids.into_iter().zip(values).collect()))
}

/// The distinct ids of `ids`, ascending — what sort + dedup produces —
/// by marking a bitmap over `[lo, lo + width)` and enumerating its set
/// bits. `None` when an id lies outside that range.
fn distinct_in_span(ids: &[u64], lo: u64, width: usize) -> Option<Vec<u64>> {
    let mut bits = vec![0u64; width.div_ceil(64)];
    for &id in ids {
        let off = usize::try_from(id.wrapping_sub(lo)).ok()?;
        if off >= width {
            return None;
        }
        bits[off / 64] |= 1 << (off % 64);
    }
    let count: u32 = bits.iter().map(|w| w.count_ones()).sum();
    let mut distinct = Vec::with_capacity(count as usize);
    for (k, &word) in bits.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            distinct.push(lo + (k * 64) as u64 + u64::from(word.trailing_zeros()));
            word &= word - 1;
        }
    }
    Some(distinct)
}

/// The count-only request/reply exchange behind every pull: `ids` is
/// ascending and distinct and the home PE is monotone in the id, so the
/// list is already grouped by destination — both directions of the
/// exchange are flat buffers built from a count array alone, no scatter
/// pass and no per-item source tag. The reply carries *values only*
/// ([`Comm::request_reply`]): it rides back in the request's bucket, so
/// `result[k]` answers `ids[k]` — half the reply volume of a key-value
/// exchange, and callers that hold the ids in an array of their own
/// (the local-vertex list) never build a table. Collective.
fn pull_sorted(
    comm: &Comm,
    ids: &[u64],
    home_of: impl Fn(u64) -> usize,
    resolve: impl Fn(u64) -> u64,
) -> Vec<u64> {
    debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
    comm.charge_local(ids.len() as u64);
    let mut counts = vec![0usize; comm.size()];
    for &id in ids {
        counts[home_of(id)] += 1;
    }
    let requests = FlatBuckets::from_counts(ids.to_vec(), &counts);
    comm.request_reply(requests, |&id| resolve(id))
}

/// The value a per-local-vertex array holds for `x` on this PE, or `x`
/// itself when `x` is no source here — what a home PE answers to a pull.
fn local_or_self(g: &DistGraph, per_vertex: &[VertexId], x: VertexId) -> VertexId {
    g.local_index(x).map_or(x, |i| per_vertex[i])
}

// ---------------------------------------------------------------------
// pipeline stage 1: MIN EDGES
// ---------------------------------------------------------------------

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

// ---------------------------------------------------------------------
// pipeline stage 3: EXCHANGE LABELS + RELABEL
// ---------------------------------------------------------------------

/// Fetch component labels for this PE's ghost vertices — destinations
/// homed on other PEs — with the pull protocol (Sec. IV-C). `labels` is
/// this PE's label per local vertex; a vertex that is a source nowhere
/// keeps its own id. Collective.
///
/// The result is the round's one label table: [`relabel_or_defer`]
/// reads a destination's label from it once per edge of the slice, so
/// the density rule counts those lookups, not the ghosts. Dense, it
/// takes this PE's own labels of the vertices it is home to as well —
/// every destination of the slice, ghost or not, is then one slot of one
/// array. The sparse fallback holds the ghosts only.
pub fn exchange_labels(comm: &Comm, g: &DistGraph, labels: &[VertexId]) -> Pulled {
    exchange_labels_of(comm, g, &g.edges, labels)
}

/// [`exchange_labels`] for the edges a round relabels — `g.edges`, maybe
/// handed over already, or the survivors of [`local_contract`], which
/// keep every edge to a ghost — charged as the scan of `edges` it makes.
fn exchange_labels_of(comm: &Comm, g: &DistGraph, edges: &[CEdge], labels: &[VertexId]) -> Pulled {
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
    if let Table::Dense { lo, slots } = &mut table.0 {
        // Only the slice's last vertex can be homed elsewhere; its slot
        // keeps the home's answer.
        let verts = g.local_vertices();
        let homed = verts.len() - usize::from(g.last_shared);
        for (&v, &label) in verts[..homed].iter().zip(labels) {
            slots[(v - *lo) as usize] = label;
        }
    }
    table
}

/// Rewrite edge endpoints to component labels and drop the self-loops
/// that contraction created. `table` is [`exchange_labels`]' output for
/// the same `g` and `labels`. Sources are read from `labels` (per local
/// vertex): `edges` is `g.edges` or a subsequence of it in the same order
/// (the survivors of [`local_contract`]), so one cursor over the vertex
/// list resolves every source. Destinations are one load from the dense
/// table when there is one — ghost, local or a source nowhere (an empty
/// slot: the vertex keeps its id) alike; on the sparse fallback ghosts
/// probe the map and locally homed destinations go through
/// [`DistGraph::local_index`]. Preserves ids and weights, so the
/// symmetric closure of the distributed edge list is maintained.
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
    match &table.0 {
        Table::Dense { lo, slots } => {
            relabel_by(g, edges, labels, |v| dense_get(*lo, slots, v).unwrap_or(v))
        }
        Table::Sparse(ghost) => relabel_by(g, edges, labels, |v| {
            if g.is_ghost(v) {
                ghost.get(&v).copied().unwrap_or(v)
            } else {
                local_or_self(g, labels, v)
            }
        }),
    }
}

/// [`relabel`] with the destination lookup compiled in.
fn relabel_by(
    g: &DistGraph,
    edges: Cow<'_, [CEdge]>,
    labels: &[VertexId],
    label_of_dst: impl Fn(VertexId) -> VertexId,
) -> Vec<CEdge> {
    let verts = g.local_vertices();
    let mut cursor = 0usize;
    // Rewrite one edge; false when it became a self-loop.
    let mut rewrite = |e: &mut CEdge| {
        while verts[cursor] != e.u {
            cursor += 1;
        }
        e.u = labels[cursor];
        e.v = label_of_dst(e.v);
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
/// [`redistribute_relabelled`] see what [`relabel`] makes of them.
pub struct Relabelled<'a>(Stage<'a>);

enum Stage<'a> {
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
/// survivors of [`contract_local_subtrees`]), `offsets[i]..offsets[i +
/// 1]` is local vertex `i`'s segment of it, and `table` is
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
    debug_assert!(matches!(&table.0, Table::Dense { lo, slots } if (*lo, slots.len()) == span));
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
                let Table::Dense { lo, slots } = &table.0 else {
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

// ---------------------------------------------------------------------
// pipeline stage 4: REDISTRIBUTE
// ---------------------------------------------------------------------

/// Parallel-edge elimination + distributed sort + re-establishment of the
/// distributed graph structure (Sec. IV-C, Sec. VI-B). Keeps, per ordered
/// endpoint pair, the copy that is minimal in `(w, id)` — both directions
/// of an undirected pair see the same weight multiset, so the surviving
/// graph stays symmetric. Collective.
pub fn redistribute(comm: &Comm, edges: Vec<CEdge>, cfg: &MstConfig) -> DistGraph {
    match cfg.dedup {
        DedupStrategy::HashFilter => {
            let kept = prefilter_pairs(comm, &edges);
            // The survivors are copies: release the input before the
            // distributed sort allocates its buffers.
            drop(edges);
            establish_prefiltered(comm, kept)
        }
        DedupStrategy::Sort => {
            // Same linear scan as the prefilter pays, so the Sec. VI-B
            // ablation compares strategies under equal γ-accounting.
            comm.charge_local(edges.len() as u64);
            let filtered = edges.into_iter().filter(|e| !e.is_self_loop()).collect();
            // Distributed sort under the lexicographic order, local phases
            // radix on the packed (u, v, w, id) key.
            let sorted = kamsta_sort::sort_auto_by_key(comm, filtered, 0xC0FFEE, CEdge::lex_key);
            establish_lightest(comm, sorted)
        }
    }
}

/// [`redistribute`] of a round's edges as [`relabel`] rewrites them. A
/// deferred rewrite ([`relabel_or_defer`]) happens in the prefilter's
/// walk, which releases the edges before the distributed sort. Collective.
pub fn redistribute_relabelled(comm: &Comm, edges: Relabelled<'_>, cfg: &MstConfig) -> DistGraph {
    match edges.0 {
        Stage::Rewritten(edges) => redistribute(comm, edges, cfg),
        deferred => establish_prefiltered(comm, Relabelled(deferred).prefilter(comm)),
    }
}

/// The prefilter's survivors through the distributed sort — already in
/// order, so its local phase skips its scan — and into a graph.
fn establish_prefiltered(comm: &Comm, kept: Sorted<CEdge>) -> DistGraph {
    establish_lightest(comm, kamsta_sort::sort_auto_sorted(comm, kept, 0xC0FFEE))
}

/// The end of `REDISTRIBUTE`: of a globally sorted edge sequence, the
/// first (lightest, smallest-id) copy of every pair, balanced and
/// established as a graph. Collective.
fn establish_lightest(comm: &Comm, mut sorted: Vec<CEdge>) -> DistGraph {
    comm.charge_local(sorted.len() as u64);
    // Keep the first copy of each consecutive pair group; groups
    // straddling PE boundaries are resolved below.
    sorted.dedup_by(|a, b| a.u == b.u && a.v == b.v);

    let my_first = sorted.first().map(|e| (e.u, e.v));
    let my_last = sorted.last().map(|e| (e.u, e.v));
    let bounds = comm.allgather((my_first, my_last));
    if let Some(fp) = my_first {
        // Globally sorted: if an earlier non-empty PE ends on my first
        // pair, that PE holds the group's first copy — drop my leaders.
        let continued = bounds[..comm.rank()]
            .iter()
            .any(|&(_, last)| last == Some(fp));
        if continued {
            let cut = sorted.iter().take_while(|e| (e.u, e.v) == fp).count();
            sorted.drain(..cut);
        }
    }

    let balanced = kamsta_sort::rebalance(comm, sorted);
    DistGraph::establish(comm, balanced)
}

// ---------------------------------------------------------------------
// local preprocessing (Sec. IV-A)
// ---------------------------------------------------------------------

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
/// The count reads segment ends, not the slice ([`internal_edges`]), and
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
/// entry, reserved from the [`internal_edges`] count: one entry per
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

// ---------------------------------------------------------------------
// replicated base case
// ---------------------------------------------------------------------

/// Sort edges by the unique-weight total order `(w, id)` — the
/// pair-canonical ids make this the paper's `(w, min, max)` order on
/// *original* endpoints, invariant under contraction. One radix sort on
/// the packed 96-bit key, width-parallel on hybrid PEs (bit-identical
/// to the sequential sorter at every width).
fn sort_by_unique_weight(edges: &mut [CEdge]) {
    kamsta_sort::par_radix_sort_by_key(edges, |e: &CEdge| ((e.w as u128) << 64) | e.id as u128);
}

/// What the sequential solve of a gathered graph yields: the MSF edge
/// ids, and `(vertex, label)` for every vertex of the graph.
pub(crate) type RootedSolution = (Vec<u64>, Vec<(VertexId, VertexId)>);

/// Kruskal over a gathered edge list, by the unique-weight total order
/// with ids as the final tie-break: the chosen edge ids, and `(vertex,
/// label)` — the label is the minimum member id of the vertex's
/// component — for every vertex present in `all`, in order of first
/// appearance.
fn kruskal_ids_and_labels(all: &[CEdge]) -> RootedSolution {
    let index = VertexNumbering::of_edges(all);
    let verts = index.verts();
    let number = |x: VertexId| index.get(x).expect("every endpoint is numbered");
    let mut order: Vec<CEdge> = all.iter().filter(|e| !e.is_self_loop()).copied().collect();
    sort_by_unique_weight(&mut order);
    let mut uf = UnionFind::new(verts.len());
    let mut ids = Vec::new();
    for e in order {
        if uf.union(number(e.u), number(e.v)) {
            ids.push(e.id);
        }
    }
    let mut rep: Vec<VertexId> = vec![VertexId::MAX; verts.len()];
    for (i, &v) in verts.iter().enumerate() {
        let r = uf.find(i as u32) as usize;
        rep[r] = rep[r].min(v);
    }
    let labels = verts
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, rep[uf.find(i as u32) as usize]))
        .collect();
    (ids, labels)
}

/// The base case (Sec. IV-D stand-in): gather the prefiltered remaining
/// edges at rank 0 and solve sequentially there. Only the root receives
/// the MSF ids and the component labels ([`kruskal_ids_and_labels`]) —
/// it is also the PE that claims the ids for `REDISTRIBUTE MST`, so
/// nothing needs to be broadcast back. Collective.
pub(crate) fn rooted_base_case(comm: &Comm, edges: &[CEdge]) -> Option<RootedSolution> {
    let mine = prefilter_unordered(comm, edges);
    comm.gatherv(0, mine).map(|all| {
        comm.charge_local(2 * all.len() as u64);
        kruskal_ids_and_labels(&all)
    })
}

// ---------------------------------------------------------------------
// Algorithm 1: distributed Borůvka
// ---------------------------------------------------------------------

/// The contraction rounds of Algorithm 1 — `MIN EDGES`, `CONTRACT
/// COMPONENTS`, `EXCHANGE LABELS` + `RELABEL`, `REDISTRIBUTE` — repeated
/// until the graph fits the rooted base case or has no edge left; returns
/// that graph. Each round's MST edge ids are appended to `msf_ids`, and
/// its graph and labels (per local vertex) are shown to `on_labels`
/// before the graph is replaced — nothing for [`boruvka_mst`], the hooks
/// of the representative array for Filter-Borůvka's base case. The loop
/// reads a borrowed graph in place until its first redistribution builds
/// an owned one, so an input is never cloned; an owned graph hands its
/// edges over, since the graph is replaced right after. Collective.
pub(crate) fn boruvka_rounds<'g>(
    ph: &mut Phased<'_>,
    mut g: Cow<'g, DistGraph>,
    cfg: &MstConfig,
    msf_ids: &mut Vec<u64>,
    mut on_labels: impl FnMut(&DistGraph, &[VertexId]),
) -> Cow<'g, DistGraph> {
    let threshold = cfg.base_threshold(ph.comm().size());
    while g.n_global > threshold && g.m_global > 0 {
        let sels = ph.measure(Phase::GraphSetupMinEdges, |c| min_edges(c, &g));
        let outcome = ph.measure(Phase::ContractComponents, |c| {
            contract_components(c, &g, &sels)
        });
        msf_ids.extend(&outcome.mst_edge_ids);
        on_labels(&g, &outcome.labels);
        // An owned graph hands its edges over; an input graph lends them.
        let edges = match &mut g {
            Cow::Owned(owned) => Cow::Owned(std::mem::take(&mut owned.edges)),
            &mut Cow::Borrowed(input) => Cow::Borrowed(&input.edges[..]),
        };
        g = Cow::Owned(exchange_relabel_redistribute(
            ph,
            &g,
            edges,
            g.segment_offsets(),
            &outcome.labels,
            cfg,
        ));
    }
    g
}

/// `EXCHANGE LABELS` + `RELABEL` + `REDISTRIBUTE` of one round on `g`:
/// `edges` is `g.edges` or a subsequence of it in input order, with
/// `g.edges` possibly handed over already, `offsets` its segments and
/// `labels` the local vertices' labels ([`relabel_or_defer`]). The
/// edges are released in `REDISTRIBUTE`'s prefilter. Collective.
fn exchange_relabel_redistribute<'a>(
    ph: &mut Phased<'_>,
    g: &'a DistGraph,
    edges: Cow<'a, [CEdge]>,
    offsets: &'a [usize],
    labels: &'a [VertexId],
    cfg: &MstConfig,
) -> DistGraph {
    let relabelled = ph.measure(Phase::ExchangeLabelsRelabel, |c| {
        let table = exchange_labels_of(c, g, &edges, labels);
        relabel_or_defer(c, g, edges, offsets, labels, table, cfg)
    });
    ph.measure(Phase::Redistribute, |c| {
        redistribute_relabelled(c, relabelled, cfg)
    })
}

/// The scalable distributed Borůvka algorithm (Algorithm 1): optional
/// local preprocessing, then contraction rounds until the replicated base
/// case, then `REDISTRIBUTE MST` to map edge ids back to original edges.
/// Collective; returns this PE's share of the MSF.
pub fn boruvka_mst(comm: &Comm, input: &InputGraph, cfg: &MstConfig) -> MstResult {
    let mut ph = Phased::new(comm);
    let mut msf_ids: Vec<u64> = Vec::new();
    let mut start = Cow::Borrowed(&input.graph);

    if cfg.preprocessing {
        let pre = ph.measure(Phase::LocalPreprocessing, |c| {
            local_contract(c, &input.graph, cfg)
        });
        if pre.applied {
            msf_ids.extend(&pre.mst_edge_ids);
            // The survivors go in by value and are released by
            // `REDISTRIBUTE`'s prefilter: neither they nor the labels
            // outlive its phase.
            start = Cow::Owned(exchange_relabel_redistribute(
                &mut ph,
                &input.graph,
                Cow::Owned(pre.edges),
                &pre.offsets,
                &pre.labels,
                cfg,
            ));
        }
    }

    let g = boruvka_rounds(&mut ph, start, cfg, &mut msf_ids, |_, _| {});
    let edges = ph.measure(Phase::BaseCaseRedistributeMst, |c| {
        // Non-root PEs receive no ids from the rooted base case.
        if let Some((ids, _)) = rooted_base_case(c, &g.edges) {
            msf_ids.extend(ids);
        }
        input.redistribute_mst(c, std::mem::take(&mut msf_ids))
    });
    MstResult {
        edges,
        phases: ph.times,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::prefilter::tests::label_walk_ops;
    use kamsta_comm::{Machine, MachineConfig};

    #[test]
    fn mst_config_defaults_and_threshold() {
        let cfg = MstConfig::default();
        assert!(cfg.preprocessing);
        assert_eq!(cfg.dedup, DedupStrategy::HashFilter);
        assert_eq!(cfg.base_threshold(4), 4 * cfg.base_case_constant);
        assert!(!cfg.without_preprocessing().preprocessing);
    }

    /// How a test drives a pull: through the density rule with a span,
    /// or with the table decision already made.
    #[derive(Clone, Copy)]
    enum Via {
        Rule(Option<(u64, u64)>),
        Table(Option<(u64, usize)>),
    }

    /// What one PE saw of a pull: the answer for each probed id, whether
    /// they came from the dense table, and the PE's counters.
    type PullView = (Vec<Option<u64>>, bool, kamsta_comm::PeStats);

    /// What the home PE answers for `id` in [`run_pull`].
    fn answer_of(id: u64) -> u64 {
        kamsta_graph::hash::mix64(id) >> 1
    }

    /// Pull `queries[rank]` on `queries.len()` PEs over the id space
    /// `[lo, lo + width)`, block-homed, then probe every queried id, its
    /// two neighbours and both ends of the space. Checks the queried ids'
    /// answers against [`answer_of`].
    fn run_pull(queries: &[Vec<u64>], lo: u64, width: u64, via: Via) -> Vec<PullView> {
        let p = queries.len();
        let queries = queries.to_vec();
        let out = Machine::run(MachineConfig::new(p), move |comm| {
            let ids = queries[comm.rank()].clone();
            // Monotone in the id, and total: ids outside the space clamp.
            let home_of = |id: u64| {
                let off = id.saturating_sub(lo).min(width - 1) as u128;
                (off * p as u128 / width as u128) as usize
            };
            let table = match via {
                Via::Rule(span) => dense_width(span, ids.len()),
                Via::Table(table) => table,
            };
            let table = pull_values(comm, ids.clone(), table, home_of, answer_of);
            for &id in &ids {
                assert_eq!(table.get(id), Some(answer_of(id)), "queried id {id}");
            }
            let probes = ids
                .iter()
                .flat_map(|&id| [id, id.wrapping_sub(1), id.wrapping_add(1)])
                .chain([lo.wrapping_sub(1), lo, lo + (width - 1), lo + width]);
            let seen = probes.map(|id| table.get(id)).collect();
            (seen, table.is_dense(), comm.stats())
        });
        out.results
    }

    /// `count` ids of `[lo, lo + width)`, uniform with repetitions.
    pub(crate) fn ids_in(lo: u64, width: u64, count: usize, seed: u64) -> Vec<u64> {
        (0..count as u64)
            .map(|k| lo + kamsta_graph::hash::mix64(seed ^ k) % width)
            .collect()
    }

    /// Both paths over the same queries: equal answers (for the ids that
    /// were asked and for those that were not) and equal counters on every
    /// rank.
    fn assert_paths_agree(queries: &[Vec<u64>], lo: u64, width: u64, what: &str) {
        let dense = run_pull(queries, lo, width, Via::Table(Some((lo, width as usize))));
        let sparse = run_pull(queries, lo, width, Via::Table(None));
        for (rank, (d, s)) in dense.iter().zip(&sparse).enumerate() {
            assert!(d.1 && !s.1, "{what}: rank {rank} took the paths asked for");
            assert_eq!(d.0, s.0, "{what}: answers on rank {rank}");
            assert_eq!(d.2, s.2, "{what}: PeStats on rank {rank}");
        }
    }

    #[test]
    fn density_rule_flips_at_k_ids_per_query() {
        let k = DENSE_SPAN_PER_QUERY;
        assert_eq!(
            dense_width(Some((7, 7 + 5 * k - 1)), 5),
            Some((7, 5 * k as usize))
        );
        assert_eq!(dense_width(Some((7, 7 + 5 * k)), 5), None);
        assert_eq!(dense_width(None, 1 << 20), None);
        assert_eq!(
            dense_width(Some((3, 3)), 0),
            None,
            "nothing asked, no table"
        );
        assert_eq!(dense_width(Some((0, u64::MAX)), usize::MAX), None);
        assert_eq!(dense_width(Some((9, 3)), 100), None, "an inverted span");
        // The same boundary through a whole pull, on two PEs.
        for (width, dense) in [(40 * k - 1, true), (40 * k, true), (40 * k + 1, false)] {
            let queries = vec![ids_in(100, width, 40, 1), ids_in(100, width, 40, 2)];
            let span = Some((100, 100 + width - 1));
            for (rank, view) in run_pull(&queries, 100, width, Via::Rule(span))
                .iter()
                .enumerate()
            {
                assert_eq!(view.1, dense, "width {width}, rank {rank}");
            }
        }
    }

    #[test]
    fn pull_paths_agree_on_pinned_shapes() {
        let above_48 = (1u64 << 48) + 12_345;
        let shapes: Vec<(&str, u64, u64, Vec<Vec<u64>>)> = vec![
            ("one PE", 0, 50, vec![ids_in(0, 50, 200, 1)]),
            (
                "empty query lists on some PEs",
                10,
                64,
                vec![
                    vec![],
                    ids_in(10, 64, 90, 2),
                    vec![],
                    ids_in(10, 64, 3, 3),
                    vec![],
                ],
            ),
            ("nobody asks", 10, 64, vec![vec![], vec![], vec![]]),
            (
                "a span starting above 2^48",
                above_48,
                300,
                vec![ids_in(above_48, 300, 500, 4), ids_in(above_48, 300, 40, 5)],
            ),
            (
                "a one-id space",
                u64::MAX - 9,
                1,
                vec![vec![u64::MAX - 9; 5], vec![], vec![u64::MAX - 9]],
            ),
            (
                "word boundaries of the bitmap",
                0,
                129,
                vec![vec![0, 63, 64, 127, 128, 128, 0], vec![64, 63]],
            ),
        ];
        for (what, lo, width, queries) in &shapes {
            assert_paths_agree(queries, *lo, *width, what);
        }
    }

    #[test]
    fn an_id_outside_the_span_falls_back() {
        // PE 1 asks for ids beyond a (too narrow) span: it must take the
        // fallback and still be answered; PE 0 stays on the table, and the
        // counters are what two fallback pulls charge.
        let queries = vec![ids_in(20, 30, 64, 6), vec![25, 49, 50, 19, 1 << 50, 25]];
        let narrow = run_pull(&queries, 0, 1 << 51, Via::Rule(Some((20, 49))));
        let none = run_pull(&queries, 0, 1 << 51, Via::Rule(None));
        assert!(narrow[0].1 && !narrow[1].1);
        assert!(!none[0].1 && !none[1].1, "no span, no table");
        for rank in 0..2 {
            assert_eq!(narrow[rank].0, none[rank].0, "answers on rank {rank}");
            assert_eq!(narrow[rank].2, none[rank].2, "PeStats on rank {rank}");
        }
    }

    mod pull_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn dense_and_sparse_paths_agree(
                p_index in 0usize..4,
                lo_index in 0usize..3,
                width in 1u64..400,
                max_count in 0usize..300,
                seed in any::<u64>(),
            ) {
                let p = [1usize, 2, 3, 5][p_index];
                let lo = [0u64, 1 << 20, (1 << 48) + 5][lo_index];
                let queries: Vec<Vec<u64>> = (0..p as u64)
                    .map(|r| {
                        // Uneven loads, some PEs asking nothing.
                        let count = (kamsta_graph::hash::mix64(seed ^ r) % 3) as usize
                            * max_count
                            / 2;
                        ids_in(lo, width, count, seed.wrapping_add(r << 32))
                    })
                    .collect();
                assert_paths_agree(&queries, lo, width, "random id multiset");
            }
        }
    }

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

    #[test]
    fn kruskal_ids_pick_the_light_triangle() {
        let all = vec![
            CEdge::new(0, 1, 5, 10),
            CEdge::new(1, 2, 1, 11),
            CEdge::new(0, 2, 2, 12),
        ];
        let (ids, labels) = kruskal_ids_and_labels(&all);
        assert_eq!(ids, vec![11, 12]);
        assert_eq!(labels, vec![(0, 0), (1, 0), (2, 0)]);
    }

    #[test]
    fn redistribute_dedups_across_boundaries() {
        // Many duplicate copies of few pairs, scattered over PEs.
        let out = Machine::run(MachineConfig::new(4), |comm| {
            let r = comm.rank() as u64;
            let mut edges = Vec::new();
            for k in 0..50u64 {
                edges.push(CEdge::new(0, 1, (k % 7 + 1) as u32, r * 100 + k));
                edges.push(CEdge::new(1, 0, (k % 7 + 1) as u32, r * 100 + 50 + k));
            }
            edges.sort_unstable();
            let g = redistribute(comm, edges, &MstConfig::default());
            (g.m_global, g.edges.clone())
        });
        assert_eq!(out.results[0].0, 2, "one surviving copy per direction");
        let all: Vec<CEdge> = out.results.iter().flat_map(|(_, e)| e.clone()).collect();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].w, all[1].w, "surviving weights symmetric");
    }

    /// The Sec. IV-A pass as it stood with both copies of every internal
    /// edge live, each visit reading its record from the slice: the
    /// reference [`contract_local_subtrees`] must reproduce exactly.
    mod local_contract_oracle {
        use super::super::*;
        use kamsta_comm::{Machine, MachineConfig};
        use kamsta_graph::io::{distribute_from_root, symmetrize};
        use kamsta_graph::{GraphConfig, WEdge};

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
