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
//! 3. [`exchange_labels`] + [`relabel`] — the pull-based ghost-label
//!    protocol and endpoint rewriting (Sec. IV-C): the pulled labels come
//!    back as a [`Pulled`] — a table over the graph's id span whenever
//!    the ghosts are dense in it, which then also holds this PE's own
//!    labels, so rewriting a destination is one array load;
//! 4. [`redistribute`] — parallel-edge elimination (local per-pair
//!    prefilter or pure sorting, Sec. VI-B), distributed sorting, and
//!    re-establishing the distributed graph structure.
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
    /// Where a slice's sources lie in long runs over a dense destination
    /// span it is a table filter: one source at a time, the lightest copy
    /// per destination in a table over the span. Elsewhere it is a
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
    /// in input order and still with original endpoints — [`relabel`]
    /// rewrites them. Empty when the gate rejects (`applied == false`):
    /// the caller keeps using its own graph, nothing is cloned.
    pub edges: Vec<CEdge>,
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
const NOT_ASKED: u64 = u64::MAX;

/// The density rule's constant `K`: a lookup is served from a table over
/// the whole id span when the span is at most `K` ids wide per queried
/// id. Read off `bench_pull`'s crossover (EXPERIMENTS.md); it also bounds
/// the table at `8 K` bytes per queried id.
pub const DENSE_SPAN_PER_QUERY: u64 = 8;

/// The answers of one pull, by queried id: a table indexed by
/// `id − span.min` when the queried ids are dense in their span, a hash
/// map when they are not. Which one is decided per call, from the width
/// of the span and the number of queries alone; readers only see
/// [`Pulled::get`].
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
fn dense_get(lo: u64, slots: &[u64], id: u64) -> Option<u64> {
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
/// The result is what [`relabel`] reads destinations from. When the pull
/// came back as the dense table, this PE's own labels of the vertices it
/// is home to are written into it as well — every destination of the
/// slice, ghost or not, is then one slot of one array. The sparse
/// fallback holds the ghosts only.
pub fn exchange_labels(comm: &Comm, g: &DistGraph, labels: &[VertexId]) -> Pulled {
    comm.charge_local(g.edges.len() as u64);
    let ghosts: Vec<VertexId> = g
        .edges
        .iter()
        .map(|e| e.v)
        .filter(|&v| g.is_ghost(v))
        .collect();
    let mut table = pull(comm, g, ghosts, |x| local_or_self(g, labels, x));
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

// ---------------------------------------------------------------------
// pipeline stage 4: REDISTRIBUTE
// ---------------------------------------------------------------------

/// Parallel-edge elimination + distributed sort + re-establishment of the
/// distributed graph structure (Sec. IV-C, Sec. VI-B). Keeps, per ordered
/// endpoint pair, the copy that is minimal in `(w, id)` — both directions
/// of an undirected pair see the same weight multiset, so the surviving
/// graph stays symmetric. Collective.
pub fn redistribute(comm: &Comm, edges: Vec<CEdge>, cfg: &MstConfig) -> DistGraph {
    // Distributed sort under the lexicographic order, local phases radix
    // on the packed (u, v, w, id) key.
    let mut sorted = match cfg.dedup {
        DedupStrategy::HashFilter => {
            let kept = prefilter_pairs(comm, &edges);
            // The survivors are copies: release the input before the
            // distributed sort allocates its buffers.
            drop(edges);
            // Already in order: the sort skips its local scan.
            kamsta_sort::sort_auto_sorted(comm, kept, 0xC0FFEE)
        }
        DedupStrategy::Sort => {
            // Same linear scan as the prefilter pays, so the Sec. VI-B
            // ablation compares strategies under equal γ-accounting.
            comm.charge_local(edges.len() as u64);
            let filtered = edges.into_iter().filter(|e| !e.is_self_loop()).collect();
            kamsta_sort::sort_auto_by_key(comm, filtered, 0xC0FFEE, CEdge::lex_key)
        }
    };
    comm.charge_local(sorted.len() as u64);
    // Keep the first (lightest, smallest-id) copy of each consecutive pair
    // group; groups straddling PE boundaries are resolved below.
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
/// The count reads segment ends, not the slice: under the symmetric
/// closure every destination between two sources of this slice is a
/// source of it, so a contractible vertex's internal edges are its
/// destinations between the first and the last contractible vertex. A
/// segment (sorted by destination) whose two ends lie in that range
/// counts whole — the common case on a local graph, whose pass then reads
/// the slice once — and only a straddling one takes two binary searches.
/// γ is charged for a scan of the slice: the count the paper's gate
/// takes, and the first round of the pass it decides on.
pub fn excess_locality(comm: &Comm, g: &DistGraph) -> f64 {
    let verts = g.local_vertices();
    let offsets = g.segment_offsets();
    let inner = contractible(g);
    let mut internal = 0u64;
    if !inner.is_empty() {
        let (first, last) = (verts[inner.start], verts[inner.end - 1]);
        for a in inner {
            // Segments are non-empty and sorted by destination.
            let seg = &g.edges[offsets[a]..offsets[a + 1]];
            internal += if first <= seg[0].v && seg[seg.len() - 1].v <= last {
                seg.len()
            } else {
                let from = seg.partition_point(|e| e.v < first);
                seg[from..].partition_point(|e| e.v <= last)
            } as u64;
        }
    }
    comm.charge_local(g.edges.len() as u64);
    let internal = comm.allreduce_sum(internal);
    let f0 = g.same_pe_chance;
    match g.m_global {
        0 => 0.0,
        _ if f0 >= 1.0 => 1.0,
        m => (internal as f64 / m as f64 - f0) / (1.0 - f0),
    }
}

/// A live edge of [`contract_local_subtrees`]: the current components of
/// its endpoints and its position in the slice (12 bytes per local edge).
#[derive(Clone, Copy)]
struct LiveEdge {
    /// Component of the source, always a contractible vertex's.
    a: u32,
    /// Component of the destination; the sentinel `n` (the number of
    /// local vertices) when the destination is not contractible here.
    b: u32,
    /// Index into `g.edges`.
    pos: u32,
}

/// A component's lightest live edge so far this round.
#[derive(Clone, Copy)]
struct Lightest {
    w: Weight,
    id: u64,
    /// The component across the edge (or the not-contractible sentinel).
    to: u32,
}

/// Keep `e`, which leads to component `to`, if it is lighter than what
/// `slot` holds.
#[inline]
fn offer(slot: &mut Option<Lightest>, e: &CEdge, to: u32) {
    if slot.is_none_or(|l| (e.w, e.id) < (l.w, l.id)) {
        *slot = Some(Lightest {
            w: e.w,
            id: e.id,
            to,
        });
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
    let excess = excess_locality(comm, g);
    if !(cfg.preprocessing && excess >= PREPROCESS_MIN_EXCESS_LOCALITY) {
        return PreprocessOutcome {
            edges: Vec::new(),
            labels: Vec::new(),
            applied: false,
            mst_edge_ids: Vec::new(),
        };
    }
    contract_scanned(comm, g)
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
/// [`DistGraph::local_vertices`]. Endpoints are resolved to local indices
/// once; after that a round is one pass over the *live* edges — those
/// whose endpoints are still in different components — that refreshes
/// both endpoint labels from a flat array, drops the edges that became
/// internal (for good) and keeps each open component's minimum in a
/// vector. The live list that remains at the end is the surviving edge
/// list. γ is charged per live edge scanned.
pub fn contract_local_subtrees(comm: &Comm, g: &DistGraph) -> PreprocessOutcome {
    comm.charge_local(g.edges.len() as u64);
    contract_scanned(comm, g)
}

/// [`contract_local_subtrees`] once γ for its first scan of the slice is
/// charged — by the pass itself, or by the gate's count before it.
fn contract_scanned(comm: &Comm, g: &DistGraph) -> PreprocessOutcome {
    let verts = g.local_vertices();
    let offsets = g.segment_offsets();
    let n = verts.len();
    assert!(g.edges.len() < u32::MAX as usize, "edge positions are u32");
    let std::ops::Range { start: lo, end: hi } = contractible(g);
    let none = n as u32;

    // Resolve every edge with a contractible source to local indices —
    // the source is the segment number, the destination one lookup. The
    // same pass is the first round's scan: every vertex is a component,
    // its segment holds all its edges, self-loops are internal already.
    let mut live: Vec<LiveEdge> = Vec::with_capacity(offsets[hi] - offsets[lo]);
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
            live.push(LiveEdge {
                a: a as u32,
                b,
                pos: pos as u32,
            });
            offer(&mut lightest[a], e, b);
        }
    }

    let mut uf = UnionFind::new(n);
    // Current component of every vertex that was a component root when
    // the previous round ended — the only indices live edges carry. The
    // extra slot maps the not-contractible sentinel to itself.
    let mut label: Vec<u32> = (0..=none).collect();
    let mut roots: Vec<u32> = (lo as u32..hi as u32).collect();
    let mut sits_out = vec![false; n];
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
                // `root` absorbed `c`: a new component, open again.
                sits_out[root as usize] = false;
            }
        }
        roots.retain(|&c| label[c as usize] == c);

        // One pass over the live edges: refresh both labels, drop what
        // became internal, take the open components' minima.
        comm.charge_local(live.len() as u64);
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

    // Representative per component: the minimum member, which an
    // ascending walk meets first.
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

    // Survivors in input order: a shared first vertex's edges, the live
    // list, a shared last vertex's edges.
    let survivors = offsets[lo] + live.len() + (g.edges.len() - offsets[hi]);
    comm.charge_local(survivors as u64);
    let mut edges: Vec<CEdge> = Vec::with_capacity(survivors);
    edges.extend_from_slice(&g.edges[..offsets[lo]]);
    edges.extend(live.iter().map(|l| g.edges[l.pos as usize]));
    edges.extend_from_slice(&g.edges[offsets[hi]..]);

    PreprocessOutcome {
        edges,
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

/// The kernel of both prefilters: of the edges `keep` accepts, the copy
/// minimal in `(w, id)` of every ordered `(u, v)` pair, in `(u, v)`
/// order — the sequence "sort by `(u, v, w, id)`, keep the first of each
/// `(u, v)` run" produces, without sorting `w` and `id` into place.
///
/// One input-order pass ([`RunScan`]) finds the runs of kept edges with
/// equal `u`, counts the kept edges and takes their destinations' span.
/// Where the runs are long and the span dense — the post-`relabel`
/// slices of a Borůvka round, still in the old `(u, v)` order — each
/// source's runs are merged in a table over the span ([`group_walk`]).
/// Elsewhere (Filter-Borůvka's light subgraphs, random slices) the
/// radix engine orders the kept edges by their pair key alone and one
/// walk along that order emits each run's minimum. Output and γ charge
/// are the same on both sides — the group side charges what the radix
/// order would have, from the keys the pass saw — and independent of
/// `threads_per_pe` (DESIGN.md §14).
fn lightest_per_pair(
    comm: &Comm,
    edges: &[CEdge],
    keep: impl Fn(&CEdge) -> bool + Sync,
) -> Vec<CEdge> {
    comm.charge_local(edges.len() as u64);
    let mut scan = RunScan::new(edges.len());
    let order_ops = kamsta_sort::radix_order_charge(edges.len(), scan.keys(edges, &keep));
    if let Some((lo, width)) = scan.table() {
        // The pass ran to the end, so the charge is the whole slice's.
        comm.charge_local(order_ops.unwrap_or_else(|e| too_long(e)));
        return group_walk(edges, &keep, &scan, lo, width);
    }
    let order = kamsta_sort::local_radix_order(comm, edges, |e| keep(e).then(|| e.pair_key()))
        .unwrap_or_else(|e| too_long(e));
    let mut out = Vec::with_capacity(order.len());
    let mut run = order.iter().map(|&i| edges[i as usize]);
    let Some(mut best) = run.next() else {
        return out;
    };
    for e in run {
        if (e.u, e.v) != (best.u, best.v) {
            out.push(best);
            best = e;
        } else if (e.w, e.id) < (best.w, best.id) {
            best = e;
        }
    }
    out.push(best);
    out
}

fn too_long(e: kamsta_sort::TooLongForRadix) -> ! {
    panic!("a PE's edge slice must be u32-indexable: {e}")
}

/// The mean number of kept edges per source run from which the
/// prefilter merges runs in a table ([`group_walk`]) rather than
/// radix-ordering pair keys. Below it a group's table traffic and its
/// destination sort cost more than the four counting passes they
/// replace (EXPERIMENTS.md "The prefilter walks source groups").
const GROUP_WALK_MIN_RUN: usize = 8;

/// The runs [`RunScan`] sees before it judges their mean length.
const GROUP_WALK_SAMPLE_RUNS: usize = 64;

/// A maximal stretch of kept edges with one source, by the input
/// position of its first edge; it ends where the next run starts (or
/// at the slice's end), and the edges `keep` drops in between are
/// skipped again when it is walked.
struct Run {
    u: VertexId,
    start: u32,
}

/// What [`lightest_per_pair`]'s input-order pass learns: the source
/// runs, the number of kept edges and their destinations' span. The
/// pass gives up — and the radix side pays for the prefix it read, not
/// for the slice — at the first run boundary where
/// [`GROUP_WALK_SAMPLE_RUNS`] or more runs average fewer than
/// [`GROUP_WALK_MIN_RUN`] kept edges, or at the first edge that
/// stretches the span beyond what the density rule allows on the whole
/// slice.
struct RunScan {
    runs: Vec<Run>,
    kept: usize,
    span: Option<(u64, u64)>,
    max_span: u64,
    gave_up: bool,
}

impl RunScan {
    fn new(len: usize) -> Self {
        RunScan {
            runs: Vec::new(),
            kept: 0,
            span: None,
            max_span: DENSE_SPAN_PER_QUERY.saturating_mul(len as u64),
            gave_up: false,
        }
    }

    /// The pair keys of the kept edges in input order, each seen by the
    /// scan on the way; they end early where the scan gives up.
    fn keys<'a>(
        &'a mut self,
        edges: &'a [CEdge],
        keep: &'a impl Fn(&CEdge) -> bool,
    ) -> impl Iterator<Item = u128> + 'a {
        edges
            .iter()
            .enumerate()
            .filter(|(_, e)| keep(e))
            .map_while(|(i, e)| self.see(i, e).then(|| e.pair_key()))
    }

    /// Take the kept edge at input position `i`; false once the table
    /// walk is ruled out.
    #[inline]
    fn see(&mut self, i: usize, e: &CEdge) -> bool {
        if self.runs.last().is_none_or(|r| r.u != e.u) {
            let runs = self.runs.len();
            if runs >= GROUP_WALK_SAMPLE_RUNS && self.kept < GROUP_WALK_MIN_RUN * runs {
                self.gave_up = true;
                return false;
            }
            self.runs.push(Run {
                u: e.u,
                start: i as u32,
            });
        }
        let (lo, hi) = self.span.get_or_insert((e.v, e.v));
        *lo = (*lo).min(e.v);
        *hi = (*hi).max(e.v);
        if *hi - *lo >= self.max_span {
            self.gave_up = true;
            return false;
        }
        self.kept += 1;
        true
    }

    /// The table `(lo, width)` over the kept destinations when the pass
    /// saw the whole slice, the runs average [`GROUP_WALK_MIN_RUN`]
    /// kept edges and the span is dense by [`dense_width`].
    fn table(&self) -> Option<(u64, usize)> {
        if self.gave_up || self.kept < GROUP_WALK_MIN_RUN * self.runs.len() {
            return None;
        }
        dense_width(self.span, self.kept).filter(|&(_, width)| u32::try_from(width).is_ok())
    }
}

/// The table side of [`lightest_per_pair`]. The runs are ordered by
/// source with the (stable) radix engine, so each source's runs form
/// one group, in input order. A group keeps, per destination, the input
/// position of its `(w, id)`-lightest copy in a slot of a table over the
/// span; the slot is stamped with the group's number, so the table is
/// filled once per call and never cleared. The group's distinct
/// destinations, sorted, then emit one copy each: sources ascending,
/// destinations ascending within a source — the definition's sequence.
fn group_walk(
    edges: &[CEdge],
    keep: impl Fn(&CEdge) -> bool,
    scan: &RunScan,
    lo: u64,
    width: usize,
) -> Vec<CEdge> {
    let runs = &scan.runs;
    let (order, _) = kamsta_sort::radix_order_by_key(runs, |r| Some(r.u))
        .expect("fewer runs than edges, which are u32-indexable");
    let end_of = |r: usize| runs.get(r + 1).map_or(edges.len(), |n| n.start as usize);
    // `(stamp, position)`: stamp 0 is no group's.
    let mut slots: Vec<(u32, u32)> = vec![(0, 0); width];
    let mut dests: Vec<u32> = Vec::new();
    let mut out = Vec::with_capacity(scan.kept);
    let mut stamp = 0u32;
    let mut k = 0;
    while k < order.len() {
        let u = runs[order[k] as usize].u;
        stamp += 1;
        dests.clear();
        while let Some(&r) = order.get(k).filter(|&&r| runs[r as usize].u == u) {
            let r = r as usize;
            for i in runs[r].start as usize..end_of(r) {
                let e = &edges[i];
                if !keep(e) {
                    continue;
                }
                let d = (e.v - lo) as u32;
                let slot = &mut slots[d as usize];
                if slot.0 != stamp {
                    *slot = (stamp, i as u32);
                    dests.push(d);
                } else {
                    let best = &edges[slot.1 as usize];
                    if (e.w, e.id) < (best.w, best.id) {
                        slot.1 = i as u32;
                    }
                }
            }
            k += 1;
        }
        dests.sort_unstable();
        out.extend(dests.iter().map(|&d| edges[slots[d as usize].1 as usize]));
    }
    out
}

/// Local keep-lightest-per-pair prefilter used by the `REDISTRIBUTE`
/// dedup — self-loops, identical duplicates and parallel copies never
/// travel, and the survivors are already in lexicographic order (one
/// copy per pair, pairs ascending: the [`Sorted`] witness). Both
/// directions survive, keeping the edge list symmetric.
fn prefilter_pairs(comm: &Comm, edges: &[CEdge]) -> Sorted<CEdge> {
    Sorted::assume(lightest_per_pair(comm, edges, |e| !e.is_self_loop()))
}

/// Keep-lightest-per-*unordered*-pair prefilter for the replicated base
/// cases. The symmetric closure holds both directions of every
/// undirected edge machine-wide, and a sequential Kruskal can only ever
/// use, per unordered pair, the copy minimal in `(w, id)` — the back
/// edge and every (also heavier) parallel copy join two already-connected
/// components. Keeping only the `u < v` direction halves the gathered
/// volume, and makes the ordered pair `(u, v) = (min, max)` the
/// unordered one, so the per-pair minimum is exactly the candidate the
/// sequential tie-break would pick. The undirected MSF is unique under
/// the unique-weight total order, so the forest is unchanged.
fn prefilter_unordered(comm: &Comm, edges: &[CEdge]) -> Vec<CEdge> {
    lightest_per_pair(comm, edges, |e| e.u < e.v)
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
/// an owned one, so an input is never cloned; an owned graph's edges are
/// relabelled in place, since the graph is replaced right after.
/// Collective.
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
        let relabeled = ph.measure(Phase::ExchangeLabelsRelabel, |c| {
            let ghost = exchange_labels(c, &g, &outcome.labels);
            match &mut g {
                Cow::Owned(owned) => {
                    let edges = std::mem::take(&mut owned.edges);
                    relabel(c, owned, edges, &outcome.labels, &ghost)
                }
                Cow::Borrowed(input) => relabel(c, input, &input.edges, &outcome.labels, &ghost),
            }
        });
        g = Cow::Owned(ph.measure(Phase::Redistribute, |c| redistribute(c, relabeled, cfg)));
    }
    g
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
            // The survivors go in by value and are relabelled in place:
            // neither they nor the labels outlive this phase.
            let PreprocessOutcome { edges, labels, .. } = pre;
            let relabeled = ph.measure(Phase::ExchangeLabelsRelabel, move |c| {
                let ghost = exchange_labels(c, &input.graph, &labels);
                relabel(c, &input.graph, edges, &labels, &ghost)
            });
            start =
                Cow::Owned(ph.measure(Phase::Redistribute, |c| redistribute(c, relabeled, cfg)));
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

    /// The prefilters' definition: of the edges `keep` accepts, sorted by
    /// `CEdge::lex_key`, the first of every `(u, v)` run.
    fn reference_prefilter(edges: &[CEdge], keep: impl Fn(&CEdge) -> bool) -> Vec<CEdge> {
        let mut kept: Vec<CEdge> = edges.iter().filter(|e| keep(e)).copied().collect();
        kept.sort_by_key(CEdge::lex_key);
        kept.dedup_by(|a, b| a.u == b.u && a.v == b.v);
        kept
    }

    /// A prefilter's `keep` rule.
    type Keep = fn(&CEdge) -> bool;

    /// The two prefilters' `keep` rules, by name.
    const KEEPS: [(&str, Keep); 2] = [
        ("prefilter_pairs", |e| !e.is_self_loop()),
        ("prefilter_unordered", |e| e.u < e.v),
    ];

    /// The γ units `local_radix_order` charges on the pair keys of the
    /// edges `keep` accepts: what a prefilter charges beyond its `n`-unit
    /// scan, whichever side ran.
    fn radix_order_ops(edges: &[CEdge], keep: Keep) -> u64 {
        let edges = edges.to_vec();
        let out = Machine::run(MachineConfig::new(1), move |comm| {
            kamsta_sort::local_radix_order(comm, &edges, |e| keep(e).then(|| e.pair_key()))
                .unwrap();
            comm.stats().local_ops
        });
        out.results[0]
    }

    /// Whether `lightest_per_pair` merges source groups in a table on
    /// `edges` (true) or radix-orders their pair keys (false).
    fn walks_groups(edges: &[CEdge], keep: Keep) -> bool {
        let mut scan = RunScan::new(edges.len());
        scan.keys(edges, &keep).for_each(drop);
        scan.table().is_some()
    }

    /// Both prefilters on one PE with `t` pool threads: their outputs and
    /// the γ units each charged.
    fn run_prefilters(edges: &[CEdge], t: usize) -> [(Vec<CEdge>, u64); 2] {
        let edges = edges.to_vec();
        let out = Machine::run(MachineConfig::new(1).with_threads(t), move |comm| {
            let pairs = prefilter_pairs(comm, &edges).into_inner();
            let pairs_ops = comm.stats().local_ops;
            let unordered = prefilter_unordered(comm, &edges);
            let unordered_ops = comm.stats().local_ops - pairs_ops;
            [(pairs, pairs_ops), (unordered, unordered_ops)]
        });
        out.results.into_iter().next().unwrap()
    }

    /// Each prefilter's output is its definition's, and its charge is
    /// `n` plus what the radix order charges on the kept pair keys.
    fn assert_prefilters_match_their_definition(edges: &[CEdge], t: usize, what: &str) {
        let got = run_prefilters(edges, t);
        for ((name, keep), (out, ops)) in KEEPS.into_iter().zip(got) {
            assert_eq!(
                out,
                reference_prefilter(edges, keep),
                "{what}: {name}, t={t}"
            );
            let expect = edges.len() as u64 + radix_order_ops(edges, keep);
            assert_eq!(ops, expect, "{what}: {name}'s charge, t={t}");
        }
    }

    /// `n` random edges over `labels` endpoints spaced `1 << shift`
    /// apart, weights below `weights`, ids below `ids` — small ranges
    /// make parallel copies, equal weights and exact duplicates common.
    fn multigraph(
        n: usize,
        labels: u64,
        shift: u32,
        weights: u64,
        ids: u64,
        seed: u64,
    ) -> Vec<CEdge> {
        let mut state = seed;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 24
        };
        (0..n)
            .map(|_| {
                CEdge::new(
                    (rng() % labels) << shift,
                    (rng() % labels) << shift,
                    (rng() % weights + 1) as u32,
                    rng() % ids,
                )
            })
            .collect()
    }

    /// The post-`relabel` shape of a Borůvka round: `n` edges among
    /// `vertices` vertices sorted by `(u, v)`, then both endpoints
    /// relabelled to `base + hash mod labels`. A label's edges lie in
    /// runs apart in the slice; an edge inside one label is a self-loop
    /// inside its run; small `weights` and `ids` make equal weights and
    /// exact duplicates across one source's runs common.
    fn relabelled(
        n: usize,
        vertices: u64,
        labels: u64,
        base: u64,
        weights: u64,
        ids: u64,
        seed: u64,
    ) -> Vec<CEdge> {
        let label = |x: u64| base + kamsta_graph::hash::mix64(seed ^ x) % labels;
        let mut edges = multigraph(n, vertices, 0, weights, ids, seed);
        edges.sort_unstable_by_key(|e| (e.u, e.v));
        for e in &mut edges {
            (e.u, e.v) = (label(e.u), label(e.v));
        }
        edges
    }

    /// Runs of the given lengths that both prefilters keep whole (`u <
    /// v`, no self-loop): sources cycle through five labels, so every
    /// source's runs lie apart; destinations lie in `[lo, lo + width)`
    /// and take both ends, so the kept span is exactly `width` wide.
    fn runs_over_span(lens: &[usize], lo: u64, width: u64, seed: u64) -> Vec<CEdge> {
        let n: usize = lens.iter().sum();
        let mut edges = Vec::with_capacity(n);
        for (r, &len) in lens.iter().enumerate() {
            for _ in 0..len {
                let k = edges.len() as u64;
                let v = match k {
                    0 => lo,
                    _ if k + 1 == n as u64 => lo + width - 1,
                    _ => lo + kamsta_graph::hash::mix64(seed ^ k) % width,
                };
                let w = 1 + (kamsta_graph::hash::mix64(seed ^ !k) % 3) as u32;
                edges.push(CEdge::new((r % 5) as u64, v, w, k % 7));
            }
        }
        edges
    }

    #[test]
    fn prefilters_match_their_definition_on_pinned_shapes() {
        let shapes: Vec<(&str, Vec<CEdge>)> = vec![
            ("empty", vec![]),
            ("one edge", vec![CEdge::new(3, 1, 7, 0)]),
            (
                "all self-loops",
                (0..300).map(|i| CEdge::new(i % 7, i % 7, 1, i)).collect(),
            ),
            (
                "endpoints above 2^32",
                multigraph(5_000, 200, 27, 250, 1 << 20, 1),
            ),
            (
                "endpoints above 2^48",
                multigraph(5_000, 200, 44, 250, 1 << 20, 2),
            ),
            ("exact duplicates", multigraph(5_000, 12, 0, 2, 3, 3)),
            (
                "equal weights, ids differ",
                multigraph(5_000, 12, 0, 1, 1 << 30, 4),
            ),
            (
                "RMAT-like, >= 16 copies per pair",
                multigraph(40_000, 48, 3, 250, 1 << 20, 5),
            ),
            // Both sides of the engine's small-slice cutoff (96) …
            ("n = 95", multigraph(95, 30, 0, 9, 50, 6)),
            ("n = 96", multigraph(96, 30, 0, 9, 50, 7)),
            ("n = 97", multigraph(97, 30, 0, 9, 50, 8)),
            // … and of its parallel cutoff (65 536), which the t = 2 and
            // t = 8 runs below cross.
            ("n = 65 535", multigraph(65_535, 3_000, 0, 250, 1 << 21, 9)),
            ("n = 65 536", multigraph(65_536, 3_000, 0, 250, 1 << 21, 10)),
            ("n = 65 537", multigraph(65_537, 3_000, 0, 250, 1 << 21, 11)),
        ];
        for (what, edges) in &shapes {
            for t in [1usize, 2, 8] {
                assert_prefilters_match_their_definition(edges, t, what);
            }
        }
        // Relabel-shaped slices, with the side each prefilter
        // (`[pairs, unordered]`) must take on them.
        let limit = 8 * 64 * 16;
        let relabel_shapes: Vec<(&str, Vec<CEdge>, [bool; 2])> = vec![
            (
                "a GNM round after relabel",
                relabelled(40_000, 2_000, 700, 0, 250, 1 << 21, 13),
                [true, true],
            ),
            (
                "one source's runs apart, self-loops inside runs",
                relabelled(5_000, 100, 12, 0, 250, 1 << 20, 14),
                [true, true],
            ),
            (
                "exact duplicates and equal weights across runs",
                relabelled(5_000, 100, 12, 0, 2, 3, 15),
                [true, true],
            ),
            (
                "span at the density limit",
                runs_over_span(&[16; 64], 9, limit, 16),
                [true, true],
            ),
            (
                "span one id past the density limit",
                runs_over_span(&[16; 64], 9, limit + 1, 17),
                [false, false],
            ),
            (
                "mean run at the threshold",
                runs_over_span(&[GROUP_WALK_MIN_RUN; 100], 9, 50, 18),
                [true, true],
            ),
            (
                "mean run one edge below the threshold",
                runs_over_span(
                    &[
                        [GROUP_WALK_MIN_RUN; 99].as_slice(),
                        &[GROUP_WALK_MIN_RUN - 1],
                    ]
                    .concat(),
                    9,
                    50,
                    19,
                ),
                [false, false],
            ),
            (
                "long runs, endpoints above 2^32",
                relabelled(20_000, 500, 300, (1 << 32) + 7, 250, 1 << 20, 20),
                [true, true],
            ),
            (
                "long runs, endpoints above 2^48",
                relabelled(20_000, 500, 300, (1 << 48) + 9, 250, 1 << 20, 21),
                [true, true],
            ),
        ];
        for (what, edges, sides) in &relabel_shapes {
            for ((name, keep), side) in KEEPS.into_iter().zip(sides) {
                assert_eq!(walks_groups(edges, keep), *side, "{what}: {name}'s side");
            }
            for t in [1usize, 2, 8] {
                assert_prefilters_match_their_definition(edges, t, what);
            }
        }
    }

    #[test]
    fn prefilter_output_and_charge_are_thread_invariant() {
        // Well past the parallel cutoff, on the post-relabel shape of a
        // GNM round: the width-parallel order must reproduce both the
        // survivors and the γ units of the sequential one.
        // Random sources take the radix side, the relabel shape (runs of
        // about 32 edges per source vertex) the group side.
        let shapes = [
            (
                "2^17 random edges",
                multigraph(1 << 17, 1 << 12, 0, 254, 1 << 21, 12),
                false,
            ),
            (
                "2^17 relabelled edges",
                relabelled(1 << 17, 1 << 12, 1 << 11, 0, 254, 1 << 21, 22),
                true,
            ),
        ];
        for (what, edges, groups) in &shapes {
            for (name, keep) in KEEPS {
                assert_eq!(walks_groups(edges, keep), *groups, "{what}: {name}'s side");
            }
            let seq = run_prefilters(edges, 1);
            assert!(seq[0].0.len() > 1 << 16 && seq[0].1 > 0, "{what}");
            for t in [2usize, 8] {
                assert_eq!(run_prefilters(edges, t), seq, "{what}: t={t}");
            }
            assert_prefilters_match_their_definition(edges, 8, what);
        }
    }

    mod prefilter_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn prefilters_match_their_definition(
                n in 0usize..400,
                labels in 1u64..40,
                shift in 0u32..50,
                weights in 1u64..6,
                ids in 1u64..500,
                seed in any::<u64>(),
                t in 1usize..4,
                runs in any::<bool>(),
            ) {
                // Run-structured: `labels` vertices relabelled onto as many
                // labels from `2^shift` on; long runs reach the group side.
                let (edges, what) = if runs {
                    let edges = relabelled(n, labels, labels, 1 << shift, weights, ids, seed);
                    (edges, "relabelled multigraph")
                } else {
                    (multigraph(n, labels, shift, weights, ids, seed), "random multigraph")
                };
                assert_prefilters_match_their_definition(&edges, t, what);
            }
        }
    }
}
