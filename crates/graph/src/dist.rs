//! The distributed graph data structure (Sec. II-B).
//!
//! The edge sequence `E` is lexicographically sorted and 1D-partitioned:
//! PE `i` holds a contiguous subsequence `E_i`. An array of size `p`
//! holding `minlex(E_i)` for every PE is replicated on each PE, allowing
//! localisation of the *home PE* of a vertex or edge by binary search.
//!
//! A vertex whose edges span a PE boundary is *shared*; from the point of
//! view of a PE, a non-local vertex appearing in `E_i` is a *ghost*.

use crate::edge::{CEdge, VertexId, WEdge};
use kamsta_comm::Comm;

/// Sentinel locator entry for trailing empty PEs.
const LOCATOR_MAX: WEdge = WEdge::new(VertexId::MAX, VertexId::MAX, u32::MAX);

/// A 1D-partitioned, lexicographically sorted distributed edge list with
/// the replicated `minlex` locator.
#[derive(Clone, Debug)]
pub struct DistGraph {
    /// This PE's contiguous slice of the global edge sequence, locally
    /// sorted by `(u, v, w)`.
    pub edges: Vec<CEdge>,
    /// Replicated: effective first edge of each PE. Empty PEs inherit the
    /// next non-empty PE's first edge (trailing empties get a sentinel),
    /// which keeps home lookup a single `partition_point`.
    locator: Vec<WEdge>,
    /// Global number of distinct vertices appearing in edges.
    pub n_global: u64,
    /// Global number of (directed) edges.
    pub m_global: u64,
    /// Replicated: the chance that two edges drawn at random lie on one
    /// PE, `Σᵢ (mᵢ/m)²` over the PEs' edge counts `mᵢ` — `1/p` when the
    /// slices are equal, 1 when one PE holds every edge, 0 for the empty
    /// graph.
    pub same_pe_chance: f64,
    /// True if this PE's first vertex also appears on an earlier PE.
    pub first_shared: bool,
    /// True if this PE's last vertex also appears on a later PE.
    pub last_shared: bool,
    /// Replicated: the smallest and the largest source id of the whole
    /// machine (`None` for the empty graph), read off the boundary
    /// allgather that builds the locator anyway.
    id_span: Option<(VertexId, VertexId)>,
    /// The dense local-vertex index: the distinct sources of `edges`,
    /// ascending. A vertex's position here — its segment number — is its
    /// *local index*, the key of every per-vertex array the local kernels
    /// keep. Built once with the graph; it describes the
    /// endpoints `edges` had then, so code that rewrites endpoints builds
    /// a new graph instead (ids and weights may change in place).
    verts: Vec<VertexId>,
    /// `seg_offsets[i]..seg_offsets[i + 1]` is the edge range of local
    /// vertex `i`; one entry more than `verts`.
    seg_offsets: Vec<usize>,
    /// Direct id → local index table over `[first, last]` (`u32::MAX` for
    /// ids that are no source here), kept when that id range is at most
    /// twice the vertex count — inputs, whose ids are contiguous up to
    /// isolated vertices. Empty otherwise (component labels after a
    /// contraction are a sparse subset of the id space); lookups then
    /// binary-search `verts`.
    direct: Vec<u32>,
    rank: usize,
    p: usize,
}

/// What the two boundary allgathers of [`DistGraph::establish`] tell
/// every PE: the locator, the shared-vertex flags and the id span. Both
/// ways of building a graph start with them — `establish` and the input
/// preparation's one pass — and end in [`DistGraph::close`].
pub(crate) struct Boundaries {
    locator: Vec<WEdge>,
    first_shared: bool,
    last_shared: bool,
    id_span: Option<(VertexId, VertexId)>,
}

impl Boundaries {
    /// Allgather this PE's first edge and its first and last source — the
    /// allgather-on-first-edge step of Sec. IV-C. Collective.
    pub(crate) fn gather(
        comm: &Comm,
        first: Option<WEdge>,
        bounds: Option<(VertexId, VertexId)>,
    ) -> Self {
        let p = comm.size();
        let firsts = comm.allgather(first);

        // Fill-back rule for empty PEs.
        let mut locator = vec![LOCATOR_MAX; p];
        let mut next = LOCATOR_MAX;
        for i in (0..p).rev() {
            if let Some(e) = firsts[i] {
                next = e;
            }
            locator[i] = next;
        }

        // Shared-vertex flags: compare boundary sources between
        // consecutive non-empty PEs.
        let all_bounds = comm.allgather(bounds);
        let mut first_shared = false;
        let mut last_shared = false;
        if let Some((my_first, my_last)) = bounds {
            if let Some(b) = all_bounds[..comm.rank()].iter().rev().flatten().next() {
                first_shared = b.1 == my_first;
            }
            if let Some(b) = all_bounds[comm.rank() + 1..].iter().flatten().next() {
                last_shared = b.0 == my_last;
            }
        }

        // The sequence is globally sorted: the first holder starts on the
        // smallest source, the last one ends on the largest.
        let mut holders = all_bounds.iter().flatten();
        let id_span = holders
            .next()
            .map(|first| (first.0, holders.last().unwrap_or(first).1));
        Self {
            locator,
            first_shared,
            last_shared,
            id_span,
        }
    }
}

/// The length of a direct id → local index table over the sources
/// `first..=last`, if `count` vertices justify one: the range is at most
/// twice `count`.
pub(crate) fn direct_len(first: VertexId, last: VertexId, count: usize) -> Option<usize> {
    (last - first < 2 * count as u64).then_some((last - first) as usize + 1)
}

/// [`DistGraph::local_index`] over a vertex list and its direct table
/// (empty, or indexed from the list's first vertex). The list may still
/// be growing, as in the prepare pass: `direct` then holds every vertex
/// listed so far.
#[inline]
pub(crate) fn index_in(verts: &[VertexId], direct: &[u32], v: VertexId) -> Option<usize> {
    let first = *verts.first()?;
    if v < first || v > *verts.last()? {
        return None;
    }
    if !direct.is_empty() {
        let i = direct[(v - first) as usize];
        return (i != u32::MAX).then_some(i as usize);
    }
    verts.binary_search(&v).ok()
}

impl DistGraph {
    /// Establish the distributed graph structure from this PE's slice of a
    /// globally sorted edge sequence — the allgather-on-first-edge step of
    /// Sec. IV-C. Collective.
    ///
    /// Debug builds verify the local sortedness invariant.
    pub fn establish(comm: &Comm, edges: Vec<CEdge>) -> Self {
        debug_assert!(
            edges.windows(2).all(|w| w[0] <= w[1]),
            "edge slice must be locally sorted"
        );
        let bounds = edges.first().zip(edges.last()).map(|(f, l)| (f.u, l.u));
        let boundaries = Boundaries::gather(comm, edges.first().map(CEdge::wedge), bounds);

        // One scan finds the distinct sources: the local-vertex index.
        let mut verts: Vec<VertexId> = Vec::new();
        let mut seg_offsets: Vec<usize> = Vec::new();
        for (k, e) in edges.iter().enumerate() {
            if verts.last() != Some(&e.u) {
                verts.push(e.u);
                seg_offsets.push(k);
            }
        }
        seg_offsets.push(edges.len());
        let mut direct = Vec::new();
        if let (Some(&first), Some(&last)) = (verts.first(), verts.last()) {
            if let Some(len) = direct_len(first, last, verts.len()) {
                direct = vec![u32::MAX; len];
                for (i, &v) in verts.iter().enumerate() {
                    direct[(v - first) as usize] = i as u32;
                }
            }
        }
        Self::close(comm, boundaries, edges, verts, seg_offsets, direct)
    }

    /// The closing part of building a graph from its slice and local-vertex
    /// index: charge the scan, count the vertices — minus one if the first
    /// is already counted by an earlier PE (the base-case switch of
    /// Sec. IV-D counts each shared vertex once) — and the edges
    /// machine-wide. `direct` is the table of [`DistGraph::local_index`]
    /// or empty. Collective.
    pub(crate) fn close(
        comm: &Comm,
        boundaries: Boundaries,
        edges: Vec<CEdge>,
        verts: Vec<VertexId>,
        seg_offsets: Vec<usize>,
        direct: Vec<u32>,
    ) -> Self {
        assert!(verts.len() < u32::MAX as usize, "local indices are u32");
        assert!(
            edges.len() < u32::MAX as usize,
            "segment cursors are u32 edge offsets"
        );
        comm.charge_local(edges.len() as u64);
        let dedup = u64::from(boundaries.first_shared);
        let n_global = comm.allreduce_sum(verts.len() as u64 - dedup);
        // The sum's allgather, read twice: an allreduce charges exactly
        // this.
        let pe_edges = comm.allgather(edges.len() as u64);
        let m_global: u64 = pe_edges.iter().sum();
        let same_pe_chance = match m_global {
            0 => 0.0,
            m => pe_edges
                .iter()
                .map(|&mi| (mi as f64 / m as f64).powi(2))
                .sum(),
        };

        Self {
            edges,
            locator: boundaries.locator,
            n_global,
            m_global,
            same_pe_chance,
            first_shared: boundaries.first_shared,
            last_shared: boundaries.last_shared,
            id_span: boundaries.id_span,
            verts,
            seg_offsets,
            direct,
            rank: comm.rank(),
            p: comm.size(),
        }
    }

    /// The closed range `(min, max)` of all source ids machine-wide —
    /// identical on every PE, `None` for the empty graph. Every vertex of
    /// a symmetric graph is a source somewhere, so every label, parent or
    /// destination id lies inside it: the bound a lookup table indexed by
    /// `id − min` needs.
    #[inline]
    pub fn id_span(&self) -> Option<(VertexId, VertexId)> {
        self.id_span
    }

    /// Number of PEs the graph is partitioned over.
    #[inline]
    pub fn pes(&self) -> usize {
        self.p
    }

    /// This PE's rank (mirrors the building communicator).
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Home PE of a vertex: the *last* PE holding edges with source `v`
    /// (for non-shared vertices this is the unique owner).
    pub fn home_of_vertex(&self, v: VertexId) -> usize {
        let idx = self.locator.partition_point(|first| first.u <= v);
        idx.saturating_sub(1)
    }

    /// The PEs whose slices can hold a copy of the directed content
    /// `e = (u, v, w)`: `#{locator < e} − 1 ..= #{locator ≤ e} − 1`. The
    /// last PE that starts strictly below `e` may end on copies of it,
    /// and every PE whose locator entry *equals* `e` either starts with
    /// `e` or is empty and inherited the next holder's first edge
    /// (sparse inputs — 2 edges over 16 PEs — make such runs long); the
    /// two are indistinguishable from the
    /// replicated locator alone. The range is therefore a superset of
    /// the holders, which is safe: a PE that cannot place a pushed
    /// content ignores it ([`DistGraph::adopt_pair_id`]). Empty when `e`
    /// precedes the global minimum; one PE in the common dense case.
    pub fn content_homes(&self, e: &WEdge) -> std::ops::Range<usize> {
        let below = self.locator.partition_point(|first| first < e);
        let equal = self.locator[below..]
            .iter()
            .take_while(|first| *first == e)
            .count();
        below.saturating_sub(1)..below + equal
    }

    /// Fresh search positions for [`DistGraph::adopt_pair_id`]: one per
    /// local vertex, at the start of its segment.
    pub fn segment_cursors(&self) -> Vec<u32> {
        // `close` asserts that edge offsets fit.
        self.seg_offsets[..self.verts.len()]
            .iter()
            .map(|&o| o as u32)
            .collect()
    }

    /// Let every local copy of the directed content `(pushed.u, pushed.v,
    /// pushed.w)` take `min(own id, pushed.id)`; true if the slice holds
    /// a copy. The content is resolved through the local-vertex index —
    /// `local_index(u)`, then `u`'s segment — starting at the vertex's
    /// cursor, which is left on the content's lower bound. Keys `(v, w)`
    /// that arrive non-decreasing per vertex (what a globally sorted
    /// sequence pushes, see [`crate::PassedSlice::exchange`]) only ever move the
    /// cursor forward, so a whole apply is linear in the slice. A key
    /// at or before the edge behind the cursor re-bisects the part of
    /// the segment already passed: the cursor is a hint, never a
    /// precondition.
    pub fn adopt_pair_id(&mut self, cursors: &mut [u32], pushed: &CEdge) -> bool {
        let Some(i) = self.local_index(pushed.u) else {
            return false;
        };
        let lo = self.seg_offsets[i];
        let seg = &mut self.edges[lo..self.seg_offsets[i + 1]];
        let key_of = |x: &CEdge| (x.v, x.w);
        let key = key_of(pushed);
        let mut at = cursors[i] as usize - lo;
        if at > 0 && key_of(&seg[at - 1]) >= key {
            at = seg[..at].partition_point(|x| key_of(x) < key);
        } else {
            while at < seg.len() && key_of(&seg[at]) < key {
                at += 1;
            }
        }
        cursors[i] = (lo + at) as u32;
        let mut held = false;
        for x in seg[at..].iter_mut().take_while(|x| key_of(x) == key) {
            x.id = x.id.min(pushed.id);
            held = true;
        }
        held
    }

    /// The distinct local vertices (sources) on this PE, ascending. The
    /// position of a vertex in this slice is its local index.
    #[inline]
    pub fn local_vertices(&self) -> &[VertexId] {
        &self.verts
    }

    /// Edge range of every local vertex: vertex `i` owns
    /// `edges[offsets[i]..offsets[i + 1]]` (one entry more than
    /// [`DistGraph::local_vertices`]).
    #[inline]
    pub fn segment_offsets(&self) -> &[usize] {
        &self.seg_offsets
    }

    /// Local index of `v`, if `v` is a source on this PE: a range check
    /// against the slice's first and last source (most ghosts fail it),
    /// then one read of the direct table when the ids are dense, one
    /// binary search of the vertex list when they are not.
    #[inline]
    pub fn local_index(&self, v: VertexId) -> Option<usize> {
        index_in(&self.verts, &self.direct, v)
    }

    /// True if `v` is one of this PE's boundary vertices shared with a
    /// neighbouring PE. Purely local (Sec. IV-B: "This property can be
    /// determined locally from the distributed graph data structure").
    pub fn is_shared(&self, v: VertexId) -> bool {
        (self.first_shared && self.verts.first() == Some(&v))
            || (self.last_shared && self.verts.last() == Some(&v))
    }

    /// True if `v` is homed on another PE as far as this slice can tell:
    /// outside its source range, or its last source continuing on a later
    /// PE. Agrees with `home_of_vertex(v) != rank` for every vertex that
    /// is a source somewhere, without the locator search.
    #[inline]
    pub fn is_ghost(&self, v: VertexId) -> bool {
        match (self.verts.first(), self.verts.last()) {
            (Some(&first), Some(&last)) => v < first || v > last || (v == last && self.last_shared),
            _ => true,
        }
    }

    /// Iterate over local vertices as `(source, edge index range)`
    /// segments — the segmented view behind `MIN EDGES` (Sec. IV).
    pub fn vertex_segments(
        &self,
    ) -> impl ExactSizeIterator<Item = (VertexId, std::ops::Range<usize>)> + '_ {
        self.verts
            .iter()
            .zip(self.seg_offsets.windows(2))
            .map(|(&v, w)| (v, w[0]..w[1]))
    }
}

/// Replicated table of each PE's first global edge id, for routing MST
/// edge ids back to their home PEs (`REDISTRIBUTE MST`). Collective.
pub fn id_offsets(comm: &Comm, local_len: usize) -> Vec<u64> {
    let counts = comm.allgather(local_len as u64);
    let mut offsets = Vec::with_capacity(counts.len());
    let mut acc = 0u64;
    for c in counts {
        offsets.push(acc);
        acc += c;
    }
    offsets
}

/// Home PE of a global edge id, given the replicated [`id_offsets`] table.
pub fn home_of_id(offsets: &[u64], id: u64) -> usize {
    offsets.partition_point(|&o| o <= id).saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamsta_comm::{Machine, MachineConfig};

    /// A tiny path graph 0-1-2-3-4 split over PEs, with both edge
    /// directions, sorted, partitioned so vertex 2 is shared.
    fn path_slice(rank: usize) -> Vec<CEdge> {
        // Global sorted sequence (u,v,w):
        // (0,1,1) (1,0,1) (1,2,2) | (2,1,2) (2,3,3) | (3,2,3) (3,4,4) (4,3,4)
        let all = [
            (0, 1, 1),
            (1, 0, 1),
            (1, 2, 2),
            (2, 1, 2),
            (2, 3, 3),
            (3, 2, 3),
            (3, 4, 4),
            (4, 3, 4),
        ];
        // Split so vertex 3's edges span PEs 1 and 2 (3 is shared).
        let ranges = [(0, 3), (3, 6), (6, 8)];
        let (lo, hi) = ranges[rank];
        all[lo..hi]
            .iter()
            .enumerate()
            .map(|(k, &(u, v, w))| CEdge::new(u, v, w, (lo + k) as u64))
            .collect()
    }

    #[test]
    fn establish_counts_and_flags() {
        let out = Machine::run(MachineConfig::new(3), |comm| {
            let g = DistGraph::establish(comm, path_slice(comm.rank()));
            assert_eq!(g.id_span(), Some((0, 4)));
            assert_eq!(DistGraph::establish(comm, Vec::new()).id_span(), None);
            (
                g.n_global,
                g.m_global,
                g.first_shared,
                g.last_shared,
                g.local_vertices().len() as u64 - u64::from(g.first_shared),
            )
        });
        for (rank, (n, m, first_shared, last_shared, owned)) in out.results.into_iter().enumerate()
        {
            assert_eq!(n, 5, "5 distinct vertices");
            assert_eq!(m, 8, "8 directed edges");
            match rank {
                0 => {
                    assert!(!first_shared && !last_shared);
                    assert_eq!(owned, 2); // 0 and 1 (1 is NOT shared: PE1 starts at 2)
                }
                1 => {
                    assert!(!first_shared && last_shared); // 3 continues on PE2
                    assert_eq!(owned, 2); // 2 and 3
                }
                2 => {
                    assert!(first_shared && !last_shared); // 3 started on PE1
                    assert_eq!(owned, 1); // 4 (3 counted by PE1)
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn home_lookups() {
        let out = Machine::run(MachineConfig::new(3), |comm| {
            let g = DistGraph::establish(comm, path_slice(comm.rank()));
            let edge_homes: Vec<usize> = [
                WEdge::new(0, 1, 1),
                WEdge::new(2, 1, 2),
                WEdge::new(3, 2, 3),
                WEdge::new(4, 3, 4),
            ]
            .iter()
            .map(|e| g.content_homes(e).end - 1)
            .collect();
            let vertex_homes: Vec<usize> = (0..5).map(|v| g.home_of_vertex(v)).collect();
            (edge_homes, vertex_homes)
        });
        for (edge_homes, vertex_homes) in out.results {
            // The last PE that can hold each edge; (3,2,3) sits on PE 1
            // (vertex 3 spans PEs 1 and 2).
            assert_eq!(edge_homes, vec![0, 1, 1, 2]);
            // vertex 3 is shared between PE1 and PE2; home = last holder.
            assert_eq!(vertex_homes, vec![0, 0, 1, 2, 2]);
        }
    }

    #[test]
    fn shared_detection_is_local() {
        let out = Machine::run(MachineConfig::new(3), |comm| {
            let g = DistGraph::establish(comm, path_slice(comm.rank()));
            (0..5).map(|v| g.is_shared(v)).collect::<Vec<bool>>()
        });
        // Vertex 3 spans PEs 1 and 2; from each holder's view it is shared.
        assert_eq!(out.results[0], vec![false; 5]);
        assert_eq!(out.results[1], vec![false, false, false, true, false]);
        assert_eq!(out.results[2], vec![false, false, false, true, false]);
    }

    #[test]
    fn segments_and_local_vertices() {
        let out = Machine::run(MachineConfig::new(3), |comm| {
            let g = DistGraph::establish(comm, path_slice(comm.rank()));
            let segs: Vec<(u64, usize)> = g.vertex_segments().map(|(v, r)| (v, r.len())).collect();
            (segs, g.local_vertices().to_vec())
        });
        assert_eq!(out.results[0].0, vec![(0, 1), (1, 2)]);
        assert_eq!(out.results[1].0, vec![(2, 2), (3, 1)]);
        assert_eq!(out.results[2].0, vec![(3, 1), (4, 1)]);
        assert_eq!(out.results[1].1, vec![2, 3]);
    }

    #[test]
    fn local_index_agrees_with_the_vertex_list() {
        // Stride 1 keeps the ids dense (direct table), stride 1000 makes
        // them sparse (binary search); both must match a scan of the
        // vertex list, and `is_ghost` the locator's verdict.
        for stride in [1u64, 1000] {
            let out = Machine::run(MachineConfig::new(3), move |comm| {
                let edges = path_slice(comm.rank())
                    .into_iter()
                    .map(|e| CEdge::new(e.u * stride, e.v * stride, e.w, e.id))
                    .collect();
                let g = DistGraph::establish(comm, edges);
                let verts = g.local_vertices();
                for v in 0..=5 * stride {
                    let want = verts.iter().position(|&x| x == v);
                    assert_eq!(g.local_index(v), want, "stride {stride}, vertex {v}");
                }
                for v in (0..5).map(|k| k * stride) {
                    assert_eq!(g.is_ghost(v), g.home_of_vertex(v) != comm.rank());
                }
                let offsets = g.segment_offsets();
                assert_eq!(offsets.len(), verts.len() + 1);
                for (i, (v, range)) in g.vertex_segments().enumerate() {
                    assert_eq!(
                        (v, range.start, range.end),
                        (verts[i], offsets[i], offsets[i + 1])
                    );
                    assert!(g.edges[range].iter().all(|e| e.u == v));
                }
            });
            assert_eq!(out.results.len(), 3);
        }
    }

    #[test]
    fn empty_pe_has_an_empty_index() {
        let out = Machine::run(MachineConfig::new(2), |comm| {
            let edges = match comm.rank() {
                0 => vec![CEdge::new(4, 5, 1, 0), CEdge::new(5, 4, 1, 1)],
                _ => vec![],
            };
            let g = DistGraph::establish(comm, edges);
            assert_eq!(g.id_span(), Some((4, 5)), "replicated, also where empty");
            (
                g.local_vertices().to_vec(),
                g.segment_offsets().to_vec(),
                g.local_index(4),
                g.is_ghost(4),
                g.local_vertices().len() as u64 - u64::from(g.first_shared),
            )
        });
        assert_eq!(
            out.results[0],
            (vec![4, 5], vec![0, 1, 2], Some(0), false, 2)
        );
        assert_eq!(out.results[1], (vec![], vec![0], None, true, 0));
    }

    #[test]
    fn empty_pe_locator_fill() {
        let out = Machine::run(MachineConfig::new(4), |comm| {
            // PEs 1 and 3 empty.
            let edges = match comm.rank() {
                0 => vec![CEdge::new(0, 1, 1, 0), CEdge::new(1, 0, 1, 1)],
                2 => vec![CEdge::new(5, 6, 2, 2), CEdge::new(6, 5, 2, 3)],
                _ => vec![],
            };
            let g = DistGraph::establish(comm, edges);
            assert_eq!(g.id_span(), Some((0, 6)), "empty PEs hold no bound");
            (
                g.n_global,
                g.content_homes(&WEdge::new(5, 6, 2)).end - 1,
                g.home_of_vertex(6),
                g.home_of_vertex(0),
            )
        });
        for (n, home_e, home_v6, home_v0) in out.results {
            assert_eq!(n, 4);
            assert_eq!(home_e, 2);
            assert_eq!(home_v6, 2);
            assert_eq!(home_v0, 0);
        }
    }

    #[test]
    fn id_assignment_and_routing() {
        let out = Machine::run(MachineConfig::new(3), |comm| {
            let n = comm.rank() + 1; // 1, 2, 3 edges
            let edges: Vec<WEdge> = (0..n)
                .map(|k| WEdge::new(comm.rank() as u64, k as u64, 1))
                .collect();
            // No backward copy has a forward twin: every id is a position.
            let input = crate::InputGraph::from_sorted_edges(comm, edges);
            let ids: Vec<u64> = input.graph.edges.iter().map(|e| e.id).collect();
            (ids, input.id_offsets)
        });
        assert_eq!(out.results[0].0, vec![0]);
        assert_eq!(out.results[1].0, vec![1, 2]);
        assert_eq!(out.results[2].0, vec![3, 4, 5]);
        let offsets = &out.results[0].1;
        assert_eq!(offsets, &vec![0, 1, 3]);
        assert_eq!(home_of_id(offsets, 0), 0);
        assert_eq!(home_of_id(offsets, 1), 1);
        assert_eq!(home_of_id(offsets, 2), 1);
        assert_eq!(home_of_id(offsets, 5), 2);
    }
}
