//! The prepared input graph: the distributed structure plus the id
//! routing table `REDISTRIBUTE MST` uses to map MST edge ids back to
//! original edges (Sec. VI-C). The paper keeps a varint-compressed copy
//! of the input for that lookup because its working graph replaces the
//! input; here the prepared slice stays unchanged for the whole solve,
//! so it is its own lookup table (DESIGN.md S8).
//!
//! # How the ids get there
//!
//! [`InputGraph::from_sorted_edges`] prepares the slice in one pass over
//! the sorted input ([`InputGraph::pass`]) and finishes with one one-way
//! exchange ([`PassedSlice::exchange`]). The prepared slice is the
//! generator's own block: the pass first widens each `WEdge` in place to
//! a `CEdge` carrying its global position as id, from the back, after
//! one `realloc` that grows the block only where the `CEdge`s do not fit
//! — so set-up never holds two copies of the input. Every edge gets its
//! global position as id, and every backward (`u > v`) copy then the id
//! of its undirected edge's globally *first* forward copy, so both
//! directions share one canonical id. This makes `(w, id)` a
//! direction-symmetric, **contraction-invariant** realisation of the
//! paper's unique-weight total order: for equal weights, forward global
//! positions order exactly by `(min(u,v), max(u,v))`, but unlike
//! endpoint-based keys the id survives relabeling unchanged — so every
//! pipeline stage breaks weight ties identically at every PE count, and
//! `REDISTRIBUTE MST` resolves every claim to the `u < v` copy. Exact
//! duplicate copies of a pair all map to the group's minimal id; surplus
//! duplicates keep their own (never-selected) position ids.
//!
//! * **Pull, for twins on this PE.** A backward copy `(u, v, w)` sits in
//!   `u`'s segment, its forward twins `(v, u, w)` in `v`'s, and `v < u`:
//!   the pass settled that segment already. It sets its id to that of
//!   the first local copy there, found from `v`'s cursor. For a fixed
//!   `v` the keys `(u, w)` asked for come in the slice's order, so the
//!   cursor only moves forward and the pulls cost one walk over each
//!   segment.
//! * **Push, for backward copies on later PEs.** A forward copy
//!   `(u, v, w)` whose backward content can lie past this PE's last
//!   source — `v ≥` that source, a suffix of each segment — sends
//!   `(v, u, w, id)` to the PEs [`DistGraph::content_homes`] names,
//!   other than this one, and [`DistGraph::adopt_pair_id`] applies what
//!   arrives. Every other forward copy has its backward content on this
//!   PE, where the pull reads it.
//! * **Why the minimum is the reference.** A forward copy's id is its
//!   own position, and it precedes its backward copy in the global order.
//!   So the pulled id and every pushed one (one per PE a forward
//!   duplicate run touches) lie below the backward copy's own position,
//!   and their minimum is the globally first forward copy's id. A
//!   backward copy with no twin anywhere (asymmetric hand-built inputs)
//!   keeps its position id; forward copies are never rewritten.

use crate::dist::{direct_len, home_of_id, id_offsets, index_in, Boundaries, DistGraph};
use crate::edge::{CEdge, VertexId, WEdge};
use crate::gen::GraphConfig;
use kamsta_comm::{Comm, FlatBuckets};
use std::alloc::{handle_alloc_error, realloc, Layout};
use std::mem::ManuallyDrop;

/// A fully prepared MST input: the distributed graph plus the routing
/// table of its edge ids.
///
/// The prepared slice is never mutated after
/// [`InputGraph::from_sorted_edges`]: the solvers borrow or copy it, and
/// [`InputGraph::redistribute_mst`] indexes it by global position.
pub struct InputGraph {
    /// This PE's prepared slice; its `k`-th edge sits at global position
    /// `id_offsets[rank] + k`.
    pub graph: DistGraph,
    /// Replicated: first global edge id held by each PE.
    pub id_offsets: Vec<u64>,
}

/// An input after [`InputGraph::pass`]: its backward copies carry the
/// ids of their forward twins on this PE; those of twins on earlier PEs
/// are not pushed yet.
pub struct PassedSlice(InputGraph);

impl InputGraph {
    /// Prepare an input from this PE's slice of a globally sorted edge
    /// list: ids are global positions, except that both directions of an
    /// undirected edge share the id of its globally first `u < v` copy
    /// (the module doc). [`InputGraph::pass`], then
    /// [`PassedSlice::exchange`]. Collective.
    pub fn from_sorted_edges(comm: &Comm, edges: Vec<WEdge>) -> Self {
        Self::pass(comm, edges).exchange(comm)
    }

    /// The first part of [`InputGraph::from_sorted_edges`]: the id space,
    /// the boundary allgathers of [`DistGraph::establish`], then one pass
    /// over the slice that builds the local-vertex index and pulls the ids
    /// of forward twins on this PE. The prepared slice is `edges`' own
    /// block, widened in place to `CEdge`s with their position ids
    /// (`widen`), so no second slice is allocated. Collective.
    pub fn pass(comm: &Comm, edges: Vec<WEdge>) -> PassedSlice {
        debug_assert!(
            edges.windows(2).all(|w| w[0] <= w[1]),
            "edge slice must be locally sorted"
        );
        let id_offsets = id_offsets(comm, edges.len());
        comm.charge_local(edges.len() as u64);
        let bounds = edges.first().zip(edges.last()).map(|(f, l)| (f.u, l.u));
        let boundaries = Boundaries::gather(comm, edges.first().copied(), bounds);
        let mut slice = widen(edges, id_offsets[comm.rank()]);
        let (verts, seg_offsets, direct) = one_pass(&mut slice);
        let graph = DistGraph::close(comm, boundaries, slice, verts, seg_offsets, direct);
        PassedSlice(Self { graph, id_offsets })
    }

    /// Generate one of the paper's graph families and prepare it.
    /// Collective.
    pub fn generate(comm: &Comm, config: GraphConfig, seed: u64) -> Self {
        let edges = config.generate(comm, seed);
        Self::from_sorted_edges(comm, edges)
    }

    /// `REDISTRIBUTE MST`: route identified MST edge ids back to their
    /// original home PEs and read each off the prepared slice at its
    /// global position. Ids are pair-canonical
    /// ([`InputGraph::from_sorted_edges`]): a claim is the position of
    /// its undirected edge's first `u < v` copy, which kept its own id,
    /// so every claim resolves to that copy — one direction per MSF edge
    /// globally, independent of which stage or direction claimed it.
    /// Returns this PE's original edges that belong to the MSF, sorted.
    /// γ is the routed ids' sort, by what it ran, then one unit per id
    /// looked up. Collective.
    ///
    /// # Panics
    ///
    /// Panics on an id past the slice of its home PE, or one that is no
    /// edge's canonical id.
    pub fn redistribute_mst(&self, comm: &Comm, ids: Vec<u64>) -> Vec<CEdge> {
        let items: Vec<(usize, u64)> = ids
            .into_iter()
            .map(|id| (home_of_id(&self.id_offsets, id), id))
            .collect();
        let mut mine = kamsta_comm::route(comm, items);
        kamsta_sort::local_radix_sort(comm, &mut mine, |&id| id);
        mine.dedup();
        comm.charge_local(mine.len() as u64);
        let (first_id, slice) = (self.id_offsets[comm.rank()], &self.graph.edges);
        mine.into_iter()
            .map(|id| {
                let e = slice.get((id - first_id) as usize);
                let e = e.unwrap_or_else(|| panic!("id {id} is out of range for this PE's slice"));
                assert_eq!(e.id, id, "id {id} is not the canonical id at its position");
                *e
            })
            .collect()
    }
}

impl PassedSlice {
    /// The last part of [`InputGraph::from_sorted_edges`]: push every
    /// forward copy whose backward content can lie on a later PE there,
    /// in one one-way exchange, and let the receivers take the least id
    /// pushed (the module doc). For a fixed target vertex the pushed
    /// `(v, w)` keys are non-decreasing — within a sender by scan order,
    /// across senders by rank order — which is what the per-vertex
    /// cursors of [`DistGraph::adopt_pair_id`] exploit. Collective.
    pub fn exchange(self, comm: &Comm) -> InputGraph {
        let PassedSlice(mut input) = self;
        let graph = &mut input.graph;
        let me = comm.rank();
        let mut pushed: Vec<CEdge> = Vec::new();
        let mut dests: Vec<u32> = Vec::new();
        if let Some(&last) = graph.local_vertices().last() {
            for (_, range) in graph.vertex_segments() {
                let seg = &graph.edges[range];
                for k in seg.partition_point(|e| e.v < last)..seg.len() {
                    let e = seg[k];
                    if e.u >= e.v || (k > 0 && seg[k - 1].wedge() == e.wedge()) {
                        continue;
                    }
                    let back = CEdge::new(e.v, e.u, e.w, e.id);
                    for home in graph.content_homes(&back.wedge()) {
                        if home != me {
                            pushed.push(back);
                            dests.push(home as u32);
                        }
                    }
                }
            }
        }
        comm.charge_local(graph.edges.len() as u64);
        let incoming = comm.sparse_alltoallv(FlatBuckets::from_dests(comm.size(), pushed, &dests));
        comm.charge_local(incoming.total_len() as u64);
        let mut cursors = graph.segment_cursors();
        for back in incoming.payload() {
            graph.adopt_pair_id(&mut cursors, back);
        }
        input
    }
}

/// `edges` re-typed in place: edge `k` becomes `CEdge` `k` with id
/// `first_id + k`, in the same heap block. The block is `realloc`ed to
/// `max(cap·24/32, len)` `CEdge`s — it keeps all its bytes and grows
/// only where the `CEdge`s do not fit (an `mremap` for an mmapped block,
/// no copy); shrinking it to `len` would hand a smaller freed block to
/// glibc's mmap threshold at teardown (EXPERIMENTS.md "Set-up in place").
/// Then the edges are widened from the back. Local.
fn widen(edges: Vec<WEdge>, first_id: u64) -> Vec<CEdge> {
    // SAFETY (layout): both types are 8-aligned, so a `WEdge` block is a
    // `CEdge` block of the same alignment, and 24-byte `WEdge`s under
    // 32-byte `CEdge`s is what the aliasing argument below rests on.
    const {
        assert!(size_of::<WEdge>() == 24 && size_of::<CEdge>() == 32);
        assert!(align_of::<WEdge>() == 8 && align_of::<CEdge>() == 8);
    }
    let (len, cap) = (edges.len(), edges.capacity());
    let new_cap = (cap * size_of::<WEdge>() / size_of::<CEdge>()).max(len);
    if new_cap == 0 {
        return Vec::new();
    }
    // Panic safety: both edge types are `Copy`, so no destructor is ever
    // skipped. Until `from_raw_parts` a panic (an `expect` below) leaks at
    // most the block; after it the block belongs to a length-0
    // `Vec<CEdge>` until `set_len`, which frees it on a panic.
    let mut edges = ManuallyDrop::new(edges);
    let old = Layout::array::<WEdge>(cap).expect("a live Vec's layout");
    let new = Layout::array::<CEdge>(new_cap).expect("the prepared slice fits the address space");
    // SAFETY (realloc): `cap > 0` here (`new_cap > 0` needs `cap > 0` or
    // `len > 0`), so the pointer is a live block of the global allocator,
    // allocated by `Vec` with exactly `old`; `edges` is never used or
    // dropped again. `new.size()` is non-zero and `Layout::array` checked
    // that it does not overflow `isize`. It is exactly `new_cap · 32`, so
    // the `Vec<CEdge>` built from the result owns a block of its own
    // layout. `realloc` keeps `min(old, new)` bytes, and both cover the
    // `len · 24` bytes of the edges.
    let ptr = unsafe { realloc(edges.as_mut_ptr().cast::<u8>(), old, new.size()) };
    if ptr.is_null() {
        handle_alloc_error(new);
    }
    // SAFETY: `ptr` is a block of layout `new`, from the global allocator
    // `Vec` uses, and length 0 claims no element initialised.
    let mut slice = unsafe { Vec::from_raw_parts(ptr.cast::<CEdge>(), 0, new_cap) };
    let base = slice.as_mut_ptr();
    for k in (0..len).rev() {
        // SAFETY (aliasing): `WEdge` `k` sits at bytes `24k..24k + 24`,
        // inside the block and 8-aligned; it is read out before `CEdge`
        // `k` is written at `32k..32k + 32`, inside `new_cap ≥ len`
        // elements. The `WEdge`s still unread, `j < k`, lie below
        // `24k ≤ 32k`, and the `CEdge`s written, `j > k`, from `32k + 32`
        // on, so the write clobbers neither.
        unsafe {
            let e = base.cast::<WEdge>().add(k).read();
            base.add(k).write(CEdge::from_wedge(e, first_id + k as u64));
        }
    }
    // SAFETY: the loop wrote `CEdge`s `0..len`.
    unsafe { slice.set_len(len) };
    slice
}

/// The pass of [`InputGraph::pass`] over a sorted slice carrying its
/// position ids: it pulls every backward copy's id from its forward twin
/// on this PE and returns the distinct sources, their segment offsets
/// and the direct table of [`DistGraph::local_index`] (empty where the
/// sources are too sparse). The table is sized for the edge count before
/// the vertices are known and dropped after if they do not justify it.
/// Local.
fn one_pass(slice: &mut [CEdge]) -> (Vec<VertexId>, Vec<usize>, Vec<u32>) {
    assert!(
        slice.len() < u32::MAX as usize,
        "segment cursors are u32 edge offsets"
    );
    let (first, last) = match (slice.first(), slice.last()) {
        (Some(f), Some(l)) => (f.u, l.u),
        _ => return (Vec::new(), vec![0], Vec::new()),
    };
    let mut direct =
        direct_len(first, last, slice.len()).map_or(Vec::new(), |len| vec![u32::MAX; len]);
    // Where the ids are dense the id range bounds the vertex count, so the
    // per-vertex tables are reserved once: three tables doubling in turn
    // beside the live slice fragment the PE's heap (`gnm-filter` read
    // 115–130 MB peak RSS that way, against 99–104 reserved).
    let n = direct.len().min(slice.len());
    let mut verts: Vec<VertexId> = Vec::with_capacity(n);
    let mut seg_offsets: Vec<usize> = Vec::with_capacity(n + 1);
    // Per local vertex: where the next pull into its segment starts.
    let mut cursors: Vec<u32> = Vec::with_capacity(n);
    for k in 0..slice.len() {
        let e = slice[k];
        if verts.last() != Some(&e.u) {
            if !direct.is_empty() {
                direct[(e.u - first) as usize] = verts.len() as u32;
            }
            verts.push(e.u);
            seg_offsets.push(k);
            cursors.push(k as u32);
        }
        if e.v < e.u {
            // `v`'s segment, if `v` is a source here, lies wholly before
            // `u`'s, the last one opened.
            if let Some(i) = index_in(&verts, &direct, e.v) {
                let (end, key) = (seg_offsets[i + 1], (e.u, e.w));
                let mut at = cursors[i] as usize;
                while at < end && (slice[at].v, slice[at].w) < key {
                    at += 1;
                }
                cursors[i] = at as u32;
                if at < end && (slice[at].v, slice[at].w) == key {
                    slice[k].id = slice[at].id;
                }
            }
        }
    }
    seg_offsets.push(slice.len());
    if direct_len(first, last, verts.len()).is_none() {
        direct = Vec::new();
    }
    (verts, seg_offsets, direct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::mix64;
    use kamsta_comm::{Machine, MachineConfig};
    use proptest::prelude::*;

    #[test]
    fn prepares_generated_graph() {
        let out = Machine::run(MachineConfig::new(4), |comm| {
            let input = InputGraph::generate(comm, GraphConfig::Grid2D { rows: 8, cols: 8 }, 7);
            (input.graph.n_global, input.graph.m_global)
        });
        for (n, m) in out.results {
            assert_eq!(n, 64);
            assert_eq!(m, 2 * (8 * 7 + 7 * 8));
        }
    }

    /// Both directions of every `(u, v, w)`, sorted.
    fn symmetric(raw: &[(u64, u64, u32)]) -> Vec<WEdge> {
        let mut all: Vec<WEdge> = raw
            .iter()
            .flat_map(|&(u, v, w)| [WEdge::new(u, v, w), WEdge::new(v, u, w)])
            .collect();
        all.sort_unstable();
        all
    }

    /// Prepare the sorted sequence `all` with PE `i` holding
    /// `all[cuts[i]..cuts[i + 1]]`, let PE `r` claim `pick(r, ids)` out
    /// of the ids the prepared edges carry anywhere (sorted, distinct),
    /// and check every PE's `redistribute_mst` against the position
    /// reference: the edges of `all` at the claimed global positions its
    /// slice covers, ascending, with ids equal to the claims. Returns the
    /// outputs, in rank order.
    fn redistribute_against_positions<F>(all: &[WEdge], cuts: &[usize], pick: F) -> Vec<Vec<CEdge>>
    where
        F: Fn(usize, &[u64]) -> Vec<u64> + Send + Sync,
    {
        let (slices, p) = (all.to_vec(), cuts.len() - 1);
        let at = cuts.to_vec();
        let out = Machine::run(MachineConfig::new(p), move |comm| {
            let me = comm.rank();
            let input = InputGraph::from_sorted_edges(comm, slices[at[me]..at[me + 1]].to_vec());
            let mut ids = comm.allgatherv(input.graph.edges.iter().map(|e| e.id).collect());
            ids.sort_unstable();
            ids.dedup();
            let claims = pick(me, &ids);
            (claims.clone(), input.redistribute_mst(comm, claims))
        });
        let mut claimed: Vec<u64> = out.results.iter().flat_map(|(c, _)| c.clone()).collect();
        claimed.sort_unstable();
        claimed.dedup();
        let got: Vec<Vec<CEdge>> = out.results.into_iter().map(|(_, got)| got).collect();
        for (r, got) in got.iter().enumerate() {
            let want: Vec<CEdge> = claimed
                .iter()
                .filter(|&&id| (cuts[r]..cuts[r + 1]).contains(&(id as usize)))
                .map(|&id| CEdge::from_wedge(all[id as usize], id))
                .collect();
            assert_eq!(got, &want, "PE {r} of cuts {cuts:?}");
        }
        got
    }

    #[test]
    fn redistribution_reads_claimed_positions_across_empty_pes() {
        // Positions: (0,1,5) 0, (1,0,5) 1, (2,9,3) 2, (9,2,3) 3. The
        // canonical ids are 0 and 2, held by PEs 2 and 7 of nine; every
        // PE claims both, so each is routed in from all nine.
        let all = symmetric(&[(0, 1, 5), (2, 9, 3)]);
        let got =
            redistribute_against_positions(&all, &[0, 0, 0, 1, 1, 2, 2, 2, 4, 4], |_, ids| {
                ids.to_vec()
            });
        assert_eq!(got[2], vec![CEdge::new(0, 1, 5, 0)]);
        assert_eq!(got[7], vec![CEdge::new(2, 9, 3, 2)]);
        assert_eq!(got.iter().map(Vec::len).sum::<usize>(), 2);
    }

    #[test]
    fn redistribution_reads_duplicate_runs_straddling_pes() {
        // (0,5,1)×4 at 0..4, (0,6,2) (1,5,3) at 4..6, (5,0,1)×4 at 6..10,
        // (5,1,3) (6,0,2) at 10..12: surplus duplicates 1, 2 and 3 keep
        // their own ids, and every backward copy carries a forward
        // position.
        let all = symmetric(&[
            (0, 5, 1),
            (0, 5, 1),
            (0, 5, 1),
            (0, 5, 1),
            (0, 6, 2),
            (1, 5, 3),
        ]);
        for cuts in [vec![0, 1, 3, 7, 9, 12], vec![0, 0, 2, 2, 8, 12, 12]] {
            let last = cuts.len() - 2;
            let got = redistribute_against_positions(&all, &cuts, |r, ids| {
                if r == last {
                    ids.iter().rev().copied().collect()
                } else {
                    Vec::new()
                }
            });
            let ids: Vec<u64> = got.iter().flatten().map(|e| e.id).collect();
            assert_eq!(ids, vec![0, 1, 2, 3, 4, 5], "cuts {cuts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range for this PE's")]
    fn redistribution_rejects_an_id_past_the_slice() {
        let all = symmetric(&[(0, 1, 5), (1, 2, 4)]);
        Machine::run(MachineConfig::new(2), move |comm| {
            let slice = all[2 * comm.rank()..2 * comm.rank() + 2].to_vec();
            let input = InputGraph::from_sorted_edges(comm, slice);
            let claim = if comm.rank() == 0 {
                vec![4]
            } else {
                Vec::new()
            };
            input.redistribute_mst(comm, claim)
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Few vertices and fewer weights, so contents repeat; directions
        /// are drawn independently, so some copies have no twin; cut
        /// points are drawn too, so PEs stay empty. About two thirds of
        /// the ids are claimed, each by one drawn PE plus every PE a
        /// second draw selects — so some ids arrive several times, some
        /// twice from one PE.
        #[test]
        fn redistribution_matches_the_position_reference(
            raw in prop::collection::vec((0u64..10, 0u64..10, 0u32..3, 0u8..4), 0..80),
            cut_seeds in prop::collection::vec(0usize..1000, 15..16),
            seed in any::<u64>(),
        ) {
            let mut all: Vec<WEdge> = raw
                .iter()
                .flat_map(|&(u, v, w, dirs)| {
                    let fwd = (dirs != 1).then_some(WEdge::new(u, v, w));
                    let back = (dirs != 2).then_some(WEdge::new(v, u, w));
                    fwd.into_iter().chain(back)
                })
                .collect();
            all.sort_unstable();
            for p in [1usize, 2, 3, 5, 16] {
                let mut cuts: Vec<usize> =
                    cut_seeds[..p - 1].iter().map(|s| s % (all.len() + 1)).collect();
                cuts.extend([0, all.len()]);
                cuts.sort_unstable();
                redistribute_against_positions(&all, &cuts, move |r, ids| {
                    let mut claims = Vec::new();
                    for &id in ids {
                        let h = mix64(seed ^ id);
                        if !h.is_multiple_of(3) {
                            let copies = usize::from((h >> 8) as usize % p == r)
                                + usize::from(mix64(h ^ r as u64).is_multiple_of(3));
                            claims.extend(std::iter::repeat_n(id, copies));
                        }
                    }
                    claims
                });
            }
        }
    }

    #[test]
    fn mst_id_redistribution_roundtrip() {
        let out = Machine::run(MachineConfig::new(3), |comm| {
            let input = InputGraph::generate(comm, GraphConfig::Grid2D { rows: 4, cols: 4 }, 3);
            // Claim every id the pipeline could ever claim — the
            // canonical pair ids carried by this PE's edges. Both
            // directions share the id, so most ids are claimed by two
            // PEs at once and many claims route off-PE; the dedup at
            // the home must collapse them.
            let claim: Vec<u64> = input.graph.edges.iter().map(|e| e.id).collect();
            let mine = input.redistribute_mst(comm, claim);
            // Every returned edge must be an original local edge in the
            // canonical direction.
            let ok = mine
                .iter()
                .all(|e| e.u < e.v && input.graph.edges.contains(e));
            (mine.len() as u64, ok)
        });
        // Both directions of an edge share one id, so the claims cover
        // exactly one u < v copy per undirected edge.
        let total: u64 = out.results.iter().map(|(l, _)| l).sum();
        assert_eq!(total, 4 * 3 + 3 * 4, "one canonical copy per edge");
        assert!(out.results.iter().all(|(_, ok)| *ok));
    }

    #[test]
    fn pair_ids_survive_empty_pes() {
        // Regression: with far fewer edges than PEs, the locator
        // fill-back gives empty PEs the next holder's first edge, and
        // the first-copy holder is no longer locator[cnt]'s PE — the
        // canonicalisation must still find it. 2 directed edges over
        // 4 (and 16) PEs leave most slices empty.
        for p in [4usize, 16] {
            let out = Machine::run(MachineConfig::new(p), |comm| {
                let edges = vec![
                    WEdge::new(0, 1, 5),
                    WEdge::new(1, 0, 5),
                    WEdge::new(2, 9, 3),
                    WEdge::new(9, 2, 3),
                ];
                let slice =
                    crate::io::distribute_from_root(comm, (comm.rank() == 0).then_some(edges));
                let input = InputGraph::from_sorted_edges(comm, slice);
                input.graph.edges.clone()
            });
            let all: Vec<CEdge> = out.results.into_iter().flatten().collect();
            assert_eq!(all.len(), 4);
            for e in &all {
                let twin = all
                    .iter()
                    .find(|t| (t.u, t.v) == (e.v, e.u))
                    .expect("symmetric closure");
                assert_eq!(e.id, twin.id, "p={p}: directions of {e:?} disagree");
            }
        }
    }

    #[test]
    fn pair_ids_are_direction_symmetric_and_order_by_weight_key() {
        let out = Machine::run(MachineConfig::new(4), |comm| {
            let input = InputGraph::generate(comm, GraphConfig::Gnm { n: 40, m: 300 }, 9);
            input.graph.edges.clone()
        });
        let all: Vec<CEdge> = out.results.into_iter().flatten().collect();
        // Both directions of an undirected edge carry the same id…
        let mut by_pair = std::collections::HashMap::new();
        for e in &all {
            by_pair
                .entry((e.u.min(e.v), e.u.max(e.v), e.w))
                .or_insert_with(Vec::new)
                .push(e.id);
        }
        for ((u, v, w), ids) in by_pair {
            let min = *ids.iter().min().unwrap();
            // Every backward copy points at the group's first forward
            // copy (surplus exact-duplicate forward copies may keep
            // their own, never-selected ids).
            for e in all.iter().filter(|e| e.u > e.v) {
                if (e.v, e.u, e.w) == (u, v, w) {
                    assert_eq!(e.id, min, "backward copy of ({u}, {v}, {w})");
                }
            }
        }
        // …and for equal weights, distinct contents order exactly like
        // (w, min, max).
        for a in &all {
            for b in &all {
                if a.w == b.w && a.weight_key() != b.weight_key() {
                    assert_eq!(
                        a.id < b.id,
                        a.weight_key() < b.weight_key(),
                        "{a:?} vs {b:?}"
                    );
                }
            }
        }
    }
}
