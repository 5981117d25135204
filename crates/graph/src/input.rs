//! The prepared input graph: distributed structure + the varint-compressed
//! original edge list used to map MST edge ids back to original edges
//! (Sec. VI-C).

use crate::dist::{assign_ids, home_of_id, id_offsets, DistGraph};
use crate::edge::{CEdge, WEdge};
use crate::gen::GraphConfig;
use crate::varint::CompressedEdges;
use kamsta_comm::{Comm, FlatBuckets};

/// Rewrite every backward (`u > v`) copy's id to the id of its
/// undirected edge's globally *first* forward copy, so both directions
/// share one canonical id. This makes `(w, id)` a direction-symmetric,
/// **contraction-invariant** realisation of the paper's unique-weight
/// total order: for equal weights, forward global positions order
/// exactly by `(min(u,v), max(u,v))`, but unlike endpoint-based keys the
/// id survives relabeling unchanged — so every pipeline stage breaks
/// weight ties identically at every PE count, and `REDISTRIBUTE MST`
/// decodes every claim to the `u < v` copy. Exact duplicate copies of a
/// pair all map to the group's minimal id; surplus duplicates keep
/// their own (never-selected) position ids. The last step of
/// [`InputGraph::from_sorted_edges`], which is where the ids it expects
/// — global positions, [`assign_ids`] — come from. Collective.
///
/// One scan, one one-way exchange, one apply: a forward copy's id is
/// its own position, so the first local copy of every forward content
/// *pushes* `(v, u, w, id)` to the PEs that can hold the backward
/// content — in place when that is this PE. A forward copy precedes
/// its backward copy in the global order, so a backward copy's own
/// position id exceeds every id pushed to it and `min` over the
/// pushes (one per PE a duplicate run straddles) is the first copy's
/// id; a backward copy nobody pushes to (asymmetric hand-built inputs)
/// keeps its position id. For a fixed target vertex the pushed
/// `(v, w)` keys are non-decreasing — within a sender by scan order,
/// across senders by rank order — which is what the per-vertex cursors
/// of [`DistGraph::adopt_pair_id`] exploit.
pub fn canonicalize_pair_ids(comm: &Comm, graph: &mut DistGraph) {
    let me = comm.rank();
    let mut cursors = graph.segment_cursors();
    let mut pushed: Vec<CEdge> = Vec::new();
    let mut dests: Vec<u32> = Vec::new();
    for k in 0..graph.edges.len() {
        let e = graph.edges[k];
        if e.u >= e.v || (k > 0 && graph.edges[k - 1].wedge() == e.wedge()) {
            continue;
        }
        let back = CEdge::new(e.v, e.u, e.w, e.id);
        for home in graph.content_homes(&back.wedge()) {
            if home == me {
                graph.adopt_pair_id(&mut cursors, &back);
            } else {
                pushed.push(back);
                dests.push(home as u32);
            }
        }
    }
    comm.charge_local(graph.edges.len() as u64);
    let incoming = comm.sparse_alltoallv(FlatBuckets::from_dests(comm.size(), pushed, &dests));
    comm.charge_local(incoming.total_len() as u64);
    for back in incoming.payload() {
        graph.adopt_pair_id(&mut cursors, back);
    }
}

/// A fully prepared MST input: the distributed graph plus the compressed
/// id→edge mapping and its routing table.
pub struct InputGraph {
    pub graph: DistGraph,
    /// Varint-compressed copy of this PE's slice of the initial edge list.
    pub compressed: CompressedEdges,
    /// Replicated: first global edge id held by each PE.
    pub id_offsets: Vec<u64>,
}

impl InputGraph {
    /// Prepare an input from this PE's slice of a globally sorted edge
    /// list: assign global-position ids, compress the original list,
    /// establish the distributed structure, and canonicalise pair ids:
    /// both directions of an undirected edge end up sharing the id of its
    /// globally first `u < v` copy. Collective.
    pub fn from_sorted_edges(comm: &Comm, edges: Vec<WEdge>) -> Self {
        let with_ids = assign_ids(comm, edges);
        let offsets = id_offsets(comm, with_ids.len());
        let compressed = CompressedEdges::compress(&with_ids, offsets[comm.rank()]);
        let mut graph = DistGraph::establish(comm, with_ids);
        canonicalize_pair_ids(comm, &mut graph);
        Self {
            graph,
            compressed,
            id_offsets: offsets,
        }
    }

    /// Generate one of the paper's graph families and prepare it.
    /// Collective.
    pub fn generate(comm: &Comm, config: GraphConfig, seed: u64) -> Self {
        let edges = config.generate(comm, seed);
        Self::from_sorted_edges(comm, edges)
    }

    /// Prepare an input from an arbitrarily distributed, *unsorted* edge
    /// list: globally sort it with the distributed sorter (local phases
    /// radix on the packed `(u, v, w)` key), rebalance, and establish the
    /// structure. The certificate re-solves of the batch-dynamic layer
    /// enter here. Collective.
    pub fn from_unsorted_edges(comm: &Comm, edges: Vec<WEdge>) -> Self {
        let sorted = kamsta_sort::sort_auto_by_key(comm, edges, 0x00D1_5C0E, WEdge::lex_key);
        let balanced = kamsta_sort::rebalance(comm, sorted);
        Self::from_sorted_edges(comm, balanced)
    }

    /// `REDISTRIBUTE MST`: route identified MST edge ids back to their
    /// original home PEs and decode them from the compressed list. Ids
    /// are pair-canonical ([`InputGraph::from_sorted_edges`]), so every
    /// claim decodes to the `u < v` copy of its undirected edge — one
    /// direction per MSF edge globally, independent of which stage or
    /// direction claimed it. Returns this PE's original edges that
    /// belong to the MSF, sorted. Collective.
    pub fn redistribute_mst(&self, comm: &Comm, ids: Vec<u64>) -> Vec<CEdge> {
        let items: Vec<(usize, u64)> = ids
            .into_iter()
            .map(|id| (home_of_id(&self.id_offsets, id), id))
            .collect();
        let mut mine = kamsta_comm::route(comm, items);
        kamsta_sort::radix_sort_keys(&mut mine);
        mine.dedup();
        comm.charge_local(self.compressed.len() as u64);
        self.compressed.lookup_sorted(&mine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamsta_comm::{Machine, MachineConfig};

    #[test]
    fn prepares_generated_graph() {
        let out = Machine::run(MachineConfig::new(4), |comm| {
            let input = InputGraph::generate(comm, GraphConfig::Grid2D { rows: 8, cols: 8 }, 7);
            (
                input.graph.n_global,
                input.graph.m_global,
                input.compressed.len() as u64,
                input.graph.edges.len() as u64,
            )
        });
        for (n, m, clen, elen) in out.results {
            assert_eq!(n, 64);
            assert_eq!(m, 2 * (8 * 7 + 7 * 8));
            assert_eq!(clen, elen, "compressed copy covers the local slice");
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
