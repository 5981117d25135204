//! The distributed MST algorithms of the paper: the scalable Borůvka
//! algorithm (Algorithm 1) here, Filter-Borůvka (Algorithm 2) and its
//! representative array in their own files, re-exported below, as are
//! the stages of Algorithm 1, each from a module of its own.
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
//!    ghost-label protocol (`pull.rs`) into the round's one label table,
//!    a [`Pulled`], and endpoint rewriting (Sec. IV-C);
//! 4. [`redistribute_relabelled`] — parallel-edge elimination (local
//!    per-pair prefilter or pure sorting, Sec. VI-B), distributed
//!    sorting, and re-establishing the distributed graph structure.
//!
//! Stages 1–3 are `round.rs`, stage 4 `redistribute.rs`. An optional
//! [`local_contract`] pass (Sec. IV-A, `local.rs`) contracts purely local
//! subtrees before the first communication round. The replicated base
//! case (Sec. IV-D) and the driver stay here.
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
pub use crate::local::{
    contract_local_subtrees, excess_locality, local_contract, PreprocessOutcome,
};
use crate::prefilter::prefilter_unordered;
pub use crate::pull::{IdLabels, Pulled, VertexNumbering, DENSE_SPAN_PER_QUERY};
pub use crate::redistribute::{redistribute, redistribute_relabelled};
use crate::round::exchange_labels_of;
pub use crate::round::{
    contract_components, exchange_labels, min_edges, relabel, relabel_or_defer, ContractOutcome,
    MinEdge, Relabelled,
};
use crate::seq::UnionFind;
use kamsta_comm::Comm;
use kamsta_graph::{CEdge, DistGraph, InputGraph, VertexId};
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

/// What the sequential solve of a gathered graph yields: the MSF edge
/// ids, and `(vertex, label)` for every vertex of the graph.
pub(crate) type RootedSolution = (Vec<u64>, Vec<(VertexId, VertexId)>);

/// Kruskal over a gathered edge list, by the unique-weight total order
/// `(w, id)` — the pair-canonical ids make this the paper's `(w, min,
/// max)` order on *original* endpoints, invariant under contraction: the
/// chosen edge ids, and `(vertex, label)` — the label is the minimum
/// member id of the vertex's component — for every vertex present in
/// `all`, in order of first appearance. One radix sort on the packed
/// 96-bit key, width-parallel on hybrid PEs (bit-identical to the
/// sequential sorter at every width).
fn kruskal_ids_and_labels(all: &[CEdge]) -> RootedSolution {
    let index = VertexNumbering::of_edges(all);
    let verts = index.verts();
    let number = |x: VertexId| index.get(x).expect("every endpoint is numbered");
    let mut order: Vec<CEdge> = all.iter().filter(|e| !e.is_self_loop()).copied().collect();
    kamsta_sort::par_radix_sort_by_key(&mut order, |e: &CEdge| {
        ((e.w as u128) << 64) | e.id as u128
    });
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
mod tests {
    use super::*;

    #[test]
    fn mst_config_defaults_and_threshold() {
        let cfg = MstConfig::default();
        assert!(cfg.preprocessing);
        assert_eq!(cfg.dedup, DedupStrategy::HashFilter);
        assert_eq!(cfg.base_threshold(4), 4 * cfg.base_case_constant);
        assert!(!cfg.without_preprocessing().preprocessing);
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
}
