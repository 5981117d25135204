//! `REDISTRIBUTE` (Sec. IV-C, Sec. VI-B). The prefilter walks each
//! label's runs and rewrites the copies it keeps as it reads them, so the
//! relabelled slice of a deferred rewrite is never written
//! ([`redistribute`] is the same stage on edges that are rewritten
//! already).

use crate::dist::{DedupStrategy, MstConfig};
use crate::prefilter::prefilter_pairs;
use crate::round::{Relabelled, Stage};
use kamsta_comm::Comm;
use kamsta_graph::{CEdge, DistGraph};
use kamsta_sort::Sorted;

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

/// [`redistribute`] of a round's edges as
/// [`relabel`](crate::dist::relabel) rewrites them. A deferred rewrite
/// ([`relabel_or_defer`](crate::dist::relabel_or_defer)) happens in the
/// prefilter's walk, which releases the edges before the distributed
/// sort. Collective.
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

#[cfg(test)]
mod tests {
    use super::*;
    use kamsta_comm::{Machine, MachineConfig};

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
}
