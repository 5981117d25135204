//! Sparse-matrix Awerbuch–Shiloach MSF analogue (Baer et al. \[37\]).
//!
//! The graph's adjacency matrix is 2D-partitioned over a virtual PE grid
//! (edges live at the block of their endpoint pair); each round performs
//! a global per-component candidate reduction, hooking over a
//! block-distributed parent array, shortcutting by pointer doubling and a
//! full endpoint relabeling pass. Every round touches every remaining
//! edge, and 2D partitioning gives no locality to exploit — exactly the
//! structural properties the paper blames for its performance gap
//! (Sec. VII-A).

use kamsta_comm::{Comm, FlatBuckets, GridTopology};
use kamsta_core::dist::DistArray;
use kamsta_graph::hash::{FxHashMap, FxHashSet};
use kamsta_graph::{CEdge, WEdge};

/// One component's candidate edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Cand {
    w: u32,
    tie: (u64, u64),
    id: u64,
    to: u64,
    orig_u: u64,
    orig_v: u64,
}

/// Wire format: fixed-width field walk, declaration order.
impl kamsta_comm::Wire for Cand {
    fn wire_write(&self, out: &mut Vec<u8>) {
        self.w.wire_write(out);
        self.tie.wire_write(out);
        self.id.wire_write(out);
        self.to.wire_write(out);
        self.orig_u.wire_write(out);
        self.orig_v.wire_write(out);
    }
    fn wire_read(r: &mut kamsta_comm::WireReader<'_>) -> Result<Self, kamsta_comm::WireError> {
        Ok(Self {
            w: u32::wire_read(r)?,
            tie: <(u64, u64)>::wire_read(r)?,
            id: u64::wire_read(r)?,
            to: u64::wire_read(r)?,
            orig_u: u64::wire_read(r)?,
            orig_v: u64::wire_read(r)?,
        })
    }
    #[inline]
    fn wire_min_size() -> usize {
        52
    }
}

/// Compute the MSF with the 2D-partitioned Awerbuch–Shiloach scheme.
/// Returns this PE's share of the MSF edges (original endpoints).
/// Collective.
pub fn sparse_matrix(comm: &Comm, edges: &[CEdge]) -> Vec<WEdge> {
    let p = comm.size();
    let grid = GridTopology::new(p);
    let local_max = edges.iter().map(|e| e.u.max(e.v)).max().unwrap_or(0);
    let n_ids = comm.allreduce_max(local_max) + 1;

    // 2D partitioning: edge (u, v) goes to the PE at (row-block of u,
    // column-block of v) — the redistribution cost every matrix-based
    // tool pays up front.
    let block = |x: u64, blocks: usize| ((x as u128 * blocks as u128) / n_ids as u128) as usize;
    let tagged: Vec<(u64, u64, CEdge)> = edges.iter().map(|e| (e.u, e.v, *e)).collect();
    let bufs = FlatBuckets::from_dest_fn(p, tagged, |(u, v, _)| {
        (block(*u, grid.r) * grid.c + block(*v, grid.c)).min(p - 1)
    });
    // Working set: (current comp of u, current comp of v, original edge).
    let mut work: Vec<(u64, u64, CEdge)> = comm.alltoallv_direct(bufs).into_payload();

    let mut parent = DistArray::new(comm, n_ids);
    let mut msf: Vec<WEdge> = Vec::new();

    loop {
        // Per-component local candidates over ALL local edges.
        comm.charge_local(work.len() as u64);
        let mut local_best: FxHashMap<u64, Cand> = FxHashMap::default();
        for (cu, cv, e) in &work {
            if cu == cv {
                continue;
            }
            let c = Cand {
                w: e.w,
                tie: (e.u.min(e.v), e.u.max(e.v)),
                id: e.id,
                to: *cv,
                orig_u: e.u,
                orig_v: e.v,
            };
            let slot = local_best.entry(*cu).or_insert(c);
            if c < *slot {
                *slot = c;
            }
        }

        // Route candidates to the parent-array owner of each component;
        // the owner reduces to the global minimum (the paper's row-wise
        // min-reduction, expressed as a sparse exchange).
        let cands: Vec<(u64, Cand)> = local_best.into_iter().collect();
        let cand_bufs = FlatBuckets::from_dest_fn(p, cands, |(comp, _)| parent.home(*comp));
        let received = comm.sparse_alltoallv(cand_bufs);
        let mut winner: FxHashMap<u64, Cand> = FxHashMap::default();
        for &(comp, cand) in received.payload() {
            let slot = winner.entry(comp).or_insert(cand);
            if cand < *slot {
                *slot = cand;
            }
        }
        let any = comm.allreduce_sum(winner.len() as u64);
        if any == 0 {
            break;
        }

        // Hook: parent[comp] = candidate target.
        let hooks: Vec<(u64, u64)> = winner.iter().map(|(c, x)| (*c, x.to)).collect();
        parent.bulk_set(comm, hooks);

        // Resolve 2-cycles before shortcutting: if parent[b] == a for a
        // hook a → b with a < b, a becomes the root.
        let targets: Vec<u64> = winner.values().map(|x| x.to).collect();
        let back = parent.bulk_get(comm, targets);
        let mut fixes = Vec::new();
        let mut rooted: FxHashSet<u64> = FxHashSet::default();
        for (&a, x) in &winner {
            if back.get(x.to) == Some(a) && a < x.to {
                fixes.push((a, a));
                rooted.insert(a);
            }
        }
        parent.bulk_set(comm, fixes);

        // Every hooked, non-root component contributes its candidate.
        for (&a, x) in &winner {
            if !rooted.contains(&a) {
                msf.push(WEdge::new(x.orig_u, x.orig_v, x.w));
            }
        }

        // Shortcut (pointer doubling) and relabel all endpoints.
        parent.compress(comm);
        let mut endpoints: Vec<u64> = Vec::with_capacity(work.len() * 2);
        for (cu, cv, _) in &work {
            endpoints.push(*cu);
            endpoints.push(*cv);
        }
        let reps = parent.bulk_get(comm, endpoints);
        comm.charge_local(work.len() as u64);
        work.retain_mut(|(cu, cv, _)| {
            *cu = reps.get(*cu).unwrap_or(*cu);
            *cv = reps.get(*cv).unwrap_or(*cv);
            cu != cv
        });
    }
    msf
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamsta_comm::{Machine, MachineConfig};
    use kamsta_core::seq::{kruskal, msf_weight};
    use kamsta_core::verify_msf;
    use kamsta_graph::{GraphConfig, InputGraph};

    fn check(p: usize, config: GraphConfig, seed: u64) {
        let out = Machine::run(MachineConfig::new(p), move |comm| {
            let input = InputGraph::generate(comm, config, seed);
            let all: Vec<WEdge> = input.graph.edges.iter().map(|e| e.wedge()).collect();
            let msf = sparse_matrix(comm, &input.graph.edges);
            (all, msf)
        });
        let graph: Vec<WEdge> = out.results.iter().flat_map(|(g, _)| g.clone()).collect();
        let msf: Vec<WEdge> = out.results.iter().flat_map(|(_, m)| m.clone()).collect();
        verify_msf(&graph, &msf).unwrap_or_else(|e| panic!("p={p} {config:?}: {e}"));
    }

    #[test]
    fn grid_and_gnm() {
        check(4, GraphConfig::Grid2D { rows: 8, cols: 8 }, 3);
        check(4, GraphConfig::Gnm { n: 100, m: 800 }, 5);
    }

    #[test]
    fn various_pe_counts() {
        for p in [1, 2, 3, 5, 9] {
            check(p, GraphConfig::Grid2D { rows: 6, cols: 6 }, 7);
        }
    }

    #[test]
    fn skewed_rmat() {
        check(6, GraphConfig::Rmat { scale: 7, m: 1500 }, 9);
    }

    #[test]
    fn weight_matches_reference() {
        let out = Machine::run(MachineConfig::new(4), |comm| {
            let input = InputGraph::generate(
                comm,
                GraphConfig::Rhg {
                    n: 200,
                    m: 1600,
                    gamma: 3.0,
                },
                11,
            );
            let all: Vec<WEdge> = input.graph.edges.iter().map(|e| e.wedge()).collect();
            let msf = sparse_matrix(comm, &input.graph.edges);
            (all, msf)
        });
        let graph: Vec<WEdge> = out.results.iter().flat_map(|(g, _)| g.clone()).collect();
        let msf: Vec<WEdge> = out.results.iter().flat_map(|(_, m)| m.clone()).collect();
        assert_eq!(msf_weight(&msf), msf_weight(&kruskal(&graph)));
    }
}
