//! Algorithm 2 — Filter-Borůvka (Sec. V), the distributed analogue of
//! Filter-Kruskal (Osipov, Sanders, Singler, ALENEX 2009).
//!
//! Three rules shape the recursion ([`filter_mst`]):
//!
//! * **A sparsity cutoff.** A replicated counter n′ follows the number of
//!   current representatives. An edge range of m (global, directed)
//!   edges is partitioned around a sampled pivot only while
//!   `m > c · max(n′, base_threshold(p))` — while it is dense relative to
//!   the vertices that are left — so the depth is `O(log(m/n))` whatever
//!   p is (Theorem 1). `c` is [`SPARSE_EDGES_PER_REP`], the only constant.
//! * **Borůvka as the base case.** A sparse range is redistributed and
//!   contracted by the round loop of Algorithm 1 ([`boruvka_rounds`], the
//!   function `boruvka_mst` runs); the hooks of its rounds go into the
//!   array and pointer doubling shortens them to representatives. The
//!   rooted solve of Sec. IV-D takes over where Algorithm 1 itself
//!   switches to it.
//! * **One edge buffer.** The input slice is copied once; every level
//!   partitions its range of that copy in place, recurses on the light
//!   side, and compacts the heavy side in place with the filter — which
//!   also writes the representatives it read into the edges it keeps, so
//!   a range always reaches its base case relabelled.

use crate::dist::{boruvka_rounds, redistribute, rooted_base_case, MstConfig, MstResult};
use crate::dist_array::DistArray;
use crate::instrument::{Phase, Phased};
use kamsta_comm::Comm;
use kamsta_graph::{CEdge, InputGraph, Weight};
use std::borrow::Cow;

/// The sparsity rule's constant `c`: a range goes to the base case once
/// it holds at most `c` directed edges — `c / 2` undirected ones — per
/// current representative. Read off the sweep in EXPERIMENTS.md
/// ("Filter-Borůvka as Algorithm 2 wrote it"): at 1 the recursion runs
/// four times as many steps for no smaller base cases, from 4 on the
/// first base case sorts most of what filtering would have dropped.
const SPARSE_EDGES_PER_REP: u64 = 2;

/// Statistics of one Filter-Borůvka run (the Theorem 1 experiment).
/// Identical on every PE: all counters are global quantities.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Number of base-case MST computations performed.
    pub base_case_calls: u64,
    /// Total (global, directed) edges fed into base cases.
    pub base_case_edges: u64,
    /// Heavy edges eliminated by the representative-array filter.
    pub filtered_edges: u64,
    /// Number of pivot partitioning steps.
    pub partition_steps: u64,
}

/// The unique-weight total order Filter-Borůvka partitions on: `(w, id)`
/// with pair-canonical ids — direction-symmetric (both copies of an
/// undirected edge share the id) and contraction-invariant.
type WeightKey = (Weight, u64);

/// Deterministic sample-median pivot over the unique-weight keys.
fn sample_pivot(comm: &Comm, edges: &[CEdge]) -> WeightKey {
    const SAMPLES_PER_PE: usize = 24;
    let mut sample: Vec<WeightKey> = Vec::with_capacity(SAMPLES_PER_PE);
    if !edges.is_empty() {
        let stride = (edges.len() / SAMPLES_PER_PE).max(1);
        sample.extend(
            edges
                .iter()
                .step_by(stride)
                .take(SAMPLES_PER_PE)
                .map(|e| (e.w, e.id)),
        );
    }
    let mut all = comm.allgatherv(sample);
    all.sort_unstable();
    all[all.len() / 2]
}

/// Move the edges with `(w, id) ≤ pivot` to the front of `edges` and
/// return how many there are. Two cursors closing in from both ends: an
/// edge moves at most once.
fn partition_in_place(edges: &mut [CEdge], pivot: WeightKey) -> usize {
    let (mut lo, mut hi) = (0, edges.len());
    loop {
        while lo < hi && (edges[lo].w, edges[lo].id) <= pivot {
            lo += 1;
        }
        while lo < hi && (edges[hi - 1].w, edges[hi - 1].id) > pivot {
            hi -= 1;
        }
        if lo == hi {
            return lo;
        }
        // A heavy edge at `lo`, a light one at `hi − 1`: two positions.
        edges.swap(lo, hi - 1);
        lo += 1;
        hi -= 1;
    }
}

/// The rooted solve (Sec. IV-D stand-in) of a graph over current
/// representatives: the MSF ids stay at the root, which claims them for
/// `REDISTRIBUTE MST`; the representatives it retired are absorbed into
/// the array. Collective.
fn solve_rooted(comm: &Comm, edges: &[CEdge], reps: &mut DistArray, msf_ids: &mut Vec<u64>) {
    let retired = rooted_base_case(comm, edges).map(|(ids, mut labels)| {
        msf_ids.extend(ids);
        // Only the vertices that stopped being representatives travel.
        labels.retain(|&(v, label)| v != label);
        labels.sort_unstable();
        labels
    });
    reps.absorb_from_root(comm, retired);
}

/// Recursion state of one [`filter_mst`] run.
struct FilterCtx<'a> {
    ph: Phased<'a>,
    cfg: &'a MstConfig,
    /// `reps[v]` is the representative of `v`'s component so far — always
    /// a fixed point of the array between two base cases.
    reps: DistArray,
    /// n′: the number of representatives left among the input's vertices.
    /// Replicated.
    n_reps: u64,
    stats: FilterStats,
    msf_ids: Vec<u64>,
}

impl FilterCtx<'_> {
    /// Quicksort-style recursion of Algorithm 2 on a range of the edge
    /// buffer holding `m` edges machine-wide: partition by a sampled
    /// pivot, recurse light-first, filter the heavy side through the
    /// representative array, recurse on the survivors. When a call starts
    /// the endpoints of its range are current representatives: the array
    /// is the identity for the whole input, a light side starts before
    /// any base case has run since its parent did, and the filter
    /// rewrites what it keeps. All branch decisions read replicated
    /// values, keeping every PE in lockstep.
    fn rec(&mut self, edges: &mut [CEdge], m: u64) {
        if m == 0 {
            return;
        }
        let comm = self.ph.comm();
        // Without the floor the recursion chases a shrinking n′ into
        // dozens of steps over ranges no collective amortises.
        let floor = self.cfg.base_threshold(comm.size());
        if m <= SPARSE_EDGES_PER_REP.saturating_mul(self.n_reps.max(floor)) {
            return self.base_case(edges, m);
        }
        self.stats.partition_steps += 1;
        let light_len = self.ph.measure(Phase::PartitionFilter, |c| {
            let pivot = sample_pivot(c, edges);
            c.charge_local(edges.len() as u64);
            partition_in_place(edges, pivot)
        });
        let m_light = comm.allreduce_sum(light_len as u64);
        if m_light == m || m_light == 0 {
            // No progress (all keys equal: copies of one edge). The base
            // case dedups them away.
            return self.base_case(edges, m);
        }
        let (light, heavy) = edges.split_at_mut(light_len);
        self.rec(light, m_light);

        // Filter: a heavy edge whose endpoints already share a
        // representative is spanned by lighter edges and can never join
        // the MSF. The survivors move to the front of the range with the
        // representatives just read for endpoints — ids and weights stay
        // — so no later step has to relabel them.
        let reps = &self.reps;
        let kept = self.ph.measure(Phase::PartitionFilter, |c| {
            let mut endpoints: Vec<u64> = Vec::with_capacity(heavy.len() * 2);
            for e in heavy.iter() {
                endpoints.push(e.u);
                endpoints.push(e.v);
            }
            let rep_of = reps.bulk_get(c, endpoints);
            c.charge_local(heavy.len() as u64);
            let mut kept = 0;
            for k in 0..heavy.len() {
                let mut e = heavy[k];
                e.u = rep_of.get(e.u).unwrap_or(e.u);
                e.v = rep_of.get(e.v).unwrap_or(e.v);
                if e.u != e.v {
                    heavy[kept] = e;
                    kept += 1;
                }
            }
            kept
        });
        let dropped = comm.allreduce_sum((heavy.len() - kept) as u64);
        self.stats.filtered_edges += dropped;
        self.rec(&mut heavy[..kept], m - m_light - dropped);
    }

    /// Base case on a range of `m` edges over current representatives:
    /// the rounds of Algorithm 1 and, once they have contracted the graph
    /// to `base_threshold(p)` vertices, the rooted solve; the rooted
    /// solve alone when no more representatives than that are left
    /// anywhere — where Algorithm 1 itself would switch. Either way the
    /// array ends up holding the new representatives, and n′ falls by the
    /// MSF edges found.
    fn base_case(&mut self, edges: &[CEdge], m: u64) {
        let comm = self.ph.comm();
        let found_before = self.msf_ids.len();

        if self.n_reps <= self.cfg.base_threshold(comm.size()) {
            self.ph.measure(Phase::BaseCaseRedistributeMst, |c| {
                solve_rooted(c, edges, &mut self.reps, &mut self.msf_ids)
            });
        } else {
            let g = self.ph.measure(Phase::Redistribute, |c| {
                redistribute(c, edges.to_vec(), self.cfg)
            });
            // A vertex hooks at most once — it is gone from the next
            // round's graph — and its home PE alone records the hook, so
            // one write after the last round carries them all.
            let mut hooks: Vec<(u64, u64)> = Vec::new();
            let mut rounds = 0u32;
            let g = boruvka_rounds(
                &mut self.ph,
                Cow::Owned(g),
                self.cfg,
                &mut self.msf_ids,
                |g, labels| {
                    rounds += 1;
                    let verts = g.local_vertices();
                    let homed = verts.len() - usize::from(g.last_shared);
                    let pairs = verts[..homed].iter().zip(labels);
                    hooks.extend(pairs.filter(|(v, l)| v != l).map(|(&v, &l)| (v, l)));
                },
            );
            self.ph.measure(Phase::BaseCaseRedistributeMst, |c| {
                // The round count is replicated: every PE takes this branch.
                if rounds > 0 {
                    self.reps.bulk_set(c, hooks);
                    self.reps.compress(c);
                }
                solve_rooted(c, &g.edges, &mut self.reps, &mut self.msf_ids)
            });
        }

        let found = (self.msf_ids.len() - found_before) as u64;
        self.n_reps -= comm.allreduce_sum(found);
        self.stats.base_case_calls += 1;
        self.stats.base_case_edges += m;
    }
}

/// The Filter-Borůvka algorithm (Algorithm 2): Filter-Kruskal-style
/// weight partitioning with distributed filtering through the
/// block-distributed representative array, distributed Borůvka as the
/// base case. Collective; returns this PE's share of the MSF plus the
/// Theorem 1 statistics (identical on all PEs).
pub fn filter_mst(comm: &Comm, input: &InputGraph, cfg: &MstConfig) -> (MstResult, FilterStats) {
    let g = &input.graph;
    // Every vertex of a symmetric graph is a source somewhere.
    let n_ids = g.id_span().map_or(0, |(_, hi)| hi + 1);
    let mut ctx = FilterCtx {
        ph: Phased::new(comm),
        cfg,
        reps: DistArray::new(comm, n_ids),
        n_reps: g.n_global,
        stats: FilterStats::default(),
        msf_ids: Vec::new(),
    };
    // The one edge buffer every level works in.
    let mut buffer = ctx.ph.measure(Phase::PartitionFilter, |c| {
        c.charge_local(g.edges.len() as u64);
        g.edges.clone()
    });
    ctx.rec(&mut buffer, g.m_global);
    drop(buffer);
    let ids = std::mem::take(&mut ctx.msf_ids);
    let edges = ctx.ph.measure(Phase::BaseCaseRedistributeMst, |c| {
        input.redistribute_mst(c, ids)
    });
    (
        MstResult {
            edges,
            phases: ctx.ph.times,
        },
        ctx.stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::boruvka_mst;
    use kamsta_comm::{Machine, MachineConfig};
    use kamsta_graph::GraphConfig;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn partition_in_place_splits_at_the_pivot_and_keeps_the_multiset(
            keys in prop::collection::vec((1u32..6, 0u64..8), 0..60),
            pivot in (0u32..7, 0u64..9),
        ) {
            let mut edges: Vec<CEdge> = keys
                .iter()
                .enumerate()
                .map(|(k, &(w, id))| CEdge::new(k as u64, k as u64 + 1, w, id))
                .collect();
            let before = edges.clone();
            let light = partition_in_place(&mut edges, pivot);
            prop_assert_eq!(light, keys.iter().filter(|&&k| k <= pivot).count());
            prop_assert!(edges[..light].iter().all(|e| (e.w, e.id) <= pivot));
            prop_assert!(edges[light..].iter().all(|e| (e.w, e.id) > pivot));
            let sorted = |mut v: Vec<CEdge>| {
                v.sort_unstable();
                v
            };
            prop_assert_eq!(sorted(edges), sorted(before));
        }
    }

    #[test]
    fn boruvka_and_filter_agree_on_gnm() {
        // 120 vertices against a threshold of 8: the first base cases
        // contract, the later ones are rooted solves.
        let out = Machine::run(MachineConfig::new(4), |comm| {
            let input = InputGraph::generate(comm, GraphConfig::Gnm { n: 120, m: 900 }, 13);
            let cfg = MstConfig {
                base_case_constant: 2,
                ..MstConfig::default()
            };
            let b = boruvka_mst(comm, &input, &cfg);
            let (f, stats) = filter_mst(comm, &input, &cfg);
            assert!(stats.base_case_calls > 1 && stats.partition_steps > 0);
            assert_eq!(
                stats.base_case_edges + stats.filtered_edges,
                input.graph.m_global
            );
            let ids = |edges: &[CEdge]| edges.iter().map(|e| e.id).collect::<Vec<u64>>();
            (ids(&b.edges), ids(&f.edges))
        });
        let sorted = |mut ids: Vec<u64>| {
            ids.sort_unstable();
            ids
        };
        let by_boruvka = sorted(out.results.iter().flat_map(|r| r.0.clone()).collect());
        let by_filter = sorted(out.results.iter().flat_map(|r| r.1.clone()).collect());
        assert_eq!(by_filter, by_boruvka);
        assert!(by_boruvka.len() > 100);
    }
}
