//! Deterministic random update workloads.
//!
//! The differential tests and the `dyn_throughput` benchmark need the
//! same thing: a reproducible stream of insert/delete batches whose live
//! edge set is known at every batch boundary, so a from-scratch
//! reference can be rebuilt and compared. [`WorkloadGen`] is pure
//! splitmix hashing on the seed — replicated construction on every PE
//! yields the identical stream without communication, the same trick the
//! graph generators play.

use crate::Update;
use kamsta_graph::hash::{mix64, FxHashMap};
use kamsta_graph::{VertexId, WEdge, Weight};

/// splitmix64: the tiny deterministic stream the generators also build
/// on (independent state, so workloads never correlate with weights).
#[derive(Clone, Copy, Debug)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        let z = mix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z
    }
}

/// Replicated generator of random insert/delete batches over the vertex
/// space `[0, n)`. Maintains the live pair set under the maintainer's
/// own semantics (pair-keyed, last write wins), so deletions target
/// edges that exist and [`Self::symmetric_edges`] rebuilds the exact
/// from-scratch reference input at any batch boundary.
pub struct WorkloadGen {
    n: u64,
    rng: SplitMix,
    /// Percent of ops drawn as deletions (when any edge is live).
    delete_pct: u64,
    live: Vec<WEdge>,
    index: FxHashMap<(VertexId, VertexId), usize>,
}

impl WorkloadGen {
    /// A workload over `[0, n)` (`n ≥ 2`) seeded with the live set
    /// `initial` (canonicalised; later duplicates of a pair win).
    pub fn new(n: u64, seed: u64, initial: &[WEdge]) -> Self {
        assert!(n >= 2, "workloads need at least two vertices");
        let mut gen = Self {
            n,
            rng: SplitMix(seed ^ 0xD15C_0B07),
            delete_pct: 40,
            live: Vec::new(),
            index: FxHashMap::default(),
        };
        for e in initial {
            if e.u != e.v {
                gen.upsert(WEdge::new(e.u.min(e.v), e.u.max(e.v), e.w));
            }
        }
        gen
    }

    /// Override the deletion share (percent of ops, default 40).
    pub fn with_delete_pct(mut self, pct: u64) -> Self {
        self.delete_pct = pct.min(100);
        self
    }

    /// The live set as a canonical sorted edge list.
    pub fn live_edges(&self) -> Vec<WEdge> {
        let mut out = self.live.clone();
        out.sort_unstable();
        out
    }

    /// The live set as the symmetric, globally sorted directed edge list
    /// the static pipeline takes as input.
    pub fn symmetric_edges(&self) -> Vec<WEdge> {
        let mut out: Vec<WEdge> = self.live.iter().flat_map(|e| [*e, e.reversed()]).collect();
        out.sort_unstable();
        out
    }

    /// Draw the next batch of `size` updates, mutating the live set the
    /// way the maintainer will.
    pub fn next_batch(&mut self, size: usize) -> Vec<Update> {
        let mut ops = Vec::with_capacity(size);
        for _ in 0..size {
            let delete = !self.live.is_empty() && self.rng.next_u64() % 100 < self.delete_pct;
            if delete {
                let k = (self.rng.next_u64() % self.live.len() as u64) as usize;
                let e = self.live.swap_remove(k);
                self.index.remove(&(e.u, e.v));
                if k < self.live.len() {
                    self.index.insert((self.live[k].u, self.live[k].v), k);
                }
                ops.push(Update::Delete { u: e.u, v: e.v });
            } else {
                let u = self.rng.next_u64() % self.n;
                let mut v = self.rng.next_u64() % self.n;
                if u == v {
                    v = (v + 1) % self.n;
                }
                let w = (self.rng.next_u64() % 254 + 1) as Weight;
                let e = WEdge::new(u.min(v), u.max(v), w);
                self.upsert(e);
                ops.push(Update::Insert(e));
            }
        }
        ops
    }

    fn upsert(&mut self, e: WEdge) {
        match self.index.get(&(e.u, e.v)) {
            Some(&i) => self.live[i] = e,
            None => {
                self.index.insert((e.u, e.v), self.live.len());
                self.live.push(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic_and_track_the_live_set() {
        let initial = [WEdge::new(0, 1, 5), WEdge::new(2, 3, 7)];
        let mut a = WorkloadGen::new(16, 9, &initial);
        let mut b = WorkloadGen::new(16, 9, &initial);
        for _ in 0..20 {
            assert_eq!(a.next_batch(8), b.next_batch(8));
            assert_eq!(a.live_edges(), b.live_edges());
        }
        // The live set mirrors applied ops: replay on a map and compare.
        let mut c = WorkloadGen::new(16, 77, &initial);
        let mut mirror: std::collections::BTreeMap<(u64, u64), u32> =
            initial.iter().map(|e| ((e.u, e.v), e.w)).collect();
        for _ in 0..30 {
            for op in c.next_batch(5) {
                match op {
                    Update::Insert(e) => {
                        mirror.insert((e.u, e.v), e.w);
                    }
                    Update::Delete { u, v } => {
                        mirror.remove(&(u.min(v), u.max(v)));
                    }
                }
            }
        }
        let from_mirror: Vec<WEdge> = mirror
            .iter()
            .map(|(&(u, v), &w)| WEdge::new(u, v, w))
            .collect();
        assert_eq!(c.live_edges(), from_mirror);
    }

    #[test]
    fn symmetric_edges_hold_both_directions_sorted() {
        let gen = WorkloadGen::new(8, 1, &[WEdge::new(4, 2, 3), WEdge::new(0, 1, 9)]);
        let sym = gen.symmetric_edges();
        assert_eq!(sym.len(), 4);
        assert!(sym.windows(2).all(|w| w[0] <= w[1]));
        assert!(sym.contains(&WEdge::new(2, 4, 3)) && sym.contains(&WEdge::new(4, 2, 3)));
    }
}
