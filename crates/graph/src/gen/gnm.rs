//! Erdős–Renyi G(n, m) graphs (paper: GNM), communication-free.
//!
//! The vertex set is split into a *fixed* number of buckets (independent
//! of the PE count, so the generated graph is partition-invariant). For
//! every bucket pair `{a, b}` a deterministic hash stream seeded by
//! `(seed, a, b)` produces the pair's edge count (Poissonised
//! multinomial split of `m`) and the endpoints themselves. Any PE can
//! replay the stream of any pair, so each PE emits exactly the edge
//! directions whose source lies in its range — no communication, same
//! divide-and-conquer determinism as KaGen.

use super::{block_of, block_range, charge_order, weight_of};
use crate::edge::WEdge;
use crate::hash::{hash3, mix64, unit_f64, FxHashSet};
use kamsta_comm::Comm;

/// Number of vertex buckets (graph-structure constant; NOT the PE count).
const BUCKETS: u64 = 128;

/// Deterministic Poisson sample with mean `lambda` from a hash stream.
/// Knuth's method for small means, normal approximation for large ones.
fn poisson(lambda: f64, stream: u64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 32.0 {
        let limit = (-lambda).exp();
        let mut prod = 1.0f64;
        let mut k = 0u64;
        loop {
            prod *= unit_f64(mix64(stream.wrapping_add(k.wrapping_mul(0x9E37))));
            if prod <= limit {
                return k;
            }
            k += 1;
            if k > (lambda * 12.0) as u64 + 64 {
                return k; // numerically degenerate; cap
            }
        }
    } else {
        // Box–Muller normal approximation N(λ, λ).
        let u1 = unit_f64(mix64(stream)).max(1e-12);
        let u2 = unit_f64(mix64(stream ^ 0xABCD_EF01));
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let x = lambda + lambda.sqrt() * z;
        x.max(0.0).round() as u64
    }
}

/// Generate this PE's slice of a G(n, m) graph with ~`m` *directed* edges
/// (i.e. ~`m/2` undirected pairs). Multi-edges are suppressed within each
/// bucket pair; self-loops are skipped. Partition-invariant: the same
/// `(n, m, seed)` yields the same graph for every PE count. Fewer than
/// two vertices give the empty graph. Collective.
///
/// The slice is written in `(u, v, w)` order, one source bucket at a
/// time in ascending order: replay every pair stream touching the
/// bucket, keep the directions whose source is in the bucket and in
/// this PE's range, place them by a counting sort on the source, and
/// sort each source's run (~m/n edges). A pair with both buckets here is
/// replayed once per side.
pub fn gnm(comm: &Comm, n: u64, m: u64, seed: u64) -> Vec<WEdge> {
    if n < 2 {
        return Vec::new();
    }
    let b = BUCKETS.min(n);
    let p = comm.size();
    let me = comm.rank();
    // Undirected edge budget; an explicit m = 0 must stay empty (the
    // degenerate-input corpus relies on it) rather than rounding up.
    let mu = if m == 0 { 0.0 } else { (m / 2).max(1) as f64 };
    let total_pairs = (n as f64) * (n as f64 - 1.0) / 2.0;
    let my_range = block_range(n, p, me);
    let mut edges: Vec<WEdge> = Vec::with_capacity((2 * m as usize / p).max(16));

    // Buckets overlapping my vertex range.
    let my_buckets = if my_range.is_empty() {
        0..0
    } else {
        block_of(n, b, my_range.start)..block_of(n, b, my_range.end - 1) + 1
    };

    // Reused per bucket: the kept edges in stream order, and one
    // counter per source.
    let mut kept: Vec<WEdge> = Vec::new();
    let mut ends: Vec<usize> = Vec::new();
    let mut seen: FxHashSet<(u64, u64)> = FxHashSet::default();
    for s in my_buckets {
        let rs = block_range(n, b as usize, s as usize);
        let sources = rs.start.max(my_range.start)..rs.end.min(my_range.end);
        kept.clear();
        for other in 0..b {
            let (a, bb) = (s.min(other), s.max(other));
            let ra = block_range(n, b as usize, a as usize);
            let rb = block_range(n, b as usize, bb as usize);
            let sa = (ra.end - ra.start) as f64;
            let sb = (rb.end - rb.start) as f64;
            let pair_count = if a == bb {
                sa * (sa - 1.0) / 2.0
            } else {
                sa * sb
            };
            let lambda = mu * pair_count / total_pairs;
            let pair_seed = hash3(seed, a, bb);
            let count = poisson(lambda, pair_seed);

            seen.clear();
            for t in 0..count {
                let hx = hash3(pair_seed, t, 0);
                let hy = hash3(pair_seed, t, 1);
                let x = ra.start + hx % (ra.end - ra.start);
                let y = rb.start + hy % (rb.end - rb.start);
                if x == y {
                    continue; // self-pair (only possible when a == bb)
                }
                let key = (x.min(y), x.max(y));
                if !seen.insert(key) {
                    continue; // suppress multi-edge within the bucket pair
                }
                let w = weight_of(x, y, seed);
                // Keep only directions whose source is in bucket s and
                // in my vertex range.
                if sources.contains(&x) {
                    kept.push(WEdge::new(x, y, w));
                }
                if sources.contains(&y) {
                    kept.push(WEdge::new(y, x, w));
                }
            }
        }

        // Counting sort on the source into the tail of `edges`: `ends[i]`
        // starts as the first slot of source i's run and ends as the
        // slot past it.
        ends.clear();
        ends.resize((sources.end - sources.start) as usize, 0);
        for e in &kept {
            ends[(e.u - sources.start) as usize] += 1;
        }
        let base = edges.len();
        let mut next = base;
        for slot in ends.iter_mut() {
            let count = *slot;
            *slot = next;
            next += count;
        }
        edges.resize(next, WEdge::new(0, 0, 0));
        for &e in &kept {
            let slot = &mut ends[(e.u - sources.start) as usize];
            edges[*slot] = e;
            *slot += 1;
        }
        let mut start = base;
        for &end in &ends {
            edges[start..end].sort_unstable();
            start = end;
        }
    }
    comm.charge_local(edges.len() as u64);
    charge_order(comm, &edges);
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamsta_comm::{Machine, MachineConfig};
    use std::collections::HashSet;

    /// The slices concatenated in rank order, checked to be strictly
    /// sorted as emitted.
    fn generate_all(p: usize, n: u64, m: u64, seed: u64) -> Vec<WEdge> {
        let all: Vec<WEdge> =
            Machine::run(MachineConfig::new(p), move |comm| gnm(comm, n, m, seed))
                .results
                .into_iter()
                .flatten()
                .collect();
        assert!(
            all.windows(2).all(|w| w[0] < w[1]),
            "n={n} m={m} seed={seed} p={p}: not sorted as emitted"
        );
        all
    }

    #[test]
    fn symmetric_and_simple() {
        let all = generate_all(4, 200, 1600, 5);
        let set: HashSet<WEdge> = all.iter().copied().collect();
        assert_eq!(set.len(), all.len(), "no duplicate directed edges");
        for e in &all {
            assert!(set.contains(&e.reversed()), "missing back edge of {e:?}");
            assert!(!e.is_self_loop());
            assert!(e.u < 200 && e.v < 200);
        }
    }

    #[test]
    fn edge_count_near_target() {
        let m = 4000u64;
        let all = generate_all(5, 500, m, 7);
        let got = all.len() as f64;
        assert!(
            (got - m as f64).abs() < 0.25 * m as f64,
            "directed edge count {got} too far from target {m}"
        );
    }

    #[test]
    fn partition_invariant() {
        // The graph must be identical for every PE count — this is what
        // makes the paper's hybrid `-8` variants comparable to `-1`.
        let a = generate_all(1, 300, 2400, 9);
        for p in [2, 3, 5, 8] {
            let b = generate_all(p, 300, 2400, 9);
            assert_eq!(a, b, "p={p} must generate the same graph");
        }
    }

    #[test]
    fn small_n_fewer_buckets_than_vertices() {
        let all = generate_all(3, 10, 60, 3);
        for e in &all {
            assert!(e.u < 10 && e.v < 10);
        }
    }

    #[test]
    fn poisson_mean_is_plausible() {
        let lambda = 10.0;
        let mut total = 0u64;
        for s in 0..2000 {
            total += poisson(lambda, mix64(s));
        }
        let mean = total as f64 / 2000.0;
        assert!((mean - lambda).abs() < 0.5, "poisson mean {mean}");
        // Large-λ path.
        let mut total = 0u64;
        for s in 0..2000 {
            total += poisson(1000.0, mix64(s));
        }
        let mean = total as f64 / 2000.0;
        assert!((mean - 1000.0).abs() < 10.0, "normal-approx mean {mean}");
    }
}
