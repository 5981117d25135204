//! RMAT graphs with Graph500 probabilities (paper: RMAT).
//!
//! Each undirected edge is drawn by recursively descending the adjacency
//! matrix quadrants with probabilities `(a, b, c, d)`. Following the
//! paper's methodology exactly — "Regarding the RMAT generator, we first
//! globally sort the generated edges and then redistribute them equally
//! over all PEs" — generation is embarrassingly parallel over edge
//! indices, then the distributed sorter and rebalancer establish the
//! sorted 1D partition. This is the one generator that exercises the
//! full distributed sorting stack at construction time.

use super::weight_of;
use crate::edge::WEdge;
use crate::hash::{hash3, unit_f64};
use kamsta_comm::Comm;

/// RMAT parameters.
#[derive(Clone, Copy, Debug)]
pub struct RmatParams {
    /// `n = 2^scale` vertices.
    pub scale: u32,
    /// Target number of *directed* edges (undirected pairs = `m/2`).
    pub m: u64,
    pub a: f64,
    pub b: f64,
    pub c: f64,
}

impl RmatParams {
    /// The Graph500 defaults the paper uses: a=0.57, b=0.19, c=0.19.
    pub fn graph500(scale: u32, m: u64) -> Self {
        Self {
            scale,
            m,
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }
}

/// Draw undirected pair `k` by quadrant descent.
fn rmat_pair(params: &RmatParams, seed: u64, k: u64) -> (u64, u64) {
    let mut u = 0u64;
    let mut v = 0u64;
    let ab = params.a + params.b;
    let abc = ab + params.c;
    for level in 0..params.scale {
        let x = unit_f64(hash3(seed, k, level as u64));
        u <<= 1;
        v <<= 1;
        if x < params.a {
            // upper-left: no bits set
        } else if x < ab {
            v |= 1;
        } else if x < abc {
            u |= 1;
        } else {
            u |= 1;
            v |= 1;
        }
    }
    (u, v)
}

/// Generate this PE's slice of an RMAT graph. Self-loops are skipped;
/// duplicate edges are kept (the paper's algorithms eliminate parallel
/// edges during `REDISTRIBUTE`). Collective; internally runs the
/// distributed sorter.
pub fn rmat(comm: &Comm, params: RmatParams, seed: u64) -> Vec<WEdge> {
    // An explicit m = 0 must stay empty (degenerate-input corpus).
    let mu = if params.m == 0 {
        0
    } else {
        (params.m / 2).max(1)
    };
    let range = super::block_range(mu, comm.size(), comm.rank());
    let mut edges = Vec::with_capacity(2 * (range.end - range.start) as usize);
    for k in range {
        let (u, v) = rmat_pair(&params, seed, k);
        if u == v {
            continue;
        }
        let w = weight_of(u, v, seed);
        edges.push(WEdge::new(u, v, w));
        edges.push(WEdge::new(v, u, w));
    }
    comm.charge_local(edges.len() as u64 * params.scale as u64);
    // Paper methodology: global sort, then equal redistribution.
    let sorted = kamsta_sort::sort_auto_by_key(comm, edges, seed ^ 0x4D41_5254, WEdge::lex_key);
    kamsta_sort::rebalance(comm, sorted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamsta_comm::{Machine, MachineConfig};

    fn generate_all(p: usize, scale: u32, m: u64, seed: u64) -> Vec<Vec<WEdge>> {
        Machine::run(MachineConfig::new(p), move |comm| {
            rmat(comm, RmatParams::graph500(scale, m), seed)
        })
        .results
    }

    #[test]
    fn sorted_balanced_and_symmetric() {
        let chunks = generate_all(4, 8, 4000, 3);
        let sizes: Vec<usize> = chunks.iter().map(Vec::len).collect();
        let total: usize = sizes.iter().sum();
        for s in &sizes {
            assert!(
                (*s as i64 - (total / 4) as i64).abs() <= 1,
                "balanced blocks"
            );
        }
        let all: Vec<WEdge> = chunks.into_iter().flatten().collect();
        assert!(all.windows(2).all(|w| w[0] <= w[1]), "globally sorted");
        // Symmetry: count directed occurrences per unordered pair parity.
        let mut counts = std::collections::HashMap::new();
        for e in &all {
            *counts.entry((e.u.min(e.v), e.u.max(e.v))).or_insert(0i64) +=
                if e.u < e.v { 1 } else { -1 };
        }
        assert!(
            counts.values().all(|&c| c == 0),
            "every pair needs both directions equally often"
        );
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let all: Vec<WEdge> = generate_all(2, 10, 16_000, 7)
            .into_iter()
            .flatten()
            .collect();
        let mut deg = std::collections::HashMap::new();
        for e in &all {
            *deg.entry(e.u).or_insert(0u64) += 1;
        }
        let max_deg = *deg.values().max().unwrap();
        let avg = all.len() as f64 / deg.len() as f64;
        assert!(
            max_deg as f64 > 8.0 * avg,
            "RMAT should be skewed: max {max_deg} vs avg {avg}"
        );
    }

    #[test]
    fn deterministic() {
        let a = generate_all(3, 7, 1000, 11);
        let b = generate_all(3, 7, 1000, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn vertices_in_range() {
        let all: Vec<WEdge> = generate_all(2, 6, 500, 13).into_iter().flatten().collect();
        for e in &all {
            assert!(e.u < 64 && e.v < 64);
        }
    }
}
