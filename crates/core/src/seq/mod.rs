//! The sequential correctness reference: Kruskal over a union-find.
//!
//! [`kruskal`] accepts a symmetric directed edge list (both directions
//! present, the paper's input format) or a plain undirected list — each
//! undirected edge is reported once in the output MSF.

mod kruskal;
mod union_find;

pub use kruskal::kruskal;
pub use union_find::UnionFind;

use kamsta_graph::{VertexId, WEdge};

/// Dense renaming of arbitrary `u64` vertex labels.
pub(crate) struct VertexIndex {
    ids: Vec<VertexId>,
}

impl VertexIndex {
    /// Build from the endpoints of an edge list.
    pub fn build(edges: &[WEdge]) -> Self {
        let mut ids: Vec<VertexId> = edges.iter().flat_map(|e| [e.u, e.v]).collect();
        ids.sort_unstable();
        ids.dedup();
        Self { ids }
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    #[inline]
    pub fn dense(&self, v: VertexId) -> u32 {
        self.ids.binary_search(&v).expect("vertex must exist") as u32
    }
}

/// Total weight of an MSF.
pub fn msf_weight(edges: &[WEdge]) -> u64 {
    edges.iter().map(|e| e.w as u64).sum()
}

/// Canonicalise an MSF for comparisons: one direction per edge, sorted.
pub fn canonical_msf(edges: &[WEdge]) -> Vec<WEdge> {
    let mut out: Vec<WEdge> = edges
        .iter()
        .map(|e| if e.u <= e.v { *e } else { e.reversed() })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
pub(crate) mod testutil {
    use kamsta_graph::WEdge;

    /// Deterministic random connected graph: a scrambled spanning path
    /// plus extra random edges; returns an undirected edge list.
    pub fn random_connected_graph(n: u64, extra: usize, seed: u64) -> Vec<WEdge> {
        use kamsta_graph::hash::{hash3, mix64};
        let mut edges = Vec::new();
        // Spanning path over a pseudo-random permutation.
        let perm: Vec<u64> = {
            let mut v: Vec<u64> = (0..n).collect();
            // Fisher–Yates with hash stream.
            for i in (1..n as usize).rev() {
                let j = (mix64(seed ^ i as u64) % (i as u64 + 1)) as usize;
                v.swap(i, j);
            }
            v
        };
        for i in 1..n as usize {
            let (u, v) = (perm[i - 1], perm[i]);
            let w = (hash3(seed, u.min(v), u.max(v)) % 254 + 1) as u32;
            edges.push(WEdge::new(u, v, w));
        }
        for k in 0..extra {
            let u = hash3(seed ^ 0xE, k as u64, 0) % n;
            let v = hash3(seed ^ 0xE, k as u64, 1) % n;
            if u != v {
                let w = (hash3(seed, u.min(v), u.max(v)) % 254 + 1) as u32;
                edges.push(WEdge::new(u, v, w));
            }
        }
        edges
    }

    /// Symmetric closure of an undirected list.
    pub fn symmetric(edges: &[WEdge]) -> Vec<WEdge> {
        let mut out = Vec::with_capacity(edges.len() * 2);
        for e in edges {
            out.push(*e);
            out.push(e.reversed());
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_index_is_dense_and_ordered() {
        let edges = vec![WEdge::new(10, 5, 1), WEdge::new(5, 99, 2)];
        let idx = VertexIndex::build(&edges);
        assert_eq!(idx.len(), 3);
        for (d, v) in [5u64, 10, 99].into_iter().enumerate() {
            assert_eq!(idx.dense(v), d as u32);
        }
    }

    #[test]
    fn canonicalisation_merges_directions() {
        let msf = vec![
            WEdge::new(2, 1, 5),
            WEdge::new(1, 2, 5),
            WEdge::new(0, 1, 3),
        ];
        let c = canonical_msf(&msf);
        assert_eq!(c, vec![WEdge::new(0, 1, 3), WEdge::new(1, 2, 5)]);
        assert_eq!(msf_weight(&c), 8);
    }
}
