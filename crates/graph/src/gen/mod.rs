//! KaGen-style communication-free graph generators (Sec. VII).
//!
//! Every generator is SPMD-collective: each PE produces exactly its slice
//! of a *globally lexicographically sorted* distributed edge list with
//! both edge directions present (each direction emitted by the PE owning
//! its source), matching the paper's input invariant: "KaGen ensures that
//! the generated edges are globally lexicographically sorted and thus do
//! not produce shared vertices for the input".
//!
//! Most families write their slice in `(u, v, w)` order by construction,
//! with no sort:
//! - grids and the road stand-in visit their vertex range in id order
//!   and push each vertex's neighbours in ascending id order;
//! - RGGs sweep their owned cells, each cell's points, the 3^DIM
//!   neighbour cells and their points, all in ascending index, and ids
//!   are `cell·k + j`;
//! - GNM takes its source buckets in ascending order, replays every pair
//!   stream touching a bucket, and places the kept edges with a counting
//!   sort on the source plus a sort of each source's short run.
//!
//! Two families are the exceptions. RHG sweeps by sector and band, not
//! by source, and sorts its slice locally. RMAT, as in the paper, is
//! sorted and redistributed with the distributed sorter.
//!
//! Determinism: generation is pure hashing on `(seed, structure)`, so both
//! endpoints of an edge agree on its existence and weight without
//! communication, and repeated runs are bit-identical.

mod gnm;
mod grid;
mod rgg;
mod rhg;
mod rmat;

pub use gnm::gnm;
pub use grid::{grid2d, road_like, RoadParams};
pub use rgg::{rgg2d, rgg3d, rgg_actual_n};
pub use rhg::{rhg, RhgParams};
pub use rmat::{rmat, RmatParams};

use crate::edge::{VertexId, WEdge, Weight};
use crate::hash::sym_hash;
use kamsta_comm::Comm;

/// Edge weight from the symmetric hash, uniform in `[1, 255)` as in the
/// paper's experimental setup (Sec. VII: "we assign a weight drawn
/// uniformly at random from [1, 255) to each edge").
#[inline]
pub fn weight_of(u: VertexId, v: VertexId, seed: u64) -> Weight {
    (sym_hash(u, v, seed) % 254 + 1) as Weight
}

/// First item of block `b` of `n` items in `parts` blocks, `⌊b·n/parts⌋`,
/// computed wide so that no `n` up to `u64::MAX` overflows.
#[inline]
fn block_start(n: u64, parts: u64, b: u64) -> u64 {
    (b as u128 * n as u128 / parts as u128) as u64
}

/// Balanced block range of `n` items for PE `rank` of `p`.
#[inline]
pub fn block_range(n: u64, p: usize, rank: usize) -> std::ops::Range<u64> {
    let (p, r) = (p as u64, rank as u64);
    block_start(n, p, r)..block_start(n, p, r + 1)
}

/// Exact inverse of [`block_range`]: the block index whose range contains
/// item `v` (integer-rounding safe).
#[inline]
pub fn block_of(n: u64, parts: u64, v: u64) -> u64 {
    debug_assert!(v < n);
    let mut b = ((v as u128 * parts as u128) / n as u128) as u64;
    // Fix up the off-by-one that integer flooring can introduce.
    while b + 1 < parts && block_start(n, parts, b + 1) <= v {
        b += 1;
    }
    while b > 0 && block_start(n, parts, b) > v {
        b -= 1;
    }
    b
}

/// The six graph families of the paper's weak-scaling evaluation plus the
/// real-world stand-in families (DESIGN.md S5).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GraphConfig {
    /// 2D grid with `rows × cols` vertices (paper: 2D-GRID).
    Grid2D { rows: u64, cols: u64 },
    /// 2D random geometric graph with ~`n` vertices and connection radius
    /// chosen for ~`m` directed edges (paper: 2D-RGG).
    Rgg2D { n: u64, m: u64 },
    /// 3D random geometric graph (paper: 3D-RGG).
    Rgg3D { n: u64, m: u64 },
    /// Erdős–Renyi graph with `n` vertices and ~`m` directed edges
    /// (paper: GNM).
    Gnm { n: u64, m: u64 },
    /// Random hyperbolic graph with ~`n` vertices, ~`m` directed edges and
    /// power-law exponent `gamma` (paper: RHG, γ = 3.0).
    Rhg { n: u64, m: u64, gamma: f64 },
    /// RMAT graph with `2^scale` vertices and ~`m` directed edges using
    /// Graph500 probabilities (paper: RMAT).
    Rmat { scale: u32, m: u64 },
    /// Road-network stand-in: perturbed grid at average degree ≈ 2.4
    /// (substitute for US-road, DESIGN.md S5).
    RoadLike { rows: u64, cols: u64 },
}

impl GraphConfig {
    /// Human-readable family name matching the paper's figures.
    pub fn family(&self) -> &'static str {
        match self {
            GraphConfig::Grid2D { .. } => "2D-GRID",
            GraphConfig::Rgg2D { .. } => "2D-RGG",
            GraphConfig::Rgg3D { .. } => "3D-RGG",
            GraphConfig::Gnm { .. } => "GNM",
            GraphConfig::Rhg { .. } => "RHG",
            GraphConfig::Rmat { .. } => "RMAT",
            GraphConfig::RoadLike { .. } => "ROAD",
        }
    }

    /// True for the families the paper classifies as high-locality
    /// (grids and random geometric graphs; RHGs are "somewhere in
    /// between").
    pub fn is_local_family(&self) -> bool {
        matches!(
            self,
            GraphConfig::Grid2D { .. }
                | GraphConfig::Rgg2D { .. }
                | GraphConfig::Rgg3D { .. }
                | GraphConfig::RoadLike { .. }
        )
    }

    /// Generate this PE's slice of the distributed edge list. Collective.
    ///
    /// The concatenation of the slices in rank order is sorted by
    /// `(u, v, w)`. Grids, the road stand-in, RGGs and GNM emit in that
    /// order by construction (see the module docs); RHG sorts its slice
    /// locally, and RMAT runs the distributed sorter. A request with no
    /// vertex pairs to draw from (fewer than two vertices, or a zero grid
    /// side) yields an empty graph.
    pub fn generate(&self, comm: &Comm, seed: u64) -> Vec<WEdge> {
        match *self {
            GraphConfig::Grid2D { rows, cols } => grid2d(comm, rows, cols, seed),
            GraphConfig::Rgg2D { n, m } => rgg2d(comm, n, m, seed),
            GraphConfig::Rgg3D { n, m } => rgg3d(comm, n, m, seed),
            GraphConfig::Gnm { n, m } => gnm(comm, n, m, seed),
            GraphConfig::Rhg { n, m, gamma } => rhg(comm, RhgParams { n, m, gamma }, seed),
            GraphConfig::Rmat { scale, m } => rmat(comm, RmatParams::graph500(scale, m), seed),
            GraphConfig::RoadLike { rows, cols } => {
                road_like(comm, RoadParams::default_for(rows, cols), seed)
            }
        }
    }

    /// Weak-scaling instance for the paper's figures: `2^v_per_core`
    /// vertices and `2^m_per_core` directed edges per core, scaled to
    /// `cores` (Sec. VII: "All graphs are scaled such that the number of
    /// vertices and edges are proportional to the number of cores").
    pub fn weak_scaled(family: &str, v_per_core: u32, m_per_core: u32, cores: usize) -> Self {
        let n = (cores as u64) << v_per_core;
        let m = (cores as u64) << m_per_core;
        match family {
            "2D-GRID" => {
                // Square-ish grid with ~n vertices.
                let side = (n as f64).sqrt().round() as u64;
                GraphConfig::Grid2D {
                    rows: side.max(2),
                    cols: side.max(2),
                }
            }
            "2D-RGG" => GraphConfig::Rgg2D { n, m },
            "3D-RGG" => GraphConfig::Rgg3D { n, m },
            "GNM" => GraphConfig::Gnm { n, m },
            "RHG" => GraphConfig::Rhg { n, m, gamma: 3.0 },
            "RMAT" => GraphConfig::Rmat {
                scale: kamsta_comm::ceil_log2(n as usize),
                m,
            },
            "ROAD" => {
                let side = (n as f64).sqrt().round() as u64;
                GraphConfig::RoadLike {
                    rows: side.max(2),
                    cols: side.max(2),
                }
            }
            other => panic!("unknown graph family {other}"),
        }
    }
}

/// Charge putting a generated slice in order — γ per edge of a slice of
/// two or more, the modeled cost of a local sort — and check that it is
/// in order: strictly increasing in `(u, v)`, so sorted and free of
/// repeated directed pairs. The charge is part of every family's
/// modeled set-up cost, whether the family orders its slice by
/// construction or by sorting it.
pub(crate) fn charge_order(comm: &Comm, edges: &[WEdge]) {
    debug_assert!(
        edges
            .windows(2)
            .all(|w| (w[0].u, w[0].v) < (w[1].u, w[1].v)),
        "generated slice out of order"
    );
    if edges.len() > 1 {
        comm.charge_local(edges.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_range_and_symmetry() {
        for i in 0..500u64 {
            let w = weight_of(i, i * 3 + 1, 9);
            assert!((1..255).contains(&w));
            assert_eq!(w, weight_of(i * 3 + 1, i, 9));
        }
    }

    #[test]
    fn block_ranges_partition() {
        let n = 103u64;
        let p = 7;
        let mut covered = 0;
        for r in 0..p {
            let range = block_range(n, p, r);
            assert_eq!(range.start, covered);
            covered = range.end;
        }
        assert_eq!(covered, n);
    }

    #[test]
    fn block_of_inverts_block_range() {
        for (n, parts) in [(300u64, 128u64), (103, 7), (1000, 13), (128, 128), (5, 3)] {
            for v in 0..n {
                let b = block_of(n, parts, v);
                let range = block_range(n, parts as usize, b as usize);
                assert!(
                    range.contains(&v),
                    "n={n} parts={parts} v={v}: block {b} range {range:?}"
                );
            }
        }
    }

    #[test]
    fn block_of_inverts_block_range_at_the_top_of_the_id_space() {
        let n = u64::MAX;
        for parts in [1u64, 2, 3, 7, 16] {
            let probes = (0..parts).flat_map(|b| {
                let r = block_range(n, parts as usize, b as usize);
                [r.start, r.start + 1, r.end - 1, r.end.saturating_sub(2)]
            });
            for v in probes.chain([n / 3, n - 1, n - 17]) {
                let b = block_of(n, parts, v);
                let range = block_range(n, parts as usize, b as usize);
                assert!(
                    range.contains(&v),
                    "parts={parts} v={v}: block {b} range {range:?}"
                );
            }
        }
    }

    #[test]
    fn weak_scaling_config_sizes() {
        let c = GraphConfig::weak_scaled("GNM", 12, 15, 8);
        assert_eq!(
            c,
            GraphConfig::Gnm {
                n: 8 << 12,
                m: 8 << 15
            }
        );
        assert!(!c.is_local_family());
        let g = GraphConfig::weak_scaled("2D-GRID", 12, 15, 4);
        assert!(g.is_local_family());
        assert_eq!(g.family(), "2D-GRID");
    }
}
