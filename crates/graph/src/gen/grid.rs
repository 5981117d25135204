//! 2D grid graphs (paper: 2D-GRID) and the road-network stand-in.

use super::{block_range, charge_order, weight_of};
use crate::edge::WEdge;
use crate::hash::{sym_hash, unit_f64};
use kamsta_comm::Comm;

/// Generate this PE's slice of a `rows × cols` 2D grid graph (4-neighbour,
/// no wraparound). Vertex `(r, c)` has id `r·cols + c`; ids ascend row-
/// major, so balanced id-range partitioning yields the high-locality
/// distribution the paper exploits. A zero side gives the empty graph.
/// Collective.
pub fn grid2d(comm: &Comm, rows: u64, cols: u64, seed: u64) -> Vec<WEdge> {
    let n = rows * cols;
    let range = block_range(n, comm.size(), comm.rank());
    let mut edges = Vec::with_capacity((range.end - range.start) as usize * 4);
    for u in range {
        let (r, c) = (u / cols, u % cols);
        let mut push = |v: u64| edges.push(WEdge::new(u, v, weight_of(u, v, seed)));
        // Neighbours in ascending id order.
        if r > 0 {
            push(u - cols);
        }
        if c > 0 {
            push(u - 1);
        }
        if c + 1 < cols {
            push(u + 1);
        }
        if r + 1 < rows {
            push(u + cols);
        }
    }
    comm.charge_local(edges.len() as u64);
    charge_order(comm, &edges);
    edges
}

/// Parameters for the road-network stand-in (DESIGN.md S5): a grid with a
/// fraction of edges deleted (dead ends, sparse connectivity — road
/// networks average degree ≈ 2.4) plus occasional diagonal shortcuts
/// (highway ramps).
#[derive(Clone, Copy, Debug)]
pub struct RoadParams {
    pub rows: u64,
    pub cols: u64,
    /// Probability of deleting a grid edge.
    pub drop_prob: f64,
    /// Probability of a diagonal shortcut at a grid cell.
    pub shortcut_prob: f64,
}

impl RoadParams {
    /// Defaults that land near the US-road average degree of ≈ 2.4.
    pub fn default_for(rows: u64, cols: u64) -> Self {
        Self {
            rows,
            cols,
            drop_prob: 0.38,
            shortcut_prob: 0.02,
        }
    }
}

/// Generate this PE's slice of the perturbed-grid road stand-in. The
/// result may be disconnected — the MST algorithms must produce a forest
/// (Sec. II-B). Collective.
pub fn road_like(comm: &Comm, params: RoadParams, seed: u64) -> Vec<WEdge> {
    let RoadParams {
        rows,
        cols,
        drop_prob,
        shortcut_prob,
    } = params;
    let n = rows * cols;
    let drop_salt = seed ^ 0xD0D0_0001;
    let short_salt = seed ^ 0x5C5C_0002;
    let keep = |u: u64, v: u64| unit_f64(sym_hash(u, v, drop_salt)) >= drop_prob;
    // A diagonal shortcut pairs (x, x + cols + 1); both endpoint PEs
    // evaluate the same symmetric hash, so the graph stays consistent
    // without communication.
    let has_shortcut = |x: u64| -> bool {
        let (r, c) = (x / cols, x % cols);
        r + 1 < rows
            && c + 1 < cols
            && unit_f64(sym_hash(x, x + cols + 1, short_salt)) < shortcut_prob
    };

    let range = block_range(n, comm.size(), comm.rank());
    let mut edges = Vec::with_capacity((range.end - range.start) as usize * 3);
    for u in range {
        let (r, c) = (u / cols, u % cols);
        let mut push = |v: u64| edges.push(WEdge::new(u, v, weight_of(u, v, seed)));
        // Neighbours in ascending id order: the backward diagonal into u
        // first, the forward diagonal from u last.
        if u > cols && has_shortcut(u - cols - 1) {
            push(u - cols - 1);
        }
        if r > 0 && keep(u - cols, u) {
            push(u - cols);
        }
        if c > 0 && keep(u - 1, u) {
            push(u - 1);
        }
        if c + 1 < cols && keep(u, u + 1) {
            push(u + 1);
        }
        if r + 1 < rows && keep(u, u + cols) {
            push(u + cols);
        }
        if has_shortcut(u) {
            push(u + cols + 1);
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

    fn gather_all(p: usize, f: impl Fn(&Comm) -> Vec<WEdge> + Send + Sync) -> Vec<Vec<WEdge>> {
        Machine::run(MachineConfig::new(p), f).results
    }

    #[test]
    fn grid_edge_count_and_symmetry() {
        let rows = 6;
        let cols = 5;
        let chunks = gather_all(3, move |comm| grid2d(comm, rows, cols, 7));
        let all: Vec<WEdge> = chunks.into_iter().flatten().collect();
        // 2·(#undirected edges) = 2·(rows·(cols−1) + (rows−1)·cols)
        let expected = 2 * (rows * (cols - 1) + (rows - 1) * cols);
        assert_eq!(all.len() as u64, expected);
        let set: HashSet<WEdge> = all.iter().copied().collect();
        assert_eq!(set.len(), all.len(), "no duplicate directed edges");
        for e in &all {
            assert!(set.contains(&e.reversed()), "missing back edge of {e:?}");
        }
    }

    #[test]
    fn grid_is_globally_sorted_and_partition_invariant() {
        let run = |p: usize| -> Vec<WEdge> {
            gather_all(p, move |comm| grid2d(comm, 8, 8, 3))
                .into_iter()
                .flatten()
                .collect()
        };
        let g1 = run(1);
        let g4 = run(4);
        let g7 = run(7);
        assert_eq!(g1, g4, "partitioning must not change the graph");
        assert_eq!(g1, g7);
        assert!(g1.windows(2).all(|w| w[0] <= w[1]), "globally sorted");
    }

    #[test]
    fn road_like_is_symmetric_and_sparser_than_grid() {
        let chunks = gather_all(4, move |comm| {
            road_like(comm, RoadParams::default_for(16, 16), 11)
        });
        let all: Vec<WEdge> = chunks.into_iter().flatten().collect();
        let set: HashSet<WEdge> = all.iter().copied().collect();
        for e in &all {
            assert!(set.contains(&e.reversed()), "missing back edge of {e:?}");
        }
        let grid_edges = 2 * (16 * 15 + 15 * 16);
        assert!(
            (all.len() as u64) < grid_edges,
            "perturbation should remove edges"
        );
        // Average degree should land near the road-network regime.
        let avg_deg = all.len() as f64 / (16.0 * 16.0);
        assert!(avg_deg > 1.5 && avg_deg < 3.5, "avg degree {avg_deg}");
    }

    #[test]
    fn degenerate_single_row_grid() {
        let chunks = gather_all(2, move |comm| grid2d(comm, 1, 5, 1));
        let all: Vec<WEdge> = chunks.into_iter().flatten().collect();
        assert_eq!(all.len(), 8); // path of 5 vertices, both directions
    }
}
