//! Random geometric graphs in 2D and 3D (paper: 2D-RGG / 3D-RGG).
//!
//! Vertices are points in the unit square/cube; two vertices connect iff
//! their Euclidean distance is below a threshold chosen for the target
//! edge count. Generation is communication-free in KaGen style: the
//! domain is diced into cells of side ≥ radius, every cell's points are
//! a pure function of `(seed, cell)`, and a PE regenerates neighbouring
//! cells to find its cut edges. Each cell holds exactly `k` points (a
//! regularised Poisson field), which makes vertex ids — and with them the
//! sorted distributed edge list — computable in O(1) per cell.

use super::{charge_order, weight_of};
use crate::edge::WEdge;
use crate::hash::{hash3, unit_f64};
use kamsta_comm::Comm;
use std::f64::consts::PI;

/// Geometry of a regularised RGG: `g^DIM` cells, `k` points per cell.
struct CellGrid<const DIM: usize> {
    g: u64,
    k: u64,
    side: f64,
    radius: f64,
    seed: u64,
}

impl<const DIM: usize> CellGrid<DIM> {
    fn new(n: u64, m: u64, seed: u64) -> Self {
        assert!(n >= 1);
        let nf = n as f64;
        let avg_deg = (m as f64 / nf).max(1.0);
        // Solve n·V_DIM(r) = avg_deg for r.
        let radius = match DIM {
            2 => (avg_deg / (PI * nf)).sqrt(),
            3 => (3.0 * avg_deg / (4.0 * PI * nf)).cbrt(),
            _ => unreachable!("RGG supports 2D and 3D"),
        };
        let radius = radius.min(0.5);
        // Cell side must be >= radius; keep total cells <= n.
        let g_max_cells = (nf.powf(1.0 / DIM as f64)).floor().max(1.0) as u64;
        let g = ((1.0 / radius).floor().max(1.0) as u64)
            .min(g_max_cells)
            .max(1);
        let cells = g.pow(DIM as u32);
        let k = (n as f64 / cells as f64).round().max(1.0) as u64;
        Self {
            g,
            k,
            side: 1.0 / g as f64,
            radius,
            seed,
        }
    }

    fn cells(&self) -> u64 {
        self.g.pow(DIM as u32)
    }

    fn n_actual(&self) -> u64 {
        self.cells() * self.k
    }

    /// Expected degree of a point away from the boundary: the point
    /// count times the volume of a ball of the connection radius.
    fn expected_degree(&self) -> f64 {
        let ball = match DIM {
            2 => PI * self.radius.powi(2),
            _ => 4.0 / 3.0 * PI * self.radius.powi(3),
        };
        self.n_actual() as f64 * ball
    }

    fn cell_coords(&self, cidx: u64) -> [u64; DIM] {
        let mut c = [0u64; DIM];
        let mut rest = cidx;
        for d in (0..DIM).rev() {
            c[d] = rest % self.g;
            rest /= self.g;
        }
        c
    }

    fn cell_index(&self, coords: [u64; DIM]) -> u64 {
        coords.iter().fold(0u64, |idx, c| idx * self.g + c)
    }

    /// The points of a cell in id order (point `j` has id `cidx·k + j`):
    /// pure function of `(seed, cell)`.
    fn points(&self, cidx: u64) -> impl Iterator<Item = [f64; DIM]> + '_ {
        let base = self.cell_coords(cidx);
        (0..self.k).map(move |j| {
            let mut pos = [0.0f64; DIM];
            for (d, item) in pos.iter_mut().enumerate() {
                let h = hash3(self.seed, cidx, j * DIM as u64 + d as u64);
                *item = (base[d] as f64 + unit_f64(h)) * self.side;
            }
            pos
        })
    }

    /// Neighbouring cells (including the cell itself) in the unit box, in
    /// ascending index.
    fn neighbours(&self, cidx: u64) -> Vec<u64> {
        let base = self.cell_coords(cidx);
        let mut out = Vec::with_capacity(3usize.pow(DIM as u32));
        let mut offsets = vec![[0i64; DIM]];
        for d in 0..DIM {
            let mut next = Vec::new();
            for o in &offsets {
                for delta in -1i64..=1 {
                    let mut oo = *o;
                    oo[d] = delta;
                    next.push(oo);
                }
            }
            offsets = next;
        }
        for o in offsets {
            let mut coords = [0u64; DIM];
            let mut ok = true;
            for d in 0..DIM {
                let c = base[d] as i64 + o[d];
                if c < 0 || c >= self.g as i64 {
                    ok = false;
                    break;
                }
                coords[d] = c as u64;
            }
            if ok {
                out.push(self.cell_index(coords));
            }
        }
        out
    }
}

fn dist2<const DIM: usize>(a: &[f64; DIM], b: &[f64; DIM]) -> f64 {
    let mut s = 0.0;
    for d in 0..DIM {
        let diff = a[d] - b[d];
        s += diff * diff;
    }
    s
}

/// This PE's slice, written in `(u, v, w)` order: owned cells ascending,
/// each cell's points ascending, and for each point its neighbour cells
/// and their points ascending. Ids are `cell·k + j`, so that is id order.
fn rgg<const DIM: usize>(comm: &Comm, n: u64, m: u64, seed: u64) -> Vec<WEdge> {
    if n == 0 {
        return Vec::new();
    }
    let grid = CellGrid::<DIM>::new(n, m, seed);
    let cells = grid.cells();
    let range = super::block_range(cells, comm.size(), comm.rank());
    let r2 = grid.radius * grid.radius;
    let k = grid.k as usize;
    // A neighbour of cell c lies within c ± Σ_{d<DIM} g^d in index order,
    // so the owned cells plus that halo on each side hold every point the
    // sweep reads, each hashed into existence once.
    let halo: u64 = (0..DIM as u32).map(|d| grid.g.pow(d)).sum();
    let held = if range.is_empty() {
        0..0
    } else {
        range.start.saturating_sub(halo)..(range.end + halo).min(cells)
    };
    let points: Vec<[f64; DIM]> = held.clone().flat_map(|c| grid.points(c)).collect();
    let cell_points = |c: u64| &points[(c - held.start) as usize * k..][..k];

    let owned_points = (range.end - range.start) as f64 * grid.k as f64;
    let mut edges = Vec::with_capacity((owned_points * grid.expected_degree()) as usize);
    let mut work = 0u64;
    for cidx in range.clone() {
        let neighbours = grid.neighbours(cidx);
        for (aid, apos) in (cidx * grid.k..).zip(cell_points(cidx)) {
            for &ncell in &neighbours {
                let owned = range.contains(&ncell);
                for (bid, bpos) in (ncell * grid.k..).zip(cell_points(ncell)) {
                    if bid == aid {
                        continue;
                    }
                    // A pair with both cells owned is tested from both
                    // sides (`dist2` is bitwise symmetric, so both agree)
                    // but counted as one test.
                    work += u64::from(!owned || bid > aid);
                    if dist2(apos, bpos) <= r2 {
                        edges.push(WEdge::new(aid, bid, weight_of(aid, bid, seed)));
                    }
                }
            }
        }
    }
    comm.charge_local(work + edges.len() as u64);
    charge_order(comm, &edges);
    edges
}

/// Generate this PE's slice of a 2D RGG with ~`n` vertices and a radius
/// targeting ~`m` directed edges; `n = 0` gives the empty graph.
/// Collective.
pub fn rgg2d(comm: &Comm, n: u64, m: u64, seed: u64) -> Vec<WEdge> {
    rgg::<2>(comm, n, m, seed)
}

/// Generate this PE's slice of a 3D RGG with ~`n` vertices and a radius
/// targeting ~`m` directed edges; `n = 0` gives the empty graph.
/// Collective.
pub fn rgg3d(comm: &Comm, n: u64, m: u64, seed: u64) -> Vec<WEdge> {
    rgg::<3>(comm, n, m, seed)
}

/// Actual vertex count of the regularised RGG for given parameters (the
/// cell dicing rounds `n` slightly).
pub fn rgg_actual_n<const DIM: usize>(n: u64, m: u64, seed: u64) -> u64 {
    CellGrid::<DIM>::new(n, m, seed).n_actual()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamsta_comm::{Machine, MachineConfig};
    use std::collections::HashSet;

    /// The slices concatenated in rank order, checked to be strictly
    /// sorted as emitted.
    fn generate_all<const DIM: usize>(p: usize, n: u64, m: u64, seed: u64) -> Vec<WEdge> {
        let all: Vec<WEdge> = Machine::run(MachineConfig::new(p), move |comm| {
            rgg::<DIM>(comm, n, m, seed)
        })
        .results
        .into_iter()
        .flatten()
        .collect();
        assert!(
            all.windows(2).all(|w| w[0] < w[1]),
            "DIM={DIM} n={n} m={m} seed={seed} p={p}: not sorted as emitted"
        );
        all
    }

    #[test]
    fn rgg2d_symmetric_sorted_no_self_loops() {
        let all = generate_all::<2>(4, 1000, 8000, 3);
        let set: HashSet<WEdge> = all.iter().copied().collect();
        assert_eq!(set.len(), all.len());
        for e in &all {
            assert!(set.contains(&e.reversed()), "missing back edge of {e:?}");
            assert!(!e.is_self_loop());
        }
    }

    #[test]
    fn rgg2d_edge_count_near_target() {
        let m = 16_000u64;
        let all = generate_all::<2>(3, 2000, m, 5);
        let got = all.len() as f64;
        assert!(
            got > 0.4 * m as f64 && got < 2.5 * m as f64,
            "edge count {got} vs target {m}"
        );
    }

    #[test]
    fn rgg2d_partition_invariant() {
        let a = generate_all::<2>(1, 500, 3000, 7);
        let b = generate_all::<2>(5, 500, 3000, 7);
        assert_eq!(a, b, "cell decomposition must be partition-independent");
    }

    #[test]
    fn rgg3d_symmetric_and_partition_invariant() {
        let a = generate_all::<3>(1, 800, 6000, 9);
        let b = generate_all::<3>(6, 800, 6000, 9);
        assert_eq!(a, b);
        let set: HashSet<WEdge> = a.iter().copied().collect();
        for e in &a {
            assert!(set.contains(&e.reversed()));
        }
    }

    /// The neighbourhood sweep must emit exactly the edge list of the
    /// naive all-pairs distance check (cell side ≥ radius, so the 3^DIM
    /// neighbourhood covers every candidate).
    #[test]
    fn sweep_matches_bruteforce_all_pairs() {
        fn check<const DIM: usize>(n: u64, m: u64, seed: u64) {
            let grid = CellGrid::<DIM>::new(n, m, seed);
            // Ids are positions in the cell-major point list.
            let points: Vec<[f64; DIM]> = (0..grid.cells()).flat_map(|c| grid.points(c)).collect();
            let r2 = grid.radius * grid.radius;
            let mut expected: Vec<WEdge> = Vec::new();
            for (aid, apos) in (0u64..).zip(&points) {
                for (bid, bpos) in (0u64..).zip(&points) {
                    if aid != bid && dist2(apos, bpos) <= r2 {
                        expected.push(WEdge::new(aid, bid, weight_of(aid, bid, seed)));
                    }
                }
            }
            expected.sort_unstable();
            for p in [1usize, 3] {
                let got = generate_all::<DIM>(p, n, m, seed);
                assert_eq!(
                    got, expected,
                    "DIM={DIM} n={n} m={m} seed={seed} p={p}: sweep and brute force disagree"
                );
            }
        }
        check::<2>(400, 3000, 13);
        check::<2>(250, 1500, 6);
        check::<3>(300, 2200, 21);
    }

    #[test]
    fn rgg_has_locality_under_block_partition() {
        // Most edges stay within a PE's vertex range — the property the
        // paper's local preprocessing exploits.
        let p = 4;
        let all = generate_all::<2>(p, 2000, 12_000, 11);
        let n = rgg_actual_n::<2>(2000, 12_000, 11);
        let local = all
            .iter()
            .filter(|e| {
                let pu = (e.u * p as u64) / n;
                let pv = (e.v * p as u64) / n;
                pu == pv
            })
            .count();
        assert!(
            local * 2 > all.len(),
            "expected mostly-local edges, got {local}/{}",
            all.len()
        );
    }
}
