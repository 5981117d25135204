//! Threshold random hyperbolic graphs (paper: RHG, power-law exponent γ).
//!
//! Vertices are points on a hyperbolic disk of radius `R`: the radial
//! coordinate follows density `α·sinh(αr)/(cosh(αR)−1)` with
//! `α = (γ−1)/2`, the angle is uniform. Two vertices connect iff their
//! hyperbolic distance is at most `R`. This yields a power-law degree
//! distribution with exponent γ and strong clustering — the paper uses
//! γ = 3.0 and notes RHGs sit between the high-locality geometric
//! families and the locality-free GNM/RMAT.
//!
//! Communication-free generation dices the disk into `B` equal-mass
//! annular bands × `A` angular sectors with exactly `k` points per cell
//! (regularised field, same idea as the RGG generator); vertex ids are
//! sector-major so block partitioning preserves angular locality. The
//! disk radius `R` is calibrated to the target average degree by a
//! deterministic Monte-Carlo binary search that every PE replays
//! identically.

use super::{charge_order, weight_of};
use crate::edge::WEdge;
use crate::hash::{hash3, unit_f64, FxHashMap};
use kamsta_comm::Comm;
use std::f64::consts::PI;

/// Safety margin added to every per-point angular window. The window
/// pruning is exact in real arithmetic (`theta_max` is decreasing in
/// both radii, and every point of a band has `r ≥ band_lo`), so the
/// margin only has to absorb floating-point rounding of `acos`/`cosh`
/// — 1e-9 rad is ~1e6 ulps above that and costs no measurable extra
/// candidates.
const WINDOW_EPS: f64 = 1e-9;

/// RHG parameters.
#[derive(Clone, Copy, Debug)]
pub struct RhgParams {
    /// Target vertex count (rounded slightly by the cell dicing).
    pub n: u64,
    /// Target number of directed edges; the average degree `m/n` drives
    /// the disk-radius calibration.
    pub m: u64,
    /// Power-law exponent γ > 2.
    pub gamma: f64,
}

/// Radial quantile function: `F⁻¹(q)` for the hyperbolic radial law.
#[inline]
fn radius_for_quantile(q: f64, alpha: f64, big_r: f64) -> f64 {
    let c = (alpha * big_r).cosh() - 1.0;
    (1.0 + q * c).acosh() / alpha
}

/// Hyperbolic distance test: `d((r1,θ1),(r2,θ2)) ≤ R`.
#[inline]
fn connected(r1: f64, r2: f64, dtheta: f64, cosh_big_r: f64) -> bool {
    let cosh_d = r1.cosh() * r2.cosh() - r1.sinh() * r2.sinh() * dtheta.cos();
    cosh_d <= cosh_big_r
}

/// [`connected`] on cached points: same expression, same operation
/// order (IEEE multiplication commutes, so swapping the operands of a
/// symmetric pair cannot flip a boundary case), but `cosh r`/`sinh r`
/// come precomputed from the cell cache instead of being re-derived
/// per candidate pair.
#[inline]
fn connected_pre(p1: &CPoint, p2: &CPoint, dtheta: f64, cosh_big_r: f64) -> bool {
    p1.cosh_r * p2.cosh_r - p1.sinh_r * p2.sinh_r * dtheta.cos() <= cosh_big_r
}

/// Largest angular separation at which radii `r1, r2` can connect.
fn theta_max(r1: f64, r2: f64, big_r: f64, cosh_big_r: f64) -> f64 {
    if r1 + r2 <= big_r {
        return PI;
    }
    let denom = r1.sinh() * r2.sinh();
    if denom <= 0.0 {
        return PI;
    }
    let cos_t = (r1.cosh() * r2.cosh() - cosh_big_r) / denom;
    cos_t.clamp(-1.0, 1.0).acos()
}

/// Monte-Carlo estimate of the expected degree for disk radius `R`.
fn expected_degree(n: u64, alpha: f64, big_r: f64, seed: u64) -> f64 {
    const SAMPLES: u64 = 4000;
    let cosh_big_r = big_r.cosh();
    let mut hits = 0u64;
    for s in 0..SAMPLES {
        let r1 = radius_for_quantile(unit_f64(hash3(seed, s, 0)), alpha, big_r);
        let r2 = radius_for_quantile(unit_f64(hash3(seed, s, 1)), alpha, big_r);
        let dtheta = PI * unit_f64(hash3(seed, s, 2));
        if connected(r1, r2, dtheta, cosh_big_r) {
            hits += 1;
        }
    }
    (n.saturating_sub(1)) as f64 * hits as f64 / SAMPLES as f64
}

/// Calibrate the disk radius to the target average degree. Deterministic,
/// so all PEs agree without communication.
///
/// The bisection runs ~200k Monte-Carlo distance samples and every PE
/// derives the identical value, so the result is memoized process-wide:
/// on a simulated machine (p threads, one process) the first PE to
/// arrive computes while the rest block on the lock and then read the
/// cached value, instead of p PEs re-running the calibration on the
/// same physical cores.
fn calibrate_radius(n: u64, alpha: f64, target_deg: f64, seed: u64) -> f64 {
    use std::collections::HashMap;
    use std::sync::Mutex;
    type Key = (u64, u64, u64, u64);
    static MEMO: Mutex<Option<HashMap<Key, f64>>> = Mutex::new(None);
    let key: Key = (n, alpha.to_bits(), target_deg.to_bits(), seed);
    let mut memo = MEMO.lock().unwrap();
    let map = memo.get_or_insert_with(HashMap::new);
    if let Some(r) = map.get(&key) {
        return *r;
    }
    let mut lo = 0.5f64;
    let mut hi = 2.0 * (n.max(2) as f64).ln() + 20.0;
    for _ in 0..48 {
        let mid = 0.5 * (lo + hi);
        // Expected degree decreases as the disk grows.
        if expected_degree(n, alpha, mid, seed) > target_deg {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let r = 0.5 * (lo + hi);
    map.insert(key, r);
    r
}

/// The diced disk: `A` sectors × `B` equal-mass bands × `k` points/cell.
struct Disk {
    a: u64,
    b: u64,
    k: u64,
    alpha: f64,
    big_r: f64,
    cosh_big_r: f64,
    /// Inner radius of each band (quantile boundaries), length `b + 1`.
    band_lo: Vec<f64>,
    seed: u64,
}

/// A materialized point: polar coordinates, vertex id, and the
/// precomputed hyperbolic functions of `r` that every distance test
/// needs (the old sweep re-evaluated `cosh`/`sinh` per candidate pair).
#[derive(Clone, Copy, Debug)]
struct CPoint {
    r: f64,
    theta: f64,
    cosh_r: f64,
    sinh_r: f64,
    id: u64,
}

/// Per-PE cache of materialized cells. The band×band sweep touches the
/// same cells O(B × span) times; each is hashed, `acosh`-inverted and
/// `cosh`/`sinh`-expanded exactly once per run instead.
#[derive(Default)]
struct CellCache {
    cells: FxHashMap<u64, Vec<CPoint>>,
}

impl CellCache {
    fn cell(&mut self, disk: &Disk, s: u64, band: u64) -> &Vec<CPoint> {
        self.cells
            .entry(s * disk.b + band)
            .or_insert_with(|| disk.cell_points(s, band))
    }
}

impl Disk {
    fn new(params: &RhgParams, seed: u64) -> Self {
        assert!(params.gamma > 2.0, "RHG needs γ > 2");
        assert!(params.n >= 2);
        let alpha = (params.gamma - 1.0) / 2.0;
        let target_deg = (params.m as f64 / params.n as f64).max(1.0);
        let big_r = calibrate_radius(params.n, alpha, target_deg, seed ^ 0xCA11_B8A7);
        let b = 16u64.min(params.n.max(4) / 4).max(2);
        // Sector count is a pure function of n (NOT the PE count) so the
        // generated graph is partition-invariant.
        let a = ((params.n as f64 / (b as f64 * 4.0)).ceil() as u64).max(1);
        let k = ((params.n as f64 / (a * b) as f64).round() as u64).max(1);
        let band_lo: Vec<f64> = (0..=b)
            .map(|i| radius_for_quantile(i as f64 / b as f64, alpha, big_r))
            .collect();
        Self {
            a,
            b,
            k,
            alpha,
            big_r,
            cosh_big_r: big_r.cosh(),
            band_lo,
            seed,
        }
    }

    fn sector_width(&self) -> f64 {
        2.0 * PI / self.a as f64
    }

    /// Points of cell `(sector s, band b)`: pure function of the seed
    /// (the draws are identical to the pre-cache generator, so the
    /// produced graph is bit-for-bit unchanged), returned theta-sorted
    /// with `cosh r`/`sinh r` precomputed so the sweep can binary-search
    /// angular windows and test candidates without re-deriving the
    /// hyperbolic functions.
    fn cell_points(&self, s: u64, band: u64) -> Vec<CPoint> {
        let cell = s * self.b + band;
        let width = self.sector_width();
        let mut pts: Vec<CPoint> = (0..self.k)
            .map(|j| {
                let qa = unit_f64(hash3(self.seed, cell, 2 * j));
                let qr = unit_f64(hash3(self.seed, cell, 2 * j + 1));
                let theta = (s as f64 + qa) * width;
                let q = (band as f64 + qr) / self.b as f64;
                let r = radius_for_quantile(q, self.alpha, self.big_r);
                CPoint {
                    r,
                    theta,
                    cosh_r: r.cosh(),
                    sinh_r: r.sinh(),
                    id: cell * self.k + j,
                }
            })
            .collect();
        pts.sort_unstable_by(|x, y| x.theta.total_cmp(&y.theta).then(x.id.cmp(&y.id)));
        pts
    }
}

/// The index ranges of `pts` (theta-sorted) whose angle lies within
/// `window` of `center`, as up to two half-open ranges (the window may
/// wrap around 2π). Conservative by construction: a point outside the
/// ranges has circular angular distance ≥ `window` from `center`.
fn theta_ranges(pts: &[CPoint], center: f64, window: f64) -> [(usize, usize); 2] {
    if window >= PI {
        return [(0, pts.len()), (0, 0)];
    }
    let first_at_least = |x: f64| pts.partition_point(|p| p.theta < x);
    let lo = center - window;
    let hi = center + window;
    if lo < 0.0 {
        [
            (first_at_least(lo + 2.0 * PI), pts.len()),
            (0, first_at_least(hi)),
        ]
    } else if hi >= 2.0 * PI {
        [
            (first_at_least(lo), pts.len()),
            (0, first_at_least(hi - 2.0 * PI)),
        ]
    } else {
        [(first_at_least(lo), first_at_least(hi)), (0, 0)]
    }
}

/// Generate this PE's slice of the RHG. Collective.
///
/// The sweep is point-centric: for each of my points `p1` and each band
/// `band2`, the angular window is `theta_max(p1.r, band_lo[band2])` —
/// the *actual* radius of `p1` against the innermost radius band2 can
/// hold, instead of the loosest pair in both bands — and the candidate
/// range inside each theta-sorted cell is found by binary search.
/// Undirected pairs whose both endpoints are locally owned are tested
/// once (from the lower cell / lower id) and emit both directions;
/// cut pairs are tested once per side, each side emitting its own
/// direction — exactly the edge set of the naive band×band scan. Fewer
/// than two vertices give the empty graph.
pub fn rhg(comm: &Comm, params: RhgParams, seed: u64) -> Vec<WEdge> {
    if params.n < 2 {
        return Vec::new();
    }
    let disk = Disk::new(&params, seed);
    let my_sectors = super::block_range(disk.a, comm.size(), comm.rank());
    let width = disk.sector_width();
    let mut cache = CellCache::default();
    let mut edges = Vec::new();
    let mut work = 0u64;

    for s in my_sectors.clone() {
        for band in 0..disk.b {
            // Clone my cell out of the cache so candidate cells can be
            // materialized into it while iterating (k points per cell).
            let mine = cache.cell(&disk, s, band).clone();
            let cell1 = s * disk.b + band;
            for p1 in &mine {
                for band2 in 0..disk.b {
                    // Per-point window: conservative for every p2 in
                    // band2 because theta_max is decreasing in both
                    // radii and p2.r ≥ band_lo[band2].
                    let window = theta_max(
                        p1.r,
                        disk.band_lo[band2 as usize],
                        disk.big_r,
                        disk.cosh_big_r,
                    ) + WINDOW_EPS;
                    let span = ((window / width).ceil() as i64 + 1).min(disk.a as i64);
                    let full_circle = 2 * span + 1 >= disk.a as i64;
                    let deltas = if full_circle {
                        0..disk.a as i64
                    } else {
                        -span..span + 1
                    };
                    for ds in deltas {
                        let s2 = if full_circle {
                            ds as u64
                        } else {
                            (s as i64 + ds).rem_euclid(disk.a as i64) as u64
                        };
                        let cell2 = s2 * disk.b + band2;
                        let owned = my_sectors.contains(&s2);
                        if owned && cell2 < cell1 {
                            // Symmetric-pair iteration: the sweep of
                            // cell2 tests this pair and emits both
                            // directions.
                            continue;
                        }
                        let theirs = cache.cell(&disk, s2, band2);
                        for (lo, hi) in theta_ranges(theirs, p1.theta, window) {
                            for p2 in &theirs[lo..hi] {
                                if cell2 == cell1 && p2.id <= p1.id {
                                    continue;
                                }
                                work += 1;
                                let mut dt = (p1.theta - p2.theta).abs();
                                if dt > PI {
                                    dt = 2.0 * PI - dt;
                                }
                                if connected_pre(p1, p2, dt, disk.cosh_big_r) {
                                    edges.push(WEdge::new(
                                        p1.id,
                                        p2.id,
                                        weight_of(p1.id, p2.id, seed),
                                    ));
                                    if owned {
                                        edges.push(WEdge::new(
                                            p2.id,
                                            p1.id,
                                            weight_of(p2.id, p1.id, seed),
                                        ));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    comm.charge_local(work + edges.len() as u64);
    // The sweep runs by sector and band, not by source, so the slice
    // needs a local sort.
    edges.sort_unstable();
    charge_order(comm, &edges);
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamsta_comm::{Machine, MachineConfig};
    use std::collections::{HashMap, HashSet};

    fn generate_all(p: usize, n: u64, m: u64, gamma: f64, seed: u64) -> Vec<WEdge> {
        Machine::run(MachineConfig::new(p), move |comm| {
            rhg(comm, RhgParams { n, m, gamma }, seed)
        })
        .results
        .into_iter()
        .flatten()
        .collect()
    }

    #[test]
    fn symmetric_sorted_simple() {
        let all = generate_all(4, 1000, 8000, 3.0, 5);
        assert!(all.windows(2).all(|w| w[0] <= w[1]), "globally sorted");
        let set: HashSet<WEdge> = all.iter().copied().collect();
        assert_eq!(set.len(), all.len(), "no duplicates");
        for e in &all {
            assert!(set.contains(&e.reversed()), "missing back edge of {e:?}");
            assert!(!e.is_self_loop());
        }
    }

    #[test]
    fn partition_invariant() {
        let a = generate_all(1, 600, 4000, 3.0, 9);
        let b = generate_all(5, 600, 4000, 3.0, 9);
        assert_eq!(a, b, "same graph regardless of PE count");
    }

    #[test]
    fn average_degree_near_target() {
        let n = 2000u64;
        let m = 16_000u64;
        let all = generate_all(3, n, m, 3.0, 7);
        let got = all.len() as f64;
        assert!(
            got > 0.4 * m as f64 && got < 2.5 * m as f64,
            "directed edges {got} vs target {m}"
        );
    }

    #[test]
    fn degree_distribution_has_heavy_tail() {
        let all = generate_all(2, 3000, 24_000, 3.0, 3);
        let mut deg: HashMap<u64, u64> = HashMap::new();
        for e in &all {
            *deg.entry(e.u).or_insert(0) += 1;
        }
        let max_deg = *deg.values().max().unwrap();
        let avg = all.len() as f64 / deg.len() as f64;
        assert!(
            max_deg as f64 > 6.0 * avg,
            "power law should produce hubs: max {max_deg}, avg {avg}"
        );
    }

    #[test]
    fn radial_quantile_is_monotone() {
        let alpha = 1.0;
        let big_r = 10.0;
        let mut prev = -1.0;
        for i in 0..=20 {
            let r = radius_for_quantile(i as f64 / 20.0, alpha, big_r);
            assert!(r >= prev);
            assert!((0.0..=big_r + 1e-9).contains(&r));
            prev = r;
        }
        assert!(radius_for_quantile(0.0, alpha, big_r).abs() < 1e-12);
        assert!((radius_for_quantile(1.0, alpha, big_r) - big_r).abs() < 1e-9);
    }

    /// The windowed, cell-cached, symmetric-pair sweep must emit exactly
    /// the edge set of the naive all-pairs hyperbolic-distance check —
    /// the pruning (angular windows, sector spans, pair orientation) may
    /// only skip work, never edges.
    #[test]
    fn sweep_matches_bruteforce_all_pairs() {
        for (n, m, seed) in [(300u64, 2400u64, 11u64), (500, 3500, 4), (120, 900, 29)] {
            let params = RhgParams { n, m, gamma: 3.0 };
            let disk = Disk::new(&params, seed);
            let mut points = Vec::new();
            for s in 0..disk.a {
                for band in 0..disk.b {
                    points.extend(disk.cell_points(s, band));
                }
            }
            let mut expected: Vec<WEdge> = Vec::new();
            for p1 in &points {
                for p2 in &points {
                    if p1.id == p2.id {
                        continue;
                    }
                    let mut dt = (p1.theta - p2.theta).abs();
                    if dt > PI {
                        dt = 2.0 * PI - dt;
                    }
                    if connected(p1.r, p2.r, dt, disk.cosh_big_r) {
                        expected.push(WEdge::new(p1.id, p2.id, weight_of(p1.id, p2.id, seed)));
                    }
                }
            }
            expected.sort_unstable();
            for p in [1usize, 3] {
                let got = generate_all(p, n, m, 3.0, seed);
                assert_eq!(
                    got, expected,
                    "n={n} m={m} seed={seed} p={p}: sweep and brute force disagree"
                );
            }
        }
    }

    #[test]
    fn calibration_hits_target_degree() {
        let n = 5000;
        let alpha = 1.0;
        for target in [4.0, 16.0] {
            let r = calibrate_radius(n, alpha, target, 42);
            let got = expected_degree(n, alpha, r, 42);
            assert!(
                (got - target).abs() / target < 0.25,
                "target {target}, calibrated degree {got}"
            );
        }
    }
}
