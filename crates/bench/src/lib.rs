//! # kamsta-bench — the figure/table regeneration harness
//!
//! One binary per table and figure of the paper's evaluation (Sec. VII);
//! see `DESIGN.md` §3 for the experiment index and `EXPERIMENTS.md` for
//! recorded paper-vs-measured outcomes. Criterion micro-benches cover the
//! building-block ablations (all-to-all variants, sorters, the
//! hash-filter dedup).
//!
//! All binaries accept the environment variables:
//!
//! * `KAMSTA_MAX_CORES` — largest simulated core count (default 64);
//! * `KAMSTA_V_PER_CORE` / `KAMSTA_M_PER_CORE` — log2 of the per-core
//!   weak-scaling sizes (defaults 10 / 14; the paper used 17 / 21 —
//!   scaled down per DESIGN.md S3).

use kamsta::{Algorithm, GraphConfig, MstConfig, RunSummary, Runner};
use kamsta_comm::{Comm, Machine, MachineConfig};
use kamsta_core::dist::boruvka_mst;
use kamsta_dyn::{DynConfig, DynMst, WorkloadGen};
use kamsta_graph::io::distribute_from_root;
use kamsta_graph::{InputGraph, WEdge};

/// Measurements of one batch-dynamic update workload against the
/// from-scratch alternative (same deterministic update stream, same
/// final graph — the helper asserts the final forests agree).
#[derive(Clone, Copy, Debug)]
pub struct DynThroughput {
    /// Total update operations applied.
    pub ops: u64,
    /// Number of batches.
    pub batches: u64,
    /// Updates per batch.
    pub batch_size: usize,
    /// Wall seconds spent applying all batches dynamically.
    pub dyn_wall: f64,
    /// Modeled seconds of the dynamic path.
    pub dyn_modeled: f64,
    /// Wall seconds spent recomputing from scratch at every boundary.
    pub scratch_wall: f64,
    /// Modeled seconds of the from-scratch path.
    pub scratch_modeled: f64,
    /// Final forest weight (identical on both paths).
    pub final_weight: u64,
    /// Lifetime statistics of the dynamic maintainer.
    pub stats: kamsta_dyn::UpdateStats,
}

impl DynThroughput {
    /// Updates per wall second through the dynamic path.
    pub fn updates_per_second(&self) -> f64 {
        self.ops as f64 / self.dyn_wall.max(f64::MIN_POSITIVE)
    }

    /// Wall speedup of dynamic maintenance over recompute-per-batch.
    pub fn wall_speedup(&self) -> f64 {
        self.scratch_wall / self.dyn_wall.max(f64::MIN_POSITIVE)
    }

    /// Modeled speedup of dynamic maintenance over recompute-per-batch.
    pub fn modeled_speedup(&self) -> f64 {
        self.scratch_modeled / self.dyn_modeled.max(f64::MIN_POSITIVE)
    }
}

/// The vertex-space bound and initial canonical live set of a prepared
/// input — identical on every PE, so both measurement machines replay
/// the same [`WorkloadGen`] stream.
fn workload_base(comm: &Comm, input: &InputGraph) -> (u64, Vec<WEdge>) {
    let n = kamsta_dyn::vertex_bound(comm, input);
    let mut initial: Vec<WEdge> = comm.allgatherv(
        input
            .graph
            .edges
            .iter()
            .filter(|e| e.u < e.v)
            .map(|e| e.wedge())
            .collect(),
    );
    initial.sort_unstable();
    initial.dedup_by(|b, a| a.u == b.u && a.v == b.v);
    (n, initial)
}

/// Run the same random update stream through the batch-dynamic
/// maintainer and through from-scratch recomputation at every batch
/// boundary, timing both (bootstrap and generation excluded).
pub fn dyn_throughput_workload(
    cores: usize,
    config: GraphConfig,
    cfg: MstConfig,
    seed: u64,
    batches: usize,
    batch_size: usize,
) -> DynThroughput {
    let machine = MachineConfig::new(cores);
    let wl_seed = seed ^ 0x00DA_BEBC;

    let dyn_out = Machine::run(machine.clone(), |comm| {
        let input = InputGraph::generate(comm, config, seed);
        let (n, initial) = workload_base(comm, &input);
        let mut dynmst = DynMst::bootstrap(comm, DynConfig::new(n).with_mst(cfg), &input);
        let mut workload = WorkloadGen::new(n, wl_seed, &initial);
        comm.barrier();
        let before = comm.stats();
        let t0 = std::time::Instant::now();
        for _ in 0..batches {
            let batch = workload.next_batch(batch_size);
            let slice: &[_] = if comm.rank() == 0 { &batch } else { &[] };
            dynmst.apply_batch(comm, slice);
        }
        comm.barrier();
        let wall = t0.elapsed().as_secs_f64();
        let stats = comm.stats().since(&before);
        (
            wall,
            stats.modeled_time,
            dynmst.msf_weight(),
            dynmst.stats(),
        )
    });

    let scratch_out = Machine::run(machine, |comm| {
        let input = InputGraph::generate(comm, config, seed);
        let (n, initial) = workload_base(comm, &input);
        let mut workload = WorkloadGen::new(n, wl_seed, &initial);
        let mut weight = 0u64;
        comm.barrier();
        let before = comm.stats();
        let t0 = std::time::Instant::now();
        for _ in 0..batches {
            let _ = workload.next_batch(batch_size);
            let reference = workload.symmetric_edges();
            let slice = distribute_from_root(comm, (comm.rank() == 0).then_some(reference));
            let ref_input = InputGraph::from_sorted_edges(comm, slice);
            let r = boruvka_mst(comm, &ref_input, &cfg);
            weight = comm.allreduce_sum(r.edges.iter().map(|e| e.w as u64).sum::<u64>());
        }
        comm.barrier();
        let wall = t0.elapsed().as_secs_f64();
        let stats = comm.stats().since(&before);
        (wall, stats.modeled_time, weight)
    });

    let dyn_wall = dyn_out.results.iter().map(|r| r.0).fold(0.0, f64::max);
    let dyn_modeled = dyn_out.results.iter().map(|r| r.1).fold(0.0, f64::max);
    let scratch_wall = scratch_out.results.iter().map(|r| r.0).fold(0.0, f64::max);
    let scratch_modeled = scratch_out.results.iter().map(|r| r.1).fold(0.0, f64::max);
    assert_eq!(
        dyn_out.results[0].2, scratch_out.results[0].2,
        "dynamic and from-scratch forests must weigh the same"
    );
    DynThroughput {
        ops: (batches * batch_size) as u64,
        batches: batches as u64,
        batch_size,
        dyn_wall,
        dyn_modeled,
        scratch_wall,
        scratch_modeled,
        final_weight: dyn_out.results[0].2,
        stats: dyn_out.results[0].3,
    }
}

/// Read a `usize` environment knob.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Simulated core counts for a scaling series: powers of two from 4 to
/// `max`.
pub fn core_series(max: usize) -> Vec<usize> {
    let mut cores = Vec::new();
    let mut c = 4;
    while c <= max {
        cores.push(c);
        c *= 2;
    }
    cores
}

/// The scaled-down weak-scaling sizes (paper: 2^17 vertices and 2^21
/// edges per core).
pub struct WeakScale {
    pub v_per_core: u32,
    pub m_per_core: u32,
}

impl WeakScale {
    pub fn from_env() -> Self {
        Self {
            v_per_core: env_usize("KAMSTA_V_PER_CORE", 10) as u32,
            m_per_core: env_usize("KAMSTA_M_PER_CORE", 14) as u32,
        }
    }

    pub fn config(&self, family: &str, cores: usize) -> GraphConfig {
        GraphConfig::weak_scaled(family, self.v_per_core, self.m_per_core, cores)
    }
}

/// An algorithm variant as plotted in the paper: algorithm × hybrid
/// thread count (`boruvka-8` etc.).
#[derive(Clone, Copy, Debug)]
pub struct Variant {
    pub algo: Algorithm,
    pub threads: usize,
}

impl Variant {
    pub fn label(&self) -> String {
        format!("{}-{}", self.algo.label(), self.threads)
    }

    /// Build the runner for a total core budget: `pes = cores / threads`.
    pub fn runner(&self, cores: usize, cfg: MstConfig) -> Option<Runner> {
        let pes = cores / self.threads;
        if pes == 0 {
            return None;
        }
        Some(Runner::new(pes, self.threads).with_mst_config(cfg))
    }

    /// Run on a generated graph at a total core budget.
    pub fn run(
        &self,
        cores: usize,
        config: GraphConfig,
        cfg: MstConfig,
        seed: u64,
    ) -> Option<RunSummary> {
        self.runner(cores, cfg)
            .map(|r| r.run_generated(config, self.algo, seed))
    }
}

/// The paper's Fig. 3/5 variant set (competitors ran single- and
/// 8-thread too).
pub fn paper_variants() -> Vec<Variant> {
    vec![
        Variant {
            algo: Algorithm::Boruvka,
            threads: 1,
        },
        Variant {
            algo: Algorithm::Boruvka,
            threads: 8,
        },
        Variant {
            algo: Algorithm::FilterBoruvka,
            threads: 1,
        },
        Variant {
            algo: Algorithm::FilterBoruvka,
            threads: 8,
        },
        Variant {
            algo: Algorithm::SparseMatrix,
            threads: 1,
        },
        Variant {
            algo: Algorithm::MndMst,
            threads: 1,
        },
    ]
}

/// Scaled default MST configuration for bench runs (base case constant
/// shrunk along with the instance sizes).
pub fn bench_mst_config() -> MstConfig {
    MstConfig {
        base_case_constant: 512,
        ..MstConfig::default()
    }
}

/// Simple aligned table printer (markdown-flavoured).
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let joined: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("| {} |", joined.join(" | "));
        };
        line(&self.headers);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            line(row);
        }
    }
}

/// The Fig. 5 / Table I stand-in instances (DESIGN.md S5): name, paper
/// original description, and the structure-matched generator config at
/// the given vertex scale.
pub fn standin_instances(scale: u32) -> Vec<(&'static str, &'static str, GraphConfig)> {
    let n = 1u64 << scale;
    vec![
        (
            "friendster*",
            "social, 68.3e6 vertices / 3.6e9 edges",
            GraphConfig::Rmat { scale, m: n * 52 },
        ),
        (
            "twitter*",
            "social, 41.7e6 vertices / 2.4e9 edges",
            GraphConfig::Rmat { scale, m: n * 57 },
        ),
        (
            "uk-2007*",
            "web, 105.9e6 vertices / 6.6e9 edges",
            GraphConfig::Rhg {
                n,
                m: n * 62,
                gamma: 2.4,
            },
        ),
        (
            "it-2004*",
            "web, 41.3e6 vertices / 2.1e9 edges",
            GraphConfig::Rhg {
                n,
                m: n * 50,
                gamma: 2.4,
            },
        ),
        ("US-road*", "road, 23.9e6 vertices / 57.7e6 edges", {
            let side = 1u64 << (scale / 2 + 1);
            GraphConfig::RoadLike {
                rows: side,
                cols: side,
            }
        }),
        (
            "wdc-14*",
            "web, 1.7e9 vertices / 123.9e9 edges",
            GraphConfig::Rhg {
                n: n * 2,
                m: n * 2 * 70,
                gamma: 2.2,
            },
        ),
    ]
}

/// Format a throughput in engineering notation.
pub fn eng(x: f64) -> String {
    if x >= 1e9 {
        format!("{:.2}G", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.2}k", x / 1e3)
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_series_powers_of_two() {
        assert_eq!(core_series(64), vec![4, 8, 16, 32, 64]);
        assert_eq!(core_series(3), Vec::<usize>::new());
    }

    #[test]
    fn variant_labels_match_paper_style() {
        let v = Variant {
            algo: Algorithm::Boruvka,
            threads: 8,
        };
        assert_eq!(v.label(), "boruvka-8");
        assert!(
            v.runner(4, bench_mst_config()).is_none(),
            "4 cores / 8 threads → no PEs"
        );
        assert!(v.runner(16, bench_mst_config()).is_some());
    }

    #[test]
    fn eng_notation() {
        assert_eq!(eng(1.5e9), "1.50G");
        assert_eq!(eng(2.5e6), "2.50M");
        assert_eq!(eng(999.0), "999.00");
    }

    #[test]
    fn weak_scale_config_resolves_families() {
        let ws = WeakScale {
            v_per_core: 8,
            m_per_core: 10,
        };
        for fam in ["2D-GRID", "2D-RGG", "3D-RGG", "GNM", "RHG", "RMAT"] {
            let _ = ws.config(fam, 8); // must not panic
        }
    }
}
