//! # kamsta-bench — the figure/table regeneration harness
//!
//! One binary per table and figure of the paper's evaluation (Sec. VII);
//! see `DESIGN.md` §3 for the experiment index and `EXPERIMENTS.md` for
//! recorded paper-vs-measured outcomes. The per-kernel benches under
//! `benches/` are plain-`main` tables — one row per size, one column per
//! variant, then a ratio — timed by one timer: [`lockstep_ms`] on a
//! [`BENCH_PES`]-PE machine, or [`median_ms`] for single-thread
//! kernels. Each names the `benchmark/` row or design decision it
//! explains.
//!
//! All binaries take their flags through [`kamsta::cli`]:
//!
//! * `--max-cores N` — largest simulated core count (default 64);
//! * `--v-per-core LOG2` / `--m-per-core LOG2` — log2 of the per-core
//!   weak-scaling sizes (defaults 10 / 14; the paper used 17 / 21 —
//!   scaled down per DESIGN.md S3).

use kamsta::cli::{self, Flags};
use kamsta::{Algorithm, GraphConfig, MstConfig, RunSummary, Runner};
use kamsta_comm::{Comm, Machine, MachineConfig};
use kamsta_core::dist::boruvka_mst;
use kamsta_dyn::{DynConfig, DynMst, WorkloadGen};
use kamsta_graph::io::distribute_from_root;
use kamsta_graph::{InputGraph, WEdge};
use std::hint::black_box;
use std::time::Instant;

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
    /// 2^10 vertices and 2^14 directed edges per core.
    pub const DEFAULT: Self = Self {
        v_per_core: 10,
        m_per_core: 14,
    };

    /// The sizes `--v-per-core` / `--m-per-core` give, falling back to
    /// `default`'s.
    pub fn from_flags(flags: &Flags, default: Self) -> Result<Self, String> {
        Ok(Self {
            v_per_core: flags.get("--v-per-core", default.v_per_core)?,
            m_per_core: flags.get("--m-per-core", default.m_per_core)?,
        })
    }

    pub fn config(&self, family: &str, cores: usize) -> GraphConfig {
        GraphConfig::weak_scaled(family, self.v_per_core, self.m_per_core, cores)
    }
}

/// The command line of a weak-scaling figure binary: `--max-cores`
/// (default 64) and the sizes (defaults `scale`'s).
pub fn weak_scaling_args(bin: &str, scale: WeakScale) -> (usize, WeakScale) {
    let usage = format!("usage: {bin} [--max-cores N] [--v-per-core LOG2] [--m-per-core LOG2]");
    cli::parse_or_exit(&usage, |f| {
        Ok((f.get("--max-cores", 64)?, WeakScale::from_flags(f, scale)?))
    })
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

/// PEs of every lockstep bench: the benchmark's p, which fits a 2-core
/// host.
pub const BENCH_PES: usize = 2;

/// Untimed calls before a bench's timed ones.
pub const WARM_UP: usize = 2;

/// Timed calls of every bench kernel; a number is their median.
pub const SAMPLES: usize = 9;

/// What each of the [`SAMPLES`] timed calls of `call` returns, after
/// [`WARM_UP`] untimed ones. Every call first builds its input
/// (`input`, untimed), then runs `sync`, then `call`.
fn repeat<I, T>(
    mut input: impl FnMut() -> I,
    mut sync: impl FnMut(),
    mut call: impl FnMut(I) -> T,
) -> Vec<T> {
    let mut out = Vec::with_capacity(SAMPLES);
    for k in 0..WARM_UP + SAMPLES {
        let input = black_box(input());
        sync();
        let result = call(input);
        if k >= WARM_UP {
            out.push(result);
        }
    }
    out
}

/// What each timed call of `call` returns on this PE, every call
/// started behind a barrier once its input is built, so the PEs run it
/// in lockstep.
pub fn lockstep<I, T>(comm: &Comm, input: impl FnMut() -> I, call: impl FnMut(I) -> T) -> Vec<T> {
    repeat(input, || comm.barrier(), call)
}

/// Milliseconds of each timed [`lockstep`] call on this PE; pass them
/// to [`median_of_slowest`] with the other PEs'.
pub fn lockstep_ms<I, R>(
    comm: &Comm,
    input: impl FnMut() -> I,
    mut call: impl FnMut(I) -> R,
) -> Vec<f64> {
    lockstep(comm, input, |i| ms(|| call(i)))
}

/// Median milliseconds of a single-thread call.
pub fn median_ms<I, R>(input: impl FnMut() -> I, mut call: impl FnMut(I) -> R) -> f64 {
    median(repeat(input, || {}, |i| ms(|| call(i))))
}

/// Median milliseconds of `sort` on a fresh copy of `data`.
pub fn sort_ms<T: Clone, R>(data: &[T], mut sort: impl FnMut(&mut Vec<T>) -> R) -> f64 {
    median_ms(
        || data.to_vec(),
        |mut v| {
            black_box(sort(&mut v));
            v
        },
    )
}

/// Milliseconds `f` takes; what it returns is dropped after the clock
/// stops.
fn ms<R>(f: impl FnOnce() -> R) -> f64 {
    let start = Instant::now();
    let out = black_box(f());
    let elapsed = start.elapsed();
    drop(out);
    elapsed.as_secs_f64() * 1e3
}

/// The median of `xs`: the mean of the two middle values when their
/// count is even.
pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "the median of no samples");
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Each call's slowest PE: `per_pe[pe][call]` in, one time per call out.
fn slowest(per_pe: &[Vec<f64>]) -> Vec<f64> {
    (0..per_pe[0].len())
        .map(|k| per_pe.iter().map(|t| t[k]).fold(0.0, f64::max))
        .collect()
}

/// A lockstep call costs what its slowest PE took: `per_pe[pe][call]`
/// in, the median over calls of that maximum out.
pub fn median_of_slowest(per_pe: &[Vec<f64>]) -> f64 {
    median(slowest(per_pe))
}

/// The interquartile range of the same maxima (the `⌊3n/4⌋`-th less the
/// `⌊n/4⌋`-th of `n` sorted): a row cannot resolve a gap within it.
pub fn iqr_of_slowest(per_pe: &[Vec<f64>]) -> f64 {
    let mut xs = slowest(per_pe);
    xs.sort_by(f64::total_cmp);
    xs[xs.len() * 3 / 4] - xs[xs.len() / 4]
}

/// Run `body` on every PE of a [`BENCH_PES`]-PE machine. `body` returns
/// one [`lockstep_ms`] list per variant; the result is each
/// variant's [`median_of_slowest`].
pub fn lockstep_row(body: impl Fn(&Comm) -> Vec<Vec<f64>> + Send + Sync) -> Vec<f64> {
    let per_pe = Machine::run(MachineConfig::new(BENCH_PES), body).results;
    (0..per_pe[0].len())
        .map(|v| {
            let variant: Vec<Vec<f64>> = per_pe.iter().map(|pe| pe[v].clone()).collect();
            median_of_slowest(&variant)
        })
        .collect()
}

/// A table cell in milliseconds, to three significant digits.
pub fn ms_cell(x: f64) -> String {
    let decimals = if x > 0.0 {
        (2 - x.log10().floor() as i32).clamp(1, 6)
    } else {
        1
    };
    format!("{x:.*}", decimals as usize)
}

/// A ratio cell.
pub fn ratio_cell(x: f64) -> String {
    format!("{x:.2}")
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
    fn the_slowest_pe_decides_each_call_then_the_median_is_taken() {
        // Odd count: call maxima 4, 9, 2 → median 4, which is neither
        // PE's own median (2 and 3) nor the slower of the two.
        let odd = [vec![1.0, 9.0, 2.0], vec![4.0, 3.0, 0.5]];
        assert_eq!(median_of_slowest(&odd), 4.0);
        // Even count: call maxima 5, 1, 8, 3 → mean of 3 and 5.
        let even = [vec![5.0, 1.0, 2.0, 3.0], vec![0.0, 0.5, 8.0, 1.0]];
        assert_eq!(median_of_slowest(&even), 4.0);
    }

    #[test]
    fn warm_up_calls_never_reach_the_result() {
        let per_pe = Machine::run(MachineConfig::new(BENCH_PES), |comm| {
            let mut built = 0;
            lockstep(
                comm,
                || {
                    built += 1;
                    built
                },
                |k| k,
            )
        })
        .results;
        let timed: Vec<usize> = (WARM_UP + 1..=WARM_UP + SAMPLES).collect();
        for calls in per_pe {
            assert_eq!(calls, timed);
        }
        // Warm-up calls far slower than every timed call leave the
        // median untouched.
        let mut calls = 0;
        let median = median_ms(
            || {
                calls += 1;
                calls
            },
            |k| {
                if k <= WARM_UP {
                    std::thread::sleep(std::time::Duration::from_millis(300));
                }
            },
        );
        assert_eq!(calls, WARM_UP + SAMPLES);
        assert!(median < 300.0, "a warm-up call was timed: {median} ms");
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
