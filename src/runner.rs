//! High-level experiment runner: configure a simulated machine, pick an
//! algorithm, get verified results plus the modeled-cost metrics the
//! benchmark harness reports.

use kamsta_baselines::{mnd_mst, sparse_matrix, MndConfig};
use kamsta_comm::{AlltoallKind, CostModel, FaultPlan, Machine, MachineConfig, TransportKind};
use kamsta_core::dist::{boruvka_mst, filter_mst, FilterStats, MstConfig};
use kamsta_core::{PhaseTimes, WallStats};
use kamsta_graph::{GraphConfig, InputGraph, WEdge};
use std::time::Instant;

/// The algorithms of the paper's evaluation (Fig. 3/5 series).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Distributed Borůvka (Algorithm 1) — the paper's `boruvka`.
    Boruvka,
    /// Filter-Borůvka (Algorithm 2) — the paper's `filterBoruvka`.
    FilterBoruvka,
    /// The sparse-matrix Awerbuch–Shiloach competitor \[37\].
    SparseMatrix,
    /// The MND-MST competitor \[19\].
    MndMst,
}

impl Algorithm {
    /// Series label as used in the paper's figures (suffix `-t` added by
    /// the harness for the thread count).
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::Boruvka => "boruvka",
            Algorithm::FilterBoruvka => "filterBoruvka",
            Algorithm::SparseMatrix => "sparseMatrix",
            Algorithm::MndMst => "MND-MST",
        }
    }
}

/// Metrics of one run, aggregated over PEs. The modeled counters cover
/// the **MST computation only** — input generation and preparation
/// (including the pair-id canonicalisation exchange) are excluded, as
/// in the paper's measurements, which time the algorithms on prepared
/// KaGen inputs.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Number of undirected MSF edges found.
    pub msf_edges: u64,
    /// Total MSF weight (the correctness invariant across algorithms).
    pub msf_weight: u64,
    /// Directed edges of the input graph.
    pub input_edges: u64,
    /// Vertices of the input graph.
    pub input_vertices: u64,
    /// BSP completion time of the algorithm under the α-β-γ model,
    /// seconds.
    pub modeled_time: f64,
    /// Wall-clock seconds of the whole simulation, including input
    /// generation (indicative only).
    pub wall_time: f64,
    /// Modeled throughput: input edges per modeled second — the y-axis
    /// of the paper's Fig. 3.
    pub edges_per_second: f64,
    /// Total messages across PEs.
    pub messages: u64,
    /// Total bytes across PEs.
    pub bytes: u64,
    /// Bottleneck per-phase profile (Fig. 6), when the algorithm reports
    /// one.
    pub phases: Option<PhaseTimes>,
    /// Filter-Borůvka statistics (Theorem 1 experiment), when available.
    pub filter_stats: Option<FilterStats>,
    /// Bottleneck wall-clock breakdown of the whole simulation by scope
    /// (generate / prepare / solve / redistribute) — the wall-side
    /// mirror of the algorithm-scoped modeled counters, so wall-time
    /// cliffs outside the modeled window are visible per run.
    pub wall_stats: WallStats,
}

/// A configured simulated machine plus algorithm parameters.
#[derive(Clone, Debug)]
pub struct Runner {
    pub machine: MachineConfig,
    pub mst: MstConfig,
}

impl Runner {
    /// `pes` PEs with `threads` hybrid threads each (the paper's
    /// `algorithm-t` naming: total cores = pes × threads).
    pub fn new(pes: usize, threads: usize) -> Self {
        Self {
            machine: MachineConfig::new(pes).with_threads(threads),
            mst: MstConfig::default(),
        }
    }

    /// Override the all-to-all strategy (Fig. 2 ablation).
    pub fn with_alltoall(mut self, kind: AlltoallKind) -> Self {
        self.machine = self.machine.with_alltoall(kind);
        self
    }

    /// Pin the communication transport (overrides `KAMSTA_TRANSPORT`).
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.machine = self.machine.with_transport(transport);
        self
    }

    /// Override the machine cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.machine = self.machine.with_cost(cost);
        self
    }

    /// Arm deterministic transport fault injection for every run
    /// (overrides `KAMSTA_FAULTS`). Transient plans must not change any
    /// result or modeled counter; see `kamsta_comm::FaultPlan`.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.machine = self.machine.with_faults(plan);
        self
    }

    /// Override the MST algorithm configuration.
    pub fn with_mst_config(mut self, cfg: MstConfig) -> Self {
        self.mst = cfg;
        self
    }

    /// Generate one of the paper's graph families on the machine and run
    /// `algo` on it.
    pub fn run_generated(&self, config: GraphConfig, algo: Algorithm, seed: u64) -> RunSummary {
        summarize(&self.run_with(algo, move |comm| config.generate(comm, seed)))
    }

    /// Compute the MSF of an explicit edge list (held replicated by the
    /// caller; it is distributed internally — the distribution wall is
    /// reported under the `generate` scope), returning the edges (one
    /// direction per undirected MSF edge) alongside the metrics.
    pub fn msf_edges(&self, edges: Vec<WEdge>, algo: Algorithm) -> (Vec<WEdge>, RunSummary) {
        let out = self.run_with(algo, move |comm| {
            kamsta_graph::io::distribute_from_root(comm, (comm.rank() == 0).then(|| edges.clone()))
        });
        let msf = out
            .results
            .iter()
            .flat_map(|pe| pe.msf.iter().copied())
            .collect();
        (msf, summarize(&out))
    }

    fn run_with<F>(&self, algo: Algorithm, make_edges: F) -> kamsta_comm::RunOutput<PeRun>
    where
        F: Fn(&kamsta_comm::Comm) -> Vec<WEdge> + Send + Sync,
    {
        let mst_cfg = self.mst;
        Machine::run(self.machine.clone(), move |comm| {
            let t = Instant::now();
            let edges = make_edges(comm);
            let generate = t.elapsed().as_secs_f64();
            prepared_run(comm, edges, generate, algo, &mst_cfg)
        })
    }
}

/// Prepare this PE's edge slice and solve, measuring the wall-side
/// scope breakdown (generate / prepare / solve / redistribute)
/// alongside the algorithm-scoped modeled counters, bottleneck-reduced
/// across PEs. The redistribution wall comes from the algorithm's
/// bottleneck phase profile, so `solve` is clamped at ≥ 0. Collective.
fn prepared_run(
    comm: &kamsta_comm::Comm,
    edges: Vec<WEdge>,
    generate: f64,
    algo: Algorithm,
    cfg: &MstConfig,
) -> PeRun {
    let t = Instant::now();
    let input = InputGraph::from_sorted_edges(comm, edges);
    let prepare = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut run = run_algorithm(comm, &input, algo, cfg);
    let algo_wall = t.elapsed().as_secs_f64();
    let redistribute = run
        .phases
        .as_ref()
        .map_or(0.0, PhaseTimes::redistribution_wall)
        .min(algo_wall);
    let mine = WallStats {
        generate,
        prepare,
        solve: (algo_wall - redistribute).max(0.0),
        redistribute,
    };
    run.wall_stats = WallStats::reduce_max(comm, &mine);
    run
}

/// Per-PE result of one algorithm run.
pub(crate) struct PeRun {
    msf: Vec<WEdge>,
    input_edges: u64,
    input_vertices: u64,
    /// This PE's modeled cost of the algorithm phase alone.
    algo_stats: kamsta_comm::PeStats,
    phases: Option<PhaseTimes>,
    filter_stats: Option<FilterStats>,
    /// Filled by [`prepared_run`] after the solve completes.
    wall_stats: WallStats,
}

fn run_algorithm(
    comm: &kamsta_comm::Comm,
    input: &InputGraph,
    algo: Algorithm,
    cfg: &MstConfig,
) -> PeRun {
    // Input preparation is done; measure the algorithm phase alone
    // (the collectives ending preparation leave the clocks synced).
    let before = comm.stats();
    let (msf, phases, filter_stats) = match algo {
        Algorithm::Boruvka => {
            let r = boruvka_mst(comm, input, cfg);
            let msf: Vec<WEdge> = r.edges.iter().map(|e| e.wedge()).collect();
            (msf, Some(PhaseTimes::reduce_max(comm, &r.phases)), None)
        }
        Algorithm::FilterBoruvka => {
            let (r, stats) = filter_mst(comm, input, cfg);
            let msf: Vec<WEdge> = r.edges.iter().map(|e| e.wedge()).collect();
            (
                msf,
                Some(PhaseTimes::reduce_max(comm, &r.phases)),
                Some(stats),
            )
        }
        Algorithm::SparseMatrix => {
            let msf = sparse_matrix(comm, &input.graph.edges);
            (msf, None, None)
        }
        Algorithm::MndMst => {
            let msf = mnd_mst(comm, &input.graph.edges, &MndConfig::default());
            (msf, None, None)
        }
    };
    PeRun {
        msf,
        input_edges: input.graph.m_global,
        input_vertices: input.graph.n_global,
        algo_stats: comm.stats().since(&before),
        phases,
        filter_stats,
        wall_stats: WallStats::default(),
    }
}

fn summarize(out: &kamsta_comm::RunOutput<PeRun>) -> RunSummary {
    let msf_edges: u64 = out.results.iter().map(|r| r.msf.len() as u64).sum();
    let msf_weight: u64 = out
        .results
        .iter()
        .flat_map(|r| r.msf.iter())
        .map(|e| e.w as u64)
        .sum();
    let input_edges = out.results[0].input_edges;
    let input_vertices = out.results[0].input_vertices;
    // Algorithm-phase aggregates (BSP: bottleneck PE decides the time).
    let modeled_time = out
        .results
        .iter()
        .map(|r| r.algo_stats.modeled_time)
        .fold(0.0, f64::max);
    let modeled = modeled_time.max(f64::MIN_POSITIVE);
    RunSummary {
        msf_edges,
        msf_weight,
        input_edges,
        input_vertices,
        modeled_time,
        wall_time: out.wall.as_secs_f64(),
        edges_per_second: input_edges as f64 / modeled,
        messages: out.results.iter().map(|r| r.algo_stats.messages).sum(),
        bytes: out.results.iter().map(|r| r.algo_stats.bytes).sum(),
        phases: out.results[0].phases.clone(),
        filter_stats: out.results[0].filter_stats,
        // Already bottleneck-reduced across PEs, so any rank's copy is
        // the machine-wide profile.
        wall_stats: out.results[0].wall_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_algorithms_agree_on_weight() {
        let config = GraphConfig::Grid2D { rows: 12, cols: 12 };
        let cfg = MstConfig {
            base_case_constant: 16,
            ..MstConfig::default()
        };
        let algos = [
            (Algorithm::Boruvka, cfg),
            (Algorithm::FilterBoruvka, cfg),
            (Algorithm::Boruvka, cfg.without_preprocessing()),
            (Algorithm::SparseMatrix, cfg),
            (Algorithm::MndMst, cfg),
        ];
        let summaries: Vec<RunSummary> = algos
            .iter()
            .map(|&(a, cfg)| {
                Runner::new(4, 1)
                    .with_mst_config(cfg)
                    .run_generated(config, a, 7)
            })
            .collect();
        let w0 = summaries[0].msf_weight;
        for (a, s) in algos.iter().zip(&summaries) {
            assert_eq!(s.msf_weight, w0, "{a:?} weight mismatch");
            assert_eq!(s.msf_edges, 12 * 12 - 1, "{a:?} edge count");
            assert!(s.modeled_time > 0.0);
            assert!(s.edges_per_second > 0.0);
        }
    }

    #[test]
    fn hybrid_threads_dont_change_the_forest() {
        let config = GraphConfig::Rgg2D { n: 300, m: 2400 };
        let a = Runner::new(4, 1).run_generated(config, Algorithm::Boruvka, 3);
        let b = Runner::new(4, 8).run_generated(config, Algorithm::Boruvka, 3);
        assert_eq!(a.msf_weight, b.msf_weight);
        assert_eq!(a.msf_edges, b.msf_edges);
    }

    #[test]
    fn armed_transient_faults_dont_change_the_summary() {
        let config = GraphConfig::Grid2D { rows: 10, cols: 10 };
        let plain = Runner::new(4, 1).run_generated(config, Algorithm::Boruvka, 7);
        let transient = FaultPlan::seeded(3)
            .with_short_writes(0.4)
            .with_short_reads(0.4)
            .with_duplicates(0.3)
            .with_retries(0.3);
        // The empty plan still arms the per-frame checksums.
        for plan in [transient, FaultPlan::seeded(7)] {
            let noisy = Runner::new(4, 1)
                .with_transport(TransportKind::Sockets)
                .with_faults(plan)
                .run_generated(config, Algorithm::Boruvka, 7);
            assert_eq!(plain.msf_weight, noisy.msf_weight);
            assert_eq!(plain.msf_edges, noisy.msf_edges);
            assert_eq!(plain.messages, noisy.messages);
            assert_eq!(plain.bytes, noisy.bytes);
            assert_eq!(plain.modeled_time, noisy.modeled_time);
        }
    }

    #[test]
    fn msf_edges_returns_verified_forest() {
        let edges = [
            WEdge::new(0, 1, 3),
            WEdge::new(1, 2, 1),
            WEdge::new(2, 0, 2),
            WEdge::new(2, 3, 5),
        ];
        let sym: Vec<WEdge> = edges.iter().flat_map(|e| [*e, e.reversed()]).collect();
        let (msf, summary) = Runner::new(2, 1).msf_edges(sym.clone(), Algorithm::Boruvka);
        kamsta_core::verify_msf(&sym, &msf).unwrap();
        assert_eq!(summary.msf_weight, 1 + 2 + 5);
    }
}
