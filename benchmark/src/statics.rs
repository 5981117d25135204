//! The four static workloads: generate a graph, prepare it, solve it.
//! One timed op is one whole `Machine::run` from nothing — thread (and,
//! on sockets, mesh) start, generate, prepare, the solve window,
//! teardown — so every op yields one `solve_s` and one `setup_s` sample.

use crate::probes;
use crate::report::Report;
use crate::spec::{RunOpts, Workload, PES};
use crate::stats::{describe, median};
use crate::sys;
use crate::trace::{secs, Trace, Window};
use kamsta::comm::{Comm, PeStats};
use kamsta::core::dist::{boruvka_mst, filter_mst, FilterStats, MstResult};
use kamsta::graph::hash::mix64;
use kamsta::graph::CEdge;
use kamsta::{verify_msf, Algorithm, InputGraph, Machine, MstConfig, PhaseTimes, WEdge};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Order-independent identity of a forest: edge count, weight, and two
/// commutative folds of the hashed input-edge ids.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Digest {
    edges: u64,
    weight: u64,
    id_sum: u64,
    id_xor: u64,
}

impl Digest {
    fn of(edges: &[CEdge]) -> Digest {
        edges.iter().fold(Digest::default(), |d, e| {
            let h = mix64(e.id);
            Digest {
                edges: d.edges + 1,
                weight: d.weight + e.w as u64,
                id_sum: d.id_sum.wrapping_add(h),
                id_xor: d.id_xor ^ h,
            }
        })
    }

    fn merge(self, o: Digest) -> Digest {
        Digest {
            edges: self.edges + o.edges,
            weight: self.weight + o.weight,
            id_sum: self.id_sum.wrapping_add(o.id_sum),
            id_xor: self.id_xor ^ o.id_xor,
        }
    }
}

/// The solve window of one PE: barrier, the algorithm, barrier. The
/// modeled counters are the `PeStats` delta over the same window.
pub struct Solved {
    pub window: Window,
    pub stats: PeStats,
    pub result: MstResult,
    pub filter: Option<FilterStats>,
}

pub fn solve_window(comm: &Comm, input: &InputGraph, algo: Algorithm, cfg: &MstConfig) -> Solved {
    comm.barrier();
    let before = comm.stats();
    let start = Instant::now();
    let (result, filter) = match algo {
        Algorithm::FilterBoruvka => {
            let (r, s) = filter_mst(comm, input, cfg);
            (r, Some(s))
        }
        _ => (boruvka_mst(comm, input, cfg), None),
    };
    comm.barrier();
    let window = (start, Instant::now());
    Solved {
        window,
        stats: comm.stats().since(&before),
        result,
        filter,
    }
}

/// What one PE hands back from one op.
struct PeRep {
    generate: Window,
    prepare: Window,
    solve: Window,
    stats: PeStats,
    digest: Digest,
    /// Bottleneck-reduced `MstResult.phases.wall` (same on every PE).
    phases: [f64; 8],
    filter: Option<FilterStats>,
    input_edges: u64,
    input_vertices: u64,
    /// This PE's input slice and forest share, kept only by the run
    /// that is verified.
    kept: Option<(Vec<WEdge>, Vec<WEdge>)>,
}

fn pe_rep(comm: &Comm, w: &Workload, algo: Algorithm, seed: u64, keep: bool) -> PeRep {
    let g0 = Instant::now();
    let edges = w.graph.generate(comm, seed);
    let g1 = Instant::now();
    let kept_input = keep.then(|| edges.clone());
    let p0 = Instant::now();
    let input = InputGraph::from_sorted_edges(comm, edges);
    let p1 = Instant::now();
    let s = solve_window(comm, &input, algo, &w.mst());
    let phases = PhaseTimes::reduce_max(comm, &s.result.phases).wall;
    PeRep {
        generate: (g0, g1),
        prepare: (p0, p1),
        solve: s.window,
        stats: s.stats,
        digest: Digest::of(&s.result.edges),
        phases,
        filter: s.filter,
        input_edges: input.graph.m_global,
        input_vertices: input.graph.n_global,
        kept: kept_input.map(|i| (i, s.result.edges.iter().map(CEdge::wedge).collect())),
    }
}

/// What must repeat bit for bit from op to op: the forest, the modeled
/// counters (Σ messages, Σ bytes, bits of the max modeled seconds) and
/// the filter statistics.
type Exact = (Digest, u64, u64, u64, Option<FilterStats>);

/// One op as the harness sees it: walls are the slowest PE's.
struct Rep {
    wall: f64,
    cpu: f64,
    /// Hypervisor steal during the op.
    steal: f64,
    /// The lower of [`sys::probe_host_cores`] before and after the op.
    cores: f64,
    traced: bool,
    solve: f64,
    generate: f64,
    prepare: f64,
    digest: Digest,
    /// (Σ messages, Σ bytes, max modeled seconds) over the solve window.
    messages: u64,
    bytes: u64,
    modeled: f64,
    phases: [f64; 8],
    filter: Option<FilterStats>,
    input_edges: u64,
    input_vertices: u64,
    pes: Vec<PeRep>,
    window: Window,
}

impl Rep {
    fn exact(&self) -> Exact {
        (
            self.digest,
            self.messages,
            self.bytes,
            self.modeled.to_bits(),
            self.filter,
        )
    }

    fn calm(&self) -> bool {
        self.cores >= sys::CALM_SHARE * PES as f64
    }

    /// File this op's spans: the machine run on the harness thread, and
    /// under it each PE's generate, prepare and solve. Returns the id
    /// of the machine-run span.
    fn record(&self, trace: &mut Trace, rep: usize) -> usize {
        let run = trace.add("runner.machine_run", None, rep, self.window, None);
        for (rank, pe) in self.pes.iter().enumerate() {
            trace.add("graph.generate", Some(rank), rep, pe.generate, Some(run));
            trace.add("graph.prepare", Some(rank), rep, pe.prepare, Some(run));
            trace.add("core.solve", Some(rank), rep, pe.solve, Some(run));
        }
        run
    }
}

fn slowest(pes: &[PeRep], f: impl Fn(&PeRep) -> Window) -> f64 {
    pes.iter().map(|p| secs(f(p))).fold(0.0, f64::max)
}

/// Run one op. A panic on any PE (or a transport failure) is an error,
/// not a crash of the benchmark.
fn run_rep(w: &Workload, algo: Algorithm, seed: u64, keep: bool) -> Result<Rep, String> {
    let (cpu0, steal0) = (sys::cpu_seconds(), sys::steal_seconds());
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        Machine::try_run(w.machine(), |comm| pe_rep(comm, w, algo, seed, keep))
    }))
    .map_err(|_| "a PE panicked".to_string())?
    .map_err(|e| format!("machine run failed: {e}"))?;
    let window = (t0, Instant::now());
    let pes = out.results;
    Ok(Rep {
        wall: secs(window),
        cpu: sys::cpu_seconds() - cpu0,
        steal: sys::steal_seconds() - steal0,
        cores: PES as f64,
        traced: false,
        solve: slowest(&pes, |p| p.solve),
        generate: slowest(&pes, |p| p.generate),
        prepare: slowest(&pes, |p| p.prepare),
        digest: pes.iter().fold(Digest::default(), |d, p| d.merge(p.digest)),
        messages: pes.iter().map(|p| p.stats.messages).sum(),
        bytes: pes.iter().map(|p| p.stats.bytes).sum(),
        modeled: pes.iter().map(|p| p.stats.modeled_time).fold(0.0, f64::max),
        phases: pes[0].phases,
        filter: pes[0].filter,
        input_edges: pes[0].input_edges,
        input_vertices: pes[0].input_vertices,
        pes,
        window,
    })
}

/// Solve the input once more, gather it and the forest, and check the
/// forest with `verify_msf`. Returns the verified run's exact values.
fn verified_run(w: &Workload, algo: Algorithm, o: &RunOpts) -> Result<Exact, String> {
    let mut rep = run_rep(w, algo, o.seed, true)?;
    let exact = rep.exact();
    let (mut graph, mut msf) = (Vec::new(), Vec::new());
    for pe in &mut rep.pes {
        let (g, f) = pe.kept.take().expect("the verified run keeps its edges");
        graph.extend(g);
        msf.extend(f);
    }
    if o.corrupt_msf {
        if let Some(e) = msf.first_mut() {
            e.w = e.w.wrapping_add(1);
        }
    }
    verify_msf(&graph, &msf)?;
    Ok(exact)
}

const PHASE_METRICS: [&str; 8] = [
    "core.phase.local_preprocessing_pct",
    "core.phase.min_edges_pct",
    "core.phase.contract_pct",
    "core.phase.labels_relabel_pct",
    "core.phase.redistribute_pct",
    "core.phase.base_case_pct",
    "core.phase.partition_filter_pct",
    "core.phase.misc_pct",
];

/// `core.solve_s`, the phase shares of it and the unattributed rest,
/// from solve windows and their phase walls; and the budget row: one
/// column per phase in seconds, the residual last.
pub fn core_budget(
    report: &mut Report,
    name: &str,
    solves: &[f64],
    phase_walls: &dyn Fn(usize) -> Vec<f64>,
) {
    let solve = median(solves);
    report.set("core.solve_s", solve);
    let mut row = format!("budget {name}: core.solve_s {solve:.4}");
    let mut sum = 0.0;
    for (k, metric) in PHASE_METRICS.iter().enumerate() {
        let t = median(&phase_walls(k));
        sum += t;
        report.set(metric, 100.0 * t / solve);
        let short = &metric["core.phase.".len()..metric.len() - "_pct".len()];
        row.push_str(&format!(" | {short} {t:.4}"));
    }
    let rest = solve - sum;
    report.set("core.unattributed_pct", 100.0 * rest / solve);
    row.push_str(&format!(" | unattributed {rest:.4}"));
    report.note(row);
    if (rest / solve).abs() > 0.10 {
        report.note(format!(
            "FINDING: the phases of {name} miss core.solve_s by {:.1} % (phase walls are \
             per-phase maxima over PEs, so they can overlap or leave gaps)",
            100.0 * rest / solve
        ));
    }
}

pub fn set_filter_counts(report: &mut Report, f: Option<FilterStats>) {
    let f = f.unwrap_or_default();
    report.set("core.filter.base_case_calls", f.base_case_calls as f64);
    report.set("core.filter.base_case_edges", f.base_case_edges as f64);
    report.set("core.filter.filtered_edges", f.filtered_edges as f64);
    report.set("core.filter.partition_steps", f.partition_steps as f64);
}

pub fn run(w: &Workload, algo: Algorithm, o: &RunOpts, report: &mut Report, trace: &mut Trace) {
    // Warm-up: page in the binary, grow the allocator's arenas, fill the
    // transport's pools. Its failure would show again in the timed ops.
    let _ = run_rep(w, algo, o.seed, false);

    // With tracing on, every second op is traced, so both kinds see the
    // same minutes of the host. A window that ends with too few calm ops
    // goes on for up to half its length again.
    let mut reps: Vec<Rep> = Vec::new();
    let mut run_spans = Vec::new();
    // The smoke test runs inside the test harness, which has no such child.
    let probe = || {
        if o.smoke {
            PES as f64
        } else {
            sys::probe_host_cores()
        }
    };
    let mut cores = probe();
    let window = Instant::now();
    loop {
        let calm = reps.iter().filter(|r| r.calm()).count();
        let budget = if calm < o.min_ops { 1.5 } else { 1.0 } * o.seconds;
        if reps.len() >= o.min_ops && window.elapsed().as_secs_f64() >= budget {
            break;
        }
        report.attempted += 1;
        match run_rep(w, algo, o.seed, false) {
            Ok(mut rep) => {
                let after = probe();
                rep.cores = cores.min(after);
                cores = after;
                rep.traced = o.trace && reps.len() % 2 == 1;
                if rep.traced {
                    run_spans.push(rep.record(trace, reps.len()));
                }
                reps.push(rep);
            }
            Err(why) => report.fail(why),
        }
        if report.failed >= 3 {
            break; // broken, not flaky: stop burning the window
        }
    }
    let peak_rss = sys::peak_rss_mb();

    // Verification, after the timed ops and the memory reading. A forest
    // that fails it fails every op that produced the same forest.
    report.attempted += 1;
    match verified_run(w, algo, o) {
        Ok(exact) => {
            for (k, rep) in reps.iter().enumerate() {
                if rep.exact() != exact {
                    report.fail(format!(
                        "op {k} differs from the verified run: {:?} vs {:?}",
                        rep.exact(),
                        exact
                    ));
                }
            }
        }
        Err(why) => {
            report.fail(format!("verification: {why}"));
            report.failed += reps.len() as u64;
        }
    }

    // Timings of one kind of op (traced or not), from its calm ops.
    let calm = reps.iter().filter(|r| r.calm()).count();
    let min_calm = if o.trace { o.min_ops / 2 } else { o.min_ops };
    report.note(sys::calm_note(reps.len(), calm, min_calm));
    let of = |traced: bool, f: &dyn Fn(&Rep) -> f64| -> Vec<f64> {
        let kind = reps.iter().filter(|r| r.traced == traced).collect();
        sys::calm_or_all(kind, Rep::calm, min_calm)
            .into_iter()
            .map(f)
            .collect()
    };
    let phases_of = |k: usize| of(true, &|r| r.phases[k]);
    let plain_solve = of(false, &|r| r.solve);
    let plain_setup = of(false, &|r| r.wall - r.solve);
    let plain_wall = of(false, &|r| r.wall);
    report.note(format!("solve_s   {}", describe(&plain_solve)));
    report.note(format!("setup_s   {}", describe(&plain_setup)));
    report.note(format!("round_s   {}", describe(&plain_wall)));
    if let Some(first) = reps.first() {
        report.note(format!(
            "solve throughput {:.0} input edges/s (m = {}, n = {}, msf = {} edges, weight {})",
            first.input_edges as f64 / median(&plain_solve),
            first.input_edges,
            first.input_vertices,
            first.digest.edges,
            first.digest.weight
        ));
    }

    if !o.trace {
        report.set("solve_s", median(&plain_solve));
        report.set("setup_s", median(&plain_setup));
        report.set("round_s", median(&plain_wall));
        report.set("peak_rss_mb", peak_rss);
        return;
    }

    // Per-layer numbers from the traced ops.
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let traced_solve = of(true, &|r| r.solve);
    core_budget(report, w.name, &traced_solve, &phases_of);
    report.set(
        "trace.overhead_pct",
        100.0 * (median(&traced_solve) - median(&plain_solve)) / median(&plain_solve),
    );
    let generate = median(&of(true, &|r| r.generate));
    let prepare = median(&of(true, &|r| r.prepare));
    report.set("graph.generate_s", generate);
    report.set("graph.prepare_s", prepare);
    let cpu = median(&of(true, &|r| r.cpu));
    let wall = median(&of(true, &|r| r.wall));
    report.set("proc.cpu_s", cpu);
    report.set("proc.cpu_utilization", cpu / (PES as f64 * wall));
    report.set(
        "proc.steal_pct",
        100.0 * reps.iter().map(|r| r.steal).sum::<f64>()
            / (PES as f64 * reps.iter().map(|r| r.wall).sum::<f64>()),
    );
    report.set(
        "proc.host_cores",
        median(&reps.iter().map(|r| r.cores).collect::<Vec<_>>()),
    );
    let last = traced.last().copied();
    let count = |f: &dyn Fn(&Rep) -> f64| last.map_or(f64::NAN, f);
    report.set("graph.input_edges", count(&|r| r.input_edges as f64));
    report.set("graph.input_vertices", count(&|r| r.input_vertices as f64));
    report.set("comm.messages", count(&|r| r.messages as f64));
    report.set("comm.bytes", count(&|r| r.bytes as f64));
    report.set("comm.modeled_s", count(&|r| r.modeled));
    report.set(
        "comm.wall_over_modeled",
        median(&traced_solve) / count(&|r| r.modeled),
    );
    report.set("core.msf_edges", count(&|r| r.digest.edges as f64));
    report.set("core.msf_weight", count(&|r| r.digest.weight as f64));
    set_filter_counts(report, last.and_then(|r| r.filter));

    // The service and its maintainer do not run in a static workload.
    for name in [
        "dyn.batches_per_s",
        "dyn.bootstrap_pct",
        "dyn.resolves",
        "dyn.skipped_resolves",
        "dyn.certificate_edges",
        "dyn.tree_deletes",
        "dyn.replacement_candidates",
        "service.overhead_pct",
        "service.flush_p95_over_p50",
        "service.updates_per_s",
        "service.queries_per_s",
    ] {
        report.set(name, 0.0);
    }

    let probes = probes::run(w, algo, o, trace);
    probes.report(report, wall);

    // Setup budget: what the op spends outside the solve window. The
    // machine-run span's self time is what no PE span covers: thread
    // (and mesh) start, the forest digest, teardown.
    let setup = median(&of(true, &|r| r.wall - r.solve));
    let own: Vec<f64> = run_spans.iter().map(|&id| trace.self_time(id)).collect();
    let own = median(&own);
    report.note(format!(
        "budget {}: setup_s {setup:.4} | generate {generate:.4} | prepare {prepare:.4} | \
         machine start + teardown {own:.4} | unattributed {:.4} \
         (an empty machine run takes {:.4})",
        w.name,
        setup - generate - prepare - own,
        probes.machine_start_ms / 1e3
    ));
}
