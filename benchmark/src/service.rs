//! `svc-mixed`: writes beside reads on one `MstService`. A closed loop
//! with one client; each round submits a batch of updates, flushes it
//! (one machine run: start, TCP mesh, shard clone, certificate
//! re-solve), then asks 4096 membership queries and the forest weight
//! (binary searches on the cached shards, no machine run).

use crate::probes;
use crate::report::Report;
use crate::spec::{RunOpts, Workload, PES, SVC_BATCH, SVC_CHECK_EVERY, SVC_QUERIES};
use crate::statics::{core_budget, set_filter_counts, solve_window};
use crate::stats::{describe, median, quantile};
use crate::sys;
use crate::trace::{secs, timed, Trace, Window};
use kamsta::comm::PeStats;
use kamsta::core::seq::kruskal;
use kamsta::dynamic::workload::SplitMix;
use kamsta::dynamic::{BatchOutcome, WorkloadGen};
use kamsta::{
    verify_msf, Algorithm, DynMst, InputGraph, Machine, MstService, PhaseTimes, ServiceError,
    Update, UpdateStats, WEdge,
};
use std::time::Instant;

/// The generated graph as the canonical live set: `u < v`, one (the
/// lightest) edge per pair — what the service's store holds after load.
fn initial_live_set(w: &Workload, seed: u64) -> Vec<WEdge> {
    let out = Machine::run(w.machine(), |comm| w.graph.generate(comm, seed));
    let mut live: Vec<WEdge> = out
        .results
        .into_iter()
        .flatten()
        .filter(|e| e.u < e.v)
        .collect();
    live.sort_unstable();
    live.dedup_by(|b, a| a.u == b.u && a.v == b.v);
    live
}

fn new_service(w: &Workload, seed: u64) -> Result<MstService, String> {
    // The loop flushes explicitly, so that a flush is timed on its own.
    let mut svc = MstService::builder(PES, w.dyn_cfg())
        .machine(w.machine())
        .max_batch(usize::MAX)
        .build()
        .map_err(|e| format!("service build: {e}"))?;
    svc.try_load_generated(w.graph, seed)
        .map_err(|e| format!("service load: {e}"))?;
    Ok(svc)
}

/// Rounds between two readings of [`sys::probe_host_cores`]: a reading takes
/// a fifth of a round, so it is shared by a block of rounds.
const CALIBRATE_EVERY: usize = 8;

/// The timed parts of one round.
struct Round {
    submit: Window,
    flush: Window,
    queries: Window,
    weight: Window,
    cpu: f64,
    steal: f64,
    /// The lower of [`sys::probe_host_cores`] before and after the round's
    /// block of [`CALIBRATE_EVERY`] rounds.
    cores: f64,
    outcome: BatchOutcome,
    traced: bool,
}

impl Round {
    fn write_half(&self) -> f64 {
        secs(self.submit) + secs(self.flush)
    }

    fn wall(&self) -> f64 {
        self.write_half() + secs(self.queries) + secs(self.weight)
    }

    fn calm(&self) -> bool {
        self.cores >= sys::CALM_SHARE * PES as f64
    }
}

/// One round against the service. `answers` receives the membership
/// answers in query order.
fn round(
    svc: &mut MstService,
    batch: &[Update],
    queries: &[(u64, u64)],
    answers: &mut Vec<bool>,
) -> Result<(Round, u64), ServiceError> {
    answers.clear();
    let (cpu0, steal0) = (sys::cpu_seconds(), sys::steal_seconds());
    let (submit, r) = timed(|| {
        batch
            .iter()
            .try_for_each(|up| svc.try_submit(*up).map(drop))
    });
    r?;
    let (flush, outcome) = timed(|| svc.try_flush());
    let outcome = outcome?.unwrap_or_default();
    let (asked, r) = timed(|| {
        queries.iter().try_for_each(|&(u, v)| {
            answers.push(svc.try_in_msf(u, v)?);
            Ok::<(), ServiceError>(())
        })
    });
    r?;
    let (weight, total) = timed(|| svc.try_msf_weight());
    let total = total?;
    let round = Round {
        submit,
        flush,
        queries: asked,
        weight,
        cpu: sys::cpu_seconds() - cpu0,
        steal: sys::steal_seconds() - steal0,
        cores: PES as f64,
        outcome,
        traced: false,
    };
    Ok((round, total))
}

/// What the replay of the same batches inside one long-lived machine
/// hands back from each PE.
struct PeReplay {
    generate: Window,
    prepare: Window,
    solve: Window,
    phases: [f64; 8],
    bootstrap: Window,
    batches: Vec<(Window, BatchOutcome)>,
    /// Counters after the first [`EXACT_PREFIX`] batches.
    stats: PeStats,
    dyn_stats: UpdateStats,
    msf_edges: u64,
    msf_weight: u64,
    /// Lifetime statistics after every batch.
    final_stats: UpdateStats,
    input_edges: u64,
    input_vertices: u64,
}

/// The window decides how many rounds a run gets through, so counters
/// that must repeat exactly from run to run are read after this many
/// batches (every run of the full-size workload gets well past it).
const EXACT_PREFIX: usize = 32;

fn replay(w: &Workload, seed: u64, batches: &[Vec<Update>]) -> Vec<PeReplay> {
    Machine::run(w.machine(), |comm| {
        let (generate, edges) = timed(|| w.graph.generate(comm, seed));
        let (prepare, input) = timed(|| InputGraph::from_sorted_edges(comm, edges));
        // core: one from-scratch solve of the service's graph, the cost
        // a flush avoids.
        let s = solve_window(comm, &input, Algorithm::Boruvka, &w.mst());
        let phases = PhaseTimes::reduce_max(comm, &s.result.phases).wall;
        let (bootstrap, mut dynmst) = timed(|| DynMst::bootstrap(comm, w.dyn_cfg(), &input));
        // The service does not keep the prepared input either; holding
        // it here slowed every batch by a fifth (allocator behaviour).
        let (input_edges, input_vertices) = (input.graph.m_global, input.graph.n_global);
        drop(input);
        let before = comm.stats();
        let mut applied = Vec::with_capacity(batches.len());
        let mut prefix = None;
        for (k, batch) in batches.iter().enumerate() {
            let mine: &[Update] = if comm.rank() == 0 { batch } else { &[] };
            applied.push(timed(|| dynmst.apply_batch(comm, mine)));
            if k + 1 == EXACT_PREFIX.min(batches.len()) {
                prefix = Some((
                    comm.stats().since(&before),
                    dynmst.stats(),
                    dynmst.msf_edge_count(),
                    dynmst.msf_weight(),
                ));
            }
        }
        let (stats, dyn_stats, msf_edges, msf_weight) = prefix.unwrap_or_default();
        PeReplay {
            generate,
            prepare,
            solve: s.window,
            phases,
            bootstrap,
            batches: applied,
            stats,
            dyn_stats,
            msf_edges,
            msf_weight,
            final_stats: dynmst.stats(),
            input_edges,
            input_vertices,
        }
    })
    .results
}

pub fn run(w: &Workload, o: &RunOpts, report: &mut Report, trace: &mut Trace) {
    let initial = initial_live_set(w, o.seed);
    let n = w.dyn_cfg().n;
    let mut gen = WorkloadGen::new(n, o.seed, &initial);
    let mut rng = SplitMix(o.seed ^ 0x5EED_FA5C);

    // Set-up, three times; the last service is the one that is used.
    let mut setups = Vec::new();
    let mut svc = None;
    for _ in 0..3 {
        let (win, built) = timed(|| new_service(w, o.seed));
        match built {
            Ok(s) => {
                setups.push(secs(win));
                svc = Some(s);
            }
            Err(why) => {
                report.attempted += 1;
                report.fail(why);
            }
        }
    }
    let Some(mut svc) = svc else { return };

    let mut rounds: Vec<Round> = Vec::new();
    let mut batches: Vec<Vec<Update>> = Vec::new();
    let mut answers = Vec::with_capacity(SVC_QUERIES);
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
    while rounds.len() < o.min_ops || window.elapsed().as_secs_f64() < o.seconds {
        if !rounds.is_empty() && rounds.len().is_multiple_of(CALIBRATE_EVERY) {
            let after = probe();
            let block = rounds.len() - CALIBRATE_EVERY;
            rounds[block..]
                .iter_mut()
                .for_each(|r| r.cores = cores.min(after));
            cores = after;
        }
        let batch = gen.next_batch(SVC_BATCH);
        // Half the queries name edges of the loaded graph (forest edges,
        // non-forest edges, and by now deleted ones), half random pairs.
        let queries: Vec<(u64, u64)> = (0..SVC_QUERIES)
            .map(|k| {
                if k % 2 == 0 {
                    let e = initial[(rng.next_u64() % initial.len() as u64) as usize];
                    (e.u, e.v)
                } else {
                    (rng.next_u64() % n, rng.next_u64() % n)
                }
            })
            .collect();
        report.attempted += 3; // a flush, a block of queries, a weight query
        let (mut r, weight) = match round(&mut svc, &batch, &queries, &mut answers) {
            Ok(done) => done,
            Err(e) => {
                // A failed machine run poisons the service for good.
                report.fail(format!("round {}: {e}", rounds.len()));
                break;
            }
        };
        if r.outcome.msf_weight != weight {
            report.fail(format!(
                "round {}: flush reported weight {} but the query says {weight}",
                rounds.len(),
                r.outcome.msf_weight
            ));
        }
        if rounds.len() % SVC_CHECK_EVERY == SVC_CHECK_EVERY - 1 {
            report.attempted += 1;
            let reference = kruskal(&gen.live_edges());
            let ref_weight: u64 = reference.iter().map(|e| e.w as u64).sum();
            let mut pairs: Vec<(u64, u64)> = reference
                .iter()
                .map(|e| (e.u.min(e.v), e.u.max(e.v)))
                .collect();
            pairs.sort_unstable();
            let wrong = queries
                .iter()
                .zip(&answers)
                .filter(|(&(u, v), &a)| a != pairs.binary_search(&(u.min(v), u.max(v))).is_ok())
                .count();
            if ref_weight != weight || wrong > 0 {
                report.fail(format!(
                    "round {}: weight {weight} vs Kruskal {ref_weight}, {wrong} wrong membership answers",
                    rounds.len()
                ));
            }
        }
        r.traced = o.trace && rounds.len() % 2 == 1;
        if r.traced {
            let k = rounds.len();
            let id = trace.add("service.round", None, k, (r.submit.0, r.weight.1), None);
            trace.add("service.submit", None, k, r.submit, Some(id));
            trace.add("service.flush", None, k, r.flush, Some(id));
            trace.add("service.queries", None, k, r.queries, Some(id));
            trace.add("service.weight", None, k, r.weight, Some(id));
        }
        rounds.push(r);
        if o.trace {
            batches.push(batch);
        }
    }
    let peak_rss = sys::peak_rss_mb();

    // Verification of the final forest against the generator's live set.
    report.attempted += 1;
    match svc.try_msf_edges() {
        Ok(mut forest) => {
            if o.corrupt_msf {
                if let Some(e) = forest.first_mut() {
                    e.w = e.w.wrapping_add(1);
                }
            }
            if let Err(why) = verify_msf(&gen.symmetric_edges(), &forest) {
                report.fail(format!("verification: {why}"));
                report.failed += 3 * rounds.len() as u64;
            }
        }
        Err(why) => report.fail(format!("final forest: {why}")),
    }

    // Timings of one kind of round (traced or not), from its calm rounds.
    // The last, unfinished block of rounds has no reading after it and
    // counts as calm.
    let calm = rounds.iter().filter(|r| r.calm()).count();
    report.note(sys::calm_note(rounds.len(), calm, o.min_ops));
    let of = |traced: bool, f: &dyn Fn(&Round) -> f64| -> Vec<f64> {
        let kind = rounds.iter().filter(|r| r.traced == traced).collect();
        sys::calm_or_all(kind, Round::calm, o.min_ops)
            .into_iter()
            .map(f)
            .collect()
    };
    let all = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let flushes = all(&|r| secs(r.flush));
    let write_total: f64 = all(&Round::write_half).iter().sum();
    let query_total: f64 = all(&|r| secs(r.queries)).iter().sum();
    let updates_per_s = (rounds.len() * SVC_BATCH) as f64 / write_total;
    let queries_per_s = (rounds.len() * SVC_QUERIES) as f64 / query_total;
    report.note(format!(
        "solve_s   {}",
        describe(&of(false, &Round::write_half))
    ));
    report.note(format!("round_s   {}", describe(&of(false, &Round::wall))));
    report.note(format!("setup_s   {}", describe(&setups)));
    report.note(format!(
        "flush_p50_ms {:.4}  flush_p95_ms {:.4}  (n = {})",
        1e3 * median(&flushes),
        1e3 * quantile(&flushes, 0.95),
        flushes.len()
    ));
    report.note(format!(
        "updates_per_s {updates_per_s:.1}  queries_per_s {queries_per_s:.1}"
    ));

    if !o.trace {
        report.set("solve_s", median(&of(false, &Round::write_half)));
        report.set("round_s", median(&of(false, &Round::wall)));
        report.set("setup_s", median(&setups));
        report.set("peak_rss_mb", peak_rss);
        return;
    }

    // The same batches through the bare maintainer in one long-lived
    // machine: the floor of a flush, and the per-batch reference.
    let pes = replay(w, o.seed, &batches);
    let slowest =
        |f: &dyn Fn(&PeReplay) -> Window| pes.iter().map(|p| secs(f(p))).fold(0.0, f64::max);
    report.attempted += batches.len() as u64;
    for (k, (r, (_, replayed))) in rounds.iter().zip(&pes[0].batches).enumerate() {
        if r.outcome != *replayed {
            report.fail(format!(
                "batch {k}: service {:?} vs replay {replayed:?}",
                r.outcome
            ));
        }
    }
    if pes[0].final_stats != svc.stats() {
        report.fail(format!(
            "lifetime statistics: service {:?} vs replay {:?}",
            svc.stats(),
            pes[0].final_stats
        ));
    }
    let dyn_stats = pes[0].dyn_stats;
    for (rank, pe) in pes.iter().enumerate() {
        trace.add("graph.generate", Some(rank), 0, pe.generate, None);
        trace.add("graph.prepare", Some(rank), 0, pe.prepare, None);
        trace.add("core.solve", Some(rank), 0, pe.solve, None);
        trace.add("dyn.bootstrap", Some(rank), 0, pe.bootstrap, None);
        for (k, (win, _)) in pe.batches.iter().enumerate() {
            trace.add("dyn.apply_batch", Some(rank), k, *win, None);
        }
    }
    let applies: Vec<f64> = (0..batches.len())
        .map(|k| pes.iter().map(|p| secs(p.batches[k].0)).fold(0.0, f64::max))
        .collect();
    let (apply_p50, flush_p50) = (median(&applies), median(&flushes));
    let setup = median(&setups);
    let bootstrap = slowest(&|p| p.bootstrap);

    report.set("dyn.batches_per_s", 1.0 / apply_p50);
    report.set("dyn.bootstrap_pct", 100.0 * bootstrap / setup);
    report.set("dyn.resolves", dyn_stats.resolves as f64);
    report.set("dyn.skipped_resolves", dyn_stats.skipped_resolves as f64);
    report.set("dyn.certificate_edges", dyn_stats.certificate_edges as f64);
    report.set("dyn.tree_deletes", dyn_stats.tree_deletes as f64);
    report.set(
        "dyn.replacement_candidates",
        dyn_stats.replacement_candidates as f64,
    );
    report.set(
        "service.overhead_pct",
        100.0 * (flush_p50 - apply_p50) / flush_p50,
    );
    report.set(
        "service.flush_p95_over_p50",
        quantile(&flushes, 0.95) / flush_p50,
    );
    report.set("service.updates_per_s", updates_per_s);
    report.set("service.queries_per_s", queries_per_s);
    report.set(
        "trace.overhead_pct",
        100.0 * (median(&of(true, &Round::wall)) - median(&of(false, &Round::wall)))
            / median(&of(false, &Round::wall)),
    );
    let cpu: f64 = all(&|r| r.cpu).iter().sum();
    let wall: f64 = all(&Round::wall).iter().sum();
    report.set("proc.cpu_s", cpu / rounds.len() as f64);
    report.set("proc.cpu_utilization", cpu / (PES as f64 * wall));
    report.set(
        "proc.steal_pct",
        100.0 * all(&|r| r.steal).iter().sum::<f64>() / (PES as f64 * wall),
    );
    report.set("proc.host_cores", median(&all(&|r| r.cores)));

    let generate = slowest(&|p| p.generate);
    let prepare = slowest(&|p| p.prepare);
    report.set("graph.generate_s", generate);
    report.set("graph.prepare_s", prepare);
    report.set("graph.input_edges", pes[0].input_edges as f64);
    report.set("graph.input_vertices", pes[0].input_vertices as f64);
    core_budget(report, w.name, &[slowest(&|p| p.solve)], &|k| {
        vec![pes[0].phases[k]]
    });
    set_filter_counts(report, None);
    let modeled = pes.iter().map(|p| p.stats.modeled_time).fold(0.0, f64::max);
    report.set(
        "comm.messages",
        pes.iter().map(|p| p.stats.messages).sum::<u64>() as f64,
    );
    report.set(
        "comm.bytes",
        pes.iter().map(|p| p.stats.bytes).sum::<u64>() as f64,
    );
    report.set("comm.modeled_s", modeled);
    let prefix_wall: f64 = applies.iter().take(EXACT_PREFIX).sum();
    report.set("comm.wall_over_modeled", prefix_wall / modeled);
    report.set("core.msf_edges", pes[0].msf_edges as f64);
    report.set("core.msf_weight", pes[0].msf_weight as f64);

    let probes = probes::run(w, Algorithm::Boruvka, o, trace);
    // The runner probe starts a machine and generates, prepares and
    // solves the service's graph; the harness's own wall for the same
    // work is an empty machine run plus the replay machine's spans.
    let op_wall = probes.machine_start_ms / 1e3 + generate + prepare + slowest(&|p| p.solve);
    probes.report(report, op_wall);

    report.note(format!(
        "budget {}: flush_p50 {:.3} ms | dyn.apply_batch {:.3} ms | service overhead {:.3} ms \
         (an empty machine run takes {:.3} ms)",
        w.name,
        1e3 * flush_p50,
        1e3 * apply_p50,
        1e3 * (flush_p50 - apply_p50),
        probes.machine_start_ms
    ));
    report.note(format!(
        "budget {}: setup_s {setup:.4} | generate {generate:.4} | prepare {prepare:.4} | \
         dyn.bootstrap {bootstrap:.4} | machine start + install {:.4}",
        w.name,
        setup - generate - prepare - bootstrap
    ));
}
