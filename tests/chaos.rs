//! Differential chaos suite: seeded fault plans against the launch
//! programs' cost digests.
//!
//! The oracle is the digest of a fault-free cells-transport run — a
//! pure function of (program, p, seed) that folds in results *and* the
//! machine-wide modeled cost counters. A transient fault plan (delays,
//! short reads/writes, duplicate frames, transient send refusals) must
//! be *invisible* in that digest on both byte-moving transports: one
//! string equality checks that the framing layer absorbed every
//! injected fault without changing a single modeled byte. Lethal plans
//! must terminate with a typed error well under twice the io deadline —
//! the failure mode this suite exists to rule out is the hang.

use kamsta::{
    launchprog, DynConfig, FaultPlan, GraphConfig, LethalFault, LethalKind, Machine, MachineConfig,
    MachineError, MstService, ServiceError, TransportKind, Update, WEdge,
};
use std::time::{Duration, Instant};

fn machine(p: usize, transport: TransportKind, plan: Option<FaultPlan>) -> MachineConfig {
    let cfg = MachineConfig::new(p)
        .with_transport(transport)
        .with_io_timeout(Duration::from_secs(20));
    match plan {
        Some(plan) => cfg.with_faults(plan),
        None => cfg,
    }
}

/// Rank 0's digest line for one program run.
fn digest(
    program: &'static str,
    p: usize,
    transport: TransportKind,
    seed: u64,
    plan: Option<FaultPlan>,
) -> String {
    let out = Machine::try_run(machine(p, transport, plan), move |comm| {
        launchprog::run(program, comm, seed)
    })
    .unwrap_or_else(|e| panic!("{program} p={p} {transport:?}: {e}"));
    out.results
        .into_iter()
        .flatten()
        .next()
        .expect("rank 0 digest")
}

/// A transient-only plan: every fault class that must be recoverable.
fn transient(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_delays(0.15, 100)
        .with_short_writes(0.35)
        .with_short_reads(0.35)
        .with_duplicates(0.25)
        .with_retries(0.25)
}

#[test]
fn transient_plans_are_digest_invisible_across_transports_and_scales() {
    for p in [2usize, 4, 8] {
        let oracle = digest("sum", p, TransportKind::Cells, 11, None);
        for transport in [TransportKind::Bytes, TransportKind::Sockets] {
            for fault_seed in [5u64, 71] {
                let got = digest("sum", p, transport, 11, Some(transient(fault_seed)));
                assert_eq!(
                    got, oracle,
                    "sum p={p} {transport:?} fault_seed={fault_seed}"
                );
            }
        }
    }
}

#[test]
fn transient_plans_leave_the_mst_pipeline_digest_identical() {
    // The full distributed Borůvka pipeline (generation, two-level
    // all-to-alls, recursion) under an aggressive transient plan: the
    // forest and the modeled cost counters both survive untouched.
    let oracle = digest("mst", 4, TransportKind::Cells, 11, None);
    for transport in [TransportKind::Bytes, TransportKind::Sockets] {
        let got = digest("mst", 4, transport, 11, Some(transient(29)));
        assert_eq!(got, oracle, "mst {transport:?}");
    }
}

#[test]
fn lethal_plans_terminate_typed_well_under_twice_the_deadline() {
    let deadline = Duration::from_secs(5);
    for transport in [TransportKind::Bytes, TransportKind::Sockets] {
        for kind in [
            LethalKind::Truncate,
            LethalKind::BitFlip,
            LethalKind::Disconnect,
        ] {
            let plan = FaultPlan::seeded(13).with_lethal(LethalFault {
                rank: 1,
                kind,
                at_seq: 2,
            });
            let cfg = MachineConfig::new(4)
                .with_transport(transport)
                .with_io_timeout(deadline)
                .with_faults(plan);
            let start = Instant::now();
            let err = Machine::try_run(cfg, |comm| launchprog::run("sum", comm, 11)).unwrap_err();
            let elapsed = start.elapsed();
            assert!(
                matches!(err, MachineError::Transport { .. }),
                "{transport:?}/{kind:?}: {err:?}"
            );
            assert!(
                elapsed < deadline * 2,
                "{transport:?}/{kind:?}: took {elapsed:?} against a {deadline:?} deadline"
            );
        }
    }
}

#[test]
fn service_degrades_typed_after_an_unrecoverable_fault() {
    // An unrecoverable fault mid-batch poisons the service: the failing
    // call reports `ServiceError::Machine`, everything after answers
    // `Degraded` (typed, immediate) instead of panicking or re-running
    // a doomed machine.
    let plan = FaultPlan::seeded(17).with_lethal(LethalFault {
        rank: 1,
        kind: LethalKind::Truncate,
        at_seq: 4,
    });
    let mut svc = MstService::builder(2, DynConfig::new(64))
        .machine(
            MachineConfig::new(2)
                .with_transport(TransportKind::Bytes)
                .with_io_timeout(Duration::from_secs(5))
                .with_faults(plan),
        )
        .build()
        .expect("construction performs no communication");

    // Drive until the lethal frame fires; the first failing call must
    // name the machine failure.
    let mut first: Option<ServiceError> = None;
    if let Err(e) = svc.try_load_generated(GraphConfig::Grid2D { rows: 8, cols: 8 }, 3) {
        first = Some(e);
    } else {
        for k in 0..64u64 {
            let up = Update::Insert(WEdge::new(k % 64, (k * 7 + 1) % 64, (k % 9 + 1) as u32));
            match svc.try_submit(up) {
                Ok(_) => {}
                Err(e) => {
                    first = Some(e);
                    break;
                }
            }
            if let Err(e) = svc.try_flush() {
                first = Some(e);
                break;
            }
        }
    }
    let first = first.expect("the lethal frame must fire within the run");
    assert!(
        matches!(first, ServiceError::Machine(_)),
        "first failure is the machine error: {first}"
    );
    assert!(svc.poisoned().is_some());

    // Every subsequent fallible call is typed degradation, instantly.
    let start = Instant::now();
    assert!(matches!(
        svc.try_msf_weight(),
        Err(ServiceError::Degraded(_))
    ));
    assert!(matches!(svc.try_flush(), Err(ServiceError::Degraded(_))));
    assert!(matches!(
        svc.try_submit(Update::Delete { u: 0, v: 1 }),
        Err(ServiceError::Degraded(_))
    ));
    assert!(
        start.elapsed() < Duration::from_millis(100),
        "degraded answers must not re-run the machine"
    );
}
