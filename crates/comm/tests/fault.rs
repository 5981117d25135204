//! Machine-level fault-injection behavior: a transient plan must leave
//! every collective's results exactly right on the byte lane, a lethal
//! plan must come back as a typed transport error
//! well inside the io deadline, and the `KAMSTA_FAULTS` plan format
//! must round-trip through the builder API.

use kamsta_comm::{
    FaultPlan, LethalFault, LethalKind, Machine, MachineConfig, MachineError, TransportKind,
};
use std::time::{Duration, Instant};

fn sockets(p: usize) -> MachineConfig {
    MachineConfig::new(p).with_transport(TransportKind::Sockets)
}

fn with_plan(p: usize, plan: FaultPlan) -> MachineConfig {
    sockets(p)
        .with_io_timeout(Duration::from_secs(10))
        .with_faults(plan)
}

/// A dense transient plan: everything recoverable, nothing lethal.
fn noisy(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_delays(0.2, 80)
        .with_short_writes(0.4)
        .with_short_reads(0.4)
        .with_duplicates(0.3)
        .with_retries(0.3)
}

#[test]
fn fault_plan_parse_round_trips_builder_equivalents() {
    let parsed = FaultPlan::parse(
        "seed=9, delay=0.25, delay_us=120, short_write=0.5, short_read=0.1, dup=0.05, retry=0.3",
    )
    .unwrap();
    let built = FaultPlan::seeded(9)
        .with_delays(0.25, 120)
        .with_short_writes(0.5)
        .with_short_reads(0.1)
        .with_duplicates(0.05)
        .with_retries(0.3);
    assert_eq!(parsed, built);

    let lethal = FaultPlan::parse("seed=3,lethal=bitflip@1:6").unwrap();
    assert_eq!(
        lethal,
        FaultPlan::seeded(3).with_lethal(LethalFault {
            rank: 1,
            kind: LethalKind::BitFlip,
            at_seq: 6,
        })
    );
    assert!(FaultPlan::parse("").unwrap().is_empty());
}

#[test]
fn fault_plan_parse_rejects_malformed_entries() {
    for bad in [
        "frobnicate=1",
        "delay",
        "delay=2.0",
        "dup=-0.1",
        "seed=banana",
        "lethal=bitflip",
        "lethal=explode@0:1",
        "lethal=truncate@0",
    ] {
        let err = FaultPlan::parse(bad).unwrap_err();
        assert!(!err.is_empty(), "{bad:?} must explain its rejection");
    }
    // The same rejection must reach the machine surface as the typed
    // config error when the plan arrives via the environment path.
    let err = FaultPlan::parse("frobnicate=1")
        .map_err(MachineError::InvalidFaultPlan)
        .unwrap_err();
    assert!(err.to_string().contains("fault plan"), "{err}");
}

#[test]
fn armed_empty_plan_leaves_results_identical() {
    // `FaultPlan::seeded` with no faults still arms the per-frame
    // checksums — results must match the unarmed run bit-for-bit.
    let program = |comm: &kamsta_comm::Comm| {
        let v = comm.allgatherv(vec![comm.rank() as u64; comm.rank() + 1]);
        (v, comm.allreduce_sum(comm.rank() as u64 + 1))
    };
    let plain = Machine::try_run(sockets(4), program).unwrap();
    let armed = Machine::try_run(with_plan(4, FaultPlan::seeded(7)), program).unwrap();
    assert_eq!(plain.results, armed.results);
}

#[test]
fn transient_faults_leave_collectives_exact() {
    // Delays, short reads/writes, duplicates, and transient retries all
    // at once: the framing layer must absorb every one of them, so the
    // collectives' results are *exactly* the fault-free values.
    for seed in [1u64, 23, 1009] {
        let out = Machine::try_run(with_plan(4, noisy(seed)), |comm| {
            let mine: Vec<u64> = (0..64).map(|i| comm.rank() as u64 * 1000 + i).collect();
            let all = comm.allgatherv(mine);
            let total = comm.allreduce_sum(comm.rank() as u64 + 1);
            (all, total)
        })
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let expected: Vec<u64> = (0..4u64)
            .flat_map(|r| (0..64).map(move |i| r * 1000 + i))
            .collect();
        for (all, total) in out.results {
            assert_eq!(all, expected);
            assert_eq!(total, 1 + 2 + 3 + 4);
        }
    }
}

#[test]
fn lethal_faults_surface_as_typed_errors_within_the_deadline() {
    // Every unrecoverable fault kind: the machine must return
    // `MachineError::Transport` — not hang, not panic with a bare
    // string — well under twice the io deadline.
    let deadline = Duration::from_secs(5);
    for kind in [
        LethalKind::Truncate,
        LethalKind::BitFlip,
        LethalKind::Disconnect,
    ] {
        let plan = FaultPlan::seeded(11).with_lethal(LethalFault {
            rank: 1,
            kind,
            at_seq: 1,
        });
        let cfg = sockets(3).with_io_timeout(deadline).with_faults(plan);
        let start = Instant::now();
        let err = Machine::try_run(cfg, |comm| {
            let mut acc = 0u64;
            for round in 0..8u64 {
                acc = comm.allreduce_sum(acc + comm.rank() as u64 + round);
            }
            acc
        })
        .unwrap_err();
        let elapsed = start.elapsed();
        assert!(
            matches!(err, MachineError::Transport { .. }),
            "{kind:?}: {err:?}"
        );
        assert!(
            elapsed < deadline * 2,
            "{kind:?} took {elapsed:?}, deadline {deadline:?}"
        );
    }
}

#[test]
fn corrupted_frames_are_reported_as_corruption_not_wrong_answers() {
    // A bit flip with checksums armed must be *named* as corruption in
    // the error chain — the one outcome that is never acceptable is a
    // silently wrong result (which would have returned Ok above).
    let plan = FaultPlan::seeded(5).with_lethal(LethalFault {
        rank: 0,
        kind: LethalKind::BitFlip,
        at_seq: 0,
    });
    let err = Machine::try_run(with_plan(2, plan), |comm| {
        comm.allgatherv(vec![comm.rank() as u64; 32])
    })
    .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("checksum") || msg.contains("corrupt"),
        "corruption must be named in: {msg}"
    );
}
