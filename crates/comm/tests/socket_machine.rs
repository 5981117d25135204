//! Byte-lane failure modes through the machine surface: a PE that dies
//! mid-collective must come back as a typed [`MachineError::Transport`]
//! within the configured io timeout — never a hang, never a bare panic
//! string. Below them, the worker entry point of multi-process machines,
//! driven against a rendezvous server on a thread.

use kamsta_comm::{
    serve_rendezvous, Machine, MachineConfig, MachineError, TransportError, TransportKind,
};
use std::net::{SocketAddr, TcpListener};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn lane(p: usize, timeout: Duration) -> MachineConfig {
    MachineConfig::new(p)
        .with_transport(TransportKind::Sockets)
        .with_io_timeout(timeout)
}

#[test]
fn early_returning_pe_surfaces_as_typed_peer_closed() {
    // Rank 1 returns before the collective; its lane drops, the other
    // ranks' receives see the end of its streams.
    let err = Machine::try_run(lane(3, Duration::from_secs(10)), |comm| {
        if comm.rank() == 1 {
            return 0u64;
        }
        comm.allreduce_sum(comm.rank() as u64)
    })
    .unwrap_err();
    match err {
        MachineError::Transport { source, .. } => {
            assert!(
                matches!(
                    source,
                    TransportError::PeerClosed { .. } | TransportError::Timeout { .. }
                ),
                "{source:?}"
            );
        }
        other => panic!("expected a transport error, got {other:?}"),
    }
}

#[test]
fn sleeping_pe_times_out_within_the_configured_bound() {
    // Rank 0 never reaches the collective; peers must give up after the
    // (short) io timeout instead of hanging. Rank 0 itself sits in a
    // sleep shorter than the test harness timeout, so the whole machine
    // returns promptly.
    let timeout = Duration::from_millis(300);
    let start = Instant::now();
    let err = Machine::try_run(lane(2, timeout), |comm| {
        if comm.rank() == 0 {
            std::thread::sleep(Duration::from_secs(2));
            return 0u64;
        }
        comm.allreduce_sum(1)
    })
    .unwrap_err();
    assert!(
        matches!(
            err,
            MachineError::Transport {
                source: TransportError::Timeout { .. },
                ..
            }
        ),
        "{err:?}"
    );
    // Bounded: the timeout plus the sleeping PE's nap plus slack, far
    // below a hang.
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "took {:?}",
        start.elapsed()
    );
}

#[test]
fn transport_error_keeps_genuine_panics_distinct() {
    // A genuine program panic must still unwind out of `try_run`, not be
    // laundered into a transport error.
    let res = std::panic::catch_unwind(|| {
        Machine::try_run(lane(2, Duration::from_secs(5)), |comm| {
            if comm.rank() == 0 {
                panic!("program bug on rank 0");
            }
            comm.allreduce_sum(1)
        })
    });
    assert!(res.is_err(), "program panic must propagate");
}

/// A rendezvous server for a `p`-PE machine on a thread, standing in for
/// the launcher: its address, and the handle yielding its result.
fn launcher(
    p: usize,
    timeout: Duration,
) -> (String, JoinHandle<Result<Vec<SocketAddr>, TransportError>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || serve_rendezvous(&listener, p, timeout, || None));
    (addr, server)
}

#[test]
fn worker_entry_rejects_non_socket_configs() {
    let err = Machine::try_run_worker(MachineConfig::new(2), None, |_| ()).unwrap_err();
    assert!(matches!(err, MachineError::SocketConfig(_)), "{err:?}");

    let err = Machine::try_run_worker(
        MachineConfig::new(2).with_transport(TransportKind::Sockets),
        Some(0),
        |_| (),
    )
    .unwrap_err();
    assert!(matches!(err, MachineError::SocketConfig(_)), "{err:?}");

    // A rendezvous with the transport overridden back to cells.
    let mut cfg = MachineConfig::new(2).with_rendezvous("127.0.0.1:7101");
    cfg.transport = Some(TransportKind::Cells);
    let err = Machine::try_run_worker(cfg, None, |_| ()).unwrap_err();
    assert!(matches!(err, MachineError::SocketConfig(_)), "{err:?}");
}

#[test]
fn lone_worker_mesh_timeout_names_joined_and_missing_ranks() {
    // Both workers of a 2-PE machine pass the rendezvous, but rank 1 is
    // configured for 3 PEs: it refuses the table and never dials rank 0.
    // Rank 0's mesh formation must then say exactly who made it into
    // the mesh and who is missing — not a bare timeout the operator has
    // to bisect.
    let (addr, server) = launcher(2, Duration::from_secs(5));
    let worker = |pes: usize, rank: usize| {
        let cfg = MachineConfig::new(pes)
            .with_rendezvous(addr.clone())
            .with_handshake_timeout(Duration::from_millis(300))
            .with_io_timeout(Duration::from_secs(5));
        std::thread::spawn(move || Machine::try_run_worker(cfg, Some(rank), |_| ()).map(|_| ()))
    };
    let start = Instant::now();
    let (w0, w1) = (worker(2, 0), worker(3, 1));
    let err = w1.join().unwrap().unwrap_err();
    assert_eq!(
        err,
        MachineError::PeCountMismatch {
            expected: 3,
            got: 2
        }
    );
    let err = w0.join().unwrap().unwrap_err();
    match err {
        MachineError::Transport {
            rank: 0,
            source:
                TransportError::MeshIncomplete {
                    ref joined,
                    ref missing,
                    ..
                },
        } => {
            assert_eq!(joined, &vec![0], "only this worker joined");
            assert_eq!(missing, &vec![1], "the absent peer is named");
        }
        other => panic!("expected MeshIncomplete, got {other:?}"),
    }
    // And the human-readable rendering carries the rank lists.
    let msg = err.to_string();
    assert!(msg.contains("joined") && msg.contains("missing"), "{msg}");
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "bounded by the handshake timeout, took {:?}",
        start.elapsed()
    );
    assert_eq!(server.join().unwrap().unwrap().len(), 2);
}

#[test]
fn workers_behind_a_rendezvous_form_a_machine() {
    // Two worker entries (as two threads standing in for two processes)
    // against a rendezvous server: the same entry path the launcher
    // exercises across real processes, minus the fork. Neither claims a
    // rank; the rendezvous assigns both.
    let (addr, server) = launcher(2, Duration::from_secs(10));
    let cfg = MachineConfig::new(2)
        .with_rendezvous(addr)
        .with_io_timeout(Duration::from_secs(10));
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                Machine::try_run_worker(cfg, None, |comm| comm.allgather(comm.rank() as u64))
            })
        })
        .collect();
    let mut ranks = Vec::new();
    for h in handles {
        let run = h.join().unwrap().unwrap();
        assert_eq!(run.result, vec![0, 1]);
        assert!(run.stats.messages > 0);
        ranks.push(run.rank);
    }
    ranks.sort_unstable();
    assert_eq!(ranks, vec![0, 1], "the rendezvous assigns every rank once");
    assert_eq!(server.join().unwrap().unwrap().len(), 2);
}
