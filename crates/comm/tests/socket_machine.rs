//! Byte-lane failure modes through the machine surface, on both pipes
//! (`bytes` and `sockets`): a PE that dies mid-collective must come
//! back as a typed [`MachineError::Transport`] within the configured io
//! timeout — never a hang, never a bare panic string. Below them, the
//! worker entry points that only the sockets transport has.

use kamsta_comm::{Machine, MachineConfig, MachineError, TransportError, TransportKind};
use std::time::{Duration, Instant};

/// The two pipes of the byte lane.
const LANES: [TransportKind; 2] = [TransportKind::Bytes, TransportKind::Sockets];

fn lane(transport: TransportKind, p: usize, timeout: Duration) -> MachineConfig {
    MachineConfig::new(p)
        .with_transport(transport)
        .with_io_timeout(timeout)
}

#[test]
fn early_returning_pe_surfaces_as_typed_peer_closed() {
    // Rank 1 returns before the collective; its lane drops, the other
    // ranks' receives see the end of its streams.
    for transport in LANES {
        let err = Machine::try_run(lane(transport, 3, Duration::from_secs(10)), |comm| {
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
                    "{transport:?}: {source:?}"
                );
            }
            other => panic!("{transport:?}: expected a transport error, got {other:?}"),
        }
    }
}

#[test]
fn sleeping_pe_times_out_within_the_configured_bound() {
    // Rank 0 never reaches the collective; peers must give up after the
    // (short) io timeout instead of hanging. Rank 0 itself sits in a
    // sleep shorter than the test harness timeout, so the whole machine
    // returns promptly.
    let timeout = Duration::from_millis(300);
    for transport in LANES {
        let start = Instant::now();
        let err = Machine::try_run(lane(transport, 2, timeout), |comm| {
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
            "{transport:?}: {err:?}"
        );
        // Bounded: the timeout plus the sleeping PE's nap plus slack, far
        // below a hang.
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "{transport:?} took {:?}",
            start.elapsed()
        );
    }
}

#[test]
fn transport_error_keeps_genuine_panics_distinct() {
    // A genuine program panic must still unwind out of `try_run`, not be
    // laundered into a transport error.
    for transport in LANES {
        let res = std::panic::catch_unwind(|| {
            Machine::try_run(lane(transport, 2, Duration::from_secs(5)), |comm| {
                if comm.rank() == 0 {
                    panic!("program bug on rank 0");
                }
                comm.allreduce_sum(1)
            })
        });
        assert!(res.is_err(), "{transport:?}: program panic must propagate");
    }
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

    // Static endpoints without a rank: the worker cannot guess its slot.
    let err = Machine::try_run_worker(
        MachineConfig::new(2).with_endpoints(["127.0.0.1:7101", "127.0.0.1:7102"]),
        None,
        |_| (),
    )
    .unwrap_err();
    assert!(matches!(err, MachineError::SocketConfig(_)), "{err:?}");
}

#[test]
fn lone_worker_mesh_timeout_names_joined_and_missing_ranks() {
    // A worker of a 2-endpoint machine whose peer never starts: the
    // formation failure must say exactly who made it into the mesh and
    // who is missing — not a bare timeout the operator has to bisect.
    let l0 = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let l1 = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addrs = [
        l0.local_addr().unwrap().to_string(),
        l1.local_addr().unwrap().to_string(),
    ];
    drop((l0, l1));
    let cfg = MachineConfig::new(2)
        .with_endpoints(addrs)
        .with_handshake_timeout(Duration::from_millis(300))
        .with_io_timeout(Duration::from_secs(5));
    let start = Instant::now();
    let err = Machine::try_run_worker(cfg, Some(0), |_| ()).unwrap_err();
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
}

#[test]
fn workers_with_static_endpoints_form_a_machine_across_fabrics() {
    // Two worker entries (as two threads standing in for two processes)
    // against a static endpoint table: the same entry path the launcher
    // exercises across real processes, minus the fork.
    let l0 = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let l1 = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addrs = [
        l0.local_addr().unwrap().to_string(),
        l1.local_addr().unwrap().to_string(),
    ];
    drop((l0, l1)); // workers re-bind their slot
    let cfg = MachineConfig::new(2)
        .with_endpoints(addrs.clone())
        .with_io_timeout(Duration::from_secs(10));
    let handles: Vec<_> = (0..2)
        .map(|rank| {
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                Machine::try_run_worker(cfg, Some(rank), |comm| comm.allgather(comm.rank() as u64))
            })
        })
        .collect();
    for (rank, h) in handles.into_iter().enumerate() {
        let run = h.join().unwrap().unwrap();
        assert_eq!(run.rank, rank);
        assert_eq!(run.result, vec![0, 1]);
        assert!(run.stats.messages > 0);
    }
}
