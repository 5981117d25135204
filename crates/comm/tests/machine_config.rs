//! MachineConfig validation: bad configurations come back as typed
//! [`MachineError`]s through `resolve`/`try_run` instead of poisoning a
//! PE thread.
//!
//! Everything lives in one `#[test]` because the `KAMSTA_TRANSPORT` and
//! `KAMSTA_THREADS` checks mutate process-global environment state — a
//! single test per binary keeps that serial.

use kamsta_comm::{Machine, MachineConfig, MachineError, SocketSetup, TransportKind};
use std::time::Duration;

#[test]
fn invalid_configs_are_typed_errors() {
    // Zero PEs.
    let cfg = MachineConfig::new(0);
    assert_eq!(cfg.resolve(), Err(MachineError::NoPes));
    assert!(matches!(
        Machine::try_run(cfg, |_| ()),
        Err(MachineError::NoPes)
    ));

    // A valid config runs through try_run.
    let out = Machine::try_run(MachineConfig::new(3), |comm| comm.rank()).unwrap();
    assert_eq!(out.results, vec![0, 1, 2]);

    // Explicit transport wins over the environment.
    std::env::set_var("KAMSTA_TRANSPORT", "sockets");
    assert_eq!(
        MachineConfig::new(2).resolve().map(|r| r.transport),
        Ok(TransportKind::Sockets)
    );
    assert_eq!(
        MachineConfig::new(2)
            .with_transport(TransportKind::Cells)
            .resolve()
            .map(|r| r.transport),
        Ok(TransportKind::Cells)
    );

    // `bytes` names no transport.
    std::env::set_var("KAMSTA_TRANSPORT", "bytes");
    assert_eq!(
        MachineConfig::new(2).resolve(),
        Err(MachineError::UnknownTransport("bytes".into()))
    );

    // A typo'd KAMSTA_TRANSPORT is rejected loudly, not silently run on
    // the default backend...
    std::env::set_var("KAMSTA_TRANSPORT", "carrier-pigeon");
    let cfg = MachineConfig::new(2);
    assert_eq!(
        cfg.resolve(),
        Err(MachineError::UnknownTransport("carrier-pigeon".into()))
    );
    assert!(Machine::try_run(cfg, |_| ()).is_err());
    // ...unless the caller pinned the transport programmatically.
    assert!(MachineConfig::new(2)
        .with_transport(TransportKind::Sockets)
        .resolve()
        .is_ok());

    // `sockets` is a first-class env value, resolving to a loopback mesh
    // for the in-process runner.
    std::env::set_var("KAMSTA_TRANSPORT", "sockets");
    let resolved = MachineConfig::new(2).resolve().unwrap();
    assert_eq!(resolved.transport, TransportKind::Sockets);
    assert_eq!(resolved.sockets, Some(SocketSetup::Loopback));

    // The io timeout resolves from KAMSTA_SOCKET_TIMEOUT_MS; zero or
    // garbage values are typed errors.
    std::env::set_var("KAMSTA_SOCKET_TIMEOUT_MS", "1500");
    assert_eq!(
        MachineConfig::new(2).resolve().unwrap().io_timeout,
        Duration::from_millis(1500)
    );
    std::env::set_var("KAMSTA_SOCKET_TIMEOUT_MS", "0");
    assert_eq!(
        MachineConfig::new(2).resolve(),
        Err(MachineError::InvalidTimeout("0".into()))
    );
    std::env::set_var("KAMSTA_SOCKET_TIMEOUT_MS", "soon");
    assert!(matches!(
        MachineConfig::new(2).resolve(),
        Err(MachineError::InvalidTimeout(_))
    ));
    std::env::remove_var("KAMSTA_SOCKET_TIMEOUT_MS");
    // An explicit builder timeout wins over the environment, and a zero
    // one is rejected the same way.
    assert_eq!(
        MachineConfig::new(2)
            .with_io_timeout(Duration::from_secs(2))
            .resolve()
            .unwrap()
            .io_timeout,
        Duration::from_secs(2)
    );
    assert!(matches!(
        MachineConfig::new(2)
            .with_io_timeout(Duration::ZERO)
            .resolve(),
        Err(MachineError::InvalidTimeout(_))
    ));

    std::env::remove_var("KAMSTA_TRANSPORT");
    assert_eq!(
        MachineConfig::new(2).resolve().map(|r| r.transport),
        Ok(TransportKind::Cells)
    );

    // Hybrid threads resolve from KAMSTA_THREADS (default 1); a value
    // that is not a positive integer is a typed error, not a silent
    // t = 1 run, and with_threads wins over the environment.
    std::env::remove_var("KAMSTA_THREADS");
    assert_eq!(MachineConfig::new(2).resolve().map(|r| r.threads), Ok(1));
    std::env::set_var("KAMSTA_THREADS", "4");
    assert_eq!(MachineConfig::new(2).resolve().map(|r| r.threads), Ok(4));
    for bad in ["two", "0"] {
        std::env::set_var("KAMSTA_THREADS", bad);
        let cfg = MachineConfig::new(2);
        assert_eq!(cfg.resolve(), Err(MachineError::InvalidThreads(bad.into())));
        assert!(Machine::try_run(cfg, |_| ()).is_err());
        assert_eq!(
            MachineConfig::new(2)
                .with_threads(2)
                .resolve()
                .map(|r| r.threads),
            Ok(2)
        );
    }
    std::env::remove_var("KAMSTA_THREADS");

    // A rendezvous on a non-socket transport is rejected — with_rendezvous
    // implies sockets, so only an explicit override hits it.
    let mut cfg = MachineConfig::new(2).with_rendezvous("127.0.0.1:7000");
    cfg.transport = Some(TransportKind::Cells);
    assert!(matches!(cfg.resolve(), Err(MachineError::SocketConfig(_))));

    // Rendezvous discovery cannot be driven by the in-process runner.
    assert!(matches!(
        Machine::try_run(
            MachineConfig::new(2).with_rendezvous("127.0.0.1:7000"),
            |_| ()
        ),
        Err(MachineError::SocketConfig(_))
    ));
    assert!(matches!(
        MachineConfig::new(2).with_rendezvous("?").resolve(),
        Err(MachineError::SocketConfig(_))
    ));

    // Errors render a human-readable message for service logs.
    assert!(MachineError::NoPes.to_string().contains("at least one PE"));
    assert!(MachineError::UnknownTransport("x".into())
        .to_string()
        .contains("KAMSTA_TRANSPORT"));
    assert!((MachineError::PeCountMismatch {
        expected: 4,
        got: 2
    })
    .to_string()
    .contains("fixed at 4"));
    assert!(MachineError::UnknownTransport("x".into())
        .to_string()
        .contains("sockets"));
    assert!(MachineError::InvalidThreads("two".into())
        .to_string()
        .contains("KAMSTA_THREADS"));
}
