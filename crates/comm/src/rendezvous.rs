//! The launcher rendezvous: how the worker processes of a
//! multi-process sockets machine learn their ranks and each other's
//! addresses before they form the mesh (`mesh.rs`).
//!
//! Each worker binds an ephemeral listener, dials the launcher, says
//! hello (optionally claiming a rank) and reports its address;
//! once all `p` have arrived the launcher assigns the unclaimed ranks
//! and sends everyone the rank-indexed address table. Rendezvous
//! streams are blocking and short-lived; every wait is bounded by the
//! handshake timeout.

use crate::mesh::{connect_retry, hello, read_hello, Handshake};
use crate::transport::TransportError;
use crate::wire::{self, FrameHeader, Wire, CH_DATA, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Magic carried in the `b` field of rendezvous frames, as
/// [`crate::mesh::HELLO_MAGIC`] is in hello frames.
const RENDEZVOUS_MAGIC: u64 = 0x6B61_6D73_7461_2D72; // "kamsta-r"

/// Blocking read of frame number `seq` of the rendezvous exchange with
/// `peer`, decoded.
fn read_frame<T: Wire>(
    stream: &TcpStream,
    peer: usize,
    seq: u64,
    budget: &Handshake,
) -> Result<T, TransportError> {
    let h = budget.read_header(stream, peer)?;
    if h.len > MAX_FRAME_PAYLOAD {
        return Err(TransportError::Protocol(format!(
            "oversized rendezvous frame: {} bytes",
            h.len
        )));
    }
    if h.b != RENDEZVOUS_MAGIC || h.a != seq {
        return Err(TransportError::Protocol(format!(
            "rendezvous frame {seq} out of order"
        )));
    }
    let mut payload = vec![0u8; h.len as usize];
    (&mut &*stream)
        .read_exact(&mut payload)
        .map_err(|e| budget.io_error(peer, &e))?;
    wire::decode(&payload).map_err(|e| TransportError::Protocol(format!("rendezvous frame: {e}")))
}

fn write_frame(
    stream: &TcpStream,
    peer: usize,
    seq: u64,
    value: &impl Wire,
) -> Result<(), TransportError> {
    let payload = wire::encode(value);
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    FrameHeader {
        channel: CH_DATA,
        a: seq,
        b: RENDEZVOUS_MAGIC,
        len: payload.len() as u32,
        sum: 0,
    }
    .write(&mut frame);
    frame.extend_from_slice(&payload);
    (&mut &*stream)
        .write_all(&frame)
        .map_err(|e| TransportError::from_io(peer, &e))
}

/// Serve the launcher side of the rank-assignment handshake: accept `p`
/// workers on `listener`, assign each a rank (honouring claimed ranks,
/// filling the rest in arrival order), and broadcast the address table.
/// Returns the table, rank-indexed.
///
/// `abort` is polled while waiting; returning `Some(reason)` fails the
/// rendezvous immediately (the launcher passes child-death detection
/// through it, so one dead worker cannot stall the others to the full
/// timeout). A rendezvous that times out half-assembled reports the
/// claimed ranks that did arrive and the ranks still missing
/// ([`TransportError::MeshIncomplete`]) — the operator's cue which
/// worker to go look at.
pub fn serve_rendezvous(
    listener: &TcpListener,
    p: usize,
    timeout: Duration,
    mut abort: impl FnMut() -> Option<String>,
) -> Result<Vec<SocketAddr>, TransportError> {
    assert!(p > 0);
    let budget = Handshake::new(timeout);
    let dialler = TransportError::UNIDENTIFIED;
    listener
        .set_nonblocking(true)
        .map_err(|e| TransportError::Io(format!("rendezvous listener: {e}")))?;
    // (stream, claimed rank or MAX, advertised address)
    let mut arrivals: Vec<(TcpStream, u64, String)> = Vec::with_capacity(p);
    while arrivals.len() < p {
        if let Some(reason) = abort() {
            return Err(TransportError::Protocol(format!(
                "rendezvous aborted: {reason}"
            )));
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let claimed = read_hello(&stream, &budget)?.a;
                let addr: String = read_frame(&stream, dialler, 0, &budget)?;
                arrivals.push((stream, claimed, addr));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if budget.left().is_zero() {
                    let mut joined: Vec<usize> = arrivals
                        .iter()
                        .filter(|(_, claimed, _)| *claimed != u64::MAX)
                        .map(|(_, claimed, _)| *claimed as usize)
                        .collect();
                    joined.sort_unstable();
                    let missing: Vec<usize> = (0..p).filter(|r| !joined.contains(r)).collect();
                    return Err(TransportError::MeshIncomplete {
                        joined,
                        missing,
                        waited: timeout,
                    });
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(TransportError::Io(format!("rendezvous accept: {e}"))),
        }
    }

    // Rank assignment: claimed ranks are honoured, the unclaimed fill
    // the remaining slots in arrival order.
    let mut ranks: Vec<Option<usize>> = vec![None; p];
    let mut slots: Vec<Option<usize>> = vec![None; p]; // rank -> arrival
    for (i, (_, claimed, _)) in arrivals.iter().enumerate() {
        if *claimed == u64::MAX {
            continue;
        }
        let r = *claimed as usize;
        if r >= p {
            return Err(TransportError::Protocol(format!(
                "worker claimed rank {r} of a {p}-PE machine"
            )));
        }
        if slots[r].is_some() {
            return Err(TransportError::Protocol(format!(
                "two workers claimed rank {r}"
            )));
        }
        slots[r] = Some(i);
        ranks[i] = Some(r);
    }
    let mut next_free = 0usize;
    for (i, rank) in ranks.iter_mut().enumerate() {
        if rank.is_none() {
            while slots[next_free].is_some() {
                next_free += 1;
            }
            slots[next_free] = Some(i);
            *rank = Some(next_free);
        }
    }

    let mut table: Vec<SocketAddr> = Vec::with_capacity(p);
    for slot in &slots {
        let i = slot.expect("every rank assigned");
        let addr = arrivals[i].2.parse().map_err(|_| {
            TransportError::Protocol(format!("worker advertised bad address {:?}", arrivals[i].2))
        })?;
        table.push(addr);
    }

    let strings: Vec<String> = table.iter().map(|a| a.to_string()).collect();
    for (i, (stream, _, _)) in arrivals.iter().enumerate() {
        let rank = ranks[i].expect("every arrival ranked");
        write_frame(stream, rank, 1, &(rank as u64, strings.clone()))?;
    }
    Ok(table)
}

/// Worker side of the rendezvous: bind an ephemeral listener, report it
/// to the launcher at `rendezvous` (claiming `preferred` when given),
/// and receive the assigned rank plus the full address table. The
/// returned listener is the one peers will dial for the mesh.
pub(crate) fn rendezvous_client(
    rendezvous: &str,
    preferred: Option<usize>,
    timeout: Duration,
) -> Result<(usize, TcpListener, Vec<SocketAddr>), TransportError> {
    let budget = Handshake::new(timeout);
    let launcher = TransportError::LAUNCHER;
    let host: SocketAddr = rendezvous
        .parse()
        .map_err(|_| TransportError::Protocol(format!("bad rendezvous address {rendezvous:?}")))?;
    // Bind on the same interface the launcher is reachable on.
    let listener = TcpListener::bind((host.ip(), 0))
        .map_err(|e| TransportError::Io(format!("worker listener: {e}")))?;
    let my_addr = listener
        .local_addr()
        .map_err(|e| TransportError::Io(format!("worker listener: {e}")))?;

    let mut stream = connect_retry(host, launcher, &budget)?;
    stream
        .write_all(&hello(preferred.map_or(u64::MAX, |r| r as u64)))
        .map_err(|e| TransportError::from_io(launcher, &e))?;
    write_frame(&stream, launcher, 0, &my_addr.to_string())?;

    let (rank, strings): (u64, Vec<String>) = read_frame(&stream, launcher, 1, &budget)?;
    let mut table = Vec::with_capacity(strings.len());
    for s in &strings {
        table.push(s.parse().map_err(|_| {
            TransportError::Protocol(format!("rendezvous table entry {s:?} unparsable"))
        })?);
    }
    Ok((rank as usize, listener, table))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendezvous_assigns_claimed_and_free_ranks() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let timeout = Duration::from_secs(5);
        let mut joins = Vec::new();
        for preferred in [Some(2usize), None, Some(0)] {
            let addr = addr.clone();
            joins.push(std::thread::spawn(move || {
                rendezvous_client(&addr, preferred, timeout).unwrap()
            }));
        }
        let table = serve_rendezvous(&listener, 3, timeout, || None).unwrap();
        assert_eq!(table.len(), 3);
        let mut got: Vec<(Option<usize>, usize)> = Vec::new();
        for (pref, j) in [Some(2usize), None, Some(0)].into_iter().zip(joins) {
            let (rank, _, t) = j.join().unwrap();
            assert_eq!(t, table);
            got.push((pref, rank));
        }
        for (pref, rank) in &got {
            if let Some(p) = pref {
                assert_eq!(rank, p, "claimed ranks are honoured");
            }
        }
        let mut ranks: Vec<usize> = got.iter().map(|(_, r)| *r).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1, 2]);
    }

    #[test]
    fn rendezvous_rejects_duplicate_claims() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let timeout = Duration::from_secs(5);
        let joins: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || rendezvous_client(&addr, Some(1), timeout))
            })
            .collect();
        let err = serve_rendezvous(&listener, 2, timeout, || None).unwrap_err();
        assert!(
            matches!(err, TransportError::Protocol(ref m) if m.contains("claimed rank")),
            "{err:?}"
        );
        for j in joins {
            let _ = j.join(); // clients error out or time out; either is fine
        }
    }

    /// No handshake error may print the rank-less party as a rank or
    /// claim it waited no time at all.
    fn assert_names_the_launcher(err: &TransportError) {
        let msg = err.to_string();
        assert!(msg.contains("the launcher"), "{msg}");
        assert!(
            !msg.contains("0ns") && !msg.contains(&usize::MAX.to_string()),
            "{msg}"
        );
    }

    #[test]
    fn rendezvous_timeout_names_the_missing_ranks() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let timeout = Duration::from_millis(300);
        // One worker of a claimed pair shows up; the other never does.
        let join = {
            let addr = addr.clone();
            std::thread::spawn(move || rendezvous_client(&addr, Some(0), Duration::from_secs(2)))
        };
        let err = serve_rendezvous(&listener, 2, timeout, || None).unwrap_err();
        match err {
            TransportError::MeshIncomplete {
                joined, missing, ..
            } => {
                assert_eq!(joined, vec![0]);
                assert_eq!(missing, vec![1]);
            }
            other => panic!("expected MeshIncomplete, got {other:?}"),
        }
        // The worker that did arrive sees the launcher hang up on it.
        let err = join.join().unwrap().unwrap_err();
        assert!(matches!(err, TransportError::PeerClosed { .. }), "{err:?}");
        assert_names_the_launcher(&err);
    }

    #[test]
    fn a_launcher_that_never_answers_is_named_and_timed() {
        // The listener's backlog takes the connection; nobody serves it.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let timeout = Duration::from_millis(150);
        let err = rendezvous_client(&addr, None, timeout).unwrap_err();
        assert!(
            matches!(err, TransportError::Timeout { waited, .. } if waited >= timeout),
            "{err:?}"
        );
        assert_names_the_launcher(&err);
    }
}
