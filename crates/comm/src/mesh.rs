//! Forming the TCP mesh of a sockets-transport machine: one stream per
//! unordered PE pair, handed to the byte lane as its pipes.
//!
//! [`connect`] builds the mesh from a rank-indexed address table: rank
//! `i` **connects** to every rank `j < i` (sending a [`CH_HELLO`] frame
//! naming itself) and **accepts** from every `j > i` on its own
//! listener, in whatever order those peers dial in — the hello
//! identifies them. Connect refusals are retried until the
//! **handshake** deadline (peers bind their listeners at different
//! times), so arbitrarily staggered start-up is tolerated up to that
//! timeout; a formation failure reports exactly which ranks joined and
//! which never showed ([`TransportError::MeshIncomplete`]).

use crate::transport::TransportError;
use crate::wire::{FrameHeader, CH_HELLO, FRAME_HEADER_LEN};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Magic carried in the `b` field of hello frames, guarding against a
/// non-kamsta peer (or a different protocol revision) joining the mesh.
pub(crate) const HELLO_MAGIC: u64 = 0x6B61_6D73_7461_2D38; // "kamsta-8"

/// The time budget of one mesh or rendezvous formation.
#[derive(Clone, Copy)]
pub(crate) struct Handshake {
    started: Instant,
    limit: Duration,
}

impl Handshake {
    pub(crate) fn new(limit: Duration) -> Self {
        Self {
            started: Instant::now(),
            limit,
        }
    }

    pub(crate) fn left(&self) -> Duration {
        self.limit.saturating_sub(self.started.elapsed())
    }

    /// The budget ran out waiting on `peer`.
    pub(crate) fn timed_out(&self, peer: usize) -> TransportError {
        TransportError::Timeout {
            peer,
            waited: self.started.elapsed(),
        }
    }

    /// Classify a blocking read/write failure on the stream to `peer`:
    /// the read timeout set by [`Handshake::read_header`] firing is this
    /// budget running out.
    pub(crate) fn io_error(&self, peer: usize, e: &std::io::Error) -> TransportError {
        match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => self.timed_out(peer),
            _ => TransportError::from_io(peer, e),
        }
    }

    /// Blocking read of one frame header from `peer`. Leaves `stream`
    /// blocking, with what is left of the budget as its read timeout —
    /// the read of a payload behind the header is bounded by it too.
    pub(crate) fn read_header(
        &self,
        stream: &TcpStream,
        peer: usize,
    ) -> Result<FrameHeader, TransportError> {
        let left = self.left();
        if left.is_zero() {
            return Err(self.timed_out(peer));
        }
        stream
            .set_nonblocking(false)
            .and_then(|()| stream.set_read_timeout(Some(left)))
            .map_err(|e| TransportError::from_io(peer, &e))?;
        let mut head = [0u8; FRAME_HEADER_LEN];
        (&mut &*stream)
            .read_exact(&mut head)
            .map_err(|e| self.io_error(peer, &e))?;
        FrameHeader::parse(&head)
            .map_err(|e| TransportError::Protocol(format!("handshake frame: {e}")))
    }
}

/// Build this rank's streams of the mesh from a rank-indexed address
/// table. `listener` must already be bound to `addrs[rank]` (peers are
/// dialling it). Blocks until all `p − 1` streams are up or the
/// `handshake` deadline expires — a partial mesh fails with
/// [`TransportError::MeshIncomplete`] naming who made it and who is
/// missing. The streams come back in the lane's regime: non-blocking,
/// `TCP_NODELAY`, indexed by peer (`None` at `rank`).
pub(crate) fn connect(
    rank: usize,
    listener: TcpListener,
    addrs: &[SocketAddr],
    handshake: Duration,
) -> Result<Vec<Option<TcpStream>>, TransportError> {
    let p = addrs.len();
    assert!(rank < p, "mesh rank out of range");
    let budget = Handshake::new(handshake);
    let mut streams: Vec<Option<TcpStream>> = (0..p).map(|_| None).collect();
    let incomplete = |streams: &[Option<TcpStream>]| {
        let (joined, missing) = (0..p).partition(|&j| j == rank || streams[j].is_some());
        TransportError::MeshIncomplete {
            joined,
            missing,
            waited: handshake,
        }
    };

    // Dial every lower rank, identifying ourselves with a hello.
    for (j, addr) in addrs.iter().enumerate().take(rank) {
        let mut stream = match connect_retry(*addr, j, &budget) {
            Ok(s) => s,
            Err(TransportError::Timeout { .. }) => return Err(incomplete(&streams)),
            Err(e) => return Err(e),
        };
        stream
            .write_all(&hello(rank as u64))
            .map_err(|e| TransportError::from_io(j, &e))?;
        streams[j] = Some(stream);
    }

    // Accept from every higher rank, in arrival order.
    listener
        .set_nonblocking(true)
        .map_err(|e| TransportError::Io(format!("listener: {e}")))?;
    let mut missing = p - 1 - rank;
    while missing > 0 {
        match listener.accept() {
            Ok((stream, _)) => {
                let peer = read_hello(&stream, &budget)?.a as usize;
                if peer <= rank || peer >= p {
                    return Err(TransportError::Protocol(format!(
                        "mesh hello from unexpected rank {peer}"
                    )));
                }
                if streams[peer].is_some() {
                    return Err(TransportError::Protocol(format!(
                        "duplicate mesh connection from rank {peer}"
                    )));
                }
                streams[peer] = Some(stream);
                missing -= 1;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if budget.left().is_zero() {
                    return Err(incomplete(&streams));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(TransportError::Io(format!("accept: {e}"))),
        }
    }

    // Switch to the non-blocking regime of the data plane.
    for (j, stream) in streams.iter().enumerate() {
        if let Some(s) = stream {
            s.set_nodelay(true).ok();
            s.set_nonblocking(true)
                .map_err(|e| TransportError::from_io(j, &e))?;
        }
    }
    Ok(streams)
}

/// An encoded [`CH_HELLO`] frame claiming `rank` (`u64::MAX`: none).
pub(crate) fn hello(rank: u64) -> [u8; FRAME_HEADER_LEN] {
    FrameHeader {
        channel: CH_HELLO,
        a: rank,
        b: HELLO_MAGIC,
        len: 0,
        sum: 0,
    }
    .to_array()
}

/// Connect to `addr`, retrying refusals until the budget runs out — the
/// peer may simply not have bound its listener yet.
pub(crate) fn connect_retry(
    addr: SocketAddr,
    peer: usize,
    budget: &Handshake,
) -> Result<TcpStream, TransportError> {
    loop {
        let left = budget.left();
        if left.is_zero() {
            return Err(budget.timed_out(peer));
        }
        match TcpStream::connect_timeout(&addr, left) {
            Ok(s) => return Ok(s),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::ConnectionRefused
                        | ErrorKind::ConnectionReset
                        | ErrorKind::TimedOut
                        | ErrorKind::AddrNotAvailable
                ) =>
            {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(TransportError::from_io(peer, &e)),
        }
    }
}

/// Blocking read of exactly one header-only hello frame with the right
/// magic from a dialler that has not identified itself yet.
pub(crate) fn read_hello(
    stream: &TcpStream,
    budget: &Handshake,
) -> Result<FrameHeader, TransportError> {
    let h = budget.read_header(stream, TransportError::UNIDENTIFIED)?;
    if h.channel != CH_HELLO || h.b != HELLO_MAGIC {
        return Err(TransportError::Protocol(format!(
            "expected a kamsta hello frame, got channel {} with magic {:#x}",
            h.channel, h.b
        )));
    }
    Ok(h)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Arc;

    type Streams = Result<Vec<Option<TcpStream>>, TransportError>;

    /// Bind `p` loopback listeners and let the first `show_up` ranks
    /// form their part of the mesh, one thread each.
    fn form(p: usize, show_up: usize, timeout: Duration) -> Vec<Streams> {
        let listeners: Vec<TcpListener> = (0..p)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let addrs = Arc::new(addrs);
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .take(show_up)
            .map(|(rank, listener)| {
                let addrs = Arc::clone(&addrs);
                std::thread::spawn(move || connect(rank, listener, &addrs, timeout))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    /// A full loopback mesh: `mesh[rank][peer]`.
    pub(crate) fn loopback(p: usize, timeout: Duration) -> Vec<Vec<Option<TcpStream>>> {
        form(p, p, timeout)
            .into_iter()
            .map(Result::unwrap)
            .collect()
    }

    #[test]
    fn mesh_timeout_reports_joined_and_missing_ranks() {
        // Three slots in the table, but rank 2 never shows up.
        for formed in form(3, 2, Duration::from_millis(400)) {
            let err = formed.unwrap_err();
            match err {
                TransportError::MeshIncomplete {
                    joined, missing, ..
                } => {
                    assert_eq!(joined, vec![0, 1]);
                    assert_eq!(missing, vec![2]);
                }
                other => panic!("expected MeshIncomplete, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_silent_dialler_is_named_and_timed() {
        // Something connects and never says hello: the error must name
        // it as what it is — not as "PE 18446744073709551615" — and
        // report how long the handshake really waited, not "0ns".
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _silent = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let err = read_hello(&stream, &Handshake::new(Duration::from_millis(100))).unwrap_err();
        assert!(
            matches!(err, TransportError::Timeout { waited, .. } if waited >= Duration::from_millis(100)),
            "{err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains("never identified itself"), "{msg}");
        assert!(
            !msg.contains("0ns") && !msg.contains(&usize::MAX.to_string()),
            "{msg}"
        );
    }
}
