//! The transport boundary: one collective layer, two backends.
//!
//! Every collective in this crate is written **once**, against the three
//! primitives below; each primitive has a shared-cells implementation
//! (the epoch-stamped zero-copy blackboard of `cells.rs`) and a
//! byte-lane implementation on the lane of `lane.rs`, which carries
//! [`Wire`]-encoded frames over TCP streams (`sockets`):
//!
//! 1. **Blackboard round** ([`XRound`]) — post one typed value with a
//!    recipient set ([`To`]), barrier, read/take peers' values. Cells:
//!    publish in place for as many consumers as the set names, readers
//!    borrow inside a scoped read ([`XRound::read_all`]) and the last
//!    one drops the value. Lane: encode once, enqueue per recipient,
//!    receivers decode ([`XRound::read_owned`] moves the decode out).
//! 2. **Flat exchange** ([`crate::Comm::raw_exchange_flat`]) — deliver
//!    `bufs.bucket(j)` to every PE `j`. Cells: publish the whole
//!    [`FlatBuckets`] once, each receiver slices its bucket from the
//!    peers' cells (zero-copy). Lane: encode each destination's bucket
//!    with a varint count header into its pair queue, and decode each
//!    source's straight into the result. Its scoped form
//!    ([`crate::Comm::alltoallv_runs`]) hands a consumer the runs where
//!    they lie instead — the peers' cells, or one decode per peer and
//!    this PE's own bucket — so a caller that only reads them (the
//!    sample sort's merge) never owns a receive buffer.
//! 3. **Paired flat exchange** ([`crate::Comm::paired_flat_round_with`])
//!    — the grid route's payload + sub-message-count header in a single
//!    round.
//!
//! The paired exchange's pattern is declared on **both** sides: the
//! sender names the PEs that will pop from it (`send_to`), the receiver
//! the PEs it pops from (`recv_from`), and the two must describe the
//! same edge set. The cells backend publishes for `send_to.len()`
//! consumers, so a PE named there that never reads leaves the lane owing
//! one, and its owner's next publish into that lane panics; the byte
//! backend delivers exactly those frames. Receivers read each source
//! **at most once per round** (the byte queues are consumed, and a cell
//! read finishes one consumer).
//!
//! Modeled α/β charges live in the collectives above this boundary,
//! never in the primitives, and count `size_of`-based logical bytes —
//! so the cost counters of a run are bit-for-bit identical under both
//! backends, which the determinism suites exploit as a cross-transport
//! oracle.

use crate::cells::Round;
use crate::comm::Comm;
use crate::flat::{FlatBuckets, FlatBuilder};
use crate::machine::MachineError;
use crate::wire::{self, Wire, WireReader};
use std::cell::RefCell;
use std::time::Duration;

/// Which transport a machine's collectives run over.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// Epoch-stamped typed exchange cells: in-process, zero-copy.
    #[default]
    Cells,
    /// The byte lane: `Wire`-encoded frames on per-PE-pair TCP streams,
    /// across threads or OS processes.
    Sockets,
}

impl TransportKind {
    /// Resolve the transport from `KAMSTA_TRANSPORT` (`cells` |
    /// `sockets`; unset means [`TransportKind::Cells`]). An unrecognised
    /// value is a configuration error, surfaced through
    /// [`crate::MachineConfig::resolve`] rather than silently ignored.
    pub fn from_env() -> Result<Self, MachineError> {
        match std::env::var("KAMSTA_TRANSPORT") {
            Err(_) => Ok(TransportKind::Cells),
            Ok(v) => match v.as_str() {
                "cells" => Ok(TransportKind::Cells),
                "sockets" => Ok(TransportKind::Sockets),
                other => Err(MachineError::UnknownTransport(other.to_string())),
            },
        }
    }
}

/// A runtime failure of the transport layer: a peer that died, a wait
/// that hit its deadline, or a frame stream that violated the SPMD
/// protocol. Surfaced from [`crate::Machine::try_run`] as
/// [`MachineError::Transport`] — typed, never a hang, never a plain
/// panic string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The connection to `peer` is gone (clean close, reset, or process
    /// death — indistinguishable by design). `peer` is a rank — or,
    /// here and in [`TransportError::Timeout`], one of the rank-less
    /// parties of a handshake, [`TransportError::LAUNCHER`] and
    /// [`TransportError::UNIDENTIFIED`]. `mid_frame` is set when the
    /// stream ended inside a frame, pointing at a crash rather than an
    /// orderly shutdown.
    PeerClosed { peer: usize, mid_frame: bool },
    /// A send or receive involving `peer` exceeded the machine's io
    /// timeout.
    Timeout { peer: usize, waited: Duration },
    /// Mesh construction or launcher rendezvous timed out with only part
    /// of the machine present: `joined` is who made it, `missing` who
    /// never showed — the actionable half of a formation failure (which
    /// host to go look at).
    MeshIncomplete {
        joined: Vec<usize>,
        missing: Vec<usize>,
        waited: Duration,
    },
    /// The peer spoke, but wrongly: out-of-order round, type-tag
    /// mismatch, malformed or oversized frame, failed decode.
    Protocol(String),
    /// An OS-level socket error not better classified above.
    Io(String),
}

impl TransportError {
    /// `peer` of a failure talking to the launcher's rendezvous server,
    /// which has no rank.
    pub const LAUNCHER: usize = usize::MAX;
    /// `peer` of a failure talking to a dialler that had not yet said
    /// which rank it is.
    pub const UNIDENTIFIED: usize = usize::MAX - 1;

    /// Classify an io error on the connection to `peer`.
    pub(crate) fn from_io(peer: usize, e: &std::io::Error) -> Self {
        use std::io::ErrorKind::*;
        match e.kind() {
            ConnectionReset | ConnectionAborted | BrokenPipe | UnexpectedEof => {
                TransportError::PeerClosed {
                    peer,
                    mid_frame: false,
                }
            }
            _ => TransportError::Io(format!("{}: {e}", Party(peer))),
        }
    }
}

/// The far end of a connection, as error messages name it.
struct Party(usize);

impl std::fmt::Display for Party {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            TransportError::LAUNCHER => write!(f, "the launcher"),
            TransportError::UNIDENTIFIED => write!(f, "a dialler that never identified itself"),
            rank => write!(f, "PE {rank}"),
        }
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::PeerClosed { peer, mid_frame } => {
                let how = if *mid_frame { " mid-frame" } else { "" };
                write!(f, "{} closed its connection{how}", Party(*peer))
            }
            TransportError::Timeout { peer, waited } => {
                write!(f, "timed out after {waited:?} waiting on {}", Party(*peer))
            }
            TransportError::MeshIncomplete {
                joined,
                missing,
                waited,
            } => {
                write!(
                    f,
                    "machine formation timed out after {waited:?}: \
                     ranks {joined:?} joined, ranks {missing:?} missing"
                )
            }
            TransportError::Protocol(m) => write!(f, "transport protocol violation: {m}"),
            TransportError::Io(m) => write!(f, "transport io error: {m}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Abort the calling PE with a typed transport error. The machine
/// runner downcasts the payload and converts it to
/// [`MachineError::Transport`] instead of resuming the unwind, so a
/// transport failure deep inside a collective surfaces as an `Err` from
/// `try_run`, not a crash.
pub(crate) fn raise(e: TransportError) -> ! {
    std::panic::panic_any(e)
}

/// Recipient set of a blackboard post. The cells backend publishes for
/// as many consumers as it names; the byte backend encodes once and
/// enqueues exactly these frames.
#[derive(Clone, Copy, Debug)]
pub(crate) enum To {
    /// Every other PE of the communicator (plus the local slot).
    All,
    /// One PE (possibly self).
    One(usize),
}

/// One blackboard round over whichever backend the communicator uses.
pub(crate) enum XRound<'c, T: Send + 'static> {
    Cells(&'c Comm, Round<T>),
    Lane(LaneRound<'c, T>),
}

/// Byte-lane state of one blackboard round: frames through the
/// communicator's lane plus a local slot
/// standing in for "my own cell" — self-delivery never touches the lane.
pub(crate) struct LaneRound<'c, T> {
    comm: &'c Comm,
    seq: u64,
    local: RefCell<Option<T>>,
}

impl<'c, T: Wire + Send + 'static> LaneRound<'c, T> {
    pub(crate) fn new(comm: &'c Comm, seq: u64) -> Self {
        Self {
            comm,
            seq,
            local: RefCell::new(None),
        }
    }

    fn post(&self, to: To, value: T) {
        let me = self.comm.rank();
        let tag = wire::type_tag::<T>();
        match to {
            To::All => {
                // Encode exactly once into a pooled buffer; the lane
                // shares the bytes across all p − 1 destinations.
                let mut buf = self.comm.buf_take();
                wire::encode_into(&value, &mut buf);
                self.comm.lane_broadcast(self.seq, tag, buf);
            }
            To::One(dst) if dst != me => {
                let mut buf = self.comm.buf_take();
                wire::encode_into(&value, &mut buf);
                self.comm.lane_send(dst, self.seq, tag, buf);
            }
            To::One(_) => {}
        }
        *self.local.borrow_mut() = Some(value);
    }

    fn take(&self, src: usize) -> T {
        if src == self.comm.rank() {
            self.local
                .borrow_mut()
                .take()
                .expect("byte-lane round: own value taken twice or never posted")
        } else {
            let tag = wire::type_tag::<T>();
            self.comm
                .lane_pop_with(src, self.seq, tag, "round", wire::decode)
        }
    }
}

impl<T: Wire + Send + 'static> XRound<'_, T> {
    /// Post this PE's value for the round (before the barrier).
    pub(crate) fn post(&self, to: To, value: T) {
        match self {
            XRound::Cells(comm, r) => r.publish(
                value,
                match to {
                    To::All => comm.size(),
                    To::One(_) => 1,
                },
            ),
            XRound::Lane(b) => b.post(to, value),
        }
    }

    /// The value PE `src` posted this round (after the barrier), by
    /// ownership: cloned out of its cell, or the byte lane's decode
    /// moved out. At most one read or take per source per round.
    pub(crate) fn read_owned(&self, src: usize) -> T
    where
        T: Clone + Sync,
    {
        match self {
            XRound::Cells(comm, r) => comm.read_cells(r, [src], |v| v[0].clone()),
            XRound::Lane(b) => b.take(src),
        }
    }

    /// Hand `f` every PE's posted value, in rank order (after the
    /// barrier): borrowed from the cells, or decoded off the byte lane.
    pub(crate) fn read_all<R>(&self, f: impl FnOnce(&[&T]) -> R) -> R
    where
        T: Sync,
    {
        match self {
            XRound::Cells(comm, r) => comm.read_cells(r, 0..comm.size(), f),
            XRound::Lane(b) => {
                let owned: Vec<T> = (0..b.comm.size()).map(|src| b.take(src)).collect();
                f(&owned.iter().collect::<Vec<_>>())
            }
        }
    }

    /// Move PE `src`'s posted value out of the round.
    pub(crate) fn take(&self, src: usize) -> T {
        match self {
            XRound::Cells(_, r) => r.take(src),
            XRound::Lane(b) => b.take(src),
        }
    }
}

/// A relayed grid message on the cells backend: payload buckets indexed
/// by next-hop PE plus, per next-hop, the `u32` lengths of the
/// sub-messages in canonical order — the flat header that replaces
/// per-message tagging.
pub(crate) struct GridMsg<T> {
    pub(crate) data: FlatBuckets<T>,
    pub(crate) sub: FlatBuckets<u32>,
}

impl Comm {
    /// Start a blackboard round on the communicator's transport.
    pub(crate) fn xround<T: Wire + Send + 'static>(&self) -> XRound<'_, T> {
        if self.has_byte_lane() {
            XRound::Lane(LaneRound::new(self, self.next_seq()))
        } else {
            XRound::Cells(self, self.cells_round::<T>())
        }
    }

    /// **Paired flat exchange** (transport primitive 3): one round
    /// delivering `(data.bucket(j), sub.bucket(j))` to PE `j` — the grid
    /// route's payload plus its flat `u32` count header, without paying a
    /// second barrier. `consume` receives `(data, sub)` slices per source
    /// in `recv_from` order.
    pub(crate) fn paired_flat_round_with<T, R>(
        &self,
        data: FlatBuckets<T>,
        sub: FlatBuckets<u32>,
        send_to: &[usize],
        recv_from: &[usize],
        consume: impl FnOnce(&[(&[T], &[u32])]) -> R,
    ) -> R
    where
        T: Wire + Clone + Send + Sync + 'static,
    {
        let me = self.rank();
        match self.has_byte_lane() {
            false => {
                let round = self.cells_round::<GridMsg<T>>();
                round.publish(GridMsg { data, sub }, send_to.len());
                self.sync();
                self.read_cells(&round, recv_from.iter().copied(), |msgs| {
                    let parts: Vec<(&[T], &[u32])> = msgs
                        .iter()
                        .map(|m| (m.data.bucket(me), m.sub.bucket(me)))
                        .collect();
                    consume(&parts)
                })
            }
            true => {
                let seq = self.next_seq();
                let tag = wire::type_tag::<GridMsg<T>>();
                // Self-delivery stays off the wire, as in `raw_exchange_flat`.
                for &dst in send_to {
                    if dst == me {
                        continue;
                    }
                    let mut out = self.buf_take();
                    wire::write_slice(&mut out, sub.bucket(dst));
                    wire::write_slice(&mut out, data.bucket(dst));
                    self.lane_send(dst, seq, tag, out);
                }
                self.sync();
                let owned: Vec<(Vec<T>, Vec<u32>)> = recv_from
                    .iter()
                    .filter(|&&src| src != me)
                    .map(|&src| {
                        self.lane_pop_with(src, seq, tag, "paired flat exchange", |bytes| {
                            let mut r = WireReader::new(bytes);
                            let s = wire::read_vec::<u32>(&mut r)?;
                            let d = wire::read_vec::<T>(&mut r)?;
                            r.finish()?;
                            Ok((d, s))
                        })
                    })
                    .collect();
                let mut decoded = owned.iter();
                let parts: Vec<(&[T], &[u32])> = recv_from
                    .iter()
                    .map(|&src| {
                        if src == me {
                            (data.bucket(me), sub.bucket(me))
                        } else {
                            let (d, s) = decoded.next().expect("one decode per remote source");
                            (d.as_slice(), s.as_slice())
                        }
                    })
                    .collect();
                consume(&parts)
            }
        }
    }

    /// **Flat exchange** (transport primitive 2): deliver
    /// `bufs.bucket(j)` to PE `j` for every `j`; bucket `src` of the
    /// result is the payload PE `src` addressed to this PE. Charges
    /// nothing — callers charge per their pattern.
    pub(crate) fn raw_exchange_flat<T: Wire + Clone + Send + Sync + 'static>(
        &self,
        bufs: FlatBuckets<T>,
    ) -> FlatBuckets<T> {
        let (p, me) = (self.size(), self.rank());
        debug_assert_eq!(bufs.buckets(), p, "one bucket per destination PE");
        if p == 1 {
            return bufs;
        }
        if !self.has_byte_lane() {
            // Publish the whole buffer once; each receiver slices its
            // bucket out of the peers' cells (zero-copy). Every PE reads
            // every buffer once, so the last to copy its bucket out drops
            // the buffer, before the caller's next allocation.
            let round = self.cells_round::<FlatBuckets<T>>();
            round.publish(bufs, p);
            self.sync();
            return self.read_cells(&round, 0..p, |sent| {
                let total = sent.iter().map(|peer| peer.count(me)).sum();
                let mut out = FlatBuilder::with_capacity(total, p);
                for peer in sent {
                    out.extend_from_slice(peer.bucket(me));
                    out.seal();
                }
                out.finish(p)
            });
        }
        // Byte lane: each peer's frame decodes straight into the result
        // payload via `FlatBuilder::extend_from_wire` — no intermediate
        // per-peer `Vec<T>` between the recycled frame buffer and the
        // result.
        let (seq, tag) = self.lane_send_buckets(&bufs);
        let mut out = FlatBuilder::with_capacity(0, p);
        for src in 0..p {
            if src == me {
                out.extend_from_slice(bufs.bucket(me));
            } else {
                self.lane_pop_with(src, seq, tag, "flat exchange", |bytes| {
                    let mut r = WireReader::new(bytes);
                    out.extend_from_wire(&mut r)?;
                    r.finish()
                });
            }
            out.seal();
        }
        out.finish(p)
    }

    /// **Scoped flat exchange** (transport primitive 2, borrowed):
    /// deliver `bufs.bucket(j)` to PE `j` for every `j`, as the owned
    /// flat exchange does, but hand `consume` one run per source, in
    /// source order, where the run lies — no owned receive buffer.
    /// Cells: the peers' published buckets, read zero-copy inside one
    /// scoped read (the last consumer still drops each buffer). Lane: each
    /// peer's frame decoded once; this PE's own run is read from `bufs`.
    /// `consume` does local work only — no collective: on cells every
    /// peer's buffer stays published until it returns. Charges nothing —
    /// callers charge per their pattern.
    pub fn alltoallv_runs<T, R>(
        &self,
        bufs: FlatBuckets<T>,
        consume: impl FnOnce(&[&[T]]) -> R,
    ) -> R
    where
        T: Wire + Clone + Send + Sync + 'static,
    {
        let (p, me) = (self.size(), self.rank());
        debug_assert_eq!(bufs.buckets(), p, "one bucket per destination PE");
        if p == 1 {
            return consume(&[bufs.bucket(0)]);
        }
        if !self.has_byte_lane() {
            let round = self.cells_round::<FlatBuckets<T>>();
            round.publish(bufs, p);
            self.sync();
            return self.read_cells(&round, 0..p, |sent| {
                let runs: Vec<&[T]> = sent.iter().map(|peer| peer.bucket(me)).collect();
                consume(&runs)
            });
        }
        let (seq, tag) = self.lane_send_buckets(&bufs);
        let decoded: Vec<Vec<T>> = (0..p)
            .map(|src| {
                if src == me {
                    return Vec::new();
                }
                self.lane_pop_with(src, seq, tag, "flat exchange", |bytes| {
                    let mut r = WireReader::new(bytes);
                    let run = wire::read_vec::<T>(&mut r)?;
                    r.finish()?;
                    Ok(run)
                })
            })
            .collect();
        let runs: Vec<&[T]> = (0..p)
            .map(|src| {
                if src == me {
                    bufs.bucket(me)
                } else {
                    &decoded[src]
                }
            })
            .collect();
        consume(&runs)
    }

    /// The byte-lane send half of both flat exchanges: one coalesced
    /// frame per (peer, round), each destination's bucket serialized into
    /// a pooled buffer that the lane recycles once the bytes are on the
    /// wire, then the round's barrier. Self-delivery never touches the
    /// wire. Returns the round's `(seq, tag)` for the receive half.
    fn lane_send_buckets<T: Wire + 'static>(&self, bufs: &FlatBuckets<T>) -> (u64, u64) {
        let me = self.rank();
        let seq = self.next_seq();
        let tag = wire::type_tag::<FlatBuckets<T>>();
        for dst in (0..self.size()).filter(|&dst| dst != me) {
            let mut out = self.buf_take();
            wire::write_slice(&mut out, bufs.bucket(dst));
            self.lane_send(dst, seq, tag, out);
        }
        self.sync();
        (seq, tag)
    }
}

#[cfg(test)]
mod tests {
    use crate::{FlatBuckets, Machine, MachineConfig, TransportKind};

    /// Both sides of a paired round must declare the same edge set. On
    /// cells, a `send_to` naming a PE that never reads leaves the lane
    /// owing that consumer: the owner's next publish into the lane (its
    /// round after next of the type) panics instead of leaking the value.
    #[test]
    #[should_panic(expected = "publish of epoch 3 found 1 consumers of epoch 1 unfinished")]
    fn a_paired_send_nobody_reads_panics_on_cells() {
        let cfg = MachineConfig::new(2).with_transport(TransportKind::Cells);
        Machine::run(cfg, |comm| {
            // Rank 0 names rank 1 as a reader; rank 1 reads nobody.
            let send_to: &[usize] = if comm.rank() == 0 { &[1] } else { &[] };
            for _ in 0..3 {
                let data = FlatBuckets::from_nested(vec![vec![7u64], vec![8]]);
                let sub = FlatBuckets::from_nested(vec![vec![1u32], vec![1]]);
                comm.paired_flat_round_with(data, sub, send_to, &[], |parts| parts.len());
            }
        });
    }
}
