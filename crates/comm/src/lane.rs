//! The byte lane: length-prefixed [`Wire`](crate::wire) frames between
//! every pair of PEs, over a [`Pipe`] per pair.
//!
//! `TransportKind::Sockets` is this lane on non-blocking TCP streams —
//! between threads of one process (`Machine::try_run`) or between OS
//! processes spawned by the `kamsta_launch` binary
//! (`Machine::try_run_worker`). The lane is generic over the pipe so
//! that everything platform-specific stays in `pipe.rs`. The collective
//! layer above the transport boundary is untouched: the three
//! primitives of `transport.rs` route their encoded buckets through
//! [`Lane::send`] and [`Lane::recv_data`], and the dissemination
//! barrier runs over [`CH_BARRIER`] frames.
//!
//! ## Framing and the round discipline
//!
//! Collectives are SPMD-ordered, so every PE advances an identical
//! round sequence number ([`crate::Comm`] owns the counter). Each data
//! frame carries the sender's sequence number and the payload type tag;
//! a receiver waiting for round `s`:
//!
//! * discards frames with `seq < s` — posts of earlier rounds that no
//!   protocol step ever consumed (the byte analogue of a stale cell
//!   lane being overwritten two epochs later); injected *duplicate*
//!   frames are absorbed by the same rule, since the original of round
//!   `s` is consumed before its twin is ever inspected;
//! * fails with a typed [`TransportError::Protocol`] on `seq > s` or a
//!   type-tag mismatch — a PE skipped a send or the collectives ran out
//!   of order.
//!
//! Received frames are demultiplexed by channel, so data frames and
//! barrier signals interleave freely on the pair pipes.
//!
//! ## The progress engine
//!
//! All-to-all rounds write to every peer before reading from any. With
//! blocking pipes two PEs whose send buffers fill would deadlock
//! writing to each other; every pipe is therefore **non-blocking**, and
//! both the send and the receive path run a pump loop: on `WouldBlock`,
//! park in [`Pipe::wait`], drain the pipes that came back readable into
//! their links' pending queues, then retry until the io deadline.
//!
//! ## Liveness probes
//!
//! A PE blocked in a receive sends a tiny [`CH_PING`] request to the
//! peer it is waiting on every probe interval (a fraction of the io
//! timeout); any live lane answers with a pong from its pump. The
//! probe's value is the **write**: an idle receiver otherwise never
//! writes, so a connection that died without delivering end-of-stream
//! (peer host gone, cable pulled) would only surface at the full io
//! deadline — the failing ping write surfaces it in O(probe interval)
//! instead. A missing *pong* is deliberately not a death verdict: the
//! lane is single-threaded by design, so a peer deep in computation
//! pumps nothing and answers nothing while perfectly healthy.
//!
//! ## Failure model and fault injection
//!
//! Every wait is bounded by the machine's io timeout and every failure
//! is a typed [`TransportError`], never a hang: end-of-stream on a link
//! is [`TransportError::PeerClosed`] (flagged `mid_frame` when the
//! stream died inside a frame), a deadline miss is
//! [`TransportError::Timeout`], and out-of-order rounds, tag
//! mismatches, oversized or malformed frames are
//! [`TransportError::Protocol`]. Teardown is by drop: a PE that errors
//! (or finishes) closes its pipes, which surfaces at its peers as
//! `PeerClosed` on their next receive — graceful exit and process death
//! look the same, which is the point.
//!
//! With a [`FaultyTransport`] armed, the send path injects the plan's
//! faults per frame: transient ones (delays, short writes, duplicates,
//! retransmit-with-backoff) are absorbed by stream reassembly and the
//! stale-frame discard; lethal ones corrupt the frame *after* its
//! checksum is stamped, so the receiver detects them as typed errors —
//! a wrong answer is off the table. See `crate::fault` for the
//! taxonomy.

use crate::fault::{frame_checksum, FaultyTransport, LethalKind};
use crate::pipe::Pipe;
use crate::transport::TransportError;
use crate::wire::{
    self, FrameHeader, CH_BARRIER, CH_DATA, CH_PING, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD,
};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often a blocked receive probes its peer with a [`CH_PING`]: a
/// fraction of the io timeout, clamped so probes neither spam loopback
/// runs with tight timeouts nor wait minutes under huge ones.
fn ping_interval(io_timeout: Duration) -> Duration {
    (io_timeout / 8).clamp(Duration::from_millis(10), Duration::from_millis(500))
}

/// One decoded data-plane frame waiting to be consumed.
struct DataFrame {
    seq: u64,
    tag: u64,
    bytes: Vec<u8>,
}

/// The pending queues of one link. A pipe preserves order, and the SPMD
/// round order makes that arrival order the consumption order — so plain
/// FIFOs suffice.
#[derive(Default)]
struct Pending {
    data: VecDeque<DataFrame>,
    barrier: VecDeque<(u64, u64)>,
}

/// One live pipe to a peer plus its parse state.
struct Link<P> {
    pipe: P,
    /// Stream reassembly buffer: `rd[..rd_len]` holds the received, not
    /// yet frame-parsed bytes (at most one partial frame plus whatever
    /// arrived behind it in the last read burst); the rest is read
    /// window, zeroed once when the buffer grows and reused from then on.
    rd: Vec<u8>,
    rd_len: usize,
    /// Size of the next read — see [`Link::pump`].
    window: usize,
    /// Control-plane bytes (pings/pongs) waiting for pipe space. The
    /// backlog is always flushed before data frames so control frames
    /// never interleave into the middle of a data frame.
    wr_backlog: Vec<u8>,
    /// The peer's end is gone (end-of-stream or reset observed).
    closed: bool,
    pending: Pending,
    /// Ping requests received and not yet answered with a pong.
    ping_reqs: VecDeque<u64>,
    /// Nonce of the next ping this side sends.
    pings_sent: u64,
    /// Pongs received — liveness telemetry only, never a death verdict
    /// (a computing peer legitimately answers nothing; see module docs).
    #[allow(dead_code)]
    pongs: u64,
    /// Reads performed on this link (keys the short-read fault draw).
    reads: u64,
    /// Retired payload buffers awaiting reuse: consumed data frames
    /// return their `Vec` here and `parse_frames` refills from it, so
    /// steady-state rounds allocate nothing on the receive path.
    spare: Vec<Vec<u8>>,
}

/// Read sizes — see [`Link::pump`]: a link's window starts at
/// `WINDOW_MIN` and grows to `WINDOW_MAX`; a read inside an announced
/// frame asks for up to `FRAME_READ_MAX`.
const WINDOW_MIN: usize = 512;
const WINDOW_MAX: usize = 64 * 1024;
const FRAME_READ_MAX: usize = 4 * 1024 * 1024;

/// Bound of each link's spare-buffer freelist: enough to cover the
/// frames in flight of one superstep, small enough that retired
/// capacity cannot pile up.
const SPARE_BUFS: usize = 8;

/// Return a consumed (or stale) frame's buffer to a link's freelist.
fn recycle(spare: &mut Vec<Vec<u8>>, mut buf: Vec<u8>) {
    if spare.len() < SPARE_BUFS {
        buf.clear();
        spare.push(buf);
    }
}

impl<P: Pipe> Link<P> {
    fn new(pipe: P) -> Self {
        Self {
            pipe,
            rd: Vec::new(),
            rd_len: 0,
            window: WINDOW_MIN,
            wr_backlog: Vec::new(),
            closed: false,
            pending: Pending::default(),
            ping_reqs: VecDeque::new(),
            pings_sent: 0,
            pongs: 0,
            reads: 0,
            spare: Vec::new(),
        }
    }

    /// Drain everything currently readable (non-blocking) and parse
    /// complete frames into the pending queues; answer any pings that
    /// arrived.
    fn pump(&mut self, peer: usize, fx: Option<&FaultyTransport>) -> Result<(), TransportError> {
        if self.closed {
            return Ok(());
        }
        loop {
            // Every read lands in `rd` directly, behind the bytes already
            // there — no bounce buffer. Once a header is in, each read
            // asks for all that is missing of the frame it announces,
            // up to `FRAME_READ_MAX` (and `rd` grows by that much at a
            // time: sizing it to a multi-megabyte frame in one step
            // read faster in isolation and cost `gnm-sockets` 4 % end
            // to end — EXPERIMENTS.md, "One byte lane"). Until then the
            // window is the link's own, which starts small (a PE keeps
            // p − 1 of them, most carrying barrier signals only) and
            // doubles whenever a read fills it. A short-read fault
            // shrinks one read's window, fragmenting frame arrival
            // across reads — reassembly absorbs it.
            let need = self.frame_need();
            let cap = fx
                .and_then(|f| f.read_chunk(peer, self.reads))
                .unwrap_or_else(|| need.clamp(self.window, FRAME_READ_MAX));
            self.reads = self.reads.wrapping_add(1);
            let end = self.rd_len + cap;
            if self.rd.len() < end {
                self.rd.resize(end, 0);
            }
            match self.pipe.read(&mut self.rd[self.rd_len..end]) {
                Ok(0) => {
                    self.closed = true;
                    break;
                }
                Ok(n) => {
                    self.rd_len += n;
                    // A window read that filled earns a larger window.
                    // One that came back short with whole frames only
                    // drained the pipe — no second call just to be told
                    // so. With a frame half-arrived at the head (before
                    // or after this read), stay on the stream.
                    if need == 0 && n == cap {
                        self.window = (2 * self.window).min(WINDOW_MAX);
                    } else if need == 0 && self.frame_need() == 0 {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.hung_up(peer, &e)?;
                    break;
                }
            }
        }
        self.parse_frames(peer, fx)?;
        self.answer_pings(peer, fx)
    }

    /// How many more bytes the partial frame at the head of `rd` still
    /// needs (0 when there is no parseable header yet). `rd` always
    /// starts at a frame boundary — `parse_frames` drains whole frames —
    /// and a header lying about its length is `parse_frames`' to reject,
    /// not this function's to allocate for.
    fn frame_need(&self) -> usize {
        self.rd[..self.rd_len]
            .get(..FRAME_HEADER_LEN)
            .and_then(|head| FrameHeader::parse(head).ok())
            .filter(|h| h.len <= MAX_FRAME_PAYLOAD)
            .map_or(0, |h| {
                (FRAME_HEADER_LEN + h.len as usize).saturating_sub(self.rd_len)
            })
    }

    /// A failed read or control write closes the link. A connection-level
    /// failure (a reset) is an end-of-stream that lost a race — the peer
    /// exited with a frame of ours still unread, a duplicate or a pong —
    /// so it does no more than that: what arrived before it is still
    /// parsed and served, and `PeerClosed` is for the receive that finds
    /// its frame missing. Anything else is this PE's own io error.
    fn hung_up(&mut self, peer: usize, e: &std::io::Error) -> Result<(), TransportError> {
        self.closed = true;
        match TransportError::from_io(peer, e) {
            TransportError::PeerClosed { .. } => Ok(()),
            other => Err(other),
        }
    }

    fn parse_frames(
        &mut self,
        peer: usize,
        fx: Option<&FaultyTransport>,
    ) -> Result<(), TransportError> {
        let mut off = 0;
        loop {
            let split = wire::split_frame(&self.rd[off..self.rd_len])
                .map_err(|e| TransportError::Protocol(format!("frame from PE {peer}: {e}")))?;
            let Some((h, total)) = split else {
                break; // partial frame: wait for the rest
            };
            let payload = &self.rd[off + FRAME_HEADER_LEN..off + total];
            // With faults armed every frame carries a checksum; verify
            // before demultiplexing so corruption can never be served
            // as an answer.
            if fx.is_some() && frame_checksum(h.channel, h.a, h.b, payload) != h.sum {
                return Err(TransportError::Protocol(format!(
                    "frame from PE {peer} failed its checksum (corrupt frame)"
                )));
            }
            off += total;
            match h.channel {
                CH_DATA => {
                    // Land the payload in a recycled buffer: the only
                    // copy on the whole receive path (out of the
                    // stream reassembly buffer), into capacity retired
                    // by an earlier round.
                    let mut bytes = self.spare.pop().unwrap_or_default();
                    bytes.extend_from_slice(payload);
                    self.pending.data.push_back(DataFrame {
                        seq: h.a,
                        tag: h.b,
                        bytes,
                    })
                }
                CH_BARRIER => self.pending.barrier.push_back((h.a, h.b)),
                CH_PING if h.b == 0 => self.ping_reqs.push_back(h.a),
                CH_PING => self.pongs += 1,
                _ => {
                    return Err(TransportError::Protocol(format!(
                        "unexpected hello frame from PE {peer} after mesh construction"
                    )))
                }
            }
        }
        self.rd.copy_within(off..self.rd_len, 0);
        self.rd_len -= off;
        Ok(())
    }

    /// Turn queued ping requests into pong frames and flush as much of
    /// the control backlog as the pipe accepts right now.
    fn answer_pings(
        &mut self,
        peer: usize,
        fx: Option<&FaultyTransport>,
    ) -> Result<(), TransportError> {
        while let Some(nonce) = self.ping_reqs.pop_front() {
            push_ping_frame(&mut self.wr_backlog, nonce, 1, fx);
        }
        self.flush_backlog(peer)
    }

    /// Flush pending control bytes. A connection-level failure here is
    /// the liveness probe doing its job: mark the link closed so the
    /// caller's receive path surfaces `PeerClosed` immediately.
    fn flush_backlog(&mut self, peer: usize) -> Result<(), TransportError> {
        while !self.wr_backlog.is_empty() && !self.closed {
            match self.pipe.write_vectored(&[IoSlice::new(&self.wr_backlog)]) {
                Ok(0) => self.closed = true,
                Ok(n) => {
                    self.wr_backlog.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => self.hung_up(peer, &e)?,
            }
        }
        Ok(())
    }

    /// Pop the round-`seq` data frame if it has arrived, discarding stale frames of earlier rounds along the way
    /// (posted but never consumed, or injected duplicates of consumed
    /// rounds; their buffers go back to the freelist). A later round or
    /// another payload type at the queue head is a protocol violation.
    fn take_data(
        &mut self,
        peer: usize,
        seq: u64,
        tag: u64,
        what: &str,
    ) -> Result<Option<DataFrame>, TransportError> {
        let Self { pending, spare, .. } = self;
        let queue = &mut pending.data;
        while let Some(front) = queue.front() {
            if front.seq < seq {
                let stale = queue.pop_front().expect("front just probed");
                recycle(spare, stale.bytes);
                continue;
            }
            if front.seq > seq {
                return Err(TransportError::Protocol(format!(
                    "{what} of round {seq}: found frame of round {} from PE {peer} — \
                     a PE skipped a send or collectives ran out of order",
                    front.seq
                )));
            }
            if front.tag != tag {
                return Err(TransportError::Protocol(format!(
                    "{what} of round {seq} from PE {peer}: expected payload type tag \
                     {tag:#x}, found {:#x} — the PEs disagree on what this round carries",
                    front.tag
                )));
            }
            return Ok(queue.pop_front());
        }
        Ok(None)
    }

    /// Pop the barrier signal with exactly `code` if it has arrived.
    ///
    /// Per (pair, episode) the protocol emits exactly one
    /// barrier frame in each direction — the dissemination offsets
    /// `2^k mod p` are pairwise distinct over the rounds — and the
    /// pipe's FIFO order plus the SPMD collective order make arrival
    /// order match episode order. Codes are strictly increasing per
    /// link, so a frame with a *smaller* code than
    /// expected can only be an injected duplicate of an already-consumed
    /// signal: it is discarded as stale. A *larger* code means this PE
    /// missed a signal for good — a protocol error.
    fn take_barrier(&mut self, peer: usize, code: u64) -> Result<Option<u64>, TransportError> {
        let queue = &mut self.pending.barrier;
        while let Some(&(got, bits)) = queue.front() {
            if got > code {
                return Err(TransportError::Protocol(format!(
                    "barrier signal out of order from PE {peer}: \
                     expected code {code:#x}, found {got:#x}"
                )));
            }
            queue.pop_front();
            if got == code {
                return Ok(Some(bits));
            }
        }
        Ok(None)
    }
}

/// The encoded header of one frame, its checksum stamped iff fault
/// hooks are armed (`fx`).
fn stamped_header(
    fx: Option<&FaultyTransport>,
    channel: u8,
    a: u64,
    b: u64,
    payload: &[u8],
) -> [u8; FRAME_HEADER_LEN] {
    FrameHeader {
        channel,
        a,
        b,
        len: payload.len() as u32,
        sum: fx.map_or(0, |_| frame_checksum(channel, a, b, payload)),
    }
    .to_array()
}

/// Append one encoded [`CH_PING`] frame (`dir` 0 = request, 1 = pong).
fn push_ping_frame(out: &mut Vec<u8>, nonce: u64, dir: u64, fx: Option<&FaultyTransport>) {
    out.extend_from_slice(&stamped_header(fx, CH_PING, nonce, dir, &[]));
}

/// Byte offset of the `b` field in an encoded [`FrameHeader`].
const HEADER_B_OFFSET: usize = 1 + 8;

/// `links[peer]`; `None` exactly at `peer == rank`.
type Links<P> = [Option<Link<P>>];

fn link_mut<P>(links: &mut Links<P>, peer: usize) -> &mut Link<P> {
    links[peer]
        .as_mut()
        .expect("no lane link to self or out-of-range peer")
}

/// This PE's end of the full mesh: one [`Link`] per peer.
pub(crate) struct Lane<P: Pipe> {
    rank: usize,
    /// Steady-state deadline of every send and receive.
    timeout: Duration,
    /// Armed fault-injection engine; `None` is the zero-cost fast path.
    faults: Option<Arc<FaultyTransport>>,
    /// The lane is **single-consumer**: it belongs to one PE's `Comm`,
    /// which is `!Sync`, and a send or receive borrows the links for its
    /// whole call, blocking waits included.
    links: RefCell<Box<Links<P>>>,
}

impl<P: Pipe> Lane<P> {
    /// A lane over `pipes[peer]` (`None` at `rank`), every wait bounded
    /// by `timeout`.
    pub(crate) fn new(
        rank: usize,
        pipes: Vec<Option<P>>,
        timeout: Duration,
        faults: Option<Arc<FaultyTransport>>,
    ) -> Self {
        debug_assert!(pipes[rank].is_none(), "no pipe to self");
        Self {
            rank,
            timeout,
            faults,
            links: RefCell::new(pipes.into_iter().map(|p| p.map(Link::new)).collect()),
        }
    }

    /// Park until `peer`'s link has bytes (`writing`: or room again) or
    /// another link needs draining, then pump exactly the links that
    /// came back readable instead of sweeping all p − 1 on every wake.
    /// `peer`'s link is open: both callers check before they block.
    fn wait_and_pump(
        &self,
        links: &mut Links<P>,
        peer: usize,
        writing: bool,
        timeout: Duration,
    ) -> Result<(), TransportError> {
        fn open<P>((key, link): (usize, &Option<Link<P>>)) -> Option<(usize, &P)> {
            Some((key, &link.as_ref().filter(|l| !l.closed)?.pipe))
        }
        let others = links.iter().enumerate().filter(|(key, _)| *key != peer);
        let awaited = open((peer, &links[peer])).expect("blocked on an open link");
        for ready in P::wait(awaited, writing, others.filter_map(open), timeout) {
            link_mut(links, ready).pump(ready, self.faults.as_deref())?;
        }
        Ok(())
    }

    /// Queue a [`CH_PING`] request to `peer` and push it out. A probe
    /// whose write fails at the connection level marks the link closed —
    /// that is the O(probe interval) death detection of a peer whose
    /// disappearance never produced a readable end-of-stream.
    fn send_ping(&self, links: &mut Links<P>, peer: usize) -> Result<(), TransportError> {
        let link = link_mut(links, peer);
        if link.closed {
            return Ok(()); // the receive path will surface PeerClosed
        }
        let nonce = link.pings_sent;
        link.pings_sent += 1;
        push_ping_frame(&mut link.wr_backlog, nonce, 0, self.faults.as_deref());
        link.flush_backlog(peer)
    }

    /// Put bytes `..upto` of the frame `header ‖ payload` on `peer`'s
    /// pipe, at most `cap` of them per write call, pumping receives
    /// while the pipe is full (see the module docs on the all-to-all
    /// deadlock). Control backlog, header tail and payload tail are
    /// gathered into a single `write_vectored` call — the frame is
    /// never assembled into a contiguous buffer and the common case is
    /// one write per (peer, round).
    fn write_frame(
        &self,
        links: &mut Links<P>,
        peer: usize,
        header: &[u8; FRAME_HEADER_LEN],
        payload: &[u8],
        cap: usize,
        upto: usize,
    ) -> Result<(), TransportError> {
        let mut deadline = None; // set when the pipe first fills up
        let mut off: usize = 0; // frame bytes (header + payload) on the wire
        loop {
            let Link {
                pipe,
                wr_backlog,
                closed,
                ..
            } = link_mut(links, peer);
            let gone = |off| TransportError::PeerClosed {
                peer,
                mid_frame: off > 0,
            };
            if *closed {
                return Err(gone(off));
            }
            while off < upto {
                let end = upto.min(off.saturating_add(cap));
                let head = off.min(FRAME_HEADER_LEN)..end.min(FRAME_HEADER_LEN);
                let body = off.max(FRAME_HEADER_LEN)..end.max(FRAME_HEADER_LEN);
                // Backlog first: queued pings/pongs must never land
                // inside this data frame.
                let slices = [
                    IoSlice::new(wr_backlog),
                    IoSlice::new(&header[head]),
                    IoSlice::new(
                        &payload[body.start - FRAME_HEADER_LEN..body.end - FRAME_HEADER_LEN],
                    ),
                ];
                match pipe.write_vectored(&slices) {
                    Ok(0) => return Err(gone(off)),
                    Ok(n) => {
                        let from_backlog = n.min(wr_backlog.len());
                        wr_backlog.drain(..from_backlog);
                        off += n - from_backlog;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => return Err(TransportError::from_io(peer, &e)),
                }
            }
            if off == upto {
                return Ok(());
            }
            let now = Instant::now();
            let left = deadline
                .get_or_insert(now + self.timeout)
                .saturating_duration_since(now);
            if left.is_zero() {
                return Err(TransportError::Timeout {
                    peer,
                    waited: self.timeout,
                });
            }
            // Pipe full: park until the peer's pump makes room or any
            // link becomes readable (the all-to-all deadlock guard).
            self.wait_and_pump(links, peer, true, left.min(Duration::from_millis(500)))?;
        }
    }

    /// The one receive loop: pump `peer`'s link and offer it to `take`
    /// until that yields, the link closes or the io deadline passes,
    /// probing the peer's liveness while blocked.
    fn recv<T>(
        &self,
        peer: usize,
        mut take: impl FnMut(&mut Link<P>) -> Result<Option<T>, TransportError>,
    ) -> Result<T, TransportError> {
        let mut links = self.links.borrow_mut();
        // (io deadline, next probe): set when the receive first blocks —
        // a frame that is already there costs no clock read.
        let mut clock = None;
        loop {
            let link = link_mut(&mut links, peer);
            link.pump(peer, self.faults.as_deref())?;
            if let Some(got) = take(link)? {
                return Ok(got);
            }
            if link.closed {
                return Err(TransportError::PeerClosed {
                    peer,
                    mid_frame: link.rd_len > 0,
                });
            }
            let now = Instant::now();
            let probe_every = ping_interval(self.timeout);
            let (deadline, next_probe) =
                clock.get_or_insert((now + self.timeout, now + probe_every));
            if now > *deadline {
                return Err(TransportError::Timeout {
                    peer,
                    waited: self.timeout,
                });
            }
            if now >= *next_probe {
                *next_probe = now + probe_every;
                self.send_ping(&mut links, peer)?;
            }
            let nap = (*deadline).min(*next_probe).saturating_duration_since(now);
            self.wait_and_pump(&mut links, peer, false, nap)?;
        }
    }

    /// Send one frame to `peer` on `channel` ([`CH_DATA`]: `a` = round
    /// sequence, `b` = payload type tag; [`CH_BARRIER`]: `a` = `episode
    /// << 8 | round`, `b` = the clock maximum as bits, empty payload).
    ///
    /// With faults armed, the frame's drawn schedule is applied here, in
    /// the one send path: a pre-send delay, transient refusals each
    /// followed by a capped-exponential backoff (they never put a byte
    /// on the wire, so the eventual transmission is whole and the
    /// receiver sees nothing unusual), short writes as a per-call byte
    /// cap, a duplicate as a second transmission, and the plan's lethal
    /// fault as a corrupted byte or a cut point after which every pipe
    /// goes down.
    pub(crate) fn send(
        &self,
        peer: usize,
        channel: u8,
        a: u64,
        b: u64,
        payload: &[u8],
    ) -> Result<(), TransportError> {
        debug_assert!(payload.len() <= MAX_FRAME_PAYLOAD as usize);
        let mut payload = payload;
        let fx = self.faults.as_deref();
        let mut header = stamped_header(fx, channel, a, b, payload);
        let total = FRAME_HEADER_LEN + payload.len();
        let (mut cap, mut cut, mut copies) = (usize::MAX, total, 1);
        let corrupt;
        if let Some(fx) = fx {
            let sf = fx.send_faults(channel, self.rank, peer, a);
            if let Some(d) = sf.delay {
                std::thread::sleep(d);
            }
            for attempt in 0..sf.failed_attempts {
                std::thread::sleep(fx.backoff(sf.key, attempt));
            }
            cap = sf.write_chunk.unwrap_or(usize::MAX);
            match sf.lethal {
                // The receiver's stale-frame discard absorbs the twin.
                None => copies += usize::from(sf.duplicate),
                // Flip one bit *after* the checksum was stamped: the
                // frame still parses, but the receiver's verify fails
                // with a typed protocol error. Sender-side this send
                // "succeeds" — exactly how silent corruption looks.
                Some(LethalKind::BitFlip) if payload.is_empty() => {
                    let bit = fx.flip_bit(sf.key, 64);
                    header[HEADER_B_OFFSET + bit / 8] ^= 1 << (bit % 8);
                }
                Some(LethalKind::BitFlip) => {
                    let mut bytes = payload.to_vec();
                    let bit = fx.flip_bit(sf.key, bytes.len() * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                    corrupt = bytes;
                    payload = &corrupt;
                }
                // The header plus half the payload, then every pipe
                // closes: the peer observes end-of-stream inside a frame.
                Some(LethalKind::Truncate) => cut = FRAME_HEADER_LEN + payload.len() / 2,
                // Pull the cable: a few bytes of header, then the same.
                Some(LethalKind::Disconnect) => cut = FRAME_HEADER_LEN / 2,
            }
        }
        let mut links = self.links.borrow_mut();
        for _ in 0..copies {
            let sent = self.write_frame(&mut links, peer, &header, payload, cap, cut);
            if cut < total {
                // The partial frame went out as far as the pipe took it;
                // the injection proceeds to the teardown either way.
                for l in links.iter_mut().flatten() {
                    l.pipe.shutdown();
                    l.closed = true;
                }
                return Err(TransportError::Io(format!(
                    "injected fault: frame to PE {peer} cut after {cut} of {total} bytes, \
                     every link torn down"
                )));
            }
            sent?;
            cap = usize::MAX; // the duplicate rides the reliable path
        }
        Ok(())
    }

    /// Receive the round-`seq` data frame from `peer` and consume it in
    /// place: `f` gets a borrowed view of the payload (decoded straight
    /// out of the recycled receive buffer, which goes back to the link's
    /// freelist afterwards — no copy).
    pub(crate) fn recv_data<R>(
        &self,
        peer: usize,
        seq: u64,
        tag: u64,
        what: &str,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, TransportError> {
        let frame = self.recv(peer, |link| link.take_data(peer, seq, tag, what))?;
        let out = f(&frame.bytes);
        recycle(
            &mut link_mut(&mut self.links.borrow_mut(), peer).spare,
            frame.bytes,
        );
        Ok(out)
    }

    /// Receive the barrier signal with exactly `code` from `peer`;
    /// returns the clock bits it carries.
    pub(crate) fn recv_barrier(&self, peer: usize, code: u64) -> Result<u64, TransportError> {
        self.recv(peer, |link| link.take_barrier(peer, code))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, LethalFault};
    use std::net::TcpStream;

    const T: Duration = Duration::from_secs(5);

    fn lanes(p: usize, timeout: Duration, plan: Option<FaultPlan>) -> Vec<Lane<TcpStream>> {
        let faults = plan.map(|pl| Arc::new(FaultyTransport::new(pl)));
        crate::mesh::tests::loopback(p, T)
            .into_iter()
            .enumerate()
            .map(|(rank, pipes)| Lane::new(rank, pipes, timeout, faults.clone()))
            .collect()
    }

    fn send_data(l: &Lane<TcpStream>, peer: usize, seq: u64, tag: u64, payload: &[u8]) {
        l.send(peer, CH_DATA, seq, tag, payload).unwrap();
    }

    fn recv_data(
        l: &Lane<TcpStream>,
        peer: usize,
        seq: u64,
        tag: u64,
    ) -> Result<Vec<u8>, TransportError> {
        l.recv_data(peer, seq, tag, "test", <[u8]>::to_vec)
    }

    /// Write raw bytes to `peer`, bypassing the framing.
    fn write_raw(l: &Lane<TcpStream>, peer: usize, bytes: &[u8]) {
        let mut links = l.links.borrow_mut();
        let link = link_mut(&mut links, peer);
        link.wr_backlog.extend_from_slice(bytes);
        link.flush_backlog(peer).unwrap();
        assert!(link.wr_backlog.is_empty(), "test frames fit the pipe");
    }

    fn data_header(len: u32) -> Vec<u8> {
        FrameHeader {
            channel: CH_DATA,
            a: 1,
            b: 7,
            len,
            sum: 0,
        }
        .to_array()
        .to_vec()
    }

    fn lethal(kind: LethalKind) -> Option<FaultPlan> {
        Some(FaultPlan::seeded(5).with_lethal(LethalFault {
            rank: 0,
            kind,
            at_seq: 0,
        }))
    }

    #[test]
    fn data_frames_roundtrip() {
        let l = lanes(2, T, None);
        send_data(&l[0], 1, 1, 42, &[1, 2, 3, 4]);
        assert_eq!(recv_data(&l[1], 0, 1, 42).unwrap(), [1, 2, 3, 4]);
    }

    #[test]
    fn stale_frames_are_discarded() {
        let l = lanes(2, T, None);
        send_data(&l[0], 1, 1, 7, b"old"); // never consumed
        send_data(&l[0], 1, 3, 7, b"new");
        assert_eq!(recv_data(&l[1], 0, 3, 7).unwrap(), b"new");
    }

    #[test]
    fn future_frame_is_a_protocol_error() {
        let l = lanes(2, T, None);
        send_data(&l[0], 1, 5, 7, b"x");
        let err = recv_data(&l[1], 0, 2, 7).unwrap_err();
        assert!(
            matches!(err, TransportError::Protocol(ref m)
                if m.contains("skipped a send") && m.contains("round 5")),
            "{err:?}"
        );
    }

    #[test]
    fn tag_mismatch_is_a_protocol_error() {
        let l = lanes(2, T, None);
        send_data(&l[0], 1, 1, 7, b"x");
        let err = recv_data(&l[1], 0, 1, 8).unwrap_err();
        // The round matched; the report must name the tags, not
        // claim a frame "of round 1" was found in round 1.
        assert!(
            matches!(err, TransportError::Protocol(ref m)
                if m.contains("expected payload type tag 0x8, found 0x7")
                    && !m.contains("found frame of round")),
            "{err:?}"
        );
    }

    #[test]
    fn peer_drop_surfaces_as_peer_closed() {
        let mut l = lanes(2, T, None);
        drop(l.remove(0));
        let err = recv_data(&l[0], 0, 1, 7).unwrap_err();
        let closed = TransportError::PeerClosed {
            peer: 0,
            mid_frame: false,
        };
        assert_eq!(err, closed);
    }

    #[test]
    fn send_to_a_finished_peer_is_not_an_error() {
        // A PE that finished its program no longer reads; a peer may
        // still owe it an injected duplicate or a frame no protocol
        // step consumes. That send must go through (into the void).
        let mut l = lanes(2, T, None);
        drop(l.remove(1));
        send_data(&l[0], 1, 1, 7, b"unread");
    }

    #[test]
    fn frames_before_a_reset_are_still_delivered() {
        // PE 1 finishes with a frame of PE 0's (a duplicate, say)
        // still unread: TCP answers that close with a reset. What
        // PE 1 sent before leaving must still reach PE 0.
        let mut l = lanes(2, T, None);
        send_data(&l[1], 0, 1, 7, b"last words");
        send_data(&l[0], 1, 1, 7, b"never read");
        drop(l.remove(1));
        std::thread::sleep(Duration::from_millis(20)); // let the reset land
        assert_eq!(recv_data(&l[0], 1, 1, 7).unwrap(), b"last words");
    }

    #[test]
    fn missing_frame_times_out_with_bound() {
        let timeout = Duration::from_millis(150);
        let l = lanes(2, timeout, None);
        let t0 = Instant::now();
        let err = recv_data(&l[1], 0, 1, 7).unwrap_err();
        assert!(
            matches!(err, TransportError::Timeout { peer: 0, .. }),
            "{err:?}"
        );
        assert!(t0.elapsed() < timeout * 20, "timeout must be bounded");
    }

    #[test]
    fn oversized_frame_header_is_rejected() {
        let l = lanes(2, T, None);
        write_raw(&l[0], 1, &data_header(MAX_FRAME_PAYLOAD + 1));
        let err = recv_data(&l[1], 0, 1, 7).unwrap_err();
        assert!(
            matches!(err, TransportError::Protocol(ref m) if m.contains("oversized")),
            "{err:?}"
        );
    }

    #[test]
    fn truncated_frame_surfaces_as_mid_frame_close() {
        let l = lanes(2, T, None);
        // A valid header promising 100 bytes, then only 3, then the
        // end of the stream.
        let mut frame = data_header(100);
        frame.extend_from_slice(b"abc");
        write_raw(&l[0], 1, &frame);
        Pipe::shutdown(&mut link_mut(&mut l[0].links.borrow_mut(), 1).pipe);
        let err = recv_data(&l[1], 0, 1, 7).unwrap_err();
        let closed = TransportError::PeerClosed {
            peer: 0,
            mid_frame: true,
        };
        assert_eq!(err, closed);
    }

    #[test]
    fn pings_are_answered_by_the_peer_pump() {
        let l = lanes(2, T, None);
        l[0].send_ping(&mut l[0].links.borrow_mut(), 1).unwrap();
        // Let PE 1's pump answer and PE 0's pump collect the pong.
        let t0 = Instant::now();
        loop {
            link_mut(&mut l[1].links.borrow_mut(), 0)
                .pump(0, None)
                .unwrap();
            link_mut(&mut l[0].links.borrow_mut(), 1)
                .pump(1, None)
                .unwrap();
            if link_mut(&mut l[0].links.borrow_mut(), 1).pongs > 0 {
                break;
            }
            assert!(t0.elapsed() < T, "pong never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        // The probe traffic is invisible to the data plane.
        send_data(&l[0], 1, 1, 42, b"after-ping");
        assert_eq!(recv_data(&l[1], 0, 1, 42).unwrap(), b"after-ping");
    }

    #[test]
    fn transient_faults_are_absorbed_bit_identically() {
        let plan = FaultPlan::seeded(23)
            .with_delays(0.3, 60)
            .with_short_writes(0.5)
            .with_short_reads(0.5)
            .with_duplicates(0.4)
            .with_retries(0.4);
        let l = lanes(2, Duration::from_secs(10), Some(plan));
        let payload: Vec<u8> = (0..997u32).flat_map(|x| x.to_le_bytes()).collect();
        for round in 0..24u64 {
            send_data(&l[0], 1, round, 7, &payload);
            send_data(&l[1], 0, round, 7, &payload);
            assert_eq!(recv_data(&l[1], 0, round, 7).unwrap(), payload);
            assert_eq!(recv_data(&l[0], 1, round, 7).unwrap(), payload);
        }
    }

    #[test]
    fn duplicate_barrier_signals_are_discarded_as_stale() {
        let l = lanes(2, T, None);
        let code1 = 1u64 << 8; // episode 1, round 0
        let code2 = 2u64 << 8; // episode 2, round 0
        for (code, bits) in [(code1, 10), (code1, 10), (code2, 20)] {
            l[0].send(1, CH_BARRIER, code, bits, &[]).unwrap();
        }
        assert_eq!(l[1].recv_barrier(0, code1).unwrap(), 10);
        assert_eq!(l[1].recv_barrier(0, code2).unwrap(), 20, "twin absorbed");
    }

    #[test]
    fn injected_bitflip_surfaces_as_checksum_error() {
        let l = lanes(2, T, lethal(LethalKind::BitFlip));
        send_data(&l[0], 1, 0, 7, b"payload-to-corrupt");
        let err = recv_data(&l[1], 0, 0, 7).unwrap_err();
        assert!(
            matches!(err, TransportError::Protocol(ref m) if m.contains("checksum")),
            "{err:?}"
        );
    }

    #[test]
    fn injected_truncate_surfaces_as_mid_frame_close() {
        let l = lanes(2, T, lethal(LethalKind::Truncate));
        let err = l[0].send(1, CH_DATA, 0, 7, &[9u8; 64]).unwrap_err();
        assert!(
            matches!(err, TransportError::Io(ref m) if m.contains("injected")),
            "{err:?}"
        );
        let err = recv_data(&l[1], 0, 0, 7).unwrap_err();
        let closed = TransportError::PeerClosed {
            peer: 0,
            mid_frame: true,
        };
        assert_eq!(err, closed);
    }

    #[test]
    fn injected_disconnect_tears_down_every_link() {
        let l = lanes(3, T, lethal(LethalKind::Disconnect));
        let err = l[0].send(1, CH_DATA, 0, 7, b"x").unwrap_err();
        assert!(
            matches!(err, TransportError::Io(ref m) if m.contains("injected")),
            "{err:?}"
        );
        // The bystander's link went down with the target's; the
        // link between the two healthy PEs is unaffected.
        let err = recv_data(&l[2], 0, 0, 7).unwrap_err();
        assert!(
            matches!(err, TransportError::PeerClosed { peer: 0, .. }),
            "{err:?}"
        );
        send_data(&l[1], 2, 0, 7, b"still up");
        assert_eq!(recv_data(&l[2], 1, 0, 7).unwrap(), b"still up");
    }
}
