//! Deterministic fault injection at the transport boundary.
//!
//! The transport boundary (`transport.rs`) is the one seam every
//! collective crosses, which makes it the right place to *inject*
//! faults: a [`FaultPlan`] describes, per machine, which frames are
//! delayed, duplicated, chopped into short writes/reads, transiently
//! refused (forcing the retransmit/backoff path), or lethally corrupted
//! — and the byte lane (`lane.rs`) consults its [`FaultyTransport`] at
//! the same points whether its PEs are threads or processes.
//!
//! ## Determinism
//!
//! Every fault decision is a pure function of the plan's seed and the
//! frame's coordinates — `(channel, src, dst, sequence)` — hashed
//! through SplitMix64. No wall-clock, no global counters: the
//! same plan on the same program produces the same fault schedule on
//! every run, in-process or across processes, which is what lets the
//! chaos suite compare a faulted run's digest against a fault-free one
//! by string equality. (The one exception is short *reads*, which key
//! on a per-link read counter that depends on arrival timing; they only
//! vary how many syscalls reassembly takes, never what is reassembled.)
//!
//! ## Taxonomy
//!
//! **Transient** faults are absorbed below the collective layer and
//! must not change results or modeled cost: delays, short writes/reads
//! (stream reassembly), duplicate frames (stale-frame discard), and
//! transient send refusals (retransmit with capped exponential backoff
//! plus deterministic jitter). **Lethal** faults are injected once on a
//! chosen rank at a chosen data superstep and must surface as a typed
//! [`TransportError`](crate::TransportError) within the io deadline:
//! a truncated frame (mid-frame close at the peer), a bit-flipped frame
//! (checksum mismatch — installing any fault plan, even an empty one,
//! arms a per-frame checksum so corruption is *detected*, never served
//! as a wrong answer), or a mid-frame disconnect.
//!
//! Configuration: [`MachineConfig::with_faults`](crate::MachineConfig::with_faults)
//! or the `KAMSTA_FAULTS` environment variable (see [`FaultPlan::parse`]).

use std::time::Duration;

/// SplitMix64 finalizer — the hash driving every fault decision.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

// Per-fault-kind salts, so one frame's independent draws decorrelate.
const S_DELAY: u64 = 0xD1;
const S_DELAY_LEN: u64 = 0xD2;
const S_SHORT_WRITE: u64 = 0x5E;
const S_SHORT_READ: u64 = 0x5F;
const S_DUP: u64 = 0xDD;
const S_RETRY: u64 = 0x47;
const S_RETRY_LEN: u64 = 0x48;
const S_JITTER: u64 = 0x11;
pub(crate) const S_FLIP: u64 = 0xF1;

/// First backoff step of the retransmit-on-transient path.
const BACKOFF_BASE: Duration = Duration::from_micros(40);
/// Backoff cap — transient retries stay far below any io deadline.
const BACKOFF_CAP: Duration = Duration::from_millis(2);

/// A lethal (unrecoverable) fault: injected on `rank`'s sends once its
/// data-plane round sequence reaches `at_seq`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LethalFault {
    /// Rank whose outgoing frames are corrupted.
    pub rank: usize,
    /// What happens to the frame.
    pub kind: LethalKind,
    /// First data-plane sequence number (superstep) the fault fires on.
    pub at_seq: u64,
}

/// The unrecoverable fault kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LethalKind {
    /// The frame is cut short and the stream closed mid-frame: peers see
    /// [`TransportError::PeerClosed`](crate::TransportError::PeerClosed)
    /// with `mid_frame` set.
    Truncate,
    /// One payload bit is flipped *after* the checksum is stamped: the
    /// receiver's verification fails with a typed
    /// [`TransportError::Protocol`](crate::TransportError::Protocol).
    BitFlip,
    /// Every link is torn down mid-frame — the analogue of pulling the
    /// network cable. The faulty PE itself aborts with a typed io error.
    Disconnect,
}

impl LethalKind {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "truncate" => Ok(LethalKind::Truncate),
            "bitflip" => Ok(LethalKind::BitFlip),
            "disconnect" => Ok(LethalKind::Disconnect),
            other => Err(format!(
                "unknown lethal fault kind {other:?} (expected truncate|bitflip|disconnect)"
            )),
        }
    }
}

/// A seeded, deterministic fault schedule for one machine run.
///
/// Probabilities are stored in per-mille (so the plan stays `Eq` and
/// env round-trips exactly); `0` disables a fault kind, and a plan with
/// every rate zero and no lethal fault ([`FaultPlan::is_empty`]) only
/// arms the frame checksums — the shape the `chaos-overhead` benchmark
/// entry measures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of every SplitMix64 draw.
    pub seed: u64,
    /// Per-frame probability (per-mille) of an injected send delay.
    pub delay_pm: u32,
    /// Upper bound of one injected delay, microseconds.
    pub delay_max_us: u64,
    /// Per-frame probability (per-mille) of chopping the send into
    /// short writes (stream reassembly absorbs it).
    pub short_write_pm: u32,
    /// Per-read probability (per-mille) of a tiny receive buffer.
    pub short_read_pm: u32,
    /// Per-frame probability (per-mille) of sending the frame twice
    /// (the stale-frame discard absorbs the duplicate).
    pub dup_pm: u32,
    /// Per-frame probability (per-mille) of transient send refusals,
    /// forcing the retransmit path with capped exponential backoff.
    pub retry_pm: u32,
    /// At most one unrecoverable fault per plan.
    pub lethal: Option<LethalFault>,
}

impl FaultPlan {
    /// An empty plan: no faults, but hooks (and frame checksums) armed.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            delay_pm: 0,
            delay_max_us: 200,
            short_write_pm: 0,
            short_read_pm: 0,
            dup_pm: 0,
            retry_pm: 0,
            lethal: None,
        }
    }

    /// Inject per-frame delays with probability `p` (0..=1), each at
    /// most `max_us` microseconds.
    pub fn with_delays(mut self, p: f64, max_us: u64) -> Self {
        self.delay_pm = per_mille(p);
        self.delay_max_us = max_us.max(1);
        self
    }

    /// Chop sends into short writes with probability `p`.
    pub fn with_short_writes(mut self, p: f64) -> Self {
        self.short_write_pm = per_mille(p);
        self
    }

    /// Shrink receive buffers with probability `p` per read.
    pub fn with_short_reads(mut self, p: f64) -> Self {
        self.short_read_pm = per_mille(p);
        self
    }

    /// Duplicate frames with probability `p`.
    pub fn with_duplicates(mut self, p: f64) -> Self {
        self.dup_pm = per_mille(p);
        self
    }

    /// Transiently refuse sends with probability `p`, exercising the
    /// retransmit/backoff path.
    pub fn with_retries(mut self, p: f64) -> Self {
        self.retry_pm = per_mille(p);
        self
    }

    /// Schedule the plan's one unrecoverable fault.
    pub fn with_lethal(mut self, lethal: LethalFault) -> Self {
        self.lethal = Some(lethal);
        self
    }

    /// No fault can ever fire (checksums are still armed).
    pub fn is_empty(&self) -> bool {
        self.delay_pm == 0
            && self.short_write_pm == 0
            && self.short_read_pm == 0
            && self.dup_pm == 0
            && self.retry_pm == 0
            && self.lethal.is_none()
    }

    /// Parse the `KAMSTA_FAULTS` format: comma-separated `key=value`
    /// pairs. Keys: `seed=N`, `delay=P`, `delay_us=N`, `short_write=P`,
    /// `short_read=P`, `dup=P`, `retry=P`, and
    /// `lethal=KIND@RANK:SEQ` with KIND one of
    /// `truncate`/`bitflip`/`disconnect`. Probabilities are decimals in
    /// `[0, 1]`. Example:
    ///
    /// ```text
    /// KAMSTA_FAULTS="seed=7,delay=0.1,dup=0.05,retry=0.1"
    /// KAMSTA_FAULTS="seed=3,lethal=bitflip@1:6"
    /// ```
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::seeded(1);
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault plan entry {part:?} is not key=value"))?;
            match key {
                "seed" => plan.seed = parse_u64(key, value)?,
                "delay" => plan.delay_pm = parse_prob(key, value)?,
                "delay_us" => plan.delay_max_us = parse_u64(key, value)?.max(1),
                "short_write" => plan.short_write_pm = parse_prob(key, value)?,
                "short_read" => plan.short_read_pm = parse_prob(key, value)?,
                "dup" => plan.dup_pm = parse_prob(key, value)?,
                "retry" => plan.retry_pm = parse_prob(key, value)?,
                "lethal" => {
                    let (kind, at) = value
                        .split_once('@')
                        .ok_or_else(|| format!("lethal fault {value:?} is not KIND@RANK:SEQ"))?;
                    let (rank, seq) = at
                        .split_once(':')
                        .ok_or_else(|| format!("lethal fault {value:?} is not KIND@RANK:SEQ"))?;
                    plan.lethal = Some(LethalFault {
                        rank: parse_u64("lethal rank", rank)? as usize,
                        kind: LethalKind::parse(kind)?,
                        at_seq: parse_u64("lethal seq", seq)?,
                    });
                }
                other => return Err(format!("unknown fault plan key {other:?}")),
            }
        }
        Ok(plan)
    }

    #[inline]
    fn draw(&self, key: u64, salt: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(key ^ salt))
    }

    #[inline]
    fn hit(&self, pm: u32, key: u64, salt: u64) -> bool {
        pm > 0 && self.draw(key, salt) % 1000 < pm as u64
    }
}

fn per_mille(p: f64) -> u32 {
    ((p.clamp(0.0, 1.0)) * 1000.0).round() as u32
}

fn parse_u64(key: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("fault plan {key}={value:?} is not a number"))
}

fn parse_prob(key: &str, value: &str) -> Result<u32, String> {
    let p: f64 = value
        .parse()
        .map_err(|_| format!("fault plan {key}={value:?} is not a probability"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("fault plan {key}={value:?} is outside [0, 1]"));
    }
    Ok(per_mille(p))
}

/// The sender-side fault schedule of one frame, drawn once per send.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SendFaults {
    /// Base key of this frame's draws (for backoff jitter / bit pick).
    pub(crate) key: u64,
    /// Sleep this long before the first write attempt.
    pub(crate) delay: Option<Duration>,
    /// Number of transient refusals before the send goes through; each
    /// is followed by a backoff ([`FaultyTransport::backoff`]) and a
    /// retransmit from byte 0.
    pub(crate) failed_attempts: u32,
    /// Send the frame a second time after the first completes.
    pub(crate) duplicate: bool,
    /// Cap each write call at this many frame bytes (short writes).
    pub(crate) write_chunk: Option<usize>,
    /// The plan's unrecoverable fault fires on this frame.
    pub(crate) lethal: Option<LethalKind>,
}

/// The injection engine of the byte lane, consulted on every frame it
/// moves. Holding one (even with an empty plan) arms the per-frame
/// checksums; absence of a `FaultyTransport` is the zero-cost fast
/// path.
#[derive(Debug)]
pub struct FaultyTransport {
    plan: FaultPlan,
}

impl FaultyTransport {
    pub fn new(plan: FaultPlan) -> Self {
        Self { plan }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Draw the fault schedule of one frame on `(src → dst)` for round
    /// `seq`. Deterministic in its arguments.
    pub(crate) fn send_faults(&self, channel: u8, src: usize, dst: usize, seq: u64) -> SendFaults {
        let p = &self.plan;
        // The fixed 0 is the slot a communicator id once filled; keeping
        // it keeps every seeded plan's schedule as it was.
        let key = [channel as u64, src as u64, dst as u64, 0, seq]
            .into_iter()
            .fold(p.seed, |h, x| splitmix64(h ^ x));
        let delay = p
            .hit(p.delay_pm, key, S_DELAY)
            .then(|| Duration::from_micros(1 + p.draw(key, S_DELAY_LEN) % p.delay_max_us));
        let failed_attempts = if p.hit(p.retry_pm, key, S_RETRY) {
            1 + (p.draw(key, S_RETRY_LEN) % 3) as u32
        } else {
            0
        };
        let duplicate = p.hit(p.dup_pm, key, S_DUP);
        let write_chunk = p
            .hit(p.short_write_pm, key, S_SHORT_WRITE)
            .then(|| 1 + (p.draw(key, S_SHORT_WRITE) % 64) as usize);
        // Lethal faults fire on the data plane only: the chosen
        // superstep is a data round sequence number.
        let lethal = p.lethal.and_then(|l| {
            (channel == crate::wire::CH_DATA && src == l.rank && seq >= l.at_seq).then_some(l.kind)
        });
        SendFaults {
            key,
            delay,
            failed_attempts,
            duplicate,
            write_chunk,
            lethal,
        }
    }

    /// Receive-side short read: cap the next `read` of `peer`'s link at
    /// this many bytes. Keyed on a per-link read counter — timing-
    /// dependent, which is fine: it varies syscall boundaries, never
    /// bytes (see the module docs).
    pub(crate) fn read_chunk(&self, peer: usize, read_no: u64) -> Option<usize> {
        let p = &self.plan;
        let key = splitmix64(p.seed ^ splitmix64(peer as u64) ^ read_no);
        p.hit(p.short_read_pm, key, S_SHORT_READ)
            .then(|| 1 + (p.draw(key, S_SHORT_READ) % 61) as usize)
    }

    /// Backoff before retransmit attempt `attempt` (0-based): capped
    /// exponential plus deterministic jitter.
    pub(crate) fn backoff(&self, key: u64, attempt: u32) -> Duration {
        let exp = BACKOFF_BASE
            .checked_mul(1 << attempt.min(16))
            .unwrap_or(BACKOFF_CAP)
            .min(BACKOFF_CAP);
        let jitter =
            self.plan.draw(key ^ attempt as u64, S_JITTER) % BACKOFF_BASE.as_micros().max(1) as u64;
        exp + Duration::from_micros(jitter)
    }

    /// Pick the payload bit a [`LethalKind::BitFlip`] flips.
    pub(crate) fn flip_bit(&self, key: u64, bits: usize) -> usize {
        (self.plan.draw(key, S_FLIP) % bits.max(1) as u64) as usize
    }
}

/// Checksum stamped on every frame while fault hooks are armed: a
/// SplitMix64 fold over the header fields and the payload (8 bytes at a
/// time), so any single bit flip anywhere in the frame is detected with
/// overwhelming probability. Not computed (field written as 0, never
/// verified) when no fault plan is installed — TCP and in-process
/// queues are already reliable; the checksum exists to catch *injected*
/// corruption before it can become a wrong answer.
pub(crate) fn frame_checksum(channel: u8, a: u64, b: u64, payload: &[u8]) -> u64 {
    let mut h = splitmix64(
        (channel as u64) ^ a.rotate_left(34) ^ b.rotate_left(51) ^ ((payload.len() as u64) << 8),
    );
    let mut chunks = payload.chunks_exact(8);
    for c in &mut chunks {
        h = splitmix64(h ^ u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        h = splitmix64(h ^ u64::from_le_bytes(last) ^ rem.len() as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_the_documented_format() {
        let plan =
            FaultPlan::parse("seed=7,delay=0.1,delay_us=300,short_write=0.2,dup=0.05,retry=0.5")
                .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.delay_pm, 100);
        assert_eq!(plan.delay_max_us, 300);
        assert_eq!(plan.short_write_pm, 200);
        assert_eq!(plan.dup_pm, 50);
        assert_eq!(plan.retry_pm, 500);
        assert!(plan.lethal.is_none());
        assert!(!plan.is_empty());

        let plan = FaultPlan::parse("seed=3,lethal=bitflip@1:6").unwrap();
        assert_eq!(
            plan.lethal,
            Some(LethalFault {
                rank: 1,
                kind: LethalKind::BitFlip,
                at_seq: 6
            })
        );
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_malformed_plans() {
        for bad in [
            "frobnicate=1",
            "delay",
            "delay=2.0",
            "delay=x",
            "seed=abc",
            "lethal=bitflip",
            "lethal=explode@0:1",
            "lethal=truncate@0",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let a = FaultyTransport::new(FaultPlan::seeded(7).with_duplicates(0.5));
        let b = FaultyTransport::new(FaultPlan::seeded(7).with_duplicates(0.5));
        let c = FaultyTransport::new(FaultPlan::seeded(8).with_duplicates(0.5));
        let pattern = |fx: &FaultyTransport| {
            (0..64)
                .map(|seq| fx.send_faults(0, 0, 1, seq).duplicate)
                .collect::<Vec<bool>>()
        };
        assert_eq!(pattern(&a), pattern(&b), "same seed, same schedule");
        assert_ne!(
            pattern(&a),
            pattern(&c),
            "different seed, different schedule"
        );
        assert!(
            pattern(&a).iter().any(|&d| d),
            "p=0.5 fires somewhere in 64 draws"
        );
        assert!(
            !pattern(&a).iter().all(|&d| d),
            "p=0.5 skips somewhere in 64 draws"
        );
    }

    #[test]
    fn empty_plan_never_fires() {
        let fx = FaultyTransport::new(FaultPlan::seeded(42));
        for seq in 0..256 {
            let f = fx.send_faults(0, 0, 1, seq);
            assert!(f.delay.is_none());
            assert_eq!(f.failed_attempts, 0);
            assert!(!f.duplicate);
            assert!(f.write_chunk.is_none());
            assert!(f.lethal.is_none());
            assert!(fx.read_chunk(1, seq).is_none());
        }
    }

    #[test]
    fn lethal_fires_on_the_chosen_rank_and_superstep_only() {
        let fx = FaultyTransport::new(FaultPlan::seeded(1).with_lethal(LethalFault {
            rank: 2,
            kind: LethalKind::Truncate,
            at_seq: 5,
        }));
        assert!(
            fx.send_faults(0, 2, 0, 4).lethal.is_none(),
            "before the superstep"
        );
        assert_eq!(
            fx.send_faults(0, 2, 0, 5).lethal,
            Some(LethalKind::Truncate)
        );
        assert!(fx.send_faults(0, 1, 0, 5).lethal.is_none(), "wrong rank");
        assert!(
            fx.send_faults(1, 2, 0, 5).lethal.is_none(),
            "barrier frames exempt"
        );
    }

    #[test]
    fn backoff_is_capped_and_jittered() {
        let fx = FaultyTransport::new(FaultPlan::seeded(9).with_retries(1.0));
        let mut prev = Duration::ZERO;
        for attempt in 0..12 {
            let b = fx.backoff(0xABCD, attempt);
            assert!(b <= BACKOFF_CAP + BACKOFF_BASE, "attempt {attempt}: {b:?}");
            if attempt < 3 {
                assert!(b >= prev / 2, "roughly growing early on");
            }
            prev = b;
        }
    }

    #[test]
    fn checksum_detects_any_single_bit_flip() {
        let payload: Vec<u8> = (0..37u8).collect();
        let sum = frame_checksum(0, 2, 3, &payload);
        assert_eq!(sum, frame_checksum(0, 2, 3, &payload), "pure function");
        for bit in 0..payload.len() * 8 {
            let mut corrupt = payload.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(sum, frame_checksum(0, 2, 3, &corrupt), "bit {bit}");
        }
        assert_ne!(sum, frame_checksum(1, 2, 3, &payload), "header covered");
        assert_ne!(sum, frame_checksum(0, 2, 4, &payload), "header covered");
    }
}
