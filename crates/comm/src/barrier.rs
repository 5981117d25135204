//! An O(log p) dissemination barrier with integrated BSP clock
//! synchronisation.
//!
//! All blackboard collectives are built from this barrier. On top of plain
//! rendezvous it computes the maximum of the participating PEs' modeled
//! clocks and hands it back to every PE, which is exactly the BSP superstep
//! rule: nobody proceeds (in modeled time) before the slowest PE arrives.
//!
//! ## Algorithm
//!
//! The previous substrate used a central counter guarded by one mutex and a
//! condvar — every arrival serialised on the same cache line and the last
//! arriver paid an O(p) broadcast wake-up. This implementation is the
//! classic *dissemination* barrier (Hensgen, Finkel & Manber 1988): in
//! round `k` of `⌈log₂ p⌉`, PE `i` signals PE `(i + 2^k) mod p` and waits
//! for the signal from PE `(i − 2^k) mod p`. After the last round every
//! PE has transitively heard from every other PE, so the rendezvous is
//! complete — without any shared counter, O(log p) remote writes per PE,
//! each to a distinct cache-line-padded flag.
//!
//! The BSP **clock max-reduction rides inside the rounds**: each signal
//! carries the sender's running clock maximum, and the receiver folds it
//! into its own. Max is idempotent and commutative, and the dissemination
//! signal graph covers all p PEs from every start, so after the last round
//! every PE holds the global maximum — the separate gather the central
//! barrier needed is gone.
//!
//! Because each signal carries a value, episodes need more than sense
//! reversal: a fast PE may exit episode `e` and fire its episode-`e+1`
//! round-0 signal while a slow peer has only *sent* (not yet consumed)
//! its own episode-`e` signals, so a single-buffered flag could be
//! overwritten with the next episode's clock before it is read. Each
//! flag therefore has **two lanes indexed by episode parity**, stamped
//! with the episode number. Skew between PEs is at most one episode —
//! entering `e + 1` requires exiting the full barrier of episode `e`,
//! which happens-after every PE consumed all its episode-`e − 1`
//! signals — so the lane a writer claims for episode `e + 1` is never
//! one a reader still needs, and `stamp == episode` on the right lane
//! is an unambiguous, tear-free "signal has landed" predicate.
//!
//! Waiters **spin briefly, then park**: a short `spin_loop` burst covers
//! the common in-cache handoff when every PE has a core of its own
//! (skipped entirely when the machine oversubscribes the host, where
//! spinning only steals cycles from the PE being waited on), then the
//! waiter registers itself in its inbox and parks. The signal writer
//! unparks exactly that one thread — unlike a central condvar, which
//! broadcast-woke all `p` waiters every round. Parks are time-bounded so
//! a poison flag (set when any PE panics) aborts all waiters promptly,
//! turning deadlocks into clean test failures.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread::Thread;
use std::time::Duration;

/// Typed panic payload of a poisoned barrier: some *other* PE failed
/// first, and this PE is being unwound only so the machine can tear
/// down. The runner in `machine.rs` downcasts for it and swallows the
/// unwind — only the originating PE's failure is reported.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BarrierPoisoned;

/// One dissemination signal inbox: per episode parity, an epoch stamp
/// plus the sender's running clock maximum. The whole inbox sits on its
/// own padded line so the signal write of one PE never false-shares
/// with another PE's spin loop.
#[repr(align(128))]
#[derive(Debug)]
struct Flag {
    /// Episode number of the last signal landed in each lane (0 = never).
    stamp: [AtomicU64; 2],
    /// Clock maximum carried by that signal, as `f64` bits. Written
    /// before `stamp` (Release) and read after it (Acquire).
    clock_bits: [AtomicU64; 2],
    /// True while the inbox owner is parked in `waiter`; lets the signal
    /// writer skip the wake-up lock entirely in the spinning fast path.
    has_waiter: AtomicBool,
    /// The parked inbox owner, if any. Only the slow path touches this
    /// lock, and each inbox has exactly one legal waiter (its owner PE).
    waiter: Mutex<Option<Thread>>,
}

impl Flag {
    fn new() -> Self {
        Self {
            stamp: [AtomicU64::new(0), AtomicU64::new(0)],
            clock_bits: [AtomicU64::new(0), AtomicU64::new(0)],
            has_waiter: AtomicBool::new(false),
            waiter: Mutex::new(None),
        }
    }
}

/// Per-PE episode counter, padded: only the owning PE touches it.
#[repr(align(128))]
#[derive(Debug)]
struct Episode(AtomicU64);

/// Dissemination barrier with folded-in clock max-reduction.
///
/// `wait(rank, clock)` is the only rendezvous primitive of the crate; it
/// returns the maximum clock over all participants of the episode.
#[derive(Debug)]
pub struct ClockBarrier {
    n: usize,
    rounds: usize,
    /// Busy-spin budget before parking: a few hundred iterations when
    /// every PE thread can have a host core, zero when the simulation
    /// oversubscribes the host (then spinning steals the very cycles the
    /// awaited PE needs to make progress).
    spin: u32,
    /// `flags[pe * rounds + k]`: the round-`k` inbox of `pe`.
    flags: Box<[Flag]>,
    /// `episodes[pe]`: how many episodes `pe` has completed.
    episodes: Box<[Episode]>,
    poisoned: AtomicBool,
}

/// Busy-spin budget when PE threads are not oversubscribed.
const SPIN_ROUNDS: u32 = 256;
/// Cooperative yields before parking — on an oversubscribed host a yield
/// hands the core straight to a runnable peer at a fraction of a futex
/// park/unpark round-trip.
const YIELD_ROUNDS: u32 = 64;
/// Bounded park so a poisoned barrier is noticed promptly even if the
/// wake-up signal never arrives.
const PARK: Duration = Duration::from_millis(1);

impl ClockBarrier {
    /// `n` participants. `machine_threads` is the *machine-wide* OS
    /// thread count — `p × threads_per_pe`, not just `p`: the barrier
    /// judges host oversubscription by every thread competing for the
    /// cores, the hybrid variants' intra-PE pool threads included. A
    /// `p=4, t=8` machine on an 8-core host therefore parks instead of
    /// spinning, even though its 4 PE threads alone would fit.
    pub fn new(n: usize, machine_threads: usize) -> Self {
        assert!(n > 0, "barrier needs at least one participant");
        let rounds = crate::ceil_log2(n) as usize;
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self {
            n,
            rounds,
            spin: if machine_threads.max(n) <= cores {
                SPIN_ROUNDS
            } else {
                0
            },
            flags: (0..n * rounds).map(|_| Flag::new()).collect(),
            episodes: (0..n).map(|_| Episode(AtomicU64::new(0))).collect(),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Mark the barrier poisoned (a PE panicked) and wake every parked
    /// waiter; spinning waiters notice the flag themselves.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        for flag in &self.flags {
            if let Some(t) = flag.waiter.lock().take() {
                t.unpark();
            }
        }
    }

    #[inline]
    fn flag(&self, pe: usize, round: usize) -> &Flag {
        &self.flags[pe * self.rounds + round]
    }

    /// Wait for all `n` participants; returns the maximum `clock` value
    /// passed by any participant of this episode. `rank` must be this
    /// PE's unique rank in `0..n`.
    ///
    /// Panics if the barrier is poisoned, propagating a peer PE's failure.
    pub fn wait(&self, rank: usize, clock: f64) -> f64 {
        debug_assert!(rank < self.n);
        if self.poisoned.load(Ordering::SeqCst) {
            // Typed payload, same as the in-wait poison paths: the
            // machine layer classifies `BarrierPoisoned` as secondary
            // fallout and keeps the originating PE's error instead.
            std::panic::panic_any(BarrierPoisoned);
        }
        if self.n == 1 {
            return clock;
        }
        // Episode numbers start at 1 so stamp 0 means "never signalled".
        let e = self.episodes[rank].0.load(Ordering::Relaxed) + 1;
        let lane = (e & 1) as usize;
        let mut max = clock;
        for k in 0..self.rounds {
            let peer = (rank + (1 << k)) % self.n;
            let out = self.flag(peer, k);
            out.clock_bits[lane].store(max.to_bits(), Ordering::Relaxed);
            out.stamp[lane].store(e, Ordering::Release);
            // Wake the peer iff it already parked on this inbox; the
            // `has_waiter` check keeps the fast path lock-free. The
            // SeqCst fence pairs with the waiter's fence between its
            // registration store and stamp re-check: whichever fence
            // comes first in the global order, either we observe the
            // registration or the waiter observes the stamp — a wake-up
            // can never fall between the two (store-buffering race).
            std::sync::atomic::fence(Ordering::SeqCst);
            if out.has_waiter.load(Ordering::Acquire) {
                if let Some(t) = out.waiter.lock().take() {
                    t.unpark();
                }
            }
            let inbox = self.flag(rank, k);
            self.spin_until_stamped(inbox, lane, e);
            let heard = f64::from_bits(inbox.clock_bits[lane].load(Ordering::Relaxed));
            if heard > max {
                max = heard;
            }
        }
        self.episodes[rank].0.store(e, Ordering::Relaxed);
        max
    }

    /// Wait until lane `lane` of `flag` is stamped with episode `e`
    /// (Acquire, so the carried clock bits and everything the sender did
    /// before signalling are visible): bounded spin first, then register
    /// in the inbox and park until the signal writer unparks us.
    #[inline]
    fn spin_until_stamped(&self, flag: &Flag, lane: usize, e: u64) {
        for _ in 0..self.spin {
            if flag.stamp[lane].load(Ordering::Acquire) == e {
                return;
            }
            std::hint::spin_loop();
        }
        // On an oversubscribed host the awaited PE needs the core we are
        // holding: hand it over directly a few times before paying for
        // park/unpark futex round-trips.
        for _ in 0..YIELD_ROUNDS {
            if flag.stamp[lane].load(Ordering::Acquire) == e {
                return;
            }
            if self.poisoned.load(Ordering::SeqCst) {
                std::panic::panic_any(BarrierPoisoned);
            }
            std::thread::yield_now();
        }
        loop {
            if flag.stamp[lane].load(Ordering::Acquire) == e {
                return;
            }
            if self.poisoned.load(Ordering::SeqCst) {
                std::panic::panic_any(BarrierPoisoned);
            }
            // Register, then re-check the stamp before parking: the
            // SeqCst fence pairs with the writer's (see `wait`), so a
            // writer that signalled in between either sees `has_waiter`
            // and unparks us, or we see its stamp here — no lost wake-up.
            *flag.waiter.lock() = Some(std::thread::current());
            flag.has_waiter.store(true, Ordering::Release);
            std::sync::atomic::fence(Ordering::SeqCst);
            if flag.stamp[lane].load(Ordering::Acquire) != e
                && !self.poisoned.load(Ordering::SeqCst)
            {
                std::thread::park_timeout(PARK);
            }
            flag.has_waiter.store(false, Ordering::Relaxed);
            *flag.waiter.lock() = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_participant_is_trivial() {
        let b = ClockBarrier::new(1, 1);
        assert_eq!(b.wait(0, 3.0), 3.0);
        assert_eq!(b.wait(0, 1.0), 1.0);
    }

    #[test]
    fn max_clock_is_returned_to_everyone() {
        for n in [2usize, 3, 5, 8, 13, 16] {
            let b = Arc::new(ClockBarrier::new(n, n));
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let b = Arc::clone(&b);
                    std::thread::spawn(move || b.wait(i, i as f64))
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), (n - 1) as f64, "n={n}");
            }
        }
    }

    #[test]
    fn repeated_rounds_do_not_mix_clocks() {
        let n = 4;
        let b = Arc::new(ClockBarrier::new(n, n));
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let r1 = b.wait(i, i as f64);
                    let r2 = b.wait(i, 100.0 + i as f64);
                    (r1, r2)
                })
            })
            .collect();
        for h in handles {
            let (r1, r2) = h.join().unwrap();
            assert_eq!(r1, 3.0);
            assert_eq!(r2, 103.0);
        }
    }

    #[test]
    fn many_episodes_back_to_back() {
        // Epoch stamping (not sense reversal) must keep fast and slow PEs
        // from confusing episodes even over many reuses of the same flags.
        let n = 7;
        let episodes = 200;
        let b = Arc::new(ClockBarrier::new(n, n));
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let mut out = Vec::with_capacity(episodes);
                    for e in 0..episodes {
                        out.push(b.wait(i, (e * n + i) as f64));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            let got = h.join().unwrap();
            for (e, v) in got.into_iter().enumerate() {
                assert_eq!(v, (e * n + n - 1) as f64);
            }
        }
    }

    #[test]
    fn poison_wakes_waiters() {
        let b = Arc::new(ClockBarrier::new(2, 2));
        let b2 = Arc::clone(&b);
        let waiter = std::thread::spawn(move || {
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b2.wait(0, 0.0)));
            res.is_err()
        });
        std::thread::sleep(Duration::from_millis(20));
        b.poison();
        assert!(waiter.join().unwrap(), "waiter should observe poisoning");
    }
}
