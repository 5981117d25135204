//! Typed, epoch-stamped exchange cells — the blackboard the collectives
//! publish through.
//!
//! The previous substrate stored every published value as a
//! `Mutex<Option<Box<dyn Any + Send>>>`: one heap allocation to box the
//! value, a mutex acquisition per slot access, a `downcast` per read, and
//! a five-step **two-superstep** discipline (publish → barrier → read →
//! barrier → clear) whose second barrier existed only so publishers knew
//! their slot could be reused.
//!
//! This module replaces all of that with **typed cell sets**: for each
//! payload type `T`, a [`CellRegistry`] lazily creates one array of
//! cache-line-padded [`ExchangeCell<T>`]s (one per PE). Values are moved
//! into the cell in place — no boxing, no downcasting, and no lock on the
//! hot path (the registry's mutex is touched once per *type*, not per
//! access; each `Comm` handle caches the `Arc` thereafter).
//!
//! ## Single-superstep protocol
//!
//! Every use of a cell set is one *round*, numbered by a per-PE epoch
//! counter that advances identically on all PEs (collectives are called
//! in the same order on every PE — standard SPMD discipline). A round is:
//!
//! 1. publish: write the value into your own cell's `epoch & 1` lane,
//!    then store the epoch stamp (Release);
//! 2. one barrier;
//! 3. read peers' cells directly (`&T`, stamp-validated) or move values
//!    out ([`Round::take`]); **no second barrier, no clear**.
//!
//! Why this is safe: a reader of round `e` holds its references strictly
//! between the barriers of rounds `e` and `e + 1` (its next use of the
//! set). A publisher can only overwrite lane `e & 1` in round `e + 2`,
//! and it reaches that publish only after passing the round-`e + 1`
//! barrier — which happens-after *every* PE arrived at that barrier, i.e.
//! after every reader of round `e` finished. The epoch stamp turns this
//! argument into a runtime check: `Round::read`/`take` assert the lane
//! carries exactly the expected epoch, so any protocol violation (a
//! missing publish, a skipped collective on one PE, an out-of-order
//! round) fails loudly instead of returning torn data.
//!
//! ## Lifetime of a published value
//!
//! A value that is published but not taken (every `read`-only round: a
//! broadcast, an allgather, a flat exchange's whole [`crate::FlatBuckets`])
//! is dropped by its publisher at the exit of the **next barrier after
//! its round's own**, whatever types the rounds in between used. Each
//! `Comm` keeps a [`Ledger`]: the rounds it opened since its last barrier
//! and those it opened before that, two generations of `(cell set,
//! epoch)` entries. When a barrier exits, the older generation's lanes
//! are emptied — each only if it still carries its entry's epoch — and
//! the younger one becomes the older.
//!
//! Why this is safe: it is the argument above with "the barrier of round
//! `e + 1`" widened to "the publisher's next barrier", so it needs one
//! rule more — **no PE holds a cell read across a barrier**, of any
//! round type. A round opened before barrier `k` is read between
//! barriers `k` and `k + 1`; its publisher empties it after leaving
//! barrier `k + 1`, which happens-after every PE arrived there, so after
//! every reader let go. Every collective obeys the rule: each reads its
//! round and copies out before returning, the grid all-to-all's two
//! paired rounds each consume their borrows inside the round, and the
//! hypercube and `request_reply` are sequences of such collectives.
//! Debug builds check it: every cell read is a counted [`CellRef`], and
//! a barrier entered with one alive panics. A payload thus lives through
//! one round of reading, not until its type's lane is reused (which, for
//! a round type used once per pipeline stage, was two stages later), and
//! a run's end drops whatever is left.
//!
//! A round whose readers are known can let go sooner. A flat exchange's
//! payload is a PE's whole send buffer, and every PE reads every one of
//! them exactly once, so it is published for `p` readers
//! ([`Round::publish_for`]): each reader finishes its read after copying
//! its bucket out ([`Round::finish_read`]), and the last one drops the
//! buffer. That happens before the caller's next allocation, where the
//! ledger would wait for the next barrier. The ledger still covers it:
//! it finds the lane empty.

use parking_lot::Mutex;
use std::any::{Any, TypeId};
use std::cell::{RefCell, UnsafeCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// One PE's publication cell for payload type `T`: two value lanes
/// (epoch parity) with epoch stamps, padded so neighbouring PEs' cells
/// never share a cache line.
#[repr(align(128))]
pub(crate) struct ExchangeCell<T> {
    stamps: [AtomicU64; 2],
    values: [UnsafeCell<Option<T>>; 2],
    /// Readers still to finish with the lane's value, when it was
    /// published for a known number of them (0 otherwise).
    readers: [AtomicUsize; 2],
}

// Safety: lane access is serialised by the single-superstep protocol
// (writes before a barrier, reads after it, release after the next
// barrier or by the last declared reader, reuse two rounds later) — see
// the module docs. `T: Send` suffices for the cell to be shared: values
// only *move* across threads through `publish`/`take`/`finish_read`;
// methods that hand out `&T` across threads additionally require
// `T: Sync`.
unsafe impl<T: Send> Sync for ExchangeCell<T> {}

impl<T> ExchangeCell<T> {
    fn new() -> Self {
        Self {
            stamps: [AtomicU64::new(0), AtomicU64::new(0)],
            values: [UnsafeCell::new(None), UnsafeCell::new(None)],
            readers: [AtomicUsize::new(0), AtomicUsize::new(0)],
        }
    }

    /// Publish `value` for round `e` (called by the owning PE only,
    /// before the round's barrier), to be read by `readers` PEs that each
    /// call [`ExchangeCell::finish_read`], or by an undeclared set when
    /// `readers` is 0.
    fn publish(&self, e: u64, value: T, readers: usize) {
        let lane = (e & 1) as usize;
        // Safety: any reader of this lane finished two rounds ago (module
        // docs); the owning PE is the only writer.
        unsafe {
            *self.values[lane].get() = Some(value);
        }
        self.readers[lane].store(readers, Ordering::Relaxed);
        self.stamps[lane].store(e, Ordering::Release);
    }

    /// One declared reader of round `e` is done with the value; the last
    /// one drops it.
    fn finish_read(&self, e: u64) {
        let lane = (e & 1) as usize;
        let left = self.readers[lane].fetch_sub(1, Ordering::AcqRel);
        // A miscount could free a value another reader still borrows.
        assert!(left > 0, "more reads finished than the publisher declared");
        if left == 1 {
            // Safety: every other reader finished before its decrement
            // (Release), which happens-before ours (Acquire); the owner
            // writes the lane again only after its next barrier, which
            // this PE reaches after this call.
            drop(unsafe { (*self.values[lane].get()).take() });
        }
    }

    /// Validate the stamp of round `e`'s lane and panic with a protocol
    /// diagnosis if it does not match.
    fn check_stamp(&self, e: u64, what: &str) -> usize {
        let lane = (e & 1) as usize;
        let stamp = self.stamps[lane].load(Ordering::Acquire);
        assert!(
            stamp == e,
            "exchange-cell {what} of epoch {e} found stamp {stamp}: \
             a PE skipped a publish or collectives ran out of order"
        );
        lane
    }

    /// Borrow the value published for round `e`. Called after the round's
    /// barrier; the reference must be dropped before this PE's next use
    /// of the same cell set (enforced by `Round`'s borrow).
    fn read(&self, e: u64) -> &T
    where
        T: Sync,
    {
        let lane = self.check_stamp(e, "read");
        // Safety: stamp == e proves the publish of round e is visible
        // (Acquire pairs with the publisher's Release), and no write can
        // touch this lane until round e + 2.
        unsafe { (*self.values[lane].get()).as_ref() }
            .expect("exchange cell empty despite matching stamp")
    }

    /// Drop the value published for round `e` if the lane still carries
    /// that round (called by the owning PE only, after the barrier that
    /// follows round `e`'s). The stamp stays, so a late read still finds
    /// its epoch and reports the empty lane instead of reading a stale one.
    fn release(&self, e: u64) {
        let lane = (e & 1) as usize;
        if self.stamps[lane].load(Ordering::Relaxed) == e {
            // Safety: every reader of round e — the last declared one
            // included, which may have emptied the lane — arrived at the
            // barrier this PE has just left (module docs).
            drop(unsafe { (*self.values[lane].get()).take() });
        }
    }

    /// Move the value published for round `e` out of the cell. At most
    /// one PE may take from a given cell per round (the protocol's
    /// designated receiver).
    fn take(&self, e: u64) -> T {
        let lane = self.check_stamp(e, "take");
        // Safety: as in `read`, plus take-exclusivity: only the
        // designated receiver of this round touches the Option.
        unsafe { (*self.values[lane].get()).take() }
            .unwrap_or_else(|| panic!("exchange cell taken twice in epoch {e}"))
    }
}

/// The per-type cell array: one [`ExchangeCell<T>`] per PE.
pub(crate) struct CellSet<T> {
    cells: Box<[ExchangeCell<T>]>,
}

impl<T> CellSet<T> {
    fn new(p: usize) -> Self {
        Self {
            cells: (0..p).map(|_| ExchangeCell::new()).collect(),
        }
    }
}

/// A cell set with its payload type erased: what a [`Ledger`] holds to
/// empty its owner's lanes.
pub(crate) trait Release: Send + Sync {
    /// Drop what PE `rank` published in round `epoch`, if its lane still
    /// carries that round.
    fn release(&self, rank: usize, epoch: u64);
}

impl<T: Send> Release for CellSet<T> {
    fn release(&self, rank: usize, epoch: u64) {
        self.cells[rank].release(epoch);
    }
}

/// Rounds a PE opened: each cell set with the round's epoch.
type Opened = Vec<(Arc<dyn Release>, u64)>;

/// One PE's record of the rounds it opened, by barrier generation, and —
/// in debug builds — its count of live cell reads (module docs, "Lifetime
/// of a published value").
#[derive(Default)]
pub(crate) struct Ledger {
    /// `[0]`: rounds opened since the last barrier; `[1]`: rounds opened
    /// before it. Both keep their capacity, so a warm ledger allocates
    /// nothing.
    opened: RefCell<[Opened; 2]>,
    #[cfg(debug_assertions)]
    reads: std::cell::Cell<usize>,
}

impl Ledger {
    /// Record that this PE opened round `epoch` of `set`.
    pub(crate) fn opened(&self, set: Arc<dyn Release>, epoch: u64) {
        self.opened.borrow_mut()[0].push((set, epoch));
    }

    /// A counted borrow of a cell value (the count only exists in debug
    /// builds).
    pub(crate) fn read<'r, T>(&'r self, value: &'r T) -> CellRef<'r, T> {
        #[cfg(debug_assertions)]
        self.reads.set(self.reads.get() + 1);
        CellRef {
            value,
            #[cfg(debug_assertions)]
            ledger: self,
        }
    }

    /// Entering a barrier: no cell read may still be alive.
    #[inline]
    pub(crate) fn entering_barrier(&self) {
        #[cfg(debug_assertions)]
        assert_eq!(
            self.reads.get(),
            0,
            "a cell read is held across a barrier: its publisher empties the \
             lane after this barrier's successor"
        );
    }

    /// Leaving a barrier: empty `rank`'s lanes of the rounds opened before
    /// the previous barrier, and age the rounds opened since.
    pub(crate) fn left_barrier(&self, rank: usize) {
        let mut opened = self.opened.borrow_mut();
        let [young, old] = &mut *opened;
        for (set, epoch) in old.drain(..) {
            set.release(rank, epoch);
        }
        std::mem::swap(young, old);
    }
}

/// A borrowed cell value; in debug builds it is counted in its PE's
/// [`Ledger`] until dropped.
pub(crate) struct CellRef<'r, T> {
    value: &'r T,
    #[cfg(debug_assertions)]
    ledger: &'r Ledger,
}

impl<T> std::ops::Deref for CellRef<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        self.value
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for CellRef<'_, T> {
    fn drop(&mut self) {
        self.ledger.reads.set(self.ledger.reads.get() - 1);
    }
}

/// Lazily-populated map from payload type to its [`CellSet`]. Shared by
/// all PEs of a communicator; the mutex is hit once per (PE, type) —
/// every subsequent round goes through the `Comm` handle's local cache.
pub(crate) struct CellRegistry {
    p: usize,
    sets: Mutex<HashMap<TypeId, Arc<dyn Any + Send + Sync>>>,
}

impl std::fmt::Debug for CellRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CellRegistry(p = {})", self.p)
    }
}

impl CellRegistry {
    pub(crate) fn new(p: usize) -> Self {
        Self {
            p,
            sets: Mutex::new(HashMap::new()),
        }
    }

    /// The cell set for type `T`, created on first use. All PEs resolve
    /// the same `Arc`.
    pub(crate) fn get<T: Send + 'static>(&self) -> Arc<CellSet<T>> {
        let mut sets = self.sets.lock();
        let entry = sets
            .entry(TypeId::of::<T>())
            .or_insert_with(|| Arc::new(CellSet::<T>::new(self.p)));
        Arc::clone(entry)
            .downcast::<CellSet<T>>()
            .expect("registry entry keyed by TypeId")
    }
}

/// One single-superstep round on a typed cell set: the epoch is fixed at
/// construction ([`crate::Comm`] advances its per-type counter), and all
/// publishes/reads/takes of the round go through this handle.
pub(crate) struct Round<T> {
    set: Arc<CellSet<T>>,
    epoch: u64,
    rank: usize,
}

impl<T: Send + 'static> Round<T> {
    pub(crate) fn new(set: Arc<CellSet<T>>, epoch: u64, rank: usize) -> Self {
        Self { set, epoch, rank }
    }

    /// Publish this PE's value for the round (before the barrier).
    pub(crate) fn publish(&self, value: T) {
        self.set.cells[self.rank].publish(self.epoch, value, 0);
    }

    /// Publish this PE's value for exactly `readers` PEs, each of which
    /// reads it once and then calls [`Round::finish_read`]: the last of
    /// them drops the value.
    pub(crate) fn publish_for(&self, value: T, readers: usize) {
        self.set.cells[self.rank].publish(self.epoch, value, readers);
    }

    /// Borrow the value PE `r` published this round (after the barrier).
    pub(crate) fn read(&self, r: usize) -> &T
    where
        T: Sync,
    {
        self.set.cells[r].read(self.epoch)
    }

    /// Move the value PE `r` published this round out of its cell (after
    /// the barrier; at most one taker per cell per round).
    pub(crate) fn take(&self, r: usize) -> T {
        self.set.cells[r].take(self.epoch)
    }

    /// This PE is done reading what PE `r` published with
    /// [`Round::publish_for`]; no borrow of it may be alive.
    pub(crate) fn finish_read(&self, r: usize) {
        self.set.cells[r].finish_read(self.epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_take_roundtrip() {
        let set: Arc<CellSet<Vec<u32>>> = CellRegistry::new(2).get();
        let r0 = Round::new(Arc::clone(&set), 1, 0);
        r0.publish(vec![1, 2, 3]);
        let r1 = Round::new(set, 1, 1);
        assert_eq!(r1.take(0), vec![1, 2, 3]);
    }

    #[test]
    fn reads_are_non_destructive() {
        let set: Arc<CellSet<String>> = CellRegistry::new(1).get();
        let round = Round::new(set, 1, 0);
        round.publish(String::from("hello"));
        assert_eq!(round.read(0), "hello");
        assert_eq!(round.read(0), "hello");
    }

    #[test]
    fn lanes_alternate_and_reuse_drops_stale_values() {
        let set: Arc<CellSet<u64>> = CellRegistry::new(1).get();
        for e in 1..=6 {
            let round = Round::new(Arc::clone(&set), e, 0);
            round.publish(e * 10);
            assert_eq!(*round.read(0), e * 10);
        }
    }

    #[test]
    fn registry_returns_one_set_per_type() {
        let reg = CellRegistry::new(3);
        let a: Arc<CellSet<u32>> = reg.get();
        let b: Arc<CellSet<u32>> = reg.get();
        assert!(Arc::ptr_eq(&a, &b));
        let _c: Arc<CellSet<u64>> = reg.get(); // distinct type, no clash
    }

    #[test]
    #[should_panic(expected = "skipped a publish")]
    fn stale_epoch_read_panics() {
        let set: Arc<CellSet<u8>> = CellRegistry::new(1).get();
        let r1 = Round::new(Arc::clone(&set), 1, 0);
        r1.publish(7);
        let r2 = Round::new(set, 2, 0);
        let _ = r2.take(0); // nothing published in epoch 2
    }

    #[test]
    fn release_empties_only_the_round_it_names() {
        let set: Arc<CellSet<Vec<u8>>> = CellRegistry::new(1).get();
        Round::new(Arc::clone(&set), 1, 0).publish(vec![1]);
        let r2 = Round::new(Arc::clone(&set), 2, 0);
        r2.publish(vec![2]);
        set.release(0, 1);
        set.release(0, 2);
        // Lane 1 now carries round 3: releasing round 1 must not touch it.
        let r3 = Round::new(Arc::clone(&set), 3, 0);
        r3.publish(vec![3]);
        set.release(0, 1);
        assert_eq!(r3.read(0), &[3]);
        let empty = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r2.take(0)));
        assert!(
            empty.is_err(),
            "a released lane keeps its stamp but not its value"
        );
    }

    #[test]
    fn the_last_declared_reader_drops_the_value() {
        let set: Arc<CellSet<Vec<u8>>> = CellRegistry::new(2).get();
        let round = Round::new(Arc::clone(&set), 1, 0);
        round.publish_for(vec![7], 2);
        round.finish_read(0);
        assert_eq!(round.read(0), &[7], "one of two readers is still reading");
        round.finish_read(0);
        let gone = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| round.take(0)));
        assert!(gone.is_err(), "the second reader dropped the value");
        set.release(0, 1); // the ledger's later release finds the lane empty
    }

    /// The debug guard: a PE that enters a barrier with a cell read still
    /// alive panics there, before its publisher could empty the lane.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "held across a barrier")]
    fn a_read_held_across_a_barrier_panics() {
        let cfg = crate::MachineConfig::new(2).with_transport(crate::TransportKind::Cells);
        crate::Machine::run(cfg, |comm| {
            let round = comm.cells_round::<u64>();
            round.publish(comm.rank() as u64);
            comm.sync();
            let held = comm.read_cell(&round, 1 - comm.rank());
            comm.sync();
            *held
        });
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn double_take_panics() {
        let set: Arc<CellSet<u8>> = CellRegistry::new(1).get();
        let round = Round::new(set, 1, 0);
        round.publish(9);
        let _ = round.take(0);
        let _ = round.take(0);
    }
}
