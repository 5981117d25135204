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
//! A value is published for its consumers and the last one drops it.
//! The publisher names how many PEs consume the value
//! ([`Round::publish`]): all `p` for a broadcast, an allgather or a flat
//! exchange's whole [`crate::FlatBuckets`], one for a value addressed to
//! one PE, and the declared receivers of a paired round. A consumer
//! either moves the value out ([`Round::take`], a round's one consumer)
//! or reads it inside [`crate::Comm::read_cells`], which finishes its
//! read when the borrows end ([`Round::finish_read`]). The last consumer
//! to finish drops the value — a payload lives through its own round's
//! reading and no longer, whatever rounds follow it.
//!
//! Why this is safe: reads are scoped, so a consumer finishes before it
//! reaches its next barrier, and the owner reuses the lane only after
//! that barrier (the argument above). A lane that still owes consumers
//! when its owner publishes into it again therefore had a consumer that
//! never finished, a protocol violation: the publish panics and names
//! the epoch, in every build. The count must also not be short: a reader
//! the publisher did not count could drop the value under a counted
//! one's borrow. Callers derive it from the same recipient set the byte
//! lane delivers to, so the two backends agree on who reads.

use parking_lot::Mutex;
use std::any::{Any, TypeId};
use std::cell::UnsafeCell;
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
    /// Consumers still to finish with the lane's value.
    consumers: [AtomicUsize; 2],
}

// Safety: lane access is serialised by the single-superstep protocol
// (writes before a barrier, reads after it, drop by the last consumer
// before its next barrier, reuse two rounds later) — see the module
// docs. `T: Send` suffices for the cell to be shared: values only
// *move* across threads through `publish`/`take`/`finish_read`; methods
// that hand out `&T` across threads additionally require `T: Sync`.
unsafe impl<T: Send> Sync for ExchangeCell<T> {}

impl<T> ExchangeCell<T> {
    fn new() -> Self {
        Self {
            stamps: [AtomicU64::new(0), AtomicU64::new(0)],
            values: [UnsafeCell::new(None), UnsafeCell::new(None)],
            consumers: [AtomicUsize::new(0), AtomicUsize::new(0)],
        }
    }

    /// Publish `value` for round `e` and its `consumers` (called by the
    /// owning PE only, before the round's barrier). With no consumer the
    /// value is dropped at once.
    fn publish(&self, e: u64, value: T, consumers: usize) {
        let lane = (e & 1) as usize;
        let owed = self.consumers[lane].load(Ordering::Acquire);
        assert!(
            owed == 0,
            "exchange-cell publish of epoch {e} found {owed} consumers of epoch {} \
             unfinished: a PE never read or took a value addressed to it",
            self.stamps[lane].load(Ordering::Relaxed)
        );
        // Safety: every consumer of this lane's last round finished
        // (checked above) and dropped its borrows; the owning PE is the
        // only writer.
        unsafe {
            *self.values[lane].get() = (consumers > 0).then_some(value);
        }
        self.consumers[lane].store(consumers, Ordering::Relaxed);
        self.stamps[lane].store(e, Ordering::Release);
    }

    /// One consumer of round `e` is done with the value; the last one
    /// drops it.
    fn finish_read(&self, e: u64) {
        let lane = (e & 1) as usize;
        let left = self.consumers[lane].fetch_sub(1, Ordering::AcqRel);
        // A miscount could free a value another consumer still borrows.
        assert!(left > 0, "more reads finished than the publisher declared");
        if left == 1 {
            // Safety: every other consumer finished before its decrement
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
    /// barrier; the reference must be dropped before this consumer's
    /// [`ExchangeCell::finish_read`].
    fn read(&self, e: u64) -> &T
    where
        T: Sync,
    {
        let lane = self.check_stamp(e, "read");
        // Safety: stamp == e proves the publish of round e is visible
        // (Acquire pairs with the publisher's Release), and the value
        // stays until this consumer finishes.
        unsafe { (*self.values[lane].get()).as_ref() }
            .expect("exchange cell empty despite matching stamp")
    }

    /// Move the value published for round `e` out of the cell: the
    /// round's one consumer.
    fn take(&self, e: u64) -> T {
        let lane = self.check_stamp(e, "take");
        let owed = self.consumers[lane].swap(0, Ordering::Acquire);
        assert!(owed != 0, "exchange cell taken twice in epoch {e}");
        assert!(
            owed == 1,
            "exchange cell of epoch {e} has {owed} consumers, not one taker"
        );
        // Safety: as in `read`, plus take-exclusivity: the lane's one
        // consumer is the only PE that touches the Option.
        unsafe { (*self.values[lane].get()).take() }
            .expect("exchange cell empty despite an unfinished consumer")
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

    /// Publish this PE's value for the round (before the barrier), for
    /// `consumers` PEs that each take it or read it and then call
    /// [`Round::finish_read`]: the last of them drops the value.
    pub(crate) fn publish(&self, value: T, consumers: usize) {
        self.set.cells[self.rank].publish(self.epoch, value, consumers);
    }

    /// Borrow the value PE `r` published this round (after the barrier);
    /// [`crate::Comm::read_cells`] scopes the borrow.
    fn read(&self, r: usize) -> &T
    where
        T: Sync,
    {
        self.set.cells[r].read(self.epoch)
    }

    /// Move the value PE `r` published this round out of its cell (after
    /// the barrier; the value's one consumer).
    pub(crate) fn take(&self, r: usize) -> T {
        self.set.cells[r].take(self.epoch)
    }

    /// This PE is done reading what PE `r` published; no borrow of it
    /// may be alive.
    fn finish_read(&self, r: usize) {
        self.set.cells[r].finish_read(self.epoch);
    }
}

impl crate::Comm {
    /// Hand `f` what each PE of `srcs` published in `round`, in `srcs`
    /// order, then finish this PE's read of each: the last consumer of a
    /// value drops it. It is the only way to borrow a cell value outside
    /// this module, so no borrow outlives `f` and every consumer finishes
    /// before its next barrier.
    pub(crate) fn read_cells<T: Send + Sync + 'static, R>(
        &self,
        round: &Round<T>,
        srcs: impl IntoIterator<Item = usize> + Clone,
        f: impl FnOnce(&[&T]) -> R,
    ) -> R {
        let values: Vec<&T> = srcs
            .clone()
            .into_iter()
            .map(|src| round.read(src))
            .collect();
        let out = f(&values);
        srcs.into_iter().for_each(|src| round.finish_read(src));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_take_roundtrip() {
        let set: Arc<CellSet<Vec<u32>>> = CellRegistry::new(2).get();
        let r0 = Round::new(Arc::clone(&set), 1, 0);
        r0.publish(vec![1, 2, 3], 1);
        let r1 = Round::new(set, 1, 1);
        assert_eq!(r1.take(0), vec![1, 2, 3]);
    }

    #[test]
    fn reads_are_non_destructive() {
        let set: Arc<CellSet<String>> = CellRegistry::new(1).get();
        let round = Round::new(set, 1, 0);
        round.publish(String::from("hello"), 1);
        assert_eq!(round.read(0), "hello");
        assert_eq!(round.read(0), "hello");
    }

    #[test]
    fn lanes_alternate_and_reuse_drops_stale_values() {
        let set: Arc<CellSet<u64>> = CellRegistry::new(1).get();
        for e in 1..=6 {
            let round = Round::new(Arc::clone(&set), e, 0);
            round.publish(e * 10, 1);
            assert_eq!(*round.read(0), e * 10);
            round.finish_read(0);
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
        r1.publish(7, 1);
        let r2 = Round::new(set, 2, 0);
        let _ = r2.take(0); // nothing published in epoch 2
    }

    #[test]
    fn the_last_declared_reader_drops_the_value() {
        let set: Arc<CellSet<Vec<u8>>> = CellRegistry::new(2).get();
        let round = Round::new(Arc::clone(&set), 1, 0);
        round.publish(vec![7], 2);
        round.finish_read(0);
        assert_eq!(round.read(0), &[7], "one of two readers is still reading");
        round.finish_read(0);
        let gone = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| round.take(0)));
        assert!(gone.is_err(), "the second reader dropped the value");
    }

    /// The lifetime rule's check: a lane whose consumer never finished
    /// still owes it when its owner publishes into the lane again, two
    /// rounds later, and that publish panics.
    #[test]
    #[should_panic(expected = "publish of epoch 3 found 1 consumers of epoch 1 unfinished")]
    fn reuse_with_an_unfinished_consumer_panics() {
        let set: Arc<CellSet<Vec<u8>>> = CellRegistry::new(2).get();
        Round::new(Arc::clone(&set), 1, 0).publish(vec![1], 1);
        let r2 = Round::new(Arc::clone(&set), 2, 0);
        r2.publish(vec![2], 1);
        assert_eq!(r2.take(0), [2]);
        Round::new(set, 3, 0).publish(vec![3], 1);
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn double_take_panics() {
        let set: Arc<CellSet<u8>> = CellRegistry::new(1).get();
        let round = Round::new(set, 1, 0);
        round.publish(9, 1);
        let _ = round.take(0);
        let _ = round.take(0);
    }
}
