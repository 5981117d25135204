//! What the sample sort allocates and what `rebalance` clones, counted:
//! the sample sort merges its runs where the exchange delivers them, so
//! its only slice-sized allocation is the merged output; `rebalance`
//! keeps a PE's own range in place, so a balanced sequence moves — and
//! clones — nothing.

use kamsta_comm::{Machine, MachineConfig, TransportKind, Wire, WireError, WireReader};
use kamsta_sort::{rebalance, sample_sort_by_key};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the bytes each thread allocates.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes the calling thread has allocated so far.
fn allocated() -> usize {
    ALLOCATED.with(Cell::get)
}

/// `n` locally sorted pseudo-random keys for PE `rank`.
fn sorted_input(rank: usize, n: usize, salt: u64) -> Vec<u64> {
    let mut state = salt ^ (rank as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut v: Vec<u64> = (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 24
        })
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn the_sample_sort_allocates_one_slice() {
    // Locally sorted input, so the local radix phase allocates nothing:
    // what remains is the exchange and the merge. A receive buffer the
    // runs are copied into before the merge would be a second slice, and
    // so would a merge tree's spare level.
    const PER_PE: usize = 20_000;
    for p in [2usize, 3, 5, 16] {
        let cfg = MachineConfig::new(p)
            .with_threads(1)
            .with_transport(TransportKind::Cells);
        let out = Machine::run(cfg, |comm| {
            // A first sort creates the lazily built per-type state.
            sample_sort_by_key(comm, sorted_input(comm.rank(), 64, 1), 1, |&x| x);
            let data = sorted_input(comm.rank(), PER_PE, 2);
            let before = allocated();
            let sorted = sample_sort_by_key(comm, data, 2, |&x| x);
            (sorted.len(), allocated() - before)
        });
        for (rank, &(len, bytes)) in out.results.iter().enumerate() {
            let slice = len * size_of::<u64>();
            let small = 2_048 * p;
            assert!(
                bytes <= slice + small,
                "p={p} rank={rank}: {bytes} bytes allocated, one slice is {slice} (+{small})"
            );
        }
    }
}

/// Clones of [`Tracked`] values, machine-wide.
static CLONES: AtomicUsize = AtomicUsize::new(0);

/// A non-`Copy` element that counts its clones.
#[derive(Debug, PartialEq, Eq)]
struct Tracked(u64);

impl Clone for Tracked {
    fn clone(&self) -> Self {
        CLONES.fetch_add(1, Ordering::Relaxed);
        Tracked(self.0)
    }
}

impl Wire for Tracked {
    fn wire_write(&self, out: &mut Vec<u8>) {
        self.0.wire_write(out);
    }

    fn wire_read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        u64::wire_read(r).map(Tracked)
    }

    fn wire_min_size() -> usize {
        8
    }
}

#[test]
fn rebalance_clones_only_what_changes_owner() {
    const TOTAL: u64 = 10_007;
    for p in [2usize, 3, 5, 16] {
        // Balanced already: PE i holds [i·N/p, (i+1)·N/p). Nothing moves,
        // so nothing may be cloned (copying the slice into a new buffer
        // would clone every element once).
        let block = move |i: usize| (i as u64 * TOTAL) / p as u64;
        CLONES.store(0, Ordering::Relaxed);
        let out = Machine::run(MachineConfig::new(p), move |comm| {
            let me = comm.rank();
            let data: Vec<Tracked> = (block(me)..block(me + 1)).map(Tracked).collect();
            rebalance(comm, data)
        });
        assert_eq!(CLONES.load(Ordering::Relaxed), 0, "p={p}: balanced input");
        for (i, got) in out.results.iter().enumerate() {
            assert!(
                got.iter().map(|t| t.0).eq(block(i)..block(i + 1)),
                "p={p} PE {i}"
            );
        }

        // Skewed: PE i holds the (i+1)-th share of a triangular split.
        // Only the elements that land on another PE may be cloned.
        let tri = move |i: usize| TOTAL * (i * (i + 1)) as u64 / (p * (p + 1)) as u64;
        let moved: u64 = (0..p)
            .map(|i| {
                let (lo, hi) = (tri(i), tri(i + 1));
                let kept = hi.min(block(i + 1)).saturating_sub(lo.max(block(i)));
                hi - lo - kept
            })
            .sum();
        CLONES.store(0, Ordering::Relaxed);
        let out = Machine::run(MachineConfig::new(p), move |comm| {
            let me = comm.rank();
            let data: Vec<Tracked> = (tri(me)..tri(me + 1)).map(Tracked).collect();
            rebalance(comm, data)
        });
        let clones = CLONES.load(Ordering::Relaxed) as u64;
        assert!(
            clones <= moved,
            "p={p}: {clones} clones, {moved} elements moved"
        );
        for (i, got) in out.results.iter().enumerate() {
            assert!(
                got.iter().map(|t| t.0).eq(block(i)..block(i + 1)),
                "p={p} PE {i}"
            );
        }
    }
}
