//! # kamsta-sort — distributed sorting over `kamsta-comm`
//!
//! The paper's MST algorithms lean on distributed sorting to rebuild the
//! lexicographically sorted distributed edge list after every contraction
//! round (`REDISTRIBUTE`, Sec. IV-C) and to lay out inputs that arrive
//! unsorted (RMAT's generator).
//! Filter-Borůvka's pivot samples (Sec. V) are small enough to allgather
//! and sort locally, so they never reach this crate's distributed
//! sorters. Following Sec. II-A / VI-C:
//!
//! * [`hypercube_quicksort`] moves the data a logarithmic number of times —
//!   right for small inputs on many PEs (the paper uses it when the average
//!   number of elements per PE is ≤ 512). It runs on the communicator it
//!   is handed: data moves by partner exchange along one dimension per
//!   level, and each subcube gathers its pivot sample by recursive
//!   doubling;
//! * [`sample_sort_by_key`] is a two-level AMS-style sample sort that moves
//!   data a constant number of times — right for large inputs. Its local
//!   phase is the LSD radix sort on a packed key ([`local_radix_sort`]);
//!   its splitter sample is itself sorted with the hypercube algorithm, as
//!   in the paper;
//! * [`sort_auto_by_key`] applies the paper's selection rule;
//!   [`sort_auto_sorted`] / [`sample_sort_sorted`] take input that its
//!   producer already sorted ([`Sorted`]) and skip the local phase's
//!   sortedness scan at equal charges;
//! * [`rebalance`] restores perfectly balanced block distribution while
//!   preserving global order — the output contract of `REDISTRIBUTE`.
//!
//! All sorts are deterministic: the same input distribution and seed
//! produce the same output on every run, which the test suite exploits.

mod balance;
mod hypercube;
mod local;
mod merge;
mod radix;
mod sample;

pub use balance::{is_globally_sorted, rebalance};
pub use hypercube::hypercube_quicksort;
pub use local::{local_radix_order, local_radix_sort, local_sort, Sorted};
pub use merge::merge_runs;
pub use radix::{
    par_radix_sort_by_key, radix_order_by_key, radix_sort_by_key, radix_sort_keys, RadixKey,
    SortOutcome, TooLongForRadix,
};
pub use sample::{sample_sort_by_key, sample_sort_sorted};

use kamsta_comm::{Comm, Wire};

/// Average elements per PE below which the hypercube sorter wins
/// (Sec. VI-C: "we use distributed hypercube quicksort if the average
/// number of elements to sort per PE is below 512").
pub const HYPERCUBE_THRESHOLD: u64 = 512;

/// The paper's sorter selection rule (Sec. VI-C): hypercube quicksort for
/// small inputs, two-level sample sort for large ones. `key_of` must
/// realise exactly `T`'s `Ord`; it drives the sample sort's local radix
/// phase, while the hypercube path (small inputs, where startups dominate
/// and local sorting is negligible) stays comparison-based. Collective.
pub fn sort_auto_by_key<T, K>(
    comm: &Comm,
    data: Vec<T>,
    seed: u64,
    key_of: impl Fn(&T) -> K + Copy + Sync,
) -> Vec<T>
where
    T: Wire + Ord + Copy + Send + Sync + 'static,
    K: RadixKey + Send,
{
    if hypercube_fits(comm, data.len()) {
        hypercube_quicksort(comm, data, seed)
    } else {
        sample_sort_by_key(comm, data, seed, key_of)
    }
}

/// [`sort_auto_by_key`] on a slice already sorted on every PE (the
/// [`Sorted`] witness): the same choice, output and charges, without the
/// sample sort's sortedness scan. Collective.
pub fn sort_auto_sorted<T>(comm: &Comm, data: Sorted<T>, seed: u64) -> Vec<T>
where
    T: Wire + Ord + Copy + Send + Sync + 'static,
{
    if hypercube_fits(comm, data.len()) {
        hypercube_quicksort(comm, data.into_inner(), seed)
    } else {
        sample_sort_sorted(comm, data, seed)
    }
}

/// Whether the average input per PE is small enough for the hypercube
/// sorter ([`HYPERCUBE_THRESHOLD`]). Collective.
fn hypercube_fits(comm: &Comm, len: usize) -> bool {
    comm.allreduce_sum(len as u64) / comm.size() as u64 <= HYPERCUBE_THRESHOLD
}
