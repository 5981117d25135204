//! Two-level sample sort (AMS-style, Axtmann et al. \[46\]).
//!
//! The workhorse sorter for large inputs: data is moved a constant number
//! of times. Splitters are obtained by *regular sampling* of the locally
//! sorted data; the sample itself is sorted with the hypercube algorithm,
//! mirroring the paper's "two-level sample sort … applying the hypercube
//! algorithm to sort the samples" (Sec. VI-C). Delivery goes through the
//! sparse all-to-all, so the automatic grid indirection kicks in for small
//! per-partner volumes, making this "two-level" in the AMS sense as well.

use crate::hypercube::hypercube_quicksort;
use crate::local::{local_radix_sort, Sorted};
use crate::merge::merge_runs;
use crate::radix::RadixKey;
use kamsta_comm::{Comm, FlatBuckets, Wire};

/// Oversampling: samples taken per PE for splitter selection. Regular
/// sampling with 16 per PE bounds bucket skew well for balanced inputs.
const OVERSAMPLING: usize = 16;

/// Sort the distributed sequence; returns this PE's bucket of the globally
/// sorted result (rank-order concatenation is sorted). Collective.
///
/// The local phase is the LSD radix sort on `key_of`, which must realise
/// exactly `T`'s `Ord` — the distributed plumbing (splitters, merge)
/// still compares. The output is bucket-partitioned, not perfectly
/// balanced; callers that need balanced blocks compose with
/// [`crate::rebalance`].
pub fn sample_sort_by_key<T, K>(
    comm: &Comm,
    mut data: Vec<T>,
    seed: u64,
    key_of: impl Fn(&T) -> K + Copy + Sync,
) -> Vec<T>
where
    T: Wire + Ord + Copy + Send + Sync + 'static,
    K: RadixKey + Send,
{
    local_radix_sort(comm, &mut data, key_of);
    sort_sorted_runs(comm, data, seed)
}

/// [`sample_sort_by_key`] on a slice already sorted on every PE: the
/// local phase charges what the radix sort would charge on it
/// ([`Sorted`]) and neither scans nor moves it. Same output, messages,
/// bytes and γ. Collective.
pub fn sample_sort_sorted<T>(comm: &Comm, data: Sorted<T>, seed: u64) -> Vec<T>
where
    T: Wire + Ord + Copy + Send + Sync + 'static,
{
    data.charge(comm);
    sort_sorted_runs(comm, data.into_inner(), seed)
}

/// The distributed phase of the sample sort on a locally sorted `data`.
fn sort_sorted_runs<T>(comm: &Comm, data: Vec<T>, seed: u64) -> Vec<T>
where
    T: Wire + Ord + Copy + Send + Sync + 'static,
{
    let p = comm.size();
    if p == 1 {
        return data;
    }

    // Regular sampling of the locally sorted run.
    let s = OVERSAMPLING.min(data.len());
    let mut sample = Vec::with_capacity(s);
    for i in 0..s {
        // Evenly spaced picks, biased away from position 0.
        let idx = ((i + 1) * data.len()) / (s + 1);
        sample.push(data[idx.min(data.len() - 1)]);
    }

    // Sort the global sample with the hypercube sorter (small input).
    let my_sorted_sample = hypercube_quicksort(comm, sample, seed);

    // Select p-1 splitters at evenly spaced global sample positions.
    let counts = comm.allgather(my_sorted_sample.len() as u64);
    let total: u64 = counts.iter().sum();
    let my_offset: u64 = counts[..comm.rank()].iter().sum();
    let mut owned_splitters = Vec::new();
    if total > 0 {
        for i in 1..p as u64 {
            let pos = (i * total) / p as u64;
            if pos >= my_offset && pos < my_offset + my_sorted_sample.len() as u64 {
                owned_splitters.push(my_sorted_sample[(pos - my_offset) as usize]);
            }
        }
    }
    let splitters = comm.allgatherv(owned_splitters);

    // Bucket the locally sorted data: bucket b holds elements in
    // (splitters[b-1], splitters[b]]. The buckets are contiguous ranges
    // of the sorted run, so the flat buffer wraps the payload directly —
    // only the count array is computed, nothing is copied.
    let mut counts = vec![0usize; p];
    if splitters.is_empty() {
        counts[0] = data.len();
    } else {
        comm.charge_local((data.len() as u64) * (kamsta_comm::ceil_log2(p) as u64));
        let mut start = 0usize;
        for (b, spl) in splitters.iter().enumerate() {
            let end = start + data[start..].partition_point(|x| x <= spl);
            counts[b] = end - start;
            start = end;
        }
        counts[splitters.len()] = data.len() - start;
    }
    let bufs = FlatBuckets::from_counts(data, &counts);

    // Deliver the sorted runs and merge them where they arrive: the
    // peers' buckets, never copied into a receive buffer first.
    comm.sparse_alltoallv_with(bufs, |runs| {
        comm.charge_local(runs.iter().map(|r| r.len() as u64).sum());
        merge_runs(runs)
    })
}
