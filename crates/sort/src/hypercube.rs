//! Distributed hypercube quicksort (Axtmann & Sanders \[10\], simplified).
//!
//! The data is repeatedly split around a pivot along the dimensions of a
//! hypercube: after processing dimension `d`, every element in the lower
//! half-cube is ≤ every element in the upper half-cube. After `log p`
//! rounds each PE locally sorts its remaining elements, and the
//! rank-order concatenation is globally sorted. Data moves `log p` times —
//! exactly the regime the paper reserves for *small* inputs (≤ 512
//! elements per PE on average, Sec. VI-C), where startups dominate.
//!
//! Every data movement is a partner exchange along one dimension, all on
//! the communicator the sort is handed. So is the pivot agreement: each
//! subcube gathers its members' samples by recursive doubling, one
//! exchange per subcube dimension, and charges exactly what an
//! allgather over the subcube would.
//!
//! Non-power-of-two communicators fold the surplus ranks' data into the
//! largest power-of-two prefix first; surplus ranks then idle through the
//! exchange rounds and finish empty, which is harmless for the
//! splitter-sorting use case and still globally sorted.

use crate::local::local_sort;
use kamsta_comm::{bytes_for, Comm, Wire};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Deterministic per-(seed, level, rank) RNG stream.
fn rng_for(seed: u64, level: u32, rank: usize) -> SmallRng {
    let mix = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((level as u64) << 32)
        .wrapping_add(rank as u64);
    SmallRng::seed_from_u64(mix)
}

/// Median of a small sample (consumes and sorts it).
fn median<T: Ord>(mut sample: Vec<T>) -> Option<T> {
    if sample.is_empty() {
        return None;
    }
    let mid = sample.len() / 2;
    sample.sort_unstable();
    Some(sample.swap_remove(mid))
}

/// Sort the distributed sequence; returns this PE's chunk of the globally
/// sorted result (rank-order concatenation is sorted). Collective.
pub fn hypercube_quicksort<T>(comm: &Comm, data: Vec<T>, seed: u64) -> Vec<T>
where
    T: Wire + Ord + Clone + Send + Sync + 'static,
{
    let p = comm.size();
    if p == 1 {
        let mut data = data;
        local_sort(comm, &mut data);
        return data;
    }
    let q = kamsta_comm::floor_pow2(p);
    let mut data = if q == p {
        data
    } else {
        // Fold surplus ranks q..p into ranks 0..(p-q).
        fold_in_surplus(comm, data, q)
    };
    if comm.rank() < q {
        data = hypercube_phase(comm, data, q, seed);
    } else {
        // Surplus ranks hold nothing; they only keep the exchange rounds
        // in step (every PE calls every collective): per level, the
        // level + 1 rounds of the pivot gather, then the data round.
        for level in 0..kamsta_comm::ceil_log2(q) {
            for _ in 0..=level {
                comm.exchange::<Vec<T>>(None, None);
            }
            comm.exchange::<Vec<T>>(None, None);
        }
    }
    local_sort(comm, &mut data);
    comm.barrier();
    data
}

/// Ship data of ranks `>= q` to rank `r - q`; returns the (possibly
/// grown) local data. Collective over `comm`.
fn fold_in_surplus<T: Wire + Ord + Send + 'static>(comm: &Comm, data: Vec<T>, q: usize) -> Vec<T> {
    let me = comm.rank();
    let extras = comm.size() - q;
    if me >= q {
        let n = data.len();
        comm.exchange(Some((me - q, data)), None::<usize>);
        comm.charge_comm(0, bytes_for::<T>(n));
        Vec::new()
    } else if me < extras {
        let mut data = data;
        let incoming = comm
            .exchange::<Vec<T>>(None, Some(me + q))
            .expect("surplus partner must send");
        comm.charge_comm(0, bytes_for::<T>(incoming.len()));
        data.extend(incoming);
        data
    } else {
        // Idle PEs still advance the same typed exchange round as the
        // fold participants (`V = Vec<T>`).
        comm.exchange::<Vec<T>>(None, None);
        data
    }
}

/// The quicksort rounds on ranks `0..q` of `comm` (`q` a power of two).
fn hypercube_phase<T>(comm: &Comm, mut data: Vec<T>, q: usize, seed: u64) -> Vec<T>
where
    T: Wire + Ord + Clone + Send + Sync + 'static,
{
    debug_assert!(q.is_power_of_two());
    let me = comm.rank();
    for level in (0..kamsta_comm::ceil_log2(q)).rev() {
        // The 2^(level+1) ranks of this subcube agree on a pivot: gather
        // their samples by recursive doubling, lower block first, so the
        // vector comes out in rank order.
        let mut rng = rng_for(seed, level, me);
        let mut gathered = Vec::with_capacity(3);
        for _ in 0..3.min(data.len()) {
            gathered.push(data[rng.gen_range(0..data.len())].clone());
        }
        for k in 0..=level {
            let partner = me ^ (1 << k);
            let theirs = comm
                .exchange(Some((partner, gathered.clone())), Some(partner))
                .expect("subcube partner always sends");
            gathered = if me < partner {
                [gathered, theirs].concat()
            } else {
                [theirs, gathered].concat()
            };
        }
        comm.charge_comm(0, bytes_for::<T>(gathered.len()));
        let pivot = median(gathered);

        let (low, high): (Vec<T>, Vec<T>) = match &pivot {
            Some(pv) => {
                comm.charge_local(data.len() as u64);
                data.drain(..).partition(|x| *x <= *pv)
            }
            None => (Vec::new(), Vec::new()),
        };

        let partner = me ^ (1 << level);
        let lower_half = me & (1 << level) == 0;
        let (keep, send) = if lower_half { (low, high) } else { (high, low) };
        let sent_bytes = bytes_for::<T>(send.len());
        let received = comm
            .exchange(Some((partner, send)), Some(partner))
            .expect("hypercube partner always sends");
        comm.charge_comm(0, sent_bytes.max(bytes_for::<T>(received.len())));
        data = keep;
        data.extend(received);
    }
    data
}
