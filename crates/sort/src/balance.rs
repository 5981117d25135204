//! Order-preserving rebalancing and global sortedness checks.

use kamsta_comm::{bytes_for, Comm, FlatBuckets, Wire};

/// Redistribute a globally ordered sequence so PE `i` ends up with the
/// contiguous block `[i·N/p, (i+1)·N/p)` of global positions — the output
/// contract of the paper's `REDISTRIBUTE` (Sec. IV-C re-establishes the
/// distributed graph data structure on balanced, sorted edges).
/// Preserves global order. Collective.
///
/// Only the elements that change owner move: this PE's share of its own
/// block stays in place, what leaves is moved out (not cloned), and
/// what arrives is placed around the kept range in one `reserve_exact`.
/// The charge is the whole direct exchange's, kept range included, as
/// if every element went through it.
pub fn rebalance<T: Wire + Clone + Send + Sync + 'static>(comm: &Comm, mut data: Vec<T>) -> Vec<T> {
    let (p, me) = (comm.size(), comm.rank());
    if p == 1 {
        return data;
    }
    let n = data.len() as u64;
    let counts = comm.allgather(n);
    let total: u64 = counts.iter().sum();
    let my_offset: u64 = counts[..me].iter().sum();

    // Target block of PE i: [i·total/p, (i+1)·total/p). My elements hold
    // the contiguous global positions [my_offset, my_offset + n), so each
    // destination receives a contiguous range of my payload, starting at
    // local position `start(i)`.
    let start = |i: usize| {
        let global = (i as u64 * total) / p as u64;
        (global.clamp(my_offset, my_offset + n) - my_offset) as usize
    };
    let keep = start(me)..start(me + 1);
    let counts: Vec<usize> = (0..p)
        .map(|i| if i == me { 0 } else { start(i + 1) - start(i) })
        .collect();
    let mut leaving = Vec::with_capacity(data.len() - keep.len());
    leaving.extend(data.drain(..keep.start));
    leaving.extend(data.drain(keep.len()..));

    let out_bytes = bytes_for::<T>(n as usize);
    // Receiving in source-rank order preserves global order because source
    // ranks hold ascending global position ranges: lower ranks' runs go
    // before the kept range, higher ranks' after it.
    comm.alltoallv_runs(FlatBuckets::from_counts(leaving, &counts), |runs| {
        let arrived: usize = runs.iter().map(|r| r.len()).sum();
        let in_bytes = bytes_for::<T>(arrived + data.len());
        comm.charge_comm(p as u64, out_bytes.max(in_bytes));
        data.reserve_exact(arrived);
        // One shift of the kept range, into the capacity just reserved.
        data.splice(0..0, runs[..me].concat());
        for run in &runs[me + 1..] {
            data.extend_from_slice(run);
        }
    });
    data
}

/// Check that the distributed sequence is globally sorted (each PE locally
/// sorted, and boundaries between consecutive non-empty PEs in order).
/// Returns the same verdict on every PE. Collective.
pub fn is_globally_sorted<T: Wire + Ord + Clone + Send + Sync + 'static>(
    comm: &Comm,
    data: &[T],
) -> bool {
    let locally_sorted = data.windows(2).all(|w| w[0] <= w[1]);
    let boundary: Option<(T, T)> = match (data.first(), data.last()) {
        (Some(f), Some(l)) => Some((f.clone(), l.clone())),
        _ => None,
    };
    let bounds = comm.allgather(boundary);
    let all_local = comm.allreduce(locally_sorted, |a, b| *a && *b);
    if !all_local {
        return false;
    }
    let mut prev_last: Option<&T> = None;
    for (first, last) in bounds.iter().flatten() {
        if let Some(pl) = prev_last {
            if pl > first {
                return false;
            }
        }
        prev_last = Some(last);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamsta_comm::{Machine, MachineConfig};

    #[test]
    fn rebalance_evens_out_skewed_distribution() {
        let p = 5;
        let out = Machine::run(MachineConfig::new(p), move |comm| {
            // All data starts on PE 0, globally ordered.
            let data: Vec<u64> = if comm.rank() == 0 {
                (0..103).collect()
            } else {
                vec![]
            };
            rebalance(comm, data)
        });
        let mut flat = Vec::new();
        for (i, chunk) in out.results.iter().enumerate() {
            let lo = (i as u64 * 103) / 5;
            let hi = ((i as u64 + 1) * 103) / 5;
            assert_eq!(chunk.len() as u64, hi - lo, "PE {i} block size");
            flat.extend_from_slice(chunk);
        }
        assert_eq!(flat, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn rebalance_preserves_order_from_mixed_sources() {
        let p = 4;
        let out = Machine::run(MachineConfig::new(p), move |comm| {
            let r = comm.rank() as u64;
            // PE r holds [100r, 100r + 10r) — increasing sizes.
            let data: Vec<u64> = (0..10 * r).map(|k| 100 * r + k).collect();
            rebalance(comm, data)
        });
        let flat: Vec<u64> = out.results.into_iter().flatten().collect();
        let mut expected = Vec::new();
        for r in 0u64..4 {
            expected.extend((0..10 * r).map(|k| 100 * r + k));
        }
        assert_eq!(flat, expected);
    }

    #[test]
    fn sortedness_checker_accepts_and_rejects() {
        let out = Machine::run(MachineConfig::new(3), |comm| {
            let r = comm.rank() as u64;
            let good: Vec<u64> = (10 * r..10 * r + 5).collect();
            let ok = is_globally_sorted(comm, &good);
            // Equal boundary values across PEs still count as sorted.
            let flat = vec![2u64, 2, 2];
            let ok_flat = is_globally_sorted(comm, &flat);
            // Globally decreasing blocks must be rejected.
            let bad: Vec<u64> = (100 - 10 * r..105 - 10 * r).collect();
            let not_ok = is_globally_sorted(comm, &bad);
            (ok, ok_flat, not_ok)
        });
        for (ok, ok_flat, not_ok) in out.results {
            assert!(ok);
            assert!(ok_flat);
            assert!(!not_ok);
        }
    }

    #[test]
    fn empty_pes_are_tolerated() {
        let out = Machine::run(MachineConfig::new(4), |comm| {
            let data: Vec<u32> = if comm.rank() == 2 { vec![5, 6] } else { vec![] };
            is_globally_sorted(comm, &data)
        });
        assert!(out.results.into_iter().all(|b| b));
    }
}
