//! Local sorting kernels with hybrid (rayon) parallelism.

use crate::radix::{
    par_radix_order_by_key, par_radix_sort_by_key, sorted_outcome, RadixKey, SortOutcome,
    TooLongForRadix,
};
use kamsta_comm::Comm;
use rayon::prelude::*;

/// Sort a local slice, charging `γ·n·log n` local work. Uses the rayon
/// parallel sort when the PE runs with more than one hybrid thread
/// (the paper's OpenMP threads, Sec. VI).
pub fn local_sort<T: Ord + Send>(comm: &Comm, data: &mut [T]) {
    let n = data.len();
    if n > 1 {
        let logn = kamsta_comm::ceil_log2(n) as u64;
        comm.charge_local(n as u64 * logn.max(1));
    }
    // The pool's parallel merge sort pays an extra merge copy per
    // level; below ~2^15 elements the plain pdqsort wins even with
    // real cores behind the pool.
    if comm.threads_per_pe() > 1 && n > 32_768 {
        data.par_sort_unstable();
    } else {
        data.sort_unstable();
    }
}

/// γ for a radix-engine call on `n` elements by what actually ran: `n`
/// for an already-sorted scan, `n·passes` for the counting-sort passes,
/// `n·log n` for the comparison fallback (as [`local_sort`] charges);
/// nothing below two elements.
fn outcome_ops(n: usize, outcome: SortOutcome) -> u64 {
    if n < 2 {
        return 0;
    }
    let logn = kamsta_comm::ceil_log2(n).max(1) as u64;
    let levels = match outcome {
        SortOutcome::AlreadySorted => 1,
        SortOutcome::Radix(passes) => (passes as u64).clamp(1, logn),
        SortOutcome::Comparison => logn,
    };
    n as u64 * levels
}

/// Charge [`outcome_ops`] for a radix-engine call on `n` elements.
fn charge_outcome(comm: &Comm, n: usize, outcome: SortOutcome) {
    let ops = outcome_ops(n, outcome);
    if ops > 0 {
        comm.charge_local(ops);
    }
}

/// Sort a local slice by a packed radix key, charging γ by what
/// actually ran ([`SortOutcome`]). Hybrid PEs run the width-parallel
/// radix sorter ([`par_radix_sort_by_key`]), which takes the *same*
/// path decisions and produces the *same* permutation as the
/// sequential sorter — so both the output and the modeled charge are
/// independent of `threads_per_pe`. (An earlier revision abandoned
/// radix entirely at t > 1 and flat-charged `n·log n`, which made the
/// `-8` variants' charges — and, for key orders differing from
/// `T: Ord`, their output — diverge from t = 1.)
pub fn local_radix_sort<T: Copy + Ord + Send + Sync, K: RadixKey + Send>(
    comm: &Comm,
    data: &mut [T],
    key_of: impl Fn(&T) -> K + Sync,
) {
    let outcome = par_radix_sort_by_key(data, key_of);
    charge_outcome(comm, data.len(), outcome);
}

/// A PE's slice that its producer knows to be sorted under `T`'s `Ord`
/// — the witness that lets [`crate::sort_auto_sorted`] and
/// [`crate::sample_sort_sorted`] skip the sortedness scan
/// [`local_radix_sort`] would make of it. Debug builds check the claim.
#[derive(Clone, Debug)]
pub struct Sorted<T>(Vec<T>);

impl<T: Ord> Sorted<T> {
    /// Take `data` as sorted, on its producer's word.
    pub fn assume(data: Vec<T>) -> Self {
        debug_assert!(data.is_sorted(), "Sorted::assume on unsorted data");
        Sorted(data)
    }
}

impl<T> std::ops::Deref for Sorted<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<T> Sorted<T> {
    /// The sorted slice.
    pub fn into_inner(self) -> Vec<T> {
        self.0
    }

    /// Charge γ exactly as [`local_radix_sort`] charges on this sorted
    /// slice, where its plan needs no scan to know the outcome: nothing
    /// below two elements, the comparison path's `n·⌈log2 n⌉` up to the
    /// small-sort cutoff (96), one scan's `n` above it.
    pub(crate) fn charge(&self, comm: &Comm) {
        charge_outcome(comm, self.len(), sorted_outcome(self.len()));
    }
}

/// The order [`local_radix_sort`] would apply to the elements `key_of`
/// keeps, without moving anything (see
/// [`radix_order_by_key`](crate::radix_order_by_key)); γ is charged the
/// same way, on the number of kept elements, and order and charge are
/// independent of `threads_per_pe` for the same reason.
pub fn local_radix_order<T: Sync, K: RadixKey + Send + Sync>(
    comm: &Comm,
    data: &[T],
    key_of: impl Fn(&T) -> Option<K> + Sync,
) -> Result<Vec<u32>, TooLongForRadix> {
    let (order, outcome) = par_radix_order_by_key(data, key_of)?;
    charge_outcome(comm, order.len(), outcome);
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix::{radix_sort_keys, KeyFold};
    use kamsta_comm::{Machine, MachineConfig};

    #[test]
    fn sorts_and_charges() {
        let out = Machine::run(MachineConfig::new(2), |comm| {
            let mut v = vec![5u32, 3, 9, 1, 1, 0];
            local_sort(comm, &mut v);
            (v, comm.stats().local_ops)
        });
        for (v, ops) in out.results {
            assert_eq!(v, vec![0, 1, 1, 3, 5, 9]);
            assert!(ops > 0);
        }
    }

    #[test]
    fn radix_charges_and_output_are_thread_invariant() {
        // The modeled charge keys on the SortOutcome, which must not
        // depend on threads_per_pe — t=1 and t=4 must agree bit for bit
        // on both the permutation and local_ops.
        let run = |threads: usize| {
            Machine::run(MachineConfig::new(1).with_threads(threads), |comm| {
                let mut v: Vec<(u32, u32)> = (0..100_000u64)
                    .map(|i| (((i * 2_654_435_761) % 512) as u32, i as u32))
                    .collect();
                local_radix_sort(comm, &mut v, |&(k, _)| k);
                (v, comm.stats().local_ops)
            })
        };
        let (seq, seq_ops) = run(1).results.remove(0);
        for t in [2usize, 4] {
            let (par, par_ops) = run(t).results.remove(0);
            assert_eq!(par, seq, "t={t} permutation");
            assert_eq!(par_ops, seq_ops, "t={t} charge");
        }
    }

    #[test]
    fn order_charges_what_the_sort_charges() {
        // Every plan: nothing, one element, the small-slice cutoff (96)
        // and past it, sorted, radix and comparison keys, on both sides
        // of the parallel cutoff. With every element kept the order
        // charges what sorting the keys charges; with elements dropped in
        // between it still charges the same at every t.
        let shapes: Vec<Vec<u64>> = vec![
            vec![],
            vec![7],
            (0..96).rev().collect(),
            (0..97).collect(),
            (0..97).rev().collect(),
            (0..70_000u64).map(|i| i * 2_654_435_761 % 4_096).collect(),
            (0..70_000u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
        ];
        type Keep = fn(&u64) -> Option<u64>;
        let keeps: [Keep; 2] = [|&x| Some(x), |&x| (x % 3 != 1).then_some(x)];
        for data in &shapes {
            for (dropping, keep) in keeps.into_iter().enumerate() {
                let charges = |t: usize| {
                    let out = Machine::run(MachineConfig::new(1).with_threads(t), |comm| {
                        local_radix_order(comm, data, keep).unwrap();
                        let order = comm.stats().local_ops;
                        local_radix_sort(comm, &mut data.clone(), |&k| k);
                        (order, comm.stats().local_ops - order)
                    });
                    out.results[0]
                };
                let (order, sort) = charges(1);
                if dropping == 0 {
                    assert_eq!(order, sort, "{} keys", data.len());
                }
                for t in [2usize, 8] {
                    assert_eq!(charges(t), (order, sort), "{} keys, t={t}", data.len());
                }
            }
        }
    }

    #[test]
    fn joined_segment_folds_equal_the_scan() {
        // Every plan, on keys in runs of equal values, cut at random
        // points — some inside a run, some twice at one point (an empty
        // segment) — and joined in segment order.
        let mix = kamsta_comm::fault::splitmix64;
        let shapes: Vec<(&str, Vec<u64>, SortOutcome)> = vec![
            (
                "sorted",
                (0..5_000).map(|i| i / 7).collect(),
                SortOutcome::AlreadySorted,
            ),
            (
                "compare, past the small-slice cutoff",
                (0..5_000u64).map(|i| mix(i / 3)).collect(),
                SortOutcome::Comparison,
            ),
            (
                "compare, below it",
                (0..60u64).map(|i| (i / 4) % 5).collect(),
                SortOutcome::Comparison,
            ),
            (
                "radix",
                (0..5_000u64).map(|i| mix(i / 5) % 256).collect(),
                SortOutcome::Radix(1),
            ),
        ];
        for (what, keys, plan) in &shapes {
            let scan = KeyFold::of(keys.iter().copied());
            assert_eq!(
                radix_sort_keys(&mut keys.clone()),
                *plan,
                "{what}: the plan"
            );
            let inside_runs: Vec<usize> = (1..keys.len())
                .filter(|&i| keys[i - 1] == keys[i])
                .collect();
            for trial in 0..24u64 {
                let seed = mix(trial ^ keys.len() as u64);
                let mut cuts: Vec<usize> = (0..1 + seed % 9)
                    .map(|k| mix(seed ^ k) as usize % (keys.len() + 1))
                    .collect();
                cuts.push(inside_runs[seed as usize % inside_runs.len()]);
                cuts.push(cuts[0]);
                cuts.extend([0, keys.len()]);
                cuts.sort_unstable();
                let joined = cuts
                    .windows(2)
                    .filter_map(|w| KeyFold::of(keys[w[0]..w[1]].iter().copied()))
                    .reduce(KeyFold::join);
                assert_eq!(joined, scan, "{what}: cuts {cuts:?}");
            }
        }
    }

    #[test]
    fn parallel_path_sorts_large_input() {
        let out = Machine::run(MachineConfig::new(1).with_threads(4), |comm| {
            let mut v: Vec<u64> = (0..50_000).map(|i| (i * 2_654_435_761) % 65_536).collect();
            local_sort(comm, &mut v);
            v.windows(2).all(|w| w[0] <= w[1])
        });
        assert!(out.results[0]);
    }
}
